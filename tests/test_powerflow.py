import dataclasses
import hashlib
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridduel import powerflow
from gridduel.grid import (Bus, Generator, GridModel, Line, Load, Transformer, arl_poc_grid, build_admittance_matrix,
                           scheduled_injections_pu)
from gridduel.powerflow import (
    compute_jacobian,
    compute_mismatch,
    solve_newton_raphson,
)

from .conftest import TWO_BUS_THETA2, TWO_BUS_V2, pv_grid, two_bus_grid, zero_load_grid


def mismatch_oracle(grid, v, theta):
    """Independent dense recomputation of the residual from the textbook sums."""
    y = build_admittance_matrix(grid)
    g, b = y.real, y.imag
    p_s, q_s = scheduled_injections_pu(grid)
    n = grid.n_bus
    p_calc = np.zeros(n)
    q_calc = np.zeros(n)
    for i in range(n):
        for j in range(n):
            dt = theta[i] - theta[j]
            p_calc[i] += v[i] * v[j] * (g[i, j] * np.cos(dt) + b[i, j] * np.sin(dt))
            q_calc[i] += v[i] * v[j] * (g[i, j] * np.sin(dt) - b[i, j] * np.cos(dt))
    non_slack = [bus.id for bus in grid.buses if bus.kind != "slack"]
    pq = [bus.id for bus in grid.buses if bus.kind == "pq"]
    return np.concatenate([(p_s - p_calc)[non_slack], (q_s - q_calc)[pq]])


def total_branch_loss_pu(grid, v_pu, theta_rad):
    """I^2 R losses summed over all branches, in per-unit."""
    vc = np.asarray(v_pu, float) * np.exp(1j * np.asarray(theta_rad, float))
    loss = 0.0
    for ln in grid.lines:
        ys = 1.0 / complex(ln.r_pu, ln.x_pu)
        i_series = (vc[ln.from_bus] - vc[ln.to_bus]) * ys
        loss += (abs(i_series) ** 2) * ln.r_pu
    for tr in grid.transformers:
        ys = 1.0 / complex(tr.r_pu, tr.x_pu)
        i_series = (vc[tr.from_bus] / tr.ratio - vc[tr.to_bus]) * ys
        loss += (abs(i_series) ** 2) * tr.r_pu
    return loss


def fd_jacobian(grid, v, theta, h=1e-6):
    non_slack = [b.id for b in grid.buses if b.kind != "slack"]
    pq = [b.id for b in grid.buses if b.kind == "pq"]
    cols = []
    for k in range(len(non_slack) + len(pq)):
        vp, tp = v.copy(), theta.copy()
        vm, tm = v.copy(), theta.copy()
        if k < len(non_slack):
            tp[non_slack[k]] += h
            tm[non_slack[k]] -= h
        else:
            vp[pq[k - len(non_slack)]] += h
            vm[pq[k - len(non_slack)]] -= h
        cols.append((compute_mismatch(grid, vp, tp) - compute_mismatch(grid, vm, tm)) / (2 * h))
    return np.stack(cols, axis=1)


def reference_admittance(grid):
    """The admittance matrix as in-place adds on a numpy matrix, the assembly before Python lists."""
    n = grid.n_bus
    y = np.zeros((n, n), dtype=complex)
    for ln in grid.lines:
        ys = 1.0 / complex(ln.r_pu, ln.x_pu)
        f, t = ln.from_bus, ln.to_bus
        y[f, f] += ys + 0.5j * ln.b_shunt_pu
        y[t, t] += ys + 0.5j * ln.b_shunt_pu
        y[f, t] -= ys
        y[t, f] -= ys
    for tr in grid.transformers:
        ys = 1.0 / complex(tr.r_pu, tr.x_pu)
        a = tr.ratio
        f, t = tr.from_bus, tr.to_bus
        y[f, f] += ys / (a * a)
        y[t, t] += ys
        y[f, t] -= ys / a
        y[t, f] -= ys / a
    return y


def reference_injections(grid):
    """Scheduled P and Q as in-place adds on numpy vectors, the assembly before Python lists."""
    p = np.zeros(grid.n_bus)
    q = np.zeros(grid.n_bus)
    for g in grid.generators:
        p[g.bus] += g.p_mw
        q[g.bus] += g.q_mvar
    for ld in grid.loads:
        p[ld.bus] -= ld.p_mw * ld.scaling
        q[ld.bus] -= ld.q_mvar * ld.scaling
    return p / grid.s_base_mva, q / grid.s_base_mva


def reference_mismatch(grid, v, theta):
    """The residual as the solver assembled it before one evaluation served all uses."""
    ybus = build_admittance_matrix(grid)
    p_sched, q_sched = scheduled_injections_pu(grid)
    non_slack = np.array([b.id for b in grid.buses if b.kind != "slack"], dtype=int)
    pq = np.array([b.id for b in grid.buses if b.kind == "pq"], dtype=int)
    vc = v * np.exp(1j * theta)
    s_calc = vc * np.conj(ybus @ vc)
    return np.concatenate([(p_sched - s_calc.real)[non_slack], (q_sched - s_calc.imag)[pq]])


def reference_jacobian(grid, v, theta):
    """The Jacobian with the np.ix_/np.block assembly the solver used before slicing."""
    ybus = build_admittance_matrix(grid)
    non_slack = np.array([b.id for b in grid.buses if b.kind != "slack"], dtype=int)
    pq = np.array([b.id for b in grid.buses if b.kind == "pq"], dtype=int)
    vc = v * np.exp(1j * theta)
    ibus = ybus @ vc
    diag_v = np.diag(vc)
    diag_i = np.diag(ibus)
    diag_vnorm = np.diag(np.exp(1j * theta))
    ds_dtheta = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds_dvm = diag_v @ np.conj(ybus @ diag_vnorm) + np.conj(diag_i) @ diag_vnorm
    j11 = ds_dtheta.real[np.ix_(non_slack, non_slack)]
    j12 = ds_dvm.real[np.ix_(non_slack, pq)]
    j21 = ds_dtheta.imag[np.ix_(pq, non_slack)]
    j22 = ds_dvm.imag[np.ix_(pq, pq)]
    return -np.block([[j11, j12], [j21, j22]])


def max_rel_err(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)))


def random_operating_point(grid, rng):
    """Random feasible actuator settings plus a perturbed voltage profile."""
    g = grid
    for i, tr in enumerate(g.transformers):
        g = g.with_tap(i, int(rng.integers(tr.tap_min, tr.tap_max + 1)))
    for i, gen in enumerate(g.generators):
        g = g.with_generator_setpoint(
            i,
            float(rng.uniform(gen.p_min_mw, gen.p_max_mw)),
            float(rng.uniform(gen.q_min_mvar, gen.q_max_mvar)),
        )
    for i, ld in enumerate(g.loads):
        g = g.with_load_scaling(i, float(rng.uniform(ld.scaling_min, ld.scaling_max)))
    v = 1.0 + rng.uniform(-0.08, 0.08, size=g.n_bus)
    theta = rng.uniform(-0.15, 0.15, size=g.n_bus)
    theta[[b.kind == "slack" for b in g.buses]] = 0.0
    return g, v, theta


# -- mismatch -----------------------------------------------------------------


def test_mismatch_zero_for_unloaded_flat_grid():
    grid = zero_load_grid(4)
    residual = compute_mismatch(grid, np.ones(4), np.zeros(4))
    assert np.array_equal(residual, np.zeros(2 * 3))


def test_mismatch_vanishes_at_two_bus_closed_form():
    grid = two_bus_grid()
    v = np.array([1.0, TWO_BUS_V2])
    theta = np.array([0.0, TWO_BUS_THETA2])
    assert np.max(np.abs(compute_mismatch(grid, v, theta))) <= 1e-10


def test_mismatch_matches_textbook_oracle(poc_grid, rng):
    v = 1.0 + rng.uniform(-0.05, 0.05, size=poc_grid.n_bus)
    theta = rng.uniform(-0.1, 0.1, size=poc_grid.n_bus)
    got = compute_mismatch(poc_grid, v, theta)
    want = mismatch_oracle(poc_grid, v, theta)
    assert np.max(np.abs(got - want)) < 1e-12


def test_voltage_perturbation_is_local(poc_grid, poc_solution):
    v0 = poc_solution.v_pu.copy()
    theta0 = poc_solution.theta_rad.copy()
    base = compute_mismatch(poc_grid, v0, theta0)
    v1 = v0.copy()
    v1[9] += 0.01  # LV bus: its only neighbour is MV bus 3
    perturbed = compute_mismatch(poc_grid, v1, theta0)
    assert np.max(np.abs(perturbed - mismatch_oracle(poc_grid, v1, theta0))) < 1e-12

    changed = {i for i in range(len(base)) if base[i] != perturbed[i]}
    # Residual layout: dP for buses 1..13, then dQ for buses 1..13.
    expected = {9 - 1, 3 - 1, 13 + 9 - 1, 13 + 3 - 1}
    assert changed == expected


# -- jacobian -----------------------------------------------------------------


def test_jacobian_matches_finite_differences(poc_grid, poc_solution):
    for v, theta in [
        (np.ones(14), np.zeros(14)),
        (poc_solution.v_pu.copy(), poc_solution.theta_rad.copy()),
    ]:
        jac = compute_jacobian(poc_grid, v, theta)
        assert max_rel_err(jac, fd_jacobian(poc_grid, v, theta)) < 1e-5


def test_jacobian_at_20_random_operating_points(rng):
    grid = arl_poc_grid()
    for _ in range(20):
        g, v, theta = random_operating_point(grid, rng)
        jac = compute_jacobian(g, v, theta)
        assert max_rel_err(jac, fd_jacobian(g, v, theta)) < 1e-5


def test_pv_grid_jacobian_at_20_random_operating_points(rng):
    grid = pv_grid()
    for _ in range(20):
        g, v, theta = random_operating_point(grid, rng)
        jac = compute_jacobian(g, v, theta)
        assert jac.shape == (3 + 2, 3 + 2)  # theta at buses 1-3, v at pq buses 2-3
        assert max_rel_err(jac, fd_jacobian(g, v, theta)) < 1e-5


def assert_bits_match_reference_assembly(g, v, theta):
    """The residual and Jacobian equal the reference assembly, and a solve reports the residual it stopped at."""
    assert compute_mismatch(g, v, theta).tobytes() == reference_mismatch(g, v, theta).tobytes()
    assert compute_jacobian(g, v, theta).tobytes() == reference_jacobian(g, v, theta).tobytes()
    sol = solve_newton_raphson(g)
    with np.errstate(over="ignore", invalid="ignore"):  # the last point of a diverged solve
        at_solution = np.abs(compute_mismatch(g, sol.v_pu, sol.theta_rad)).max()
    assert np.float64(sol.max_mismatch_pu).tobytes() == at_solution.tobytes()


@pytest.mark.parametrize("make_grid", [arl_poc_grid, pv_grid], ids=["poc", "pv"])
def test_mismatch_and_jacobian_bits_match_reference_assembly(make_grid, rng):
    grid = make_grid()
    for _ in range(20):
        assert_bits_match_reference_assembly(*random_operating_point(grid, rng))


@pytest.mark.parametrize("make_grid", [arl_poc_grid, pv_grid], ids=["poc", "pv"])
def test_admittance_and_injection_bits_match_reference_assembly(make_grid, rng):
    grid = make_grid()
    for _ in range(20):
        g = random_operating_point(grid, rng)[0]
        got, want = build_admittance_matrix(g), reference_admittance(g)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        for got, want in zip(scheduled_injections_pu(g), reference_injections(g), strict=True):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_two_bus_jacobian_hand_value():
    grid = two_bus_grid()
    jac = compute_jacobian(grid, np.ones(2), np.zeros(2))
    # d(dP2)/d(theta2) = -V2 V1 B21 cos(0) = -10 for x = 0.1 pu.
    assert jac[0, 0] == pytest.approx(-10.0, abs=1e-12)


def test_jacobian_dimension(poc_grid):
    jac = compute_jacobian(poc_grid, np.ones(14), np.zeros(14))
    n_pq = sum(1 for b in poc_grid.buses if b.kind == "pq")
    assert jac.shape == (13 + n_pq, 13 + n_pq)
    assert n_pq == 13


# -- newton-raphson solve -----------------------------------------------------


def test_zero_load_solution_is_flat():
    sol = solve_newton_raphson(zero_load_grid(5))
    assert sol.converged
    assert sol.iterations == 1
    assert np.array_equal(sol.v_pu, np.ones(5))
    assert np.array_equal(sol.theta_rad, np.zeros(5))


def test_two_bus_matches_closed_form():
    sol = solve_newton_raphson(two_bus_grid())
    assert sol.converged
    assert abs(sol.v_pu[1] - TWO_BUS_V2) < 1e-8
    assert abs(sol.theta_rad[1] - TWO_BUS_THETA2) < 1e-8
    assert sol.theta_rad[0] == 0.0


def test_reference_grid_converges_quickly(poc_solution):
    assert poc_solution.converged
    assert poc_solution.iterations <= 10
    assert poc_solution.iterations == 4  # pinned from the finalized parameters
    assert poc_solution.max_mismatch_pu <= 1e-8


def mismatch_history(grid, sol) -> tuple[float, ...]:
    """Max |mismatch| at each of sol's evaluations: the flat start, then after each Newton step.

    A solve capped at k steps stops on the evaluation after step k, so its
    max_mismatch_pu is that value whatever the full solve did next.
    """
    v = np.array([1.0 if b.kind == "pq" else b.v_setpoint_pu for b in grid.buses])
    mis = compute_mismatch(grid, v, np.zeros(grid.n_bus))
    flat = float(np.abs(mis).max()) if mis.size else 0.0
    return (flat, *(solve_newton_raphson(grid, max_iter=k).max_mismatch_pu for k in range(1, sol.iterations)))


def test_residual_strictly_decreases_on_base_case(poc_grid, poc_solution):
    history = mismatch_history(poc_grid, poc_solution)
    assert len(history) >= 2 and history[-1] == poc_solution.max_mismatch_pu
    assert all(later < earlier for earlier, later in zip(history, history[1:]))


def test_pv_grid_solve_holds_the_pv_setpoint():
    grid = pv_grid()
    sol = solve_newton_raphson(grid)
    assert sol.converged
    assert sol.v_pu[0] == 1.02 and sol.theta_rad[0] == 0.0
    assert sol.v_pu[1] == 1.01  # pv magnitude is held, only its angle moves
    assert sol.theta_rad[1] != 0.0
    assert np.max(np.abs(mismatch_oracle(grid, sol.v_pu, sol.theta_rad))) <= 1e-8
    # The pv bus supplies whatever reactive power holds its voltage, not its schedule.
    q_sched = scheduled_injections_pu(grid)[1]
    assert abs(sol.q_inj_pu[1] - q_sched[1]) > 0.1


def test_power_balance_equals_branch_losses(poc_solution):
    grid = arl_poc_grid()
    loss = total_branch_loss_pu(grid, poc_solution.v_pu, poc_solution.theta_rad)
    assert abs(float(np.sum(poc_solution.p_inj_pu)) - loss) < 10 * 1e-8


def test_lossless_grid_active_power_sums_to_zero():
    sol = solve_newton_raphson(two_bus_grid(r_pu=0.0))
    assert sol.converged
    assert abs(float(np.sum(sol.p_inj_pu))) < 10 * 1e-8


def test_solver_is_deterministic(poc_grid):
    a = solve_newton_raphson(poc_grid)
    b = solve_newton_raphson(poc_grid)
    assert a.v_pu.tobytes() == b.v_pu.tobytes()
    assert a.theta_rad.tobytes() == b.theta_rad.tobytes()
    assert a.p_inj_pu.tobytes() == b.p_inj_pu.tobytes()
    assert a.iterations == b.iterations


def test_infeasible_case_reports_failure_without_raising():
    # P = 10 pu over x = 0.1 pu has no solution; the solver must flag, not abort.
    sol = solve_newton_raphson(two_bus_grid(p_load_mw=100.0))
    assert not sol.converged
    assert sol.failure_cause is not None
    assert np.all(np.isfinite(sol.v_pu))
    assert np.all(sol.v_pu > 0)


def test_solution_arrays_are_immutable(poc_solution):
    with pytest.raises(ValueError):
        poc_solution.v_pu[0] = 2.0


def test_invalid_solver_arguments():
    with pytest.raises(ValueError):
        solve_newton_raphson(two_bus_grid(), max_iter=0)


def test_two_bus_solve_runtime_under_one_second():
    grid = two_bus_grid()
    start = time.perf_counter()
    solve_newton_raphson(grid)
    assert time.perf_counter() - start < 1.0


# -- pinned solver bits ---------------------------------------------------------


def _moved_poc():
    g = arl_poc_grid().with_tap(0, 9).with_tap(2, -4).with_tap(5, -9)
    g = g.with_load_scaling(0, 1.5).with_load_scaling(3, 0.5)
    return g.with_generator_setpoint(0, 1.0, 0.3).with_generator_setpoint(3, 0.0, -0.3)


def _stressed_poc():
    g = arl_poc_grid()
    for i in range(6):
        g = g.with_tap(i, 9).with_load_scaling(i, 1.5)
    for i in range(4):
        g = g.with_generator_setpoint(i, 0.0, -0.3)
    return g


def _moved_pv():
    return pv_grid().with_tap(0, -9).with_load_scaling(0, 1.5).with_generator_setpoint(0, 1.0, -0.3)


# (grid, max_iter) per case; the infeasible two-bus case diverges, poc capped at
# two Newton steps stops on max_iter.  The two huge loads reach the other two
# exits: a singular Jacobian, and a mismatch that overflows to inf.
SOLVE_CASES = {
    "poc_moved": (_moved_poc, 20),
    "poc_stressed": (_stressed_poc, 20),
    "poc_max_iter": (arl_poc_grid, 2),
    "pv": (pv_grid, 20),
    "pv_moved": (_moved_pv, 20),
    "two_bus_infeasible": (lambda: two_bus_grid(p_load_mw=100.0), 20),
    "two_bus_singular": (lambda: two_bus_grid(p_load_mw=1e50), 20),
    "two_bus_overflow": (lambda: two_bus_grid(p_load_mw=1e250), 20),
}

# solution_digest of each case, computed when the solver still assembled the
# Jacobian with np.ix_/np.block and evaluated the mismatch, the Jacobian and the
# returned injections separately; like tests/golden, they pin the bits that
# this numpy/LAPACK build gives.
SOLVE_PINS = {
    "poc_max_iter": "81e0ed06f1180efc56f323505d2bf072c75cb31135a190538052384ad5aa0142",  # 3 evaluations, max_iter
    "poc_moved": "4f501d068d6a474220cabe5dcb14ba252de23b7eb94c994a4403f2f64523c65a",  # 5 evaluations, None
    "poc_stressed": "56d32a01261ab47a494806a21beb627ad0b97c9a2850d631a36318858a048cbe",  # 5 evaluations, None
    "pv": "3fe63c311e69c332f308db1ba7797036399cb28b5d77e98987c2d106e7344a0a",  # 4 evaluations, None
    "pv_moved": "fee02049e82309b7a58500cf5e90be8b2706c7672541605f56b47d46fefb69b4",  # 5 evaluations, None
    "two_bus_infeasible": "b8bd6fc1ed8205a35a934898e6d916997b1a21964a31c7c3b281b2416fc416c0",  # 2 evaluations, diverged
    # Pinned later, on the solver that first ran them under np.errstate.
    "two_bus_singular": "5959860f658ebfede456c3fef86c211b31efe04f43e0382eec65f11e298ce955",  # 3 evaluations, singular_jacobian
    "two_bus_overflow": "30507fdbd38dbca0663cf60b798f275a05b99ef8796f31cd53d6d3485a17e03e",  # 3 evaluations, diverged
}


def solution_digest(grid, sol) -> str:
    h = hashlib.sha256()
    for a in (sol.v_pu, sol.theta_rad, sol.p_inj_pu, sol.q_inj_pu):
        h.update(a.tobytes())
    h.update(repr((sol.iterations, sol.failure_cause, mismatch_history(grid, sol))).encode())
    return h.hexdigest()


def _counted(monkeypatch, *names):
    """The list each call of the named powerflow globals appends its name to."""
    calls = []
    for name in names:
        def call(grid, f=getattr(powerflow, name), name=name):
            calls.append(name)
            return f(grid)
        monkeypatch.setattr(powerflow, name, call)
    return calls


@pytest.mark.parametrize("case", sorted(SOLVE_CASES))
def test_solver_bits_pinned_on_perturbed_grids(case, monkeypatch):
    """The pinned bits from a fresh solve and from two solves that reuse topology work.

    A copy of the solved grid, solved after a sibling with load 0 moved, reuses the
    whole network.  Where there is a tap, a grid with transformer 0 moved is solved
    first, and its copy with the tap moved back reuses the bus structure and must
    rebuild the admittance matrix for its own taps.
    """
    make_grid, max_iter = SOLVE_CASES[case]
    grid = make_grid()
    builds = _counted(monkeypatch, "build_admittance_matrix")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a failing solve is a value, with no numpy overflow warning
        solutions = [solve_newton_raphson(grid, max_iter=max_iter)]  # a new grid carries nothing to reuse
        ld = grid.loads[0]
        loaded = grid.with_load_scaling(0, ld.scaling_min if ld.scaling != ld.scaling_min else ld.scaling_max)
        solve_newton_raphson(loaded, max_iter=max_iter)
        solutions.append(solve_newton_raphson(loaded.with_load_scaling(0, ld.scaling), max_iter=max_iter))
        if grid.transformers:
            tr = grid.transformers[0]
            tapped = make_grid().with_tap(0, tr.tap_min if tr.tap_pos != tr.tap_min else tr.tap_max)
            solve_newton_raphson(tapped, max_iter=max_iter)
            solutions.append(solve_newton_raphson(tapped.with_tap(0, tr.tap_pos), max_iter=max_iter))
    solve_builds = len(builds)  # before the digests' reference mismatches add their own
    for sol in solutions:
        assert np.all(np.isfinite(sol.v_pu))
        assert solution_digest(grid, sol) == SOLVE_PINS[case]
    assert solve_builds == (3 if grid.transformers else 1)


def test_solves_sharing_lines_and_taps_build_the_admittance_matrix_once(monkeypatch):
    """Scheduled injections are computed per solve; the admittance matrix only for new lines or taps.

    Copies of a solved grid reuse its matrix; a grid built by the constructor or
    ``dataclasses.replace`` builds its own, even from the same tuples.
    """
    calls = _counted(monkeypatch, "build_admittance_matrix", "scheduled_injections_pu")
    grid = arl_poc_grid()
    solve_newton_raphson(grid)
    solve_newton_raphson(grid.with_load_scaling(0, 1.5).with_generator_setpoint(0, 1.0, 0.3))
    assert calls.count("build_admittance_matrix") == 1
    solve_newton_raphson(GridModel(grid.s_base_mva, grid.buses, grid.lines, grid.transformers,
                                   grid.generators, grid.loads))
    assert calls.count("build_admittance_matrix") == 2
    solve_newton_raphson(dataclasses.replace(grid))
    assert calls.count("build_admittance_matrix") == 3
    solve_newton_raphson(grid.with_tap(0, 1))
    assert calls.count("build_admittance_matrix") == 4
    assert calls.count("scheduled_injections_pu") == 5


@st.composite
def radial_grids(draw):
    """Trees of 2-6 buses, slack at bus 0 and at most one pv bus, with lines, tapped transformers and devices."""
    n = draw(st.integers(2, 6))
    pv = draw(st.none() | st.integers(1, n - 1))
    setpoints = st.floats(0.95, 1.05)
    buses = [Bus(0, "slack", 110.0, v_setpoint_pu=draw(setpoints))]
    buses += [Bus(i, "pv", 20.0, v_setpoint_pu=draw(setpoints)) if i == pv else Bus(i, "pq", 20.0)
              for i in range(1, n)]
    lines, transformers = [], []
    for i in range(1, n):
        ends = (draw(st.integers(0, i - 1)), i)
        r, x = draw(st.floats(0.0, 0.05)), draw(st.floats(0.01, 0.5))
        if draw(st.booleans()):
            lines.append(Line(*ends, r_pu=r, x_pu=x, b_shunt_pu=draw(st.floats(0.0, 0.05))))
        else:
            tap_min, tap_max = draw(st.integers(-5, 0)), draw(st.integers(0, 5))
            transformers.append(Transformer(*ends, r_pu=r, x_pu=x, tap_pos=draw(st.integers(tap_min, tap_max)),
                                            tap_min=tap_min, tap_max=tap_max, tap_step_pu=draw(st.floats(0.0, 0.03))))
    pq = [i for i in range(1, n) if i != pv]
    generators = []
    for bus in draw(st.lists(st.sampled_from(pq), max_size=3)) if pq else ():
        p_max, q_max = draw(st.floats(0.0, 50.0)), draw(st.floats(0.0, 20.0))
        generators.append(Generator(bus, p_mw=draw(st.floats(0.0, p_max)), q_mvar=draw(st.floats(-q_max, q_max)),
                                    p_min_mw=0.0, p_max_mw=p_max, q_min_mvar=-q_max, q_max_mvar=q_max))
    loads = [Load(draw(st.integers(0, n - 1)), p_mw=draw(st.floats(0.0, 2000.0)), q_mvar=draw(st.floats(-100.0, 500.0)),
                  scaling_min=draw(st.floats(0.5, 1.0)), scaling_max=draw(st.floats(1.0, 1.5)))
             for _ in range(draw(st.integers(0, 3)))]
    return GridModel(100.0, buses, lines, transformers, generators, loads)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(grid=radial_grids(), seed=st.integers(0, 2**32 - 1))
def test_mismatch_and_jacobian_bits_match_reference_assembly_on_radial_grids(grid, seed):
    """The same bits on trees of 2-6 buses, with and without a pv bus, at random operating points."""
    assert_bits_match_reference_assembly(*random_operating_point(grid, np.random.default_rng(seed)))


# Copy helper -> (device tuple it moves, its targets).
_MOVES = {"with_tap": ("transformers", st.tuples(st.integers(-6, 6))),
          "with_generator_setpoint": ("generators", st.tuples(st.floats(-10.0, 60.0), st.floats(-30.0, 30.0))),
          "with_load_scaling": ("loads", st.tuples(st.floats(0.0, 2.0)))}


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(grid=radial_grids(), data=st.data())
def test_copies_of_a_solved_grid_solve_as_fresh_grids_do(grid, data):
    """Whatever a chain of copies reuses from the first solve, each solve equals a fresh one, bit for bit."""
    names = [name for name, (kind, _) in _MOVES.items() if getattr(grid, kind)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a failing solve is a value, with no numpy overflow warning
        solve_newton_raphson(grid)
        for _ in range(data.draw(st.integers(1, 8)) if names else 0):
            kind, targets = _MOVES[name := data.draw(st.sampled_from(names))]
            index = data.draw(st.integers(0, len(getattr(grid, kind)) - 1))
            grid = getattr(grid, name)(index, *data.draw(targets))
            sol = solve_newton_raphson(grid)
            fresh = solve_newton_raphson(dataclasses.replace(grid))  # through the constructor: nothing to reuse
            for field in ("v_pu", "theta_rad", "p_inj_pu", "q_inj_pu"):
                assert getattr(sol, field).tobytes() == getattr(fresh, field).tobytes()
            assert (sol.iterations, sol.failure_cause) == (fresh.iterations, fresh.failure_cause)
