"""Static AC power flow via full Newton-Raphson.

Every solve is a pure function of the grid description: flat start, analytic
Jacobian, dense linear algebra (the grids here are desk-scale).  A failed
solve is a legal outcome and is reported through ``failure_cause`` rather than
an exception; downstream code treats it as a blackout-grade world state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import PQ, SLACK, GridModel, build_admittance_matrix, scheduled_injections_pu

TOL = 1e-8  # converged when every |mismatch| is at most this, in per-unit
DEFAULT_MAX_ITER = 20


@dataclass(frozen=True)
class PowerFlowSolution:
    """Converged (or best-effort) operating point of a grid."""

    v_pu: np.ndarray
    theta_rad: np.ndarray
    p_inj_pu: np.ndarray
    q_inj_pu: np.ndarray
    iterations: int
    max_mismatch_pu: float
    failure_cause: str | None = None

    @property
    def converged(self) -> bool:
        return self.failure_cause is None


def _unknowns(grid: GridModel) -> np.ndarray:
    """Positions of the solver's unknowns in a stacked ``[theta; v]`` vector.

    Theta at the non-slack buses, then v at the pq buses, each in ascending
    bus order.  The same positions pick [dP; dQ] out of a stacked ``[P; Q]``.
    """
    n = grid.n_bus
    theta_at = [i for i, b in enumerate(grid.buses) if b.kind != SLACK]
    v_at = [n + i for i, b in enumerate(grid.buses) if b.kind == PQ]
    return np.array(theta_at + v_at, dtype=int)


def _evaluate(ybus: np.ndarray, v_pu: np.ndarray, theta_rad: np.ndarray) -> tuple[np.ndarray, ...]:
    """Unit phasors, voltage phasors V, bus currents Y V and injections V conj(Y V).

    The mismatch, the Jacobian and the returned injections share one evaluation per iterate.
    """
    unit = np.exp(1j * theta_rad)
    vc = v_pu * unit
    ibus = ybus @ vc
    return unit, vc, ibus, vc * np.conj(ibus)


def _interleaved(unknowns: np.ndarray, n: int) -> np.ndarray:
    """Positions of ``[P; Q][unknowns]`` in complex injections viewed as floats: part u // n of entry u % n."""
    return 2 * (unknowns % n) + unknowns // n


def _mismatch(sched: np.ndarray, s_calc: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Scheduled minus calculated [P; Q] at the unknowns, given ``sched`` there and their ``rows`` in s_calc."""
    return sched - s_calc.view(float)[rows]


def _jacobian_positions(unknowns: np.ndarray, n: int) -> np.ndarray:
    """Flat positions of the Jacobian's entries in ``[dS/dtheta, dS/dV]`` viewed as floats.

    Each row of that n x 2n complex block is 4n floats, the real and imaginary
    part of each column side by side.  Unknown ``u`` is column u of the block
    and, as a row of the stacked [P; Q], the real (u < n) or imaginary part of
    row ``u % n``.
    """
    rows = (unknowns % n) * (4 * n) + unknowns // n
    return rows[:, None] + 2 * unknowns


def _jacobian(
    ybus: np.ndarray,
    unit: np.ndarray,
    vc: np.ndarray,
    ibus: np.ndarray,
    positions: np.ndarray,
) -> np.ndarray:
    """d(mismatch)/d[theta at non-slack; V at pq] as one dense square matrix."""
    # diag(V), diag(Y V) and diag(V / |V|) as one zero block filled once.
    n = len(vc)
    diags = np.zeros((3, n * n), complex)
    diags[:, :: n + 1] = (vc, ibus, unit)
    diag_v, diag_i, diag_vnorm = diags.reshape(3, n, n)
    # Complex power sensitivities, S = diag(V) conj(Y V).  Keep the dense
    # products with the diagonal matrices: broadcasting instead changes the
    # last bits of every iterate.
    ds_dtheta = 1j * diag_v @ np.conj(diag_i - ybus @ diag_v)
    ds_dvm = diag_v @ np.conj(ybus @ diag_vnorm) + np.conj(diag_i) @ diag_vnorm
    jac = np.concatenate([ds_dtheta, ds_dvm], axis=1).view(float).ravel()[positions]
    # Mismatch is scheduled minus calculated, hence the sign flip.
    return np.negative(jac, out=jac)


def compute_mismatch(grid: GridModel, v_pu: np.ndarray, theta_rad: np.ndarray) -> np.ndarray:
    """Residual vector [dP at non-slack buses; dQ at pq buses] in per-unit."""
    s_calc = _evaluate(build_admittance_matrix(grid), np.asarray(v_pu, float), np.asarray(theta_rad, float))[3]
    unknowns = _unknowns(grid)
    return _mismatch(np.concatenate(scheduled_injections_pu(grid))[unknowns], s_calc,
                     _interleaved(unknowns, grid.n_bus))


def compute_jacobian(grid: GridModel, v_pu: np.ndarray, theta_rad: np.ndarray) -> np.ndarray:
    """Analytic derivative of :func:`compute_mismatch` w.r.t. the solver state."""
    ybus = build_admittance_matrix(grid)
    unit, vc, ibus, _ = _evaluate(ybus, np.asarray(v_pu, float), np.asarray(theta_rad, float))
    return _jacobian(ybus, unit, vc, ibus, _jacobian_positions(_unknowns(grid), grid.n_bus))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _topology(grid: GridModel) -> tuple[tuple, tuple]:
    """What a grid's buses fix, and what its buses, lines and taps fix, kept on the grid.

    The structure is ``(n, unknowns, their interleaved positions, Jacobian
    positions, flat start)``; the network is the admittance matrix, the flat
    start's :func:`_evaluate` and its Jacobian.  Every array is read-only,
    and each is what a fresh solve would compute, bit for bit.  A solved grid
    keeps both in a private ``_topology`` entry that its ``with_targets``
    copies carry.  Those copies share the grid's buses and lines, so the entry
    is checked by the identity of ``grid.transformers`` alone: a tap move
    rebuilds the network and keeps the structure.  The constructor and
    ``dataclasses.replace`` start fresh.
    """
    transformers, structure, network = vars(grid).get("_topology", (None,) * 3)
    if structure is None:
        n, unknowns = grid.n_bus, _unknowns(grid)
        flat_start = np.zeros(2 * n)  # stacked [theta; v]: zero angles, 1 pu at pq buses, the setpoint elsewhere
        flat_start[n:] = [1.0 if b.kind == PQ else b.v_setpoint_pu for b in grid.buses]
        structure = (n, *map(_freeze, (unknowns, _interleaved(unknowns, n), _jacobian_positions(unknowns, n),
                                       flat_start)))
    elif grid.transformers is transformers:
        return structure, network
    n, _, _, positions, x = structure
    ybus = build_admittance_matrix(grid)
    flat = _evaluate(ybus, x[n:], x[:n])
    network = tuple(map(_freeze, (ybus, *flat, _jacobian(ybus, *flat[:3], positions))))
    vars(grid)["_topology"] = (grid.transformers, structure, network)
    return structure, network


def solve_newton_raphson(grid: GridModel, max_iter: int = DEFAULT_MAX_ITER) -> PowerFlowSolution:
    """Solve the AC power flow from a flat start.

    ``iterations`` counts mismatch evaluations; at most ``max_iter`` Newton
    steps are taken between them.  Singular Jacobians and diverging iterates
    yield a non-converged solution carrying the last finite operating point.
    A solved grid's ``with_targets`` copies reuse its admittance matrix,
    flat-start evaluation and Jacobian until a tap moves (see
    :func:`_topology`); the scheduled injections are computed on every call.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    failure: str | None = None
    evaluations = 0
    with np.errstate(over="ignore", invalid="ignore"):  # overflow ends in a 'diverged' value, not a warning
        (n, unknowns, rows, positions, x), (ybus, *point, flat_jac) = _topology(grid)
        sched = np.concatenate(scheduled_injections_pu(grid))[unknowns]
        while True:
            # Every exit below leaves x as the point evaluated here, so s_calc is
            # the returned solution's injections.
            unit, vc, ibus, s_calc = point
            mis = _mismatch(sched, s_calc, rows)
            evaluations += 1
            max_mis = float(np.abs(mis).max()) if mis.size else 0.0
            if not math.isfinite(max_mis):
                failure = "diverged"
                break
            if max_mis <= TOL:
                break
            if evaluations > max_iter:
                failure = "max_iter"
                break
            jac = flat_jac if evaluations == 1 else _jacobian(ybus, unit, vc, ibus, positions)
            try:
                dx = np.linalg.solve(jac, -mis)
            except np.linalg.LinAlgError:
                failure = "singular_jacobian"
                break
            x_new = x.copy()
            x_new[unknowns] += dx
            if not np.isfinite(x_new).all() or (x_new[n:] <= 0.0).any():
                failure = "diverged"
                break
            x = x_new
            point = _evaluate(ybus, x[n:], x[:n])

    return PowerFlowSolution(
        v_pu=_freeze(x[n:].copy()),  # copies, not views of x: a run log keeps every solution
        theta_rad=_freeze(x[:n].copy()),
        p_inj_pu=_freeze(s_calc.real.copy()),
        q_inj_pu=_freeze(s_calc.imag.copy()),
        iterations=evaluations,
        max_mismatch_pu=max_mis,
        failure_cause=failure,
    )
