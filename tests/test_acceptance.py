"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 5 and 6 execute full experiments and subprocess runs; the
whole module finishes in well under two minutes on desk hardware.
"""

import itertools
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridduel.agents import (
    ATTACKER,
    DEFAULT_SIGMA,
    DEFENDER,
    QTable,
    RewardParams,
    Transition,
    boundary_offset,
    epsilon_greedy,
    init_qnetwork,
    reward,
    td_loss_and_grads,
    td_targets,
)
from gridduel.config import fixture_path, load_config, load_config_path, save_config
from gridduel.core import (
    Action,
    PerformanceConfig,
    apply_actions,
    check_asymmetry_series,
    classify_resilience_phases,
    initial_world,
    operational_phases,
    run_experiment,
)
from gridduel.grid import arl_poc_grid
from gridduel.powerflow import compute_jacobian, solve_newton_raphson

from .conftest import TWO_BUS_THETA2, TWO_BUS_V2, cli_env, two_bus_grid, zero_load_grid
from .test_agents import _chain_step, _numeric_gradient, _value_iteration
from .test_powerflow import fd_jacobian, max_rel_err, random_operating_point

GOLDEN = Path(__file__).parent / "golden"


def ok(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


# -- criterion 1: power-flow correctness ------------------------------------------


def test_criterion_1_power_flow_correctness():
    start = time.perf_counter()

    sol = solve_newton_raphson(two_bus_grid())
    assert sol.converged
    assert abs(sol.v_pu[1] - TWO_BUS_V2) < 1e-8
    assert abs(sol.theta_rad[1] - TWO_BUS_THETA2) < 1e-8

    flat = solve_newton_raphson(zero_load_grid(5))
    assert flat.converged
    assert np.array_equal(flat.v_pu, np.ones(5))
    assert np.array_equal(flat.theta_rad, np.zeros(5))
    assert flat.max_mismatch_pu == 0.0

    rng = np.random.default_rng(1234)
    grid = arl_poc_grid()
    worst = 0.0
    for _ in range(20):
        g, v, theta = random_operating_point(grid, rng)
        worst = max(worst, max_rel_err(compute_jacobian(g, v, theta), fd_jacobian(g, v, theta)))
    assert worst < 1e-5

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok(1, f"two-bus closed form to 1e-8, flat case exact, "
          f"jacobian FD rel err {worst:.2e} at 20 points, {elapsed:.2f}s")


# -- criterion 2: reward curve ------------------------------------------------------


def test_criterion_2_reward_curve():
    defender = RewardParams(agent_class=DEFENDER)
    attacker = RewardParams(agent_class=ATTACKER)

    assert abs(reward(defender, 1.0) - (1.0 - boundary_offset(DEFAULT_SIGMA))) < 1e-12

    for boundary in (0.95, 1.05):
        assert abs(reward(defender, boundary)) < 1e-9
        assert abs(reward(attacker, boundary)) < 1e-9

    rng = np.random.default_rng(2)
    for x in rng.uniform(0.7, 1.3, size=1000):
        assert reward(attacker, x) == -reward(defender, x)

    ok(2, "nominal reward 1-c to 1e-12, zero crossings at +/-5%, "
          "attacker = -defender on 1000 samples")


# -- criterion 3: learner sanity -----------------------------------------------------


def test_criterion_3_learner_sanity():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        net = init_qnetwork(3, (3, 2), hidden=6, rng=rng)
        batch = [
            Transition(
                rng.uniform(-1, 1, size=3),
                (int(rng.integers(3)), int(rng.integers(2))),
                float(rng.normal()),
                rng.uniform(-1, 1, size=3),
            )
            for _ in range(5)
        ]
        targets = td_targets(net, batch, gamma=0.9)
        _, analytic = td_loss_and_grads(net, batch, targets)
        flat = np.concatenate([g.ravel() for g in analytic])
        numeric = _numeric_gradient(net, batch, targets)
        rel = np.abs(flat - numeric) / np.maximum(np.maximum(np.abs(flat), np.abs(numeric)), 1.0)
        worst = max(worst, float(np.max(rel)))
    assert worst < 1e-4

    optimal = list(np.argmax(_value_iteration(), axis=1))
    table = QTable(3, (2,))
    rng = np.random.default_rng(77)
    state = 0
    for _ in range(10000):
        (action,) = epsilon_greedy([t[state] for t in table.tables], 0.3, rng)
        nxt, r = _chain_step(state, action)
        table.update(state, (action,), r, nxt, alpha=0.5, gamma=0.9)
        state = nxt
    greedy = [int(np.argmax(table.tables[0][s])) for s in range(3)]
    assert greedy == optimal

    ok(3, f"TD gradients match FD (worst rel err {worst:.2e}, 10 seeds); "
          f"tabular policy equals value iteration {greedy}")


# -- criterion 4: formalism invariants -------------------------------------------------


def _all_single_device_actions(grid):
    actions = []
    from gridduel.agents import LABELS_BY_KIND, ActuatorRef

    for kind, count in (("transformer", len(grid.transformers)),
                        ("generator", len(grid.generators)),
                        ("load", len(grid.loads))):
        for index in range(count):
            for label in LABELS_BY_KIND[kind]:
                actions.append(Action(ActuatorRef(kind, index), label))
    return actions


def test_criterion_4_formalism_invariants():
    grid = arl_poc_grid()
    world = initial_world(grid)
    actions = _all_single_device_actions(grid)
    assert len(actions) == 6 * 3 + 4 * 5 + 6 * 3

    after_one = {i: apply_actions(world, [a]) for i, a in enumerate(actions)}
    checked = 0
    for i, j in itertools.combinations(range(len(actions)), 2):
        a, b = actions[i], actions[j]
        if a.actuator == b.actuator:
            continue
        ab = apply_actions(after_one[i], [b])
        ba = apply_actions(after_one[j], [a])
        assert ab.grid == ba.grid
        assert ab.solution.v_pu.tobytes() == ba.solution.v_pu.tobytes()
        assert ab.solution.theta_rad.tobytes() == ba.solution.theta_rad.tobytes()
        checked += 1

    cfg = PerformanceConfig(p_fail=0.5)
    assert check_asymmetry_series([1.0] * 10, 0.5, t0=0) == (True, None)
    dipped = [1.0] * 10
    dipped[7] = 0.4
    assert check_asymmetry_series(dipped, 0.5, t0=0) == (False, 7)
    assert check_asymmetry_series(dipped, 0.5, t0=7) == (True, None)

    v_shape = [1.0, 1.0, 0.8, 0.6, 0.4, 0.6, 0.8, 1.0, 1.0]
    assert [s.phase for s in classify_resilience_phases(v_shape, cfg)] == [
        "plan", "absorb", "recover", "adapt",
    ]
    assert operational_phases([np.ones(14)], [True], cfg) == ["normal"]
    v = np.ones(14)
    v[3] = 1.07
    alert = v.copy()
    v[3] = 1.2
    assert operational_phases([alert, v, v], [True, True, False], PerformanceConfig()) == [
        "alert", "emergency", "blackout"]

    ok(4, f"action application commuted on {checked} disjoint pairs; "
          "asymmetry and phase classifiers pass their fixtures")


# -- criterion 5: qualitative reproduction ----------------------------------------------


def _longest_streak_above(log, threshold):
    v = np.stack([rec.v_pu for rec in log.steps])
    longest = 0
    for bus in range(v.shape[1]):
        above = v[:, bus] > threshold
        run = 0
        for flag in above:
            run = run + 1 if flag else 0
            longest = max(longest, run)
    return longest


@pytest.mark.slow
def test_criterion_5_attacker_beats_defender_qualitatively():
    poc = load_config_path(fixture_path("poc.json"))
    lone = load_config_path(fixture_path("lone_attacker.json"))
    seeds = range(41, 46)

    poc_hits = 0
    for seed in seeds:
        start = time.perf_counter()
        log = run_experiment(replace(poc, seed=seed))
        assert time.perf_counter() - start < 60.0
        assert len(log.steps) == 2000
        if _longest_streak_above(log, 1.05) >= 10:
            poc_hits += 1
    assert poc_hits >= 1

    lone_hits = 0
    for seed in seeds:
        start = time.perf_counter()
        log = run_experiment(replace(lone, seed=seed))
        assert time.perf_counter() - start < 60.0
        v = np.stack([rec.v_pu for rec in log.steps])
        if np.any((v < 0.95) | (v > 1.05)):
            lone_hits += 1
    assert lone_hits >= 3

    ok(5, f"attacker held >1.05 pu for >=10 consecutive steps in {poc_hits}/5 duel seeds; "
          f"lone attacker left the band in {lone_hits}/5 seeds")


# -- criterion 6: determinism and replay ---------------------------------------------------


def _run_in_fresh_process(workdir: Path) -> dict[str, bytes]:
    workdir.mkdir()
    cmd = [sys.executable, "-m", "gridduel.cli", "run",
           "--config", str(fixture_path("poc.json")), "--rounds", "8"]
    proc = subprocess.run(cmd, cwd=workdir, env=cli_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    plot = [sys.executable, "-m", "gridduel.cli", "plot",
            "--metrics", "out/poc_metrics.json",
            "--series", "mean_voltage", "--out", "out/poc_mean_voltage.svg"]
    proc = subprocess.run(plot, cwd=workdir, env=cli_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names = ("poc_grid_log.csv", "poc_agent_log.csv", "poc_metrics.json",
             "poc_run_log.json", "poc_mean_voltage.svg")
    return {name: (workdir / "out" / name).read_bytes() for name in names}


@pytest.mark.slow
def test_criterion_6_byte_identical_across_process_restarts(tmp_path):
    first = _run_in_fresh_process(tmp_path / "first")
    second = _run_in_fresh_process(tmp_path / "second")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    ok(6, f"{len(first)} output files byte-identical across two fresh processes")


# -- criterion 7: format stability -----------------------------------------------------------


def test_criterion_7_golden_files(tmp_path):
    poc_path = fixture_path("poc.json")
    text = poc_path.read_text(encoding="utf-8")
    assert save_config(load_config(text)) == text
    assert text.encode() == (GOLDEN / "poc.canonical.json").read_bytes()

    from gridduel.results import compute_metrics, emit_plot, write_agent_log, write_grid_log

    cfg = replace(load_config(text), rounds=3)
    log = run_experiment(cfg)
    report = compute_metrics(log, cfg.performance)

    grid_csv = tmp_path / "grid.csv"
    agent_csv = tmp_path / "agent.csv"
    svg = tmp_path / "mean_voltage.svg"
    write_grid_log(log, grid_csv)
    write_agent_log(log, agent_csv)
    emit_plot(report.mean_voltage, svg, title="poc: mean_voltage",
              x_label="step", y_label="mean_voltage", x_start=report.steps[0])

    assert grid_csv.read_bytes() == (GOLDEN / "grid_log.csv").read_bytes()
    assert agent_csv.read_bytes() == (GOLDEN / "agent_log.csv").read_bytes()
    assert svg.read_bytes() == (GOLDEN / "mean_voltage.svg").read_bytes()
    ok(7, "poc.json canonical form, both CSV schemas and the SVG fixture "
          "match their golden bytes")
