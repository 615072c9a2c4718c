import contextlib
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridduel import core
from gridduel.agents import (
    ATTACKER,
    DEFENDER,
    GEN_P_STEP_MW,
    GEN_Q_STEP_MVAR,
    HOLD,
    LABELS_BY_KIND,
    LOAD_SCALING_STEP,
    TAP_STEP,
    ActuatorRef,
    EpsilonSchedule,
    QNetAgent,
    QNetHyper,
    RewardParams,
    TabularHyper,
    TabularQAgent,
)
from gridduel.core import (
    ABSORB,
    ADAPT,
    ATTACK_PHASES,
    PLAN,
    RECOVER,
    AgentSummary,
    PerformanceConfig,
    RunLog,
    StepRecord,
    WorldState,
    apply_actions,
    check_asymmetry_series,
    classify_resilience_phases,
    initial_world,
    observe,
    operational_phases,
    run_experiment,
    system_performance,
)
from gridduel.codec import encode, json_pieces
from gridduel.config import AgentSpec, ExperimentConfig, OutputPaths, fixture_path, load_config, load_config_path
from gridduel.grid import GridModel, arl_poc_grid
from gridduel.powerflow import PowerFlowSolution, solve_newton_raphson
from gridduel.results import compute_metrics, metrics_doc, read_run_log, write_run_log

from .conftest import experiment_config, two_bus_grid, zero_load_grid
from .golden_values import POC_BASE_V_PU
from .test_powerflow import radial_grids

CFG = PerformanceConfig()


def fake_world(v_pu, converged=True, t=0):
    v = np.asarray(v_pu, float)
    n = len(v)
    sol = PowerFlowSolution(
        v_pu=v,
        theta_rad=np.zeros(n),
        p_inj_pu=np.zeros(n),
        q_inj_pu=np.zeros(n),
        iterations=1,
        max_mismatch_pu=0.0,
        failure_cause=None if converged else "diverged",
    )
    return WorldState(t=t, grid=zero_load_grid(max(n, 2)), solution=sol)


def all_bus_sensors(n=14):
    return tuple((b, "v_pu") for b in range(n))


# -- observe ---------------------------------------------------------------------


def test_observe_base_case_matches_goldens(poc_grid):
    world = initial_world(poc_grid)
    obs = observe(world, all_bus_sensors())
    assert world.solution.converged
    assert obs.tolist() == POC_BASE_V_PU
    assert np.all((obs > 0.95) & (obs < 1.05))
    assert not obs.flags.writeable


def test_observe_single_slack_bus(poc_grid):
    world = initial_world(poc_grid)
    obs = observe(world, ((0, "v_pu"),))
    assert obs.tolist() == [1.02]


def test_observe_is_pure(poc_grid):
    world = initial_world(poc_grid)
    a = observe(world, all_bus_sensors())
    b = observe(world, all_bus_sensors())
    assert np.array_equal(a, b)


def test_observe_degraded_on_failed_solve():
    world = initial_world(two_bus_grid(p_load_mw=100.0))
    assert not world.solution.converged
    obs = observe(world, ((0, "v_pu"), (1, "v_pu")))
    assert np.all(np.isfinite(obs))


# -- apply_actions ------------------------------------------------------------------


def test_hold_actions_change_nothing(poc_grid):
    world = initial_world(poc_grid)
    held = apply_actions(world, {
        ActuatorRef("transformer", 0): "hold",
        ActuatorRef("generator", 1): "hold",
        ActuatorRef("load", 2): "hold",
    })
    assert held.t == 1
    assert held.grid == world.grid
    assert held.solution.v_pu.tobytes() == world.solution.v_pu.tobytes()


def test_tap_increment_lowers_lv_voltage(poc_grid):
    world = initial_world(poc_grid)
    after = apply_actions(world, {ActuatorRef("transformer", 0): "increment"})
    assert after.grid.transformers[0].tap_pos == 1
    assert after.solution.v_pu[8] < world.solution.v_pu[8]


def test_action_application_commutes_on_disjoint_devices(poc_grid):
    world = initial_world(poc_grid)
    a = {ActuatorRef("transformer", 0): "decrement"}
    b = {ActuatorRef("load", 0): "increment"}
    one = apply_actions(apply_actions(world, a), b)
    other = apply_actions(apply_actions(world, b), a)
    joint = apply_actions(world, a | b)
    assert one.grid == other.grid
    assert one.solution.v_pu.tobytes() == other.solution.v_pu.tobytes()
    assert joint.grid == one.grid
    assert joint.solution.v_pu.tobytes() == one.solution.v_pu.tobytes()


POC_DEVICES = ([("transformer", i) for i in range(6)] + [("generator", i) for i in range(4)]
               + [("load", i) for i in range(6)])


@st.composite
def poc_worlds(draw):
    """The poc grid with its taps and load scalings drawn at their limits and between them."""
    g = arl_poc_grid()
    for i in range(6):
        g = g.with_tap(i, draw(st.sampled_from([-9, -1, 0, 4, 9])))
        g = g.with_load_scaling(i, draw(st.sampled_from([0.5, 1.0, 1.5])))
    return initial_world(g)


def actions_on(draw, devices):
    return {ActuatorRef(kind, i): draw(st.sampled_from(LABELS_BY_KIND[kind])) for kind, i in devices}


def assert_same_world(a, b):
    assert a.grid == b.grid
    for field in ("v_pu", "theta_rad", "p_inj_pu", "q_inj_pu"):
        assert getattr(a.solution, field).tobytes() == getattr(b.solution, field).tobytes()
    for field in ("converged", "iterations", "max_mismatch_pu", "failure_cause"):
        assert getattr(a.solution, field) == getattr(b.solution, field)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(world=poc_worlds(), data=st.data())
def test_disjoint_actions_commute_in_any_order(world, data):
    devices = data.draw(st.lists(st.sampled_from(POC_DEVICES), min_size=1, max_size=8, unique=True))
    actions = actions_on(data.draw, devices)
    joint = apply_actions(world, actions)
    order = data.draw(st.permutations(list(actions.items())))
    assert_same_world(apply_actions(world, dict(order)), joint)
    one_by_one = world
    for ref, label in order:
        one_by_one = apply_actions(one_by_one, {ref: label})
    assert_same_world(one_by_one, joint)


@pytest.mark.parametrize("kind, label", [("transformer", "p_inc"), ("generator", "increment"),
                                         ("load", "q_dec")])
def test_unknown_label_rejected_for_its_kind(poc_grid, kind, label):
    world = initial_world(poc_grid)
    with pytest.raises(ValueError, match=f"unknown {kind} action label '{label}'"):
        apply_actions(world, {ActuatorRef(kind, 0): label})


@pytest.mark.parametrize("kind, label", [("transformer", "increment"), ("generator", "p_inc"),
                                         ("load", "hold")])
def test_missing_device_raises_before_anything_is_solved(poc_grid, monkeypatch, kind, label):
    """The error with_targets gives, not a bare tuple IndexError from reading the device first."""
    world = initial_world(poc_grid)
    monkeypatch.setattr(core, "solve_newton_raphson", lambda grid: pytest.fail("solved"))
    with pytest.raises(IndexError) as raised:
        apply_actions(world, {ActuatorRef(kind, 99): label})
    assert str(raised.value) == f"{kind}s[99] does not exist"


def test_clamped_move_degrades_to_hold(poc_grid):
    pinned = poc_grid.with_tap(0, 9)
    world = initial_world(pinned)
    after = apply_actions(world, {ActuatorRef("transformer", 0): "increment"})
    assert after.grid == pinned
    assert after.solution.v_pu.tobytes() == world.solution.v_pu.tobytes()


def test_apply_resolves_consistently(poc_grid):
    world = initial_world(poc_grid)
    after = apply_actions(world, {ActuatorRef("generator", 0): "p_inc"})
    resolved = solve_newton_raphson(after.grid)
    assert after.solution.v_pu.tobytes() == resolved.v_pu.tobytes()


POC_TURNS = {spec.id: spec.actuators for spec in experiment_config().agents}
POC_TURNS["both"] = POC_TURNS["attacker"] + POC_TURNS["defender"]
DEVICE_FIELDS = {"transformer": "transformers", "generator": "generators", "load": "loads"}


@st.composite
def poc_grids_near_limits(draw):
    """The poc grid with every actuated device at a limit, one partial step inside it, or midway."""
    g = arl_poc_grid()
    for i in range(6):
        g = g.with_tap(i, draw(st.sampled_from([-9, -8, 0, 8, 9])))
        g = g.with_load_scaling(i, draw(st.sampled_from([0.5, 0.55, 1.0, 1.45, 1.5])))
    for i in range(4):
        g = g.with_generator_setpoint(i, draw(st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0])),
                                      draw(st.sampled_from([-0.3, -0.27, 0.0, 0.27, 0.3])))
    return g


def one_label_at_a_time(grid, actions):
    """The grid after ``actions``, one with_* copy per non-hold label, with this test's own steps."""
    for ref, label in actions.items():
        i = ref.index
        if label == HOLD:
            continue
        if ref.kind == "transformer":
            step = TAP_STEP if label == "increment" else -TAP_STEP
            grid = grid.with_tap(i, grid.transformers[i].tap_pos + step)
        elif ref.kind == "generator":
            dp, dq = {"p_inc": (GEN_P_STEP_MW, 0.0), "p_dec": (-GEN_P_STEP_MW, 0.0),
                      "q_inc": (0.0, GEN_Q_STEP_MVAR), "q_dec": (0.0, -GEN_Q_STEP_MVAR)}[label]
            g = grid.generators[i]
            grid = grid.with_generator_setpoint(i, g.p_mw + dp, g.q_mvar + dq)
        else:
            step = LOAD_SCALING_STEP if label == "increment" else -LOAD_SCALING_STEP
            grid = grid.with_load_scaling(i, grid.loads[i].scaling + step)
    return grid


@contextlib.contextmanager
def counting_copies_and_solves(world):
    """Count GridModel.with_targets calls and collect the grids solved, with the solver stubbed out."""
    calls = {"copies": 0, "solves": []}
    with_targets = GridModel.with_targets

    def copy(*args, **kwargs):
        calls["copies"] += 1
        return with_targets(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "solve_newton_raphson", lambda grid: calls["solves"].append(grid) or world.solution)
        mp.setattr(GridModel, "with_targets", copy)
        yield calls


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(grid=poc_grids_near_limits(), data=st.data())
def test_turn_is_one_copy_equal_to_its_labels_applied_one_at_a_time(grid, data):
    world = WorldState(t=0, grid=grid, solution=None)
    actuators = POC_TURNS[data.draw(st.sampled_from(sorted(POC_TURNS)))]
    holds_only = data.draw(st.booleans())
    actions = {ref: HOLD if holds_only else data.draw(st.sampled_from(LABELS_BY_KIND[ref.kind]))
               for ref in actuators}
    with counting_copies_and_solves(world) as calls:
        after = apply_actions(world, actions)
    assert calls == {"copies": 1, "solves": [after.grid]}
    expected = one_label_at_a_time(grid, actions)
    assert after.grid == expected
    assert repr(after.grid) == repr(expected)  # the same bits in every float, -0.0 included
    assert after.grid.buses is grid.buses and after.grid.lines is grid.lines
    for kind, name in DEVICE_FIELDS.items():
        if all(label == HOLD for ref, label in actions.items() if ref.kind == kind):
            assert getattr(after.grid, name) is getattr(grid, name)
    if holds_only:
        assert after.grid is grid


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(grid=poc_grids_near_limits(), data=st.data())
def test_bad_turn_raises_before_any_copy_or_solve(grid, data):
    world = WorldState(t=0, grid=grid, solution=None)
    actuators = POC_TURNS["both"]
    actions = {ref: data.draw(st.sampled_from(LABELS_BY_KIND[ref.kind])) for ref in actuators}
    ref = data.draw(st.sampled_from(actuators))
    foreign = sorted({label for labels in LABELS_BY_KIND.values() for label in labels}
                     - set(LABELS_BY_KIND[ref.kind]))
    actions[ref] = data.draw(st.sampled_from(foreign))
    with counting_copies_and_solves(world) as calls, pytest.raises(ValueError, match="unknown .* action label"):
        apply_actions(world, actions)
    assert calls == {"copies": 0, "solves": []}


# -- performance, attack success, phases ---------------------------------------------


def test_performance_is_one_at_nominal_voltage():
    assert system_performance(fake_world(np.ones(14)), CFG) == 1.0


def test_performance_with_one_bus_at_band_edge():
    v = np.ones(14)
    v[4] = 1.1
    assert system_performance(fake_world(v), CFG) == pytest.approx(13.0 / 14.0, abs=1e-15)


def test_performance_zero_when_diverged():
    assert system_performance(fake_world(np.ones(14), converged=False), CFG) == 0.0


def test_performance_bounds(rng):
    for _ in range(100):
        v = rng.uniform(0.5, 1.5, size=14)
        p = system_performance(fake_world(v), CFG)
        assert 0.0 <= p <= 1.0
        assert (p == 1.0) == bool(np.all(v == 1.0))


@st.composite
def mean_inputs(draw):
    """1-300 values near 1 pu with up to three huge, infinite, NaN or arbitrary floats among them."""
    values = draw(st.lists(st.floats(0.85, 1.15), min_size=1, max_size=297))
    for _ in range(draw(st.integers(0, 3))):
        special = draw(st.sampled_from([1e308, -1e308, math.inf, -math.inf, math.nan]) | st.floats())
        values.insert(draw(st.integers(0, len(values))), special)
    return np.array(values)


def outcome(f, *args):
    """f's result as float bytes, or the type and message of what it raised, with warnings raised as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.float64(f(*args)).tobytes()
        except Exception as exc:
            return type(exc), str(exc)


def np_mean_discretize(h, x):
    """TabularQAgent.discretize with the mean taken by np.mean."""
    frac = (float(np.mean(x)) - h.bin_lo) / (h.bin_hi - h.bin_lo)
    return int(min(max(frac * h.n_bins, 0), h.n_bins - 1))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(x=mean_inputs())
def test_step_means_keep_np_mean_bits(x):
    """system_performance and discretize take np.mean's pairwise sum and one division, bit for bit."""
    assert outcome(system_performance, fake_world(x), CFG) == outcome(
        lambda v: float(np.mean(np.maximum(0.0, 1.0 - np.abs(v - 1.0) / (CFG.v_hi - 1.0)))), x)
    hypers = [TabularHyper()]
    with np.errstate(all="ignore"):
        mean = float(np.mean(x))
    lo = float(np.nextafter(np.nextafter(mean, -math.inf), -math.inf))
    hi = float(np.nextafter(np.nextafter(mean, math.inf), math.inf))
    if math.isfinite(lo) and math.isfinite(hi):  # four bins one ulp wide around the mean: any other mean moves bin
        hypers.append(TabularHyper(n_bins=4, bin_lo=lo, bin_hi=hi))
    for h in hypers:
        agent = TabularQAgent((3,), h, np.random.default_rng(0))
        assert outcome(agent.discretize, x) == outcome(np_mean_discretize, h, x)


def phase(v_pu, converged=True):
    """The operating phase of one row of bus voltages."""
    return operational_phases([v_pu], [converged], CFG)[0]


def test_attack_success_cases(poc_grid):
    def attack_successful(world):
        return phase(world.solution.v_pu, world.solution.converged) in ATTACK_PHASES

    assert not attack_successful(initial_world(poc_grid))
    v = np.ones(14)
    v[2] = 1.11
    assert attack_successful(fake_world(v))
    assert attack_successful(fake_world(np.ones(14), converged=False))
    assert not attack_successful(fake_world(np.full(14, 1.1)))  # edge is legal


def test_operational_phase_cases(poc_grid):
    base = initial_world(poc_grid).solution
    assert phase(base.v_pu, base.converged) == "normal"
    v = np.ones(14)
    v[5] = 1.07
    assert phase(v) == "alert"
    v[5] = 1.2
    assert phase(v) == "emergency"
    assert phase(np.ones(14), False) == "blackout"


def test_operational_phase_monotone_in_severity(rng):
    severity = {"normal": 0, "alert": 1, "emergency": 2, "blackout": 3}
    for _ in range(200):
        v = rng.uniform(0.92, 1.08, size=14)
        before = phase(v)
        worse = v.copy()
        bus = int(rng.integers(14))
        worse[bus] = 1.0 + np.sign(worse[bus] - 1.0 or 1.0) * (abs(worse[bus] - 1.0) + rng.uniform(0, 0.2))
        after = phase(worse)
        assert severity[after] >= severity[before]
        assert severity["blackout"] >= severity[phase(worse)]


# -- asymmetry -------------------------------------------------------------------------


def test_asymmetry_constant_series_holds():
    assert check_asymmetry_series([1.0] * 20, 0.5, t0=0) == (True, None)


def test_asymmetry_reports_first_violation():
    series = [1.0] * 20
    series[7] = 0.4
    series[12] = 0.3
    assert check_asymmetry_series(series, 0.5, t0=0) == (False, 7)


def test_asymmetry_grace_window_skips_early_violation():
    series = [1.0] * 20
    series[7] = 0.4
    assert check_asymmetry_series(series, 0.5, t0=7) == (True, None)


def test_asymmetry_vacuous_at_last_step():
    series = [0.1, 0.2, 0.3]
    assert check_asymmetry_series(series, 0.5, t0=2) == (True, None)


def fake_runlog(p_values):
    steps = tuple(
        StepRecord(
            t=i + 1, agent_id="a", x=np.array([1.0]), y=("hold",), reward=0.0,
            p_world=float(p), v_pu=np.array([1.0]), theta_rad=np.array([0.0]),
            p_inj_pu=np.array([0.0]), q_inj_pu=np.array([0.0]), converged=True,
        )
        for i, p in enumerate(p_values)
    )
    return RunLog(
        config_fingerprint="x", name="fake", seed=0, rounds=len(p_values),
        steps_per_turn=1, performance=CFG,
        agents=(AgentSummary("a", "attacker", "qnet"),),
        initial_v_pu=np.array([1.0]), initial_theta_rad=np.array([0.0]),
        initial_converged=True, initial_p_world=1.0, steps=steps,
    )


def test_check_asymmetry_over_runlog():
    cfg = PerformanceConfig(p_fail=0.5)
    log = fake_runlog([1.0, 1.0, 0.4, 1.0])
    p_series = [rec.p_world for rec in log.steps]
    first_t = log.steps[0].t
    assert check_asymmetry_series(p_series, cfg.p_fail, t0=0, first_t=first_t) == (False, 3)
    assert check_asymmetry_series(p_series, cfg.p_fail, t0=3, first_t=first_t) == (True, None)


# -- resilience phases ------------------------------------------------------------------


def test_constant_series_is_single_plan_segment():
    segments = classify_resilience_phases([1.0] * 10, CFG)
    assert segments == [(PLAN, 0, 9)]


def test_v_shaped_series_walks_all_four_phases():
    series = [1.0, 1.0, 0.8, 0.6, 0.4, 0.6, 0.8, 1.0, 1.0]
    segments = classify_resilience_phases(series, CFG)
    assert [s.phase for s in segments] == [PLAN, ABSORB, RECOVER, ADAPT]
    assert segments[0] == (PLAN, 0, 1)
    assert segments[1] == (ABSORB, 2, 4)
    assert segments[2] == (RECOVER, 5, 6)
    assert segments[3] == (ADAPT, 7, 8)


def test_double_dip_second_event_stays_above_failure():
    cfg = PerformanceConfig(p_fail=0.55)
    series = [1.0, 1.0, 0.7, 0.5, 0.7, 0.9, 1.0, 1.0, 0.8, 0.65, 0.8, 1.0, 1.0]
    segments = classify_resilience_phases(series, cfg)
    assert [s.phase for s in segments] == [
        PLAN, ABSORB, RECOVER, ADAPT, ABSORB, RECOVER, ADAPT,
    ]
    first_event = [v for seg in segments[1:3] for v in series[seg.start : seg.end + 1]]
    second_event = [v for seg in segments[4:6] for v in series[seg.start : seg.end + 1]]
    assert min(first_event) < cfg.p_fail
    assert min(second_event) > cfg.p_fail


def test_segments_tile_the_series(rng):
    series = list(np.clip(1.0 + np.cumsum(rng.normal(0, 0.05, size=60)), 0.0, 1.0))
    segments = classify_resilience_phases(series, CFG)
    assert segments[0].start == 0
    assert segments[-1].end == len(series) - 1
    for prev, nxt in zip(segments, segments[1:]):
        assert nxt.start == prev.end + 1


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        classify_resilience_phases([], CFG)


# -- run_experiment ------------------------------------------------------------------------


def test_zero_rounds_yields_initial_state_only():
    log = run_experiment(experiment_config(rounds=0))
    assert log.steps == ()
    assert log.initial_converged
    assert log.initial_p_world == pytest.approx(0.9028078009906599)
    assert log.config_fingerprint


def test_one_round_schedules_attacker_before_defender():
    log = run_experiment(experiment_config(rounds=1))
    assert [rec.agent_id for rec in log.steps] == ["attacker", "defender"]
    assert [rec.t for rec in log.steps] == [1, 2]


def test_steps_per_turn_repeats_each_agent():
    log = run_experiment(experiment_config(rounds=1, steps_per_turn=2))
    assert [rec.agent_id for rec in log.steps] == ["attacker", "attacker", "defender", "defender"]
    assert [rec.t for rec in log.steps] == [1, 2, 3, 4]


def recording_epsilons(monkeypatch):
    """Wrap both learners' act; returns {learner class name: [epsilon of each call]}."""
    calls = {}
    for cls in (QNetAgent, TabularQAgent):
        def act(self, x, epsilon, _act=cls.act):
            calls.setdefault(type(self).__name__, []).append(epsilon)
            return _act(self, x, epsilon)
        monkeypatch.setattr(cls, "act", act)
    return calls


def test_each_turn_acts_with_its_agents_epsilon(monkeypatch):
    """Agent k's n-th act, counted over rounds and steps_per_turn, gets its own schedule's value(n)."""
    qnet = QNetHyper(hidden=8, batch_size=4, replay_capacity=64, epsilon=EpsilonSchedule(1.0, 0.1, 5))
    tabular = TabularHyper(epsilon=EpsilonSchedule(0.5, 0.2, 3))
    cfg = experiment_config(rounds=4, steps_per_turn=2)
    agents = tuple(dataclasses.replace(spec, learner=h) for spec, h in zip(cfg.agents, (qnet, tabular)))
    calls = recording_epsilons(monkeypatch)
    run_experiment(dataclasses.replace(cfg, agents=agents))
    assert calls == {"QNetAgent": [qnet.epsilon.value(n) for n in range(8)],
                     "TabularQAgent": [tabular.epsilon.value(n) for n in range(8)]}
    # Both the decaying part and the constant end are covered.
    assert calls["QNetAgent"][4] > 0.1 and calls["QNetAgent"][5:] == [0.1] * 3
    assert calls["TabularQAgent"][2] > 0.2 and calls["TabularQAgent"][3:] == [0.2] * 5


def test_poc_explores_to_its_last_turn(monkeypatch):
    """poc's 1000 attacker turns end at n = 999, one short of its schedule's 1000 decay steps."""
    cfg = load_config_path(fixture_path("poc.json"))
    calls = recording_epsilons(monkeypatch)
    run_experiment(cfg)
    attacker = calls["QNetAgent"][0::2]
    assert len(attacker) == cfg.rounds == 1000
    assert attacker[-1] == cfg.agents[0].learner.epsilon.value(999) > cfg.agents[0].learner.epsilon.end
    assert round(attacker[-1], 5) == 0.05095


def test_per_agent_time_is_strictly_increasing():
    log = run_experiment(experiment_config(rounds=3))
    by_agent = {}
    for rec in log.steps:
        by_agent.setdefault(rec.agent_id, []).append(rec.t)
    for ts in by_agent.values():
        assert ts == sorted(ts)
        assert len(set(ts)) == len(ts)


def test_runs_are_deterministic(tmp_path):
    from gridduel.results import write_run_log

    log_a = run_experiment(experiment_config(rounds=4, seed=42))
    log_b = run_experiment(experiment_config(rounds=4, seed=42))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    write_run_log(log_a, pa)
    write_run_log(log_b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_different_seeds_diverge():
    log_a = run_experiment(experiment_config(rounds=4, seed=1))
    log_b = run_experiment(experiment_config(rounds=4, seed=2))
    ya = [rec.y for rec in log_a.steps]
    yb = [rec.y for rec in log_b.steps]
    assert ya != yb


def test_recorded_steps_replay_bit_identically():
    cfg = experiment_config(rounds=3, seed=11)
    log = run_experiment(cfg)
    spec_by_id = {spec.id: spec for spec in cfg.agents}
    world = initial_world(cfg.build_grid())
    for rec in log.steps:
        spec = spec_by_id[rec.agent_id]
        world = apply_actions(world, dict(zip(spec.actuators, rec.y)))
        assert world.t == rec.t
        assert world.solution.v_pu.tobytes() == rec.v_pu.tobytes()
        assert world.solution.theta_rad.tobytes() == rec.theta_rad.tobytes()


def lone_attacker_600_rounds():
    return dataclasses.replace(load_config_path(fixture_path("lone_attacker.json")), rounds=600)


def two_bus_huge_load():
    """two_bus with a load no solve survives, over 40 rounds of its load-scaling actuator."""
    doc = json.loads(fixture_path("two_bus.json").read_text(encoding="utf-8"))
    doc["grid"]["loads"][0]["p_mw"] = 1e250
    doc["schedule"]["rounds"] = 40
    return load_config(json.dumps(doc))


def replayed_grids(cfg, log):
    """The initial grid and every step's grid, rebuilt from the logged labels with this test's own steps."""
    actuators = {spec.id: spec.actuators for spec in cfg.agents}
    grids = [cfg.build_grid()]
    for rec in log.steps:
        grids.append(one_label_at_a_time(grids[-1], dict(zip(actuators[rec.agent_id], rec.y))))
    return grids


@pytest.mark.parametrize("make_config", [lone_attacker_600_rounds, two_bus_huge_load],
                         ids=["lone_attacker", "huge_load"])
def test_a_run_solves_each_distinct_actuator_setting_once(monkeypatch, make_config):
    """The initial solve plus one per new actuator setting; a repeated setting, failed or not, is not solved again."""
    solved = []

    def counting_solve(grid):
        solved.append(grid)
        return solve_newton_raphson(grid)

    monkeypatch.setattr(core, "solve_newton_raphson", counting_solve)
    cfg = make_config()
    log = run_experiment(cfg)
    settings_seen = {(g.transformers, g.generators, g.loads) for g in replayed_grids(cfg, log)}
    assert len(solved) == len(settings_seen) < len(log.steps)
    assert len({(g.transformers, g.generators, g.loads) for g in solved}) == len(solved)


@pytest.mark.parametrize("make_config, converged", [
    (lone_attacker_600_rounds, True),
    # Moves taps, generators and loads; its step 187 reuses a wrong solution if the key leaves out generators.
    (lambda: experiment_config(rounds=200, learner="tabular"), True),
    (two_bus_huge_load, False),
], ids=["lone_attacker", "tabular_poc", "huge_load"])
def test_a_reused_solution_equals_a_fresh_solve_of_its_grid(make_config, converged):
    """Every step, memo hit or not, holds the bits a fresh solve of its replayed grid gives; failed solves too."""
    cfg = make_config()
    log = run_experiment(cfg)
    assert {rec.converged for rec in log.steps} == {converged}
    for rec, grid in zip(log.steps, replayed_grids(cfg, log)[1:]):
        fresh = solve_newton_raphson(grid)
        assert rec.converged == fresh.converged
        for name in ("v_pu", "theta_rad", "p_inj_pu", "q_inj_pu"):
            assert getattr(rec, name).tobytes() == getattr(fresh, name).tobytes(), (rec.t, name)


@st.composite
def random_configs(draw):
    """A radial grid whose devices an attacker and a defender split at random, each with a Q-net or tabular learner."""
    grid = draw(radial_grids())
    devices = [ActuatorRef(kind, i) for kind in LABELS_BY_KIND for i in range(len(getattr(grid, kind + "s")))]
    owners = [draw(st.booleans()) for _ in devices]
    agents = []
    for agent_class in (ATTACKER, DEFENDER):
        learner = draw(st.one_of(
            st.builds(QNetHyper, batch_size=st.integers(1, 8), hidden=st.integers(1, 8),
                      learning_rate=st.floats(0.0, 1.0)),
            st.just(TabularHyper())))
        buses = draw(st.lists(st.integers(0, grid.n_bus - 1), min_size=1, max_size=3))
        agents.append(AgentSpec(agent_class, [(bus, "v_pu") for bus in buses],
                                [ref for ref, owner in zip(devices, owners) if owner == (agent_class == ATTACKER)],
                                RewardParams(agent_class=agent_class), learner))
    return ExperimentConfig("random", draw(st.integers(0, 2**64 - 1)), grid, agents, rounds=draw(st.integers(1, 40)),
                            steps_per_turn=draw(st.integers(1, 3)), performance=PerformanceConfig(),
                            outputs=OutputPaths("grid.csv", "agents.csv", "metrics.json"))


def json_lines(doc):
    """A document's JSON text as lines, so that a failure names the first line that differs."""
    return "".join(json_pieces(doc)).split("\n")


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(cfg=random_configs())
def test_random_runs_keep_the_run_contract(tmp_path_factory, cfg):
    """Determinism, the memo, the run-log round trip and the metrics hold on random grids and agents.

    The draws move taps, generators and loads, and some of their solves fail,
    so a memo key that leaves out a device kind makes some draw's run differ
    from its run without the memo.  ``stopped`` is covered only when a draw
    diverges, and none of these does.
    """
    apply = core.apply_actions
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = run_experiment(cfg)
        lines = json_lines(encode(log))
        assert json_lines(encode(run_experiment(cfg))) == lines
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "apply_actions", lambda world, actions, solutions=None: apply(world, actions))
            assert json_lines(encode(run_experiment(cfg))) == lines
        path = tmp_path_factory.mktemp("run_log") / "run_log.json"
        write_run_log(log, path)
        back = read_run_log(path)
        assert path.read_text(encoding="utf-8").split("\n") == lines == json_lines(encode(back))
        assert (json_lines(metrics_doc(compute_metrics(log, cfg.performance), log))
                == json_lines(metrics_doc(compute_metrics(back, cfg.performance), back)))


def test_a_run_checks_its_grid_a_constant_number_of_times(monkeypatch):
    """A grid is checked where it is built; no solve or actuator move checks it again."""
    calls = []
    check = GridModel.validate

    def counting_check(grid):
        calls.append(grid)
        check(grid)

    monkeypatch.setattr(GridModel, "validate", counting_check)
    counts = {}
    for rounds in (1, 20):
        cfg = experiment_config(rounds=rounds, learner="tabular")
        calls.clear()
        assert len(run_experiment(cfg).steps) == 2 * rounds
        counts[rounds] = len(calls)
    assert counts[1] == counts[20] >= 1


def test_lone_attacker_run_is_supported():
    log = run_experiment(experiment_config(rounds=2, lone=True))
    assert [rec.agent_id for rec in log.steps] == ["attacker", "attacker"]


def test_tabular_learner_runs_end_to_end():
    log = run_experiment(experiment_config(rounds=2, learner="tabular"))
    assert len(log.steps) == 4


def test_step_rewards_match_reward_of_next_observation():
    from gridduel.agents import reward as reward_fn

    cfg = experiment_config(rounds=2, seed=3)
    log = run_experiment(cfg)
    spec_by_id = {spec.id: spec for spec in cfg.agents}
    for rec in log.steps:
        spec = spec_by_id[rec.agent_id]
        sensed = np.array([rec.v_pu[bus] for bus, _ in spec.sensors])
        assert rec.reward == reward_fn(spec.reward, float(np.mean(sensed)))
