import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridduel.agents import reward as reward_fn
from gridduel.codec import encode, json_pieces
from gridduel.core import AgentSummary, PerformanceConfig, RunLog, StepRecord, run_experiment
from gridduel.results import (
    AGENT_LOG_HEADER,
    GRID_LOG_HEADER,
    MARGIN_TOP,
    VIEW_H,
    compute_metrics,
    emit_plot,
    metrics_doc,
    read_run_log,
    write_agent_log,
    write_grid_log,
    write_metrics,
    write_run_log,
)

from .conftest import experiment_config

CFG = PerformanceConfig()


@pytest.fixture(scope="module")
def short_run():
    cfg = experiment_config(rounds=3, seed=42)
    return cfg, run_experiment(cfg)


# -- CSV logs ----------------------------------------------------------------------


def test_grid_log_row_shape(tmp_path, short_run):
    _, log = short_run
    path = tmp_path / "grid.csv"
    write_grid_log(log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == GRID_LOG_HEADER
    assert len(lines) == 1 + len(log.steps) * 14
    assert all(line.count(",") == 5 for line in lines)
    assert path.read_bytes().endswith(b"\n")
    assert b"\r" not in path.read_bytes()


def test_grid_log_single_step_has_one_row_per_bus(tmp_path):
    cfg = experiment_config(rounds=1, lone=True)
    log = run_experiment(cfg)
    path = tmp_path / "grid.csv"
    write_grid_log(log, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 14


def test_grid_log_is_byte_stable(tmp_path, short_run):
    _, log = short_run
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_grid_log(log, a)
    write_grid_log(log, b)
    assert a.read_bytes() == b.read_bytes()


def test_grid_log_round_trips_voltages(tmp_path, short_run):
    _, log = short_run
    path = tmp_path / "grid.csv"
    write_grid_log(log, path)
    lines = path.read_text().splitlines()[1:]
    first_step = [line.split(",") for line in lines[:14]]
    parsed = np.array([float(cells[2]) for cells in first_step])
    assert np.array_equal(parsed, log.steps[0].v_pu)  # 17 digits round-trip exactly


def test_agent_log_shape_and_reward_identity(tmp_path, short_run):
    cfg, log = short_run
    path = tmp_path / "agent.csv"
    write_agent_log(log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == AGENT_LOG_HEADER
    assert len(lines) == 1 + len(log.steps)
    spec_by_id = {spec.id: spec for spec in cfg.agents}
    for line in lines[1:]:
        step, agent_id, inputs, outputs, reward_cell = line.split(",")
        spec = spec_by_id[agent_id]
        values = np.array([float(v) for v in inputs.split(";")])
        assert len(values) == 14
        n_outputs = len(outputs.split(";"))
        assert n_outputs == len(spec.actuators)
        recomputed = reward_fn(spec.reward, float(np.mean(values)))
        assert float(reward_cell) == recomputed


def test_agent_log_is_byte_stable(tmp_path, short_run):
    _, log = short_run
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_agent_log(log, a)
    write_agent_log(log, b)
    assert a.read_bytes() == b.read_bytes()


# -- run-log JSON round trip ----------------------------------------------------------


def test_run_log_json_round_trip(tmp_path, short_run):
    _, log = short_run
    first = tmp_path / "log.json"
    second = tmp_path / "log2.json"
    write_run_log(log, first)
    restored = read_run_log(first)
    write_run_log(restored, second)
    assert first.read_bytes() == second.read_bytes()
    assert restored.config_fingerprint == log.config_fingerprint
    assert len(restored.steps) == len(log.steps)
    assert np.array_equal(restored.steps[-1].v_pu, log.steps[-1].v_pu)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# Any text the UTF-8 writer can encode: no lone surrogates.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)


def _vectors(min_size=0, max_size=3):
    return st.lists(_FLOATS, min_size=min_size, max_size=max_size).map(np.array)


@st.composite
def run_logs(draw):
    n_bus = draw(st.integers(1, 4))
    bus_vector = _vectors(n_bus, n_bus)
    ids = draw(st.lists(_TEXT, min_size=1, max_size=2, unique=True))
    step = st.builds(
        StepRecord, t=st.integers(0, 10**6), agent_id=st.sampled_from(ids), x=_vectors(),
        y=st.lists(_TEXT, max_size=3).map(tuple), reward=_FLOATS, p_world=_FLOATS,
        v_pu=bus_vector, theta_rad=bus_vector, p_inj_pu=bus_vector, q_inj_pu=bus_vector,
        converged=st.booleans(),
    )
    p_star = draw(st.floats(0.01, 1.0))
    return RunLog(
        config_fingerprint=draw(_TEXT), name=draw(_TEXT), seed=draw(st.integers(0, 2**64 - 1)),
        rounds=draw(st.integers(0, 10**6)), steps_per_turn=draw(st.integers(1, 5)),
        performance=PerformanceConfig(p_star=p_star, p_fail=p_star * draw(st.floats(0.0, 0.99)),
                                      v_lo=draw(st.floats(0.5, 0.99)), v_hi=draw(st.floats(1.01, 1.5))),
        agents=tuple(AgentSummary(i, draw(_TEXT), draw(_TEXT)) for i in ids),
        initial_v_pu=draw(bus_vector), initial_theta_rad=draw(bus_vector),
        initial_converged=draw(st.booleans()), initial_p_world=draw(_FLOATS),
        steps=tuple(draw(st.lists(step, max_size=4))), stopped=draw(st.none() | _TEXT),
    )


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(log=run_logs())
def test_run_log_write_read_write_is_byte_identical(tmp_path_factory, log):
    directory = tmp_path_factory.mktemp("run_log")
    write_run_log(log, directory / "first.json")
    write_run_log(read_run_log(directory / "first.json"), directory / "second.json")
    assert (directory / "second.json").read_bytes() == (directory / "first.json").read_bytes()


# -- streamed writers -------------------------------------------------------------------


@pytest.fixture(scope="module")
def long_log():
    """A poc-shaped run log of 4000 steps: 14 buses, 14 inputs, two agents."""
    rng = np.random.default_rng(7)

    def vec(scale, centre=0.0):
        return centre + rng.normal(0.0, scale, 14)

    steps = tuple(
        StepRecord(t=t, agent_id="ab"[t % 2], x=vec(0.02, 1.0), y=("increment", "hold"),
                   reward=float(rng.normal()), p_world=float(rng.random()), v_pu=vec(0.02, 1.0),
                   theta_rad=vec(0.01), p_inj_pu=vec(0.05), q_inj_pu=vec(0.05), converged=t % 97 != 0)
        for t in range(1, 4001)
    )
    return RunLog(
        config_fingerprint="f" * 64, name="long", seed=1, rounds=2000, steps_per_turn=1,
        performance=CFG, agents=(AgentSummary("a", "defender", "qnet"), AgentSummary("b", "attacker", "qnet")),
        initial_v_pu=vec(0.02, 1.0), initial_theta_rad=vec(0.01), initial_converged=True,
        initial_p_world=1.0, steps=steps,
    )


def _one_shot_json(doc):
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _one_shot_grid_log(log):
    rows = [GRID_LOG_HEADER]
    for rec in log.steps:
        for b in range(len(rec.v_pu)):
            rows.append(f"{rec.t},{b},{rec.v_pu[b]:.17g},{rec.theta_rad[b]:.17g},"
                        f"{rec.p_inj_pu[b]:.17g},{rec.q_inj_pu[b]:.17g}")
    return "\n".join(rows) + "\n"


def _one_shot_agent_log(log):
    rows = [AGENT_LOG_HEADER]
    for rec in log.steps:
        inputs = ";".join(f"{v:.17g}" for v in rec.x)
        rows.append(f"{rec.t},{rec.agent_id},{inputs},{';'.join(rec.y)},{rec.reward:.17g}")
    return "\n".join(rows) + "\n"


# Floats whose text is easy to get wrong: signed zero, NaN, infinities, the least subnormal, the largest float.
EDGE_FLOATS = np.resize([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308], 14)


def test_streamed_writers_match_the_one_shot_text(tmp_path, long_log):
    """Across many write batches, every writer gives the bytes of its one-shot form."""
    edge = StepRecord(t=4001, agent_id="a", x=EDGE_FLOATS, y=("hold", "hold"), reward=5e-324, p_world=-0.0,
                      v_pu=EDGE_FLOATS, theta_rad=EDGE_FLOATS[::-1], p_inj_pu=-EDGE_FLOATS,
                      q_inj_pu=EDGE_FLOATS, converged=True)
    long_log = replace(long_log, steps=(*long_log.steps, edge))
    with np.errstate(invalid="ignore"):  # the edge step's inf and -inf mean to NaN
        report = compute_metrics(long_log, CFG)
    for doc in (encode(long_log), metrics_doc(report, long_log)):
        assert len(list(json_pieces(doc))) > 1
    write_run_log(long_log, tmp_path / "log.json")
    write_metrics(report, long_log, tmp_path / "metrics.json")
    write_grid_log(long_log, tmp_path / "grid.csv")
    write_agent_log(long_log, tmp_path / "agent.csv")
    expected = {
        "log.json": _one_shot_json(encode(long_log)),
        "metrics.json": _one_shot_json(metrics_doc(report, long_log)),
        "grid.csv": _one_shot_grid_log(long_log),
        "agent.csv": _one_shot_agent_log(long_log),
    }
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name


# JSON values for the emitter's oracle: every scalar kind, with the floats, integers
# and characters whose text is easy to get wrong, in nested and empty containers.
_JSON_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308])
_JSON_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\té€😀a') | st.characters(), max_size=6)
_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2**80, 2**80) | _JSON_FLOATS | _JSON_TEXT)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.lists(_JSON_FLOATS, max_size=4) | st.lists(_JSON_FLOATS, max_size=4).map(tuple)
                   | st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=16,
)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(doc=_JSON_VALUES | st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=5))
def test_json_pieces_is_the_one_shot_text(doc):
    """The emitter's pieces join to json.dumps's text for any JSON value, NaN and infinities included."""
    assert "".join(json_pieces(doc)) == _one_shot_json(doc)


def _traced_peak(write) -> int:
    """Peak bytes traced while write() runs, above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "writer, bound",
    [(write_run_log, 2.0), (write_grid_log, 0.5), (write_agent_log, 0.5)],
    ids=["run_log", "grid_log", "agent_log"],
)
def test_writer_memory_stays_below_file_size(tmp_path, long_log, writer, bound):
    """No writer holds its whole text: the run log's peak includes only its encoded document."""
    path = tmp_path / "out"
    peak = _traced_peak(lambda: writer(long_log, path))
    assert peak < bound * path.stat().st_size


# -- metrics -----------------------------------------------------------------------------


def test_cumulative_positive_reward_counting(short_run):
    _, log = short_run
    report = compute_metrics(log, CFG)
    for agent in log.agents:
        series = report.cumulative_positive_rewards[agent.agent_id]
        assert len(series) == len(log.steps)
        assert list(series) == sorted(series)  # monotone non-decreasing
        expected = sum(
            1 for rec in log.steps if rec.agent_id == agent.agent_id and rec.reward > 0
        )
        assert series[-1] == expected


def test_cumulative_example_values():
    from .test_core import fake_runlog

    log = fake_runlog([1.0, 1.0, 1.0])
    rewards = [0.5, -0.2, 0.1]
    steps = tuple(
        rec.__class__(**{**rec.__dict__, "reward": rewards[i]})
        for i, rec in enumerate(log.steps)
    )
    log = log.__class__(**{**log.__dict__, "steps": steps})
    report = compute_metrics(log, CFG)
    assert list(report.cumulative_positive_rewards["a"]) == [1, 1, 2]


def test_metrics_series_lengths_and_attack_step(short_run):
    _, log = short_run
    report = compute_metrics(log, CFG)
    n = len(log.steps)
    assert len(report.steps) == n
    assert len(report.mean_voltage) == n
    assert len(report.p_world) == n
    assert len(report.operational_phase) == n
    assert report.attack_success_step is None  # nominal-ish short run stays in band
    assert all(phase in ("normal", "alert") for phase in report.operational_phase)


@pytest.mark.parametrize(
    "v_pu, converged, expected",
    [([1.0, 1.0], False, 2), ([1.0, 1.2], True, 2), ([1.0, CFG.v_hi], True, None)],
)
def test_attack_success_step_is_first_step_out_of_band(v_pu, converged, expected):
    from .test_core import fake_runlog

    log = fake_runlog([1.0, 1.0, 1.0])
    two_bus = {"v_pu": np.ones(2), "theta_rad": np.zeros(2), "p_inj_pu": np.zeros(2), "q_inj_pu": np.zeros(2)}
    first, second, third = (replace(rec, **two_bus) for rec in log.steps)
    steps = (first, replace(second, v_pu=np.array(v_pu), converged=converged), third)
    log = replace(log, initial_v_pu=np.ones(2), initial_theta_rad=np.zeros(2), steps=steps)
    report = compute_metrics(log, CFG)
    assert report.attack_success_step == expected


def _reference_phase(v_pu, converged, cfg):
    """The per-step band rule, one row at a time."""
    if not converged:
        return "blackout"
    if np.any(v_pu < cfg.v_lo) or np.any(v_pu > cfg.v_hi):
        return "emergency"
    if np.any(v_pu < 0.95) or np.any(v_pu > 1.05):
        return "alert"
    return "normal"


@st.composite
def voltage_logs(draw):
    """A run log of 1-20 buses whose voltages sit on the band edges, off the scale or in between."""
    n_bus = draw(st.integers(1, 20))
    cfg = PerformanceConfig(v_lo=draw(st.floats(0.5, 0.99)), v_hi=draw(st.floats(1.01, 1.5)))
    volt = st.one_of(st.sampled_from([cfg.v_lo, 0.95, 1.05, cfg.v_hi, np.nan, np.inf, -np.inf]),
                     st.floats(0.0, 2.0))
    zeros = np.zeros(n_bus)
    steps = tuple(
        StepRecord(t=t, agent_id="a", x=np.ones(1), y=("hold",), reward=0.0, p_world=1.0,
                   v_pu=np.array(draw(st.lists(volt, min_size=n_bus, max_size=n_bus))), theta_rad=zeros,
                   p_inj_pu=zeros, q_inj_pu=zeros, converged=draw(st.booleans()))
        for t in range(1, draw(st.integers(0, 8)) + 1)
    )
    return RunLog(
        config_fingerprint="x", name="bands", seed=0, rounds=len(steps), steps_per_turn=1, performance=cfg,
        agents=(AgentSummary("a", "attacker", "qnet"),), initial_v_pu=np.ones(n_bus), initial_theta_rad=zeros,
        initial_converged=True, initial_p_world=1.0, steps=steps,
    )


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(log=voltage_logs())
def test_metrics_match_the_per_step_rule(log):
    """The whole-matrix metrics equal a per-step mean and band rule, bit for bit."""
    cfg = log.performance
    with np.errstate(invalid="ignore"):  # inf and -inf on one row mean to NaN
        report = compute_metrics(log, cfg)
        mean_voltage = [float(np.mean(rec.v_pu)) for rec in log.steps]
    phases = [_reference_phase(rec.v_pu, rec.converged, cfg) for rec in log.steps]
    assert np.array(report.mean_voltage, float).tobytes() == np.array(mean_voltage, float).tobytes()
    assert report.operational_phase == tuple(phases)
    assert report.attack_success_step == next(
        (rec.t for rec, phase in zip(log.steps, phases) if phase in ("emergency", "blackout")), None)


def test_mean_voltage_matches_recorded_buses(short_run):
    _, log = short_run
    report = compute_metrics(log, CFG)
    for rec, mv in zip(log.steps, report.mean_voltage):
        assert mv == float(np.mean(rec.v_pu))


def test_metrics_doc_is_json_ready(tmp_path, short_run):
    _, log = short_run
    report = compute_metrics(log, CFG)
    doc = metrics_doc(report, log)
    text = json.dumps(doc)
    assert json.loads(text) == doc
    path = tmp_path / "m.json"
    write_metrics(report, log, path)
    assert json.loads(path.read_text())["name"] == log.name


def test_metrics_of_empty_run():
    log = run_experiment(experiment_config(rounds=0))
    report = compute_metrics(log, CFG)
    assert report.steps == ()
    assert report.resilience_segments == ()
    assert report.attack_success_step is None


# -- SVG charts -----------------------------------------------------------------------------


def _polyline_points(svg_text):
    match = re.search(r'<polyline[^>]*points="([^"]+)"', svg_text)
    assert match
    return [tuple(map(float, pair.split(","))) for pair in match.group(1).split()]


def test_constant_series_draws_midheight_line(tmp_path):
    path = tmp_path / "flat.svg"
    emit_plot([0.7] * 10, path)
    points = _polyline_points(path.read_text())
    mid = (MARGIN_TOP + (VIEW_H - 40)) / 2.0
    assert all(y == pytest.approx(mid, abs=1e-9) for _, y in points)
    assert len(points) == 10


def test_plot_emission_is_byte_stable(tmp_path):
    series = list(np.linspace(0.9, 1.1, 50))
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_plot(series, a, title="t", y_label="v")
    emit_plot(series, b, title="t", y_label="v")
    assert a.read_bytes() == b.read_bytes()


def test_plot_is_self_contained_svg(tmp_path):
    path = tmp_path / "c.svg"
    emit_plot([1.0, 2.0, 1.5], path, title="demo")
    text = path.read_text()
    assert text.startswith("<svg xmlns=")
    assert text.rstrip().endswith("</svg>")
    assert 'viewBox="0 0 800 400"' in text


def test_plot_window_framing_for_late_steps(tmp_path):
    # A 100-step window starting at step 1900 must label its axis 1900..1999.
    series = list(1.0 + 0.001 * np.arange(100))
    path = tmp_path / "window.svg"
    emit_plot(series, path, x_start=1900)
    text = path.read_text()
    assert ">1900<" in text
    assert ">1999<" in text
    assert ">0<" not in text


def test_plot_rejects_empty_series(tmp_path):
    with pytest.raises(ValueError):
        emit_plot([], tmp_path / "x.svg")
