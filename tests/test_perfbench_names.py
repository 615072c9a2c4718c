"""The gridduel names the benchmark in perfbench/ reads keep working.

perfbench reports a missing wrap point only as a stderr line and a per-layer
zero, and it replays logged action labels with its own copy of the device
steps; these tests fail instead.
"""

import dataclasses
import importlib
from pathlib import Path

import pytest

import gridduel
import gridduel.cli  # noqa: F401 - the tracer wraps cli functions too
from gridduel.config import fixture_path, load_config, load_config_path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def bench(monkeypatch):
    """perfbench's spans and run modules, imported from its directory."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans"), importlib.import_module("run")


def test_tracer_finds_every_wrap_point(bench):
    spans, _ = bench
    tracer = spans.Tracer()
    with tracer.installed(gridduel):
        pass
    assert tracer.missing == []


def test_synthetic_run_log_builds_from_poc(bench):
    _, run = bench
    cfg = load_config_path(fixture_path("poc.json"))
    log = run.synthetic_run_log(gridduel, cfg, 0, 20)
    assert len(log.steps) == 20
    assert [(a.agent_id, a.agent_class, a.learner_kind) for a in log.agents] == [
        ("attacker", "attacker", "qnet"), ("defender", "defender", "qnet")]
    rows = ((rec.t, rec.agent_id, rec.x, rec.reward) for rec in log.steps)
    assert run.check_rewards(gridduel, cfg, rows) == []


def tabular_poc(run):
    """perfbench's tabular poc duel, cut to 3 rounds."""
    text = run.tabular_config_text(gridduel, fixture_path("poc.json").read_text(encoding="utf-8"))
    return dataclasses.replace(load_config(text), rounds=3)


def test_replayed_labels_match_a_tabular_duel(bench):
    _, run = bench
    cfg = tabular_poc(run)
    assert {spec.learner_kind for spec in cfg.agents} == {"tabular"}
    log = gridduel.run_experiment(cfg)
    assert any(label != gridduel.agents.HOLD for rec in log.steps for label in rec.y)
    assert run.check_residuals(gridduel, cfg, log) == []


def test_tracer_counts_every_solver_call(bench):
    """A wrap point that exists but is bypassed would report 0 calls and no error.

    The 6 steps repeat no grid, so there is one solve per step and the initial
    one.  The admittance matrix is built only when the taps move: on the
    initial solve and on each attacker turn with a label other than hold.
    Each step calls ``act(x, epsilon)`` and ``learn`` once, through the wraps.
    Only the set-up grid is validated: a move's copy skips the constructor's check.
    """
    spans, run = bench
    tracer, cfg = spans.Tracer(), tabular_poc(run)  # the config's own checks build grids: outside the trace
    with tracer.installed(gridduel):
        log = gridduel.run_experiment(cfg)
    calls = {name: s["calls"] for name, s in tracer.summary().items()}
    assert len(log.steps) == 6
    for name in ("powerflow.solve", "grid.injections"):
        assert calls.get(name) == len(log.steps) + 1, name
    for name in ("agents.act", "agents.learn"):
        assert calls.get(name) == len(log.steps), name
    tap_moves = sum(rec.agent_id == "attacker" and set(rec.y) != {gridduel.agents.HOLD} for rec in log.steps)
    assert calls.get("grid.admittance") == 1 + tap_moves
    assert calls.get("grid.validate") == 1
