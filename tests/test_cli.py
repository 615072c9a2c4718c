import contextlib
import copy
import csv
import hashlib
import io
import json
import re
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridduel.config
from gridduel.cli import main
from gridduel.codec import encode, json_pieces
from gridduel.config import fixture_path, load_config_path
from gridduel.core import run_experiment

from .conftest import TWO_BUS_THETA2, TWO_BUS_V2, cli_env

TWO_BUS = str(fixture_path("two_bus.json"))
POC = str(fixture_path("poc.json"))


def zero_load_config(tmp_path: Path) -> str:
    """Inline config whose run sits at exactly 1.0 pu everywhere (p = 1)."""
    doc = {
        "name": "nominal",
        "seed": 5,
        "grid": {
            "s_base_mva": 10.0,
            "buses": [
                {"id": 0, "kind": "slack", "base_kv": 110.0, "v_setpoint_pu": 1.0},
                {"id": 1, "kind": "pq", "base_kv": 110.0},
            ],
            "lines": [{"from_bus": 0, "to_bus": 1, "r_pu": 0.01, "x_pu": 0.05}],
            "loads": [{"bus": 1, "p_mw": 0.0, "q_mvar": 0.0}],
        },
        "agents": [
            {
                "id": "defender",
                "class": "defender",
                "sensors": [{"bus": 0}, {"bus": 1}],
                "actuators": [],
                "learner": {"kind": "tabular"},
            }
        ],
        "schedule": {"rounds": 5},
        "performance": {},
        "outputs": {
            "grid_log_path": "out/nominal_grid.csv",
            "agent_log_path": "out/nominal_agent.csv",
            "metrics_path": "out/nominal_metrics.json",
            "run_log_path": "out/nominal_run_log.json",
        },
        "allow_single_class": True,
    }
    path = tmp_path / "nominal.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_run_two_bus_smoke(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert main(["run", "--config", TWO_BUS]) == 0
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out
    assert out.startswith("run complete: steps=2 ")
    for name in ("two_bus_grid_log.csv", "two_bus_agent_log.csv",
                 "two_bus_metrics.json", "two_bus_run_log.json"):
        assert (tmp_path / "out" / name).exists()


def test_run_does_not_mutate_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = Path(TWO_BUS).read_bytes()
    assert main(["run", "--config", TWO_BUS]) == 0
    assert Path(TWO_BUS).read_bytes() == before


def test_run_seed_override_changes_but_stays_reproducible(tmp_path, monkeypatch):
    outputs = []
    for sub in ("a", "b", "c"):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.chdir(d)
        seed = "7" if sub in ("a", "b") else "8"
        assert main(["run", "--config", POC, "--rounds", "5", "--seed", seed]) == 0
        outputs.append((d / "out" / "poc_agent_log.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0] != outputs[2]


def test_run_records_effective_values_in_metrics(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", POC, "--rounds", "3", "--seed", "9"]) == 0
    doc = json.loads((tmp_path / "out" / "poc_metrics.json").read_text())
    assert doc["rounds"] == 3
    assert doc["seed"] == 9


# sha256 of each file `gridduel run` writes for the two bundled duels as
# configured (2000 steps each); like tests/golden, they pin the bits that this
# numpy/LAPACK build gives.
FULL_RUN_SHA256 = {
    "lone_agent_log.csv": "6d76106f51a4bcaf6dd422ce81f1a3556bc4ace41cbfaa86c5f71612a670e05b",
    "lone_grid_log.csv": "dba76db6c6a7f86f31bcb170d965b09377b315bd99b7224800198ffdd5a3e969",
    "lone_metrics.json": "78de1bdf08de78db3df92a560f483ca341675eb4a4526bac7ad8b58259135dc4",
    "lone_run_log.json": "6f809a7368365422b44d91f57323920526195c8ba13a0dda7e1626370fb38574",
    "poc_agent_log.csv": "d7d4e57c1eefaadd8441ac4ec5c0612b841369541f173e5a0aef09f9a2ef7830",
    "poc_grid_log.csv": "692008823fe98abc0a14ea7df8926c73b06a46fb96844ee4e6e6c383e06fd7ce",
    "poc_metrics.json": "34fd3ac00c36355d7d3987498723fadd5205890cbf4cf52a19fd9db54ed32557",
    "poc_run_log.json": "febe4181890f754e962094f716013a27aa79b2c25fe00ec3331729cacfaf0918",
}


@pytest.mark.slow
def test_full_fixture_runs_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for config in (POC, str(fixture_path("lone_attacker.json"))):
        assert main(["run", "--config", config]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (tmp_path / "out").iterdir()}
    assert written == FULL_RUN_SHA256


@pytest.mark.parametrize(
    "override, field",
    [(["--seed", "-1"], "seed"), (["--seed", str(2**64)], "seed"), (["--rounds", "-5"], "schedule.rounds"),
     (["--rounds", "11"], "schedule")],  # two_bus has one agent: one step above the cap set below
)
def test_run_rejects_invalid_overrides(tmp_path, monkeypatch, capsys, override, field):
    monkeypatch.chdir(tmp_path)
    # A cap of 10 steps, so that a missing check runs 11 steps and fails, not 10**7 steps and 10 GB;
    # the config row steps_per_turn_huge checks the real cap.
    monkeypatch.setattr(gridduel.config, "MAX_STEPS", 10)
    assert main(["run", "--config", TWO_BUS, *override]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not (tmp_path / "out").exists()


def test_validate_ok(capsys):
    assert main(["validate", "--config", POC]) == 0
    out = capsys.readouterr().out
    assert "config ok: poc" in out
    assert "14 buses" in out


def test_validate_reports_rule_and_exits_one(tmp_path, capsys):
    doc = json.loads(Path(POC).read_text())
    doc["agents"][1]["actuators"].append({"kind": "transformer", "index": 3})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "share actuator transformer:3" in err


@pytest.mark.parametrize("argv, last_line", [
    ([], "gridduel: error: the following arguments are required: command"),
    (["bogus"], "gridduel: error: argument command: invalid choice: 'bogus' (choose from 'run', 'validate', "
                "'powerflow', 'metrics', 'plot', 'asymmetry')"),
    (["run"], "gridduel run: error: the following arguments are required: --config"),
], ids=["no_command", "unknown_command", "run_without_config"])
def test_usage_errors_exit_2_with_argparse_text(argv, last_line, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == last_line


def test_powerflow_prints_closed_form_solution(capsys):
    assert main(["powerflow", "--config", TWO_BUS]) == 0
    out = capsys.readouterr().out
    assert "power flow converged" in out
    row = [line for line in out.splitlines() if line.startswith("1,")][0]
    _, v, theta, _, _ = row.split(",")
    assert abs(float(v) - TWO_BUS_V2) < 1e-8
    assert abs(float(theta) - TWO_BUS_THETA2) < 1e-8


def test_metrics_subcommand_matches_run_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", TWO_BUS]) == 0
    capsys.readouterr()
    assert main(["metrics", "--log", "out/two_bus_run_log.json"]) == 0
    stdout = capsys.readouterr().out
    assert stdout == (tmp_path / "out" / "two_bus_metrics.json").read_text()


def test_asymmetry_holds_on_nominal_run(tmp_path, monkeypatch, capsys):
    cfg = zero_load_config(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", cfg]) == 0
    capsys.readouterr()
    assert main(["asymmetry", "--metrics", "out/nominal_metrics.json", "--t0", "0"]) == 0
    assert capsys.readouterr().out.startswith("holds")


def test_actionless_qnet_agent_runs_past_a_full_batch(tmp_path, monkeypatch, capsys):
    # No actuator means no action group and so no TD update, for the Q-net learner as
    # for the tabular one; 40 rounds run past the step its batch of 32 fills.
    doc = json.loads(Path(zero_load_config(tmp_path)).read_text(encoding="utf-8"))
    doc["agents"][0]["learner"] = {"kind": "qnet"}
    doc["schedule"]["rounds"] = 40
    (tmp_path / "qnet.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", "qnet.json"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("run complete: steps=40 ") and captured.err == ""


def test_asymmetry_reports_violation(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", POC, "--rounds", "2"]) == 0
    capsys.readouterr()
    # Reference-grid p sits below the strict default p_fail from the start.
    assert main(["asymmetry", "--metrics", "out/poc_metrics.json", "--t0", "0"]) == 0
    assert "violated at t=1" in capsys.readouterr().out


def test_plot_writes_svg(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", TWO_BUS]) == 0
    assert main(["plot", "--metrics", "out/two_bus_metrics.json",
                 "--series", "mean_voltage", "--out", "out/mv.svg"]) == 0
    text = (tmp_path / "out" / "mv.svg").read_text()
    assert text.startswith("<svg xmlns=")
    assert main(["plot", "--metrics", "out/two_bus_metrics.json",
                 "--series", "cumulative_positive_rewards.defender",
                 "--out", "out/cp.svg"]) == 0


def test_plot_unknown_series_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", TWO_BUS]) == 0
    capsys.readouterr()
    assert main(["plot", "--metrics", "out/two_bus_metrics.json",
                 "--series", "voltage_wobble", "--out", "out/x.svg"]) == 1
    assert capsys.readouterr().err == ("error: unknown series 'voltage_wobble'; use mean_voltage, p_world "
                                       "or cumulative_positive_rewards.<agent_id>\n")
    assert not (tmp_path / "out" / "x.svg").exists()


def test_huge_finite_load_runs_as_failed_solves(tmp_path, monkeypatch, capsys):
    # Newton's iterates overflow: each solve must end as a 'diverged' value, with no
    # numpy warning, and the reward of its far-tail voltage is the bell's floor, -c.
    doc = json.loads(Path(TWO_BUS).read_text(encoding="utf-8"))
    doc["grid"]["loads"][0]["p_mw"] = 1e250
    (tmp_path / "huge.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--config", "huge.json"]) == 0
    assert capsys.readouterr().err == ""
    steps = json.loads((tmp_path / "out" / "two_bus_run_log.json").read_text())["steps"]
    c = doc["agents"][0]["reward"]["c"]
    assert [(s["converged"], s["reward"]) for s in steps] == [(False, -c)] * doc["schedule"]["rounds"]


def test_diverged_learner_names_the_agent_and_the_step(tmp_path, monkeypatch, capsys):
    doc = json.loads(Path(POC).read_text(encoding="utf-8"))
    for agent in doc["agents"]:
        agent["learner"]["learning_rate"] = 1.0
    (tmp_path / "lr1.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", "lr1.json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: agent attacker: TD loss is not finite (inf) at step 745\n"
    assert captured.out.startswith("run complete: steps=745 ")
    # All four files are written; the diverging turn is recorded as the last step.
    out = tmp_path / "out"
    with open(out / "poc_grid_log.csv", newline="") as f:
        assert len(list(csv.reader(f))) == 1 + 745 * 14
    with open(out / "poc_agent_log.csv", newline="") as f:
        assert len(list(csv.reader(f))) == 1 + 745
    run_log = json.loads((out / "poc_run_log.json").read_text(encoding="utf-8"))
    assert [step["t"] for step in run_log["steps"]] == list(range(1, 746))
    assert run_log["stopped"] == "agent attacker: TD loss is not finite (inf) at step 745"
    assert json.loads((out / "poc_metrics.json").read_text(encoding="utf-8"))["steps"][-1] == 745
    assert main(["metrics", "--log", "out/poc_run_log.json"]) == 0
    assert capsys.readouterr().out == (out / "poc_metrics.json").read_text(encoding="utf-8")


def test_missing_config_file_is_a_runtime_failure(capsys):
    assert main(["run", "--config", "/nonexistent/nope.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_unreadable_output_path_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").write_text("a file, not a directory")
    assert main(["run", "--config", TWO_BUS]) == 2


def test_config_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", "--config", str(bad)]) == 1
    assert "parse error" in capsys.readouterr().err


def test_log_level_env_var_controls_stderr_only(tmp_path):
    import subprocess
    import sys

    (tmp_path / "quiet").mkdir()
    (tmp_path / "loud").mkdir()
    outputs = {}
    for label, level in (("quiet", "error"), ("loud", "debug")):
        proc = subprocess.run(
            [sys.executable, "-m", "gridduel.cli", "run", "--config", TWO_BUS],
            cwd=tmp_path / label, env=cli_env(ARL_LOG_LEVEL=level),
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[label] = proc
    assert "INFO gridduel" in outputs["loud"].stderr
    assert "INFO gridduel" not in outputs["quiet"].stderr
    # verbosity must never leak into file outputs
    quiet = (tmp_path / "quiet" / "out" / "two_bus_agent_log.csv").read_bytes()
    loud = (tmp_path / "loud" / "out" / "two_bus_agent_log.csv").read_bytes()
    assert quiet == loud


@pytest.mark.parametrize("level, code", [("verbose", 1), ("", 0), ("DeBuG", 0)])
def test_unknown_log_level_exits_one(monkeypatch, capsys, level, code):
    monkeypatch.setenv("ARL_LOG_LEVEL", level)
    assert main(["validate", "--config", TWO_BUS]) == code
    err = capsys.readouterr().err
    if code:
        assert "error: ARL_LOG_LEVEL: unknown level 'verbose'; use error, warn, info, debug" in err
    else:
        assert "error" not in err


def _edited(**changes):
    def edit(doc):
        doc.update(changes)
        return doc
    return edit


def _step_edit(fn):
    def edit(doc):
        fn(doc["steps"][1])
        return doc
    return edit


def _inner(key, fn):
    def edit(doc):
        fn(doc[key])
        return doc
    return edit


def _repeated(**first):
    """The document's text with the given keys written once more, before all others."""
    def edit(doc):
        return json.dumps(first)[:-1] + ", " + json.dumps(doc)[1:]
    return edit


def _deep(doc):
    """An array nested 100 000 deep, far past the parser's recursion limit."""
    return "[" * 100_000 + "]" * 100_000


def _no_buses(doc):
    """Every per-bus vector of the run log emptied."""
    doc["initial"].update(v_pu=[], theta_rad=[])
    for step in doc["steps"]:
        step.update(v_pu=[], theta_rad=[], p_inj_pu=[], q_inj_pu=[])
    return doc


def _without(*keys):
    def edit(doc):
        for key in keys:
            del doc[key]
        return doc
    return edit


PLOT = ["plot", "--series", "mean_voltage", "--out", "x.svg", "--metrics"]
ASYMMETRY = ["asymmetry", "--t0", "0", "--metrics"]
VALIDATE = ["validate", "--config"]


@pytest.mark.parametrize(
    "source, command, edit, message",
    [
        ("run_log", ["metrics", "--log"], lambda doc: {"name": "x"},
         r"run_log: missing required key 'config_fingerprint'"),
        ("run_log", ["metrics", "--log"], _without("initial"),
         r"run_log: missing required key 'initial'"),
        ("run_log", ["metrics", "--log"], _step_edit(lambda s: s.pop("v_pu")),
         r"run_log\.steps\[1\]: missing required key 'v_pu'"),
        ("run_log", ["metrics", "--log"], _step_edit(lambda s: s["v_pu"].__setitem__(0, "1.0")),
         r"run_log\.steps\[1\]\.v_pu\[0\]: expected a number"),
        ("run_log", ["metrics", "--log"], _step_edit(lambda s: s["v_pu"].__setitem__(0, True)),
         r"run_log\.steps\[1\]\.v_pu\[0\]: expected a number"),
        ("run_log", ["metrics", "--log"], _step_edit(lambda s: s["v_pu"].__setitem__(1, [1.0])),
         r"run_log\.steps\[1\]\.v_pu\[1\]: expected a number"),
        ("run_log", ["metrics", "--log"], _step_edit(lambda s: s["v_pu"].pop()),
         r"run_log: steps\[1\]\.v_pu: expected 2 values, got 1"),
        ("run_log", ["metrics", "--log"], _step_edit(lambda s: s["theta_rad"].append(0.0)),
         r"run_log: steps\[1\]\.theta_rad: expected 2 values, got 3"),
        ("run_log", ["metrics", "--log"], _inner("initial", lambda d: d["theta_rad"].pop()),
         r"run_log: initial\.theta_rad: expected 2 values, got 1$"),
        ("run_log", ["metrics", "--log"], _step_edit(lambda s: s.update(t="2")),
         r"run_log\.steps\[1\]\.t: expected an integer"),
        ("run_log", ["metrics", "--log"], _step_edit(lambda s: s.update(y=[0])),
         r"run_log\.steps\[1\]\.y\[0\]: expected a string"),
        ("run_log", ["metrics", "--log"], _step_edit(lambda s: s.update(reward=float("nan"))),
         r"run_log\.steps\[1\]\.reward: expected a finite number"),
        ("run_log", ["metrics", "--log"], _step_edit(lambda s: s.update(note="x")),
         r"run_log\.steps\[1\]: unknown key\(s\) \['note'\]"),
        ("run_log", ["metrics", "--log"], _step_edit(lambda s: s.update(agent_id="ghost")),
         r"run_log: steps\[1\]\.agent_id: 'ghost' is not one of the agents$"),
        ("run_log", ["metrics", "--log"], _inner("agents", lambda a: a.append(dict(a[0]))),
         r"run_log: agents: ids must be unique$"),
        ("run_log", ["metrics", "--log"], _edited(performance={"p_fail": 2.0}),
         r"run_log\.performance: require 0 <= p_fail < p_star <= 1"),
        ("run_log", ["metrics", "--log"], _inner("initial", lambda d: d.update(note=1)),
         r"run_log\.initial: unknown key\(s\) \['note'\]"),
        ("run_log", ["metrics", "--log"], _inner("agents", lambda a: a[0].pop("id")),
         r"run_log\.agents\[0\]: missing required key 'id'"),
        ("run_log", ["metrics", "--log"], _inner("agents", lambda a: a.append({**a[0], "id": 5})),
         r"run_log\.agents\[1\]\.id: expected a string$"),
        ("run_log", ["metrics", "--log"], _repeated(seed=1), r"run_log: duplicate key\(s\) \['seed'\]"),
        ("run_log", ["metrics", "--log"], _no_buses,
         r"run_log: initial\.v_pu: a grid has at least one bus, got 0 values$"),
        ("config", VALIDATE, _inner("schedule", lambda d: d.update(note=1)),
         r"config\.schedule: unknown key\(s\) \['note'\]"),
        ("config", VALIDATE, _inner("schedule", lambda d: d.update(rounds="3")),
         r"config\.schedule\.rounds: expected an integer"),
        ("config", VALIDATE, _repeated(seed=1), r"config: duplicate key\(s\) \['seed'\]"),
        ("config", VALIDATE, _edited(allow_single_class="yes"), r"config\.allow_single_class: expected a boolean$"),
        ("config", VALIDATE, _inner("schedule", lambda d: d.update(steps_per_turn=2**70)),
         r"schedule: rounds x steps_per_turn x agents must be <= 10000000; got 2 x 1180591620717411303424 x 1$"),
        ("config", VALIDATE, lambda doc: "{not json", r"config: parse error at line 1 column 2: "),
        ("config", VALIDATE, _deep, r"config: nested too deeply$"),
        ("run_log", ["metrics", "--log"], _deep, r"run_log: nested too deeply$"),
        ("metrics", PLOT, _deep, r"metrics: nested too deeply$"),
        ("metrics", ASYMMETRY, _deep, r"metrics: nested too deeply$"),
        ("metrics", PLOT, _without("mean_voltage"), r"metrics: missing required key 'mean_voltage'"),
        ("metrics", PLOT, _edited(mean_voltage=[1.0, None]), r"metrics\.mean_voltage\[1\]: expected a number"),
        ("metrics", PLOT, _edited(mean_voltage=[1.0, float("nan"), 1.02]),
         r"metrics\.mean_voltage\[1\]: expected a finite number"),
        ("metrics", PLOT, _edited(steps="1"), r"metrics\.steps: expected an array"),
        ("metrics", PLOT, _edited(mean_voltage=[-1e308, 1e308]),
         r"metrics\.mean_voltage: range \[-1e\+308, 1e\+308\] has no finite nonzero width"),
        ("metrics", PLOT, _edited(mean_voltage=[1e308, 1e308]),
         r"metrics\.mean_voltage: range \[1e\+308, 1e\+308\] has no finite nonzero width"),
        ("metrics", PLOT, _edited(mean_voltage=[]), r"metrics\.mean_voltage: series must be non-empty"),
        ("metrics", ["plot", "--series", "cumulative_positive_rewards.ghost", "--out", "x.svg", "--metrics"],
         lambda doc: doc, r"metrics\.cumulative_positive_rewards: missing required key 'ghost'"),
        ("metrics", ASYMMETRY, _without("p_world"), r"metrics: missing required key 'p_world'"),
        ("metrics", ASYMMETRY, _edited(performance={}), r"metrics\.performance: missing required key 'p_fail'"),
        ("metrics", ASYMMETRY, lambda doc: {**doc, "p_world": [float("inf")] * len(doc["p_world"])},
         r"metrics\.p_world\[0\]: expected a finite number"),
        ("metrics", ASYMMETRY, lambda doc: [doc], r"metrics: expected an object"),
    ],
    ids=["run_log_without_agents", "run_log_without_initial", "step_without_v_pu", "string_voltage",
         "boolean_voltage", "ragged_voltage", "short_voltage_row", "long_angle_row",
         "short_initial_angle_row", "string_step_time", "numeric_label",
         "nan_reward", "unknown_step_key", "step_of_unlisted_agent", "duplicate_agent_id",
         "bad_performance", "unknown_initial_key", "agent_without_id", "numeric_second_agent_id",
         "run_log_duplicate_key",
         "run_log_without_buses",
         "unknown_schedule_key", "string_rounds", "config_duplicate_key", "string_allow_single_class",
         "steps_per_turn_huge", "config_not_json", "config_deep",
         "run_log_deep", "plot_deep", "asymmetry_deep", "plot_without_series", "plot_null_sample", "plot_nan_sample",
         "plot_steps_not_array", "plot_overflowing_range", "plot_constant_huge_series",
         "plot_empty_series",
         "plot_unknown_agent",
         "asymmetry_without_p_world", "asymmetry_without_p_fail", "asymmetry_infinite_p_world",
         "asymmetry_on_array"],
)
def test_malformed_run_log_or_metrics_exits_one(tmp_path, monkeypatch, capsys, source, command, edit, message):
    """A malformed config, run log or metrics file exits 1 naming its key path."""
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", TWO_BUS]) == 0
    path = Path(TWO_BUS) if source == "config" else tmp_path / "out" / f"two_bus_{source}.json"
    bad_doc = edit(json.loads(path.read_text(encoding="utf-8")))
    bad = tmp_path / "bad.json"
    bad.write_text(bad_doc if isinstance(bad_doc, str) else json.dumps(bad_doc), encoding="utf-8")
    capsys.readouterr()
    assert main([*command, str(bad)]) == 1
    assert re.search("^error: " + message, capsys.readouterr().err)
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize(
    "command, ctx",
    [(VALIDATE, "config"), (["metrics", "--log"], "run_log"), (PLOT, "metrics"), (ASYMMETRY, "metrics")],
    ids=["validate", "metrics", "plot", "asymmetry"],
)
@pytest.mark.parametrize(
    "data, where",
    [(b'\xff\xfe{"a":1}', "invalid start byte at byte 0"),
     (b'{"name": "caf\xc3(", "seed": 1}', "invalid continuation byte at byte 13")],
    ids=["utf16_bom", "broken_sequence"],
)
def test_a_document_that_is_not_utf8_exits_one(tmp_path, capsys, command, ctx, data, where):
    """Bytes that are not UTF-8 exit 1 naming the document and the first bad byte, not with a traceback."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    assert main([*command, str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {ctx}: not UTF-8 text: {where}\n"
    assert not (tmp_path / "x.svg").exists()


@pytest.fixture(scope="module")
def two_bus_run_log(tmp_path_factory):
    """The JSON document of two_bus.json's run log (two steps), and a directory to write edits of it."""
    text = "".join(json_pieces(encode(run_experiment(load_config_path(TWO_BUS)))))
    return json.loads(text), tmp_path_factory.mktemp("broken_run_log")


_STEP_ARRAYS = ("x", "y", "v_pu", "theta_rad", "p_inj_pu", "q_inj_pu")


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_a_broken_step_element_is_named_by_its_path(two_bus_run_log, data):
    """One wrong element of a step's vector or label tuple exits 1 naming steps[i].<field>[j]."""
    doc, directory = copy.deepcopy(two_bus_run_log[0]), two_bus_run_log[1]
    i = data.draw(st.integers(0, len(doc["steps"]) - 1), label="step")
    name = data.draw(st.sampled_from(_STEP_ARRAYS), label="field")
    j = data.draw(st.integers(0, len(doc["steps"][i][name]) - 1), label="element")
    bad = st.sampled_from([0, 1.5, True, None, ["hold"], {}]) if name == "y" else st.sampled_from(
        ["1.0", True, False, None, [1.0], {}])
    doc["steps"][i][name][j] = data.draw(bad, label="value")
    path = directory / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["metrics", "--log", str(path)]) == 1
    expected = "a string" if name == "y" else "a number"
    assert err.getvalue() == f"error: run_log.steps[{i}].{name}[{j}]: expected {expected}\n"
