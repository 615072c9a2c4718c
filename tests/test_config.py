import ast
import json
import re
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridduel.codec
from gridduel.agents import ActuatorRef, EpsilonSchedule, RewardParams, TabularHyper
from gridduel.cli import main
from gridduel.config import ConfigError, fixture_path, load_config, load_config_path, save_config
from gridduel.core import PerformanceConfig

POC = fixture_path("poc.json")
LONE = fixture_path("lone_attacker.json")
TWO_BUS = fixture_path("two_bus.json")


def poc_doc():
    return json.loads(POC.read_text(encoding="utf-8"))


def load_doc(doc):
    return load_config(json.dumps(doc))


# -- fixtures load and match their documented shape ---------------------------------


def test_poc_fixture_matches_documented_assignment():
    cfg = load_config_path(POC)
    assert cfg.name == "poc"
    assert cfg.seed == 42
    assert cfg.rounds == 1000
    assert cfg.steps_per_turn == 1
    assert cfg.grid_source == "arl_poc_grid"
    attacker, defender = cfg.agents
    assert attacker.agent_class == "attacker"
    assert [ref.kind for ref in attacker.actuators] == ["transformer"] * 6
    assert len(attacker.sensors) == 14
    assert defender.agent_class == "defender"
    assert [ref.kind for ref in defender.actuators] == ["generator"] * 4 + ["load"] * 6
    assert len(defender.sensors) == 14


def test_lone_attacker_fixture_is_single_class():
    cfg = load_config_path(LONE)
    assert [a.agent_class for a in cfg.agents] == ["attacker"]
    assert cfg.allow_single_class
    assert cfg.rounds == 2000


def test_two_bus_fixture_has_inline_grid():
    cfg = load_config_path(TWO_BUS)
    grid = cfg.build_grid()
    assert grid.n_bus == 2
    assert grid.loads[0].p_mw == 5.0
    assert cfg.agents[0].learner_kind == "tabular"


def test_agent_class_is_its_reward_class():
    cfg = load_config_path(POC)
    attacker = cfg.agents[0]
    flipped = replace(attacker, reward=replace(attacker.reward, agent_class="defender"))
    assert flipped.agent_class == "defender"
    # Two defenders are one class, which only a single-class config may hold.
    saved = json.loads(save_config(replace(cfg, agents=(flipped, cfg.agents[1]), allow_single_class=True)))
    assert saved["agents"][0]["class"] == "defender"


def test_agent_spec_requires_a_learner():
    spec = load_config_path(TWO_BUS).agents[0]
    with pytest.raises(TypeError, match="learner must be a QNetHyper or a TabularHyper"):
        replace(spec, learner=None)


# -- canonical save / round trips -----------------------------------------------------


@pytest.mark.parametrize("path", [POC, LONE, TWO_BUS])
def test_fixtures_are_canonical(path):
    text = path.read_text(encoding="utf-8")
    assert save_config(load_config(text)) == text


@pytest.mark.parametrize("path", [POC, LONE, TWO_BUS])
def test_load_save_round_trip_is_identity(path):
    cfg = load_config_path(path)
    assert load_config(save_config(cfg)) == cfg


def test_save_is_deterministic():
    cfg = load_config_path(POC)
    assert save_config(cfg) == save_config(cfg)


def test_save_canonicalizes_messy_input():
    doc = poc_doc()
    doc["schedule"] = {"steps_per_turn": 1, "rounds": 1000}  # reordered keys
    messy = json.dumps(doc, indent=7)
    canonical = save_config(load_config(messy))
    assert canonical == POC.read_text(encoding="utf-8")
    assert save_config(load_config(canonical)) == canonical  # idempotent


def test_floats_use_shortest_round_trip_form():
    text = POC.read_text(encoding="utf-8")
    assert '"p_fail": 0.9285714285714286' in text
    cfg = load_config_path(TWO_BUS)
    assert '"x_pu": 0.1' in save_config(cfg)


def test_fingerprint_is_stable_and_input_sensitive():
    cfg = load_config_path(POC)
    assert cfg.fingerprint() == cfg.fingerprint()
    doc = poc_doc()
    doc["seed"] = 43
    assert load_doc(doc).fingerprint() != cfg.fingerprint()


# -- validation rules, one fixture per rule --------------------------------------------


def test_parse_error_is_position_annotated():
    with pytest.raises(ConfigError, match=r"line \d+ column \d+"):
        load_config('{"name": "x",\n  broken')


def test_unknown_top_level_key_rejected():
    doc = poc_doc()
    doc["commentary"] = "hi"
    with pytest.raises(ConfigError, match="unknown key.*commentary"):
        load_doc(doc)


def test_unknown_nested_key_rejected():
    doc = poc_doc()
    doc["agents"][0]["learner"]["momentum"] = 0.9
    with pytest.raises(ConfigError, match=r"agents\[0\].learner.*momentum"):
        load_doc(doc)


def test_missing_required_key_rejected():
    doc = poc_doc()
    del doc["outputs"]
    with pytest.raises(ConfigError, match="missing required key 'outputs'"):
        load_doc(doc)


def test_wrong_type_rejected():
    doc = poc_doc()
    doc["seed"] = "forty-two"
    with pytest.raises(ConfigError, match="seed.*integer"):
        load_doc(doc)


def test_seed_must_fit_64_bits():
    doc = poc_doc()
    doc["seed"] = 2**64
    with pytest.raises(ConfigError, match="64-bit"):
        load_doc(doc)


@pytest.mark.parametrize("path", [POC, TWO_BUS], ids=["qnet", "tabular"])
def test_loaded_config_is_hashable_and_its_learners_frozen(path):
    cfg = load_config_path(path)
    assert hash(cfg) == hash(load_config_path(path))
    with pytest.raises(FrozenInstanceError):  # an assignment would sidestep every bound
        cfg.agents[0].learner.gamma = 1.0


def test_empty_agent_list_rejected():
    doc = poc_doc()
    doc["agents"] = []
    with pytest.raises(ConfigError, match="at least one agent"):
        load_doc(doc)


def test_duplicate_agent_ids_rejected():
    doc = poc_doc()
    doc["agents"][1]["id"] = doc["agents"][0]["id"]
    # Keep actuators disjoint so the id rule is what fires.
    with pytest.raises(ConfigError, match="duplicate agent id"):
        load_doc(doc)


def test_overlapping_actuators_rejected():
    doc = poc_doc()
    doc["agents"][1]["actuators"].append({"kind": "transformer", "index": 3})
    with pytest.raises(ConfigError, match=r"agents\[0\] and agents\[1\] share actuator transformer:3"):
        load_doc(doc)


def test_actuator_listed_twice_rejected():
    doc = poc_doc()
    doc["agents"][0]["actuators"].append({"kind": "transformer", "index": 0})
    with pytest.raises(ConfigError, match=r"agents\[0\]: lists actuator transformer:0 twice"):
        load_doc(doc)


def test_single_class_requires_flag():
    doc = poc_doc()
    doc["agents"] = [doc["agents"][0]]
    with pytest.raises(ConfigError, match="allow_single_class"):
        load_doc(doc)
    doc["allow_single_class"] = True
    cfg = load_doc(doc)
    assert cfg.allow_single_class


def test_unknown_grid_token_rejected():
    doc = poc_doc()
    doc["grid"] = "mystery_grid"
    with pytest.raises(ConfigError, match="unknown grid token"):
        load_doc(doc)


def test_invalid_inline_grid_rejected():
    doc = json.loads(TWO_BUS.read_text(encoding="utf-8"))
    doc["grid"]["lines"][0]["x_pu"] = 0.0
    doc["grid"]["lines"][0]["r_pu"] = 0.0
    with pytest.raises(ConfigError, match="grid.*zero-impedance"):
        load_doc(doc)


def test_empty_sensor_list_rejected():
    doc = poc_doc()
    doc["agents"][0]["sensors"] = []
    with pytest.raises(ConfigError, match=r"agents\[0\].sensors.*empty"):
        load_doc(doc)


def test_sensor_bus_must_exist():
    doc = poc_doc()
    doc["agents"][0]["sensors"][0]["bus"] = 99
    with pytest.raises(ConfigError, match="missing bus 99"):
        load_doc(doc)


def test_sensor_quantity_must_be_voltage():
    doc = poc_doc()
    doc["agents"][0]["sensors"][0]["quantity"] = "theta"
    with pytest.raises(ConfigError, match=r"agents\[0\]\.sensors\[0\]\.quantity: unsupported quantity 'theta'"):
        load_doc(doc)


def test_actuator_device_must_exist():
    doc = poc_doc()
    doc["agents"][0]["actuators"][0]["index"] = 42
    with pytest.raises(ConfigError, match="missing transformer 42"):
        load_doc(doc)


def test_unknown_actuator_kind_rejected():
    doc = poc_doc()
    doc["agents"][0]["actuators"][0]["kind"] = "capacitor"
    with pytest.raises(ConfigError, match="unknown actuator kind"):
        load_doc(doc)


def test_explicit_labels_must_match_kind():
    doc = poc_doc()
    doc["agents"][0]["actuators"][0]["labels"] = ["up", "down", "hold"]
    with pytest.raises(ConfigError, match="labels.*invalid for kind"):
        load_doc(doc)


def test_explicit_valid_labels_accepted():
    doc = poc_doc()
    doc["agents"][0]["actuators"][0]["labels"] = ["decrement", "hold", "increment"]
    cfg = load_doc(doc)
    assert cfg.agents[0].actuators[0].kind == "transformer"


def test_bad_agent_class_rejected():
    doc = poc_doc()
    doc["agents"][0]["class"] = "observer"
    with pytest.raises(ConfigError, match="attacker.*defender"):
        load_doc(doc)


def test_bad_learner_kind_rejected():
    doc = poc_doc()
    doc["agents"][0]["learner"]["kind"] = "sarsa"
    with pytest.raises(ConfigError, match="qnet.*tabular"):
        load_doc(doc)


def test_bad_reward_sigma_rejected():
    doc = poc_doc()
    doc["agents"][0]["reward"]["sigma"] = 0.0
    with pytest.raises(ConfigError, match=r"agents\[0\].reward"):
        load_doc(doc)


def test_bad_gamma_rejected():
    doc = poc_doc()
    doc["agents"][0]["learner"]["gamma"] = 1.0
    with pytest.raises(ConfigError, match="gamma"):
        load_doc(doc)


def _learner_edit(**values):
    return lambda doc: doc["agents"][0]["learner"].update(values)


def _reward(**values):
    return lambda doc: doc["agents"][0].update(reward=values)


@pytest.mark.parametrize(
    "path, edit, message",
    [
        (TWO_BUS, _learner_edit(n_bins=0), r"learner: n_bins must be >= 1"),
        (TWO_BUS, _learner_edit(n_bins=10**12), r"learner: n_bins must be <= 10000"),  # a 21.8 TiB table
        (TWO_BUS, _reward(sigma=1e-200), r"reward: sigma must be > 0"),  # sigma**2 underflows to 0
        (TWO_BUS, _reward(sigma=1e200), r"reward: sigma must be > 0"),  # sigma**2 overflows
        (TWO_BUS, _reward(sigma=1e200, c=0.5), r"reward: sigma must be > 0"),
        (TWO_BUS, _reward(mu=-1e308), r"reward: mu must be > 0, with mu\*\*2 finite"),
        (TWO_BUS, _reward(mu=1e200), r"reward: mu must be > 0, with mu\*\*2 finite"),  # (x - mu)**2 overflows
        (TWO_BUS, _reward(sigma=1e-5),  # the default c underflows to 0
         r"reward: sigma gives a default c of 0\.0, outside \(0, 1\); give 'c' explicitly"),
        (TWO_BUS, _reward(sigma=1e100),  # the default c rounds to 1
         r"reward: sigma gives a default c of 1\.0, outside \(0, 1\); give 'c' explicitly"),
        (TWO_BUS, _reward(c=None), r"reward\.c: expected a number"),  # null is not "take the default"
        (POC, _learner_edit(hidden=0), r"learner: hidden must be >= 1"),
        (POC, _learner_edit(hidden=10**12), r"learner: hidden must be <= 4096"),  # 102 TiB of weights
        (POC, _learner_edit(learning_rate=-0.001), r"learner: learning_rate must be >= 0"),
        (POC, _learner_edit(batch_size=0), r"learner: batch_size must be >= 1"),
        (TWO_BUS, _learner_edit(bin_lo=1.2), r"learner: bin_lo must be < bin_hi"),
        (TWO_BUS, _learner_edit(alpha=1.5), r"learner: alpha must be in \[0, 1\]"),
        (TWO_BUS, _learner_edit(epsilon_start=5), r"learner: epsilon_start must be in \[0, 1\]"),
        (POC, _learner_edit(epsilon_end=-0.1), r"learner: epsilon_end must be in \[0, 1\]"),
        (TWO_BUS, _learner_edit(epsilon_decay_steps=-1), r"learner: epsilon_decay_steps must be >= 0"),
        (POC, _learner_edit(batch_size=65, replay_capacity=64), r"learner: batch_size cannot exceed replay_capacity"),
        (TWO_BUS, _learner_edit(gamma=1.0), r"learner: gamma must be in \[0, 1\)"),
    ],
    ids=["n_bins_zero", "n_bins_huge", "sigma_squared_underflows", "sigma_squared_overflows",
         "sigma_squared_overflows_with_c", "negative_mu", "mu_squared_overflows",
         "default_c_underflows", "default_c_rounds_to_one", "null_c", "hidden_zero", "hidden_huge", "negative_learning_rate", "batch_size_zero", "bin_lo_above_bin_hi",
         "alpha_above_one", "epsilon_start_above_one", "negative_epsilon_end", "negative_decay_steps",
         "batch_above_capacity", "tabular_gamma_one"],
)
def test_out_of_range_hyperparameters_exit_1(path, edit, message, tmp_path, monkeypatch, capsys):
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(config)]) == 1
    assert re.search(r"agents\[0\]\." + message, capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_subnormal_bin_range_runs(tmp_path, monkeypatch):
    """A bin range 5e-324 wide puts every mean voltage past its top bin, not into int(inf)."""
    doc = json.loads(TWO_BUS.read_text(encoding="utf-8"))
    doc["agents"][0]["learner"].update(bin_lo=0.0, bin_hi=5e-324)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(config)]) == 0


@pytest.mark.parametrize("sigma", [1e-5, 1e100])
def test_sigma_without_usable_default_c_loads_with_explicit_c(sigma):
    doc = json.loads(TWO_BUS.read_text(encoding="utf-8"))
    doc["agents"][0]["reward"] = {"sigma": sigma, "c": 0.5}
    assert load_doc(doc).agents[0].reward.sigma == sigma


def test_negative_rounds_rejected():
    doc = poc_doc()
    doc["schedule"]["rounds"] = -1
    with pytest.raises(ConfigError, match="rounds"):
        load_doc(doc)


def test_zero_steps_per_turn_rejected():
    doc = poc_doc()
    doc["schedule"]["steps_per_turn"] = 0
    with pytest.raises(ConfigError, match="steps_per_turn"):
        load_doc(doc)


def test_bad_performance_band_rejected():
    doc = poc_doc()
    doc["performance"]["v_lo"] = 1.2
    with pytest.raises(ConfigError, match="performance"):
        load_doc(doc)


def test_empty_output_path_rejected():
    doc = poc_doc()
    doc["outputs"]["metrics_path"] = ""
    with pytest.raises(ConfigError, match="metrics_path.*empty"):
        load_doc(doc)


def test_empty_run_log_path_exits_1_before_any_output(tmp_path, monkeypatch, capsys):
    """An empty run-log path is rejected with the config, not after three outputs are written."""
    doc = json.loads(TWO_BUS.read_text(encoding="utf-8"))
    doc["outputs"]["run_log_path"] = ""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(config)]) == 1
    assert re.search(r"^error: .*outputs\.run_log_path: must not be empty$", capsys.readouterr().err, re.M)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("first, second, paths", [
    ("grid_log_path", "agent_log_path", ("out/log.csv", "out/log.csv")),
    ("metrics_path", "run_log_path", ("out/m.json", "out/m.json")),
    ("grid_log_path", "agent_log_path", ("out/a.csv", "./out/a.csv")),
    ("agent_log_path", "run_log_path", ("out/a.json", "out/x/../a.json")),
    ("grid_log_path", "agent_log_path", ("out/two_bus_grid_log.csv", "{tmp}/out/two_bus_grid_log.csv")),
    ("grid_log_path", "agent_log_path", ("real/a.csv", "link/a.csv")),
], ids=["grid_and_agent_log", "metrics_and_run_log", "dot_prefix", "parent_step", "absolute", "symlink"])
def test_two_outputs_naming_one_file_exit_1_before_any_output(tmp_path, monkeypatch, capsys, first, second, paths):
    """Two output keys that name one file are rejected with the config; neither output overwrites the other.

    ``{tmp}`` stands for the working directory, and ``link`` is a symlink to the directory ``real``.
    """
    (tmp_path / "real").mkdir()
    (tmp_path / "link").symlink_to("real", target_is_directory=True)
    doc = json.loads(TWO_BUS.read_text(encoding="utf-8"))
    doc["outputs"].update(zip((first, second), (path.format(tmp=tmp_path) for path in paths)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(config)]) == 1
    assert re.search(rf"^error: .*outputs\.{second}: names the same file as outputs\.{first}$",
                     capsys.readouterr().err, re.M)
    assert not (tmp_path / "out").exists()
    assert not any((tmp_path / "real").iterdir())


@pytest.mark.parametrize("items, expected", [([2**63], [2.0**63]), ([1.0, 2**64], [1.0, 2.0**64]),
                                             ([float("nan"), 2**64], [float("nan"), 2.0**64])])
def test_numbers_reads_every_integer_a_scalar_reads(items, expected):
    assert gridduel.codec.numbers(items, "v").tobytes() == np.array(expected).tobytes()
    assert gridduel.codec.numbers(items[-1:], "v")[0] == gridduel.codec.read_float(items[-1], "v")


@pytest.mark.parametrize("items, message", [([[1.0], 2.0], r"v\[0\]: expected a number"),
                                            ([1.0, 2**1100], r"v\[1\]: expected a finite number"),
                                            ([0.5, 1, "2"], r"v\[2\]: expected a number")])
def test_numbers_error_names_the_element(items, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        gridduel.codec.numbers(items, "v")


def test_reward_c_defaults_to_five_percent_boundary():
    doc = poc_doc()
    del doc["agents"][0]["reward"]["c"]
    cfg = load_doc(doc)
    from gridduel.agents import DEFAULT_SIGMA, boundary_offset

    assert cfg.agents[0].reward.c == boundary_offset(DEFAULT_SIGMA)


def test_custom_sigma_moves_default_boundary():
    doc = poc_doc()
    doc["agents"][0]["reward"] = {"sigma": 0.05}
    cfg = load_doc(doc)
    import math

    assert cfg.agents[0].reward.c == math.exp(-(0.05**2) / (2 * 0.05**2))


@pytest.mark.parametrize("sigma", [0.02, 0.03, 0.05, 0.2])
def test_default_c_is_the_same_in_python_and_json(sigma):
    doc = poc_doc()
    doc["agents"][0]["reward"] = {"sigma": sigma}
    assert load_doc(doc).agents[0].reward.c == RewardParams(sigma=sigma).c


@pytest.mark.parametrize(
    "path, edit, field",
    [
        (TWO_BUS, lambda doc: doc["grid"]["lines"][0].update(x_pu=float("nan")), r"grid\.lines\[0\]\.x_pu"),
        (POC, lambda doc: doc["performance"].update(v_hi=float("inf")), r"performance\.v_hi"),
    ],
    ids=["nan_line_x_pu", "infinite_v_hi"],
)
def test_non_finite_numbers_rejected(path, edit, field):
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    with pytest.raises(ConfigError, match=field + ": expected a finite number"):
        load_doc(doc)  # json.dumps writes NaN / Infinity, which json.loads accepts


def _with_agent(i, **changes):
    """An edit of a config that changes fields of its agent i, each a function of the agent."""
    def edit(cfg):
        spec = cfg.agents[i]
        spec = replace(spec, **{name: fn(spec) for name, fn in changes.items()})
        return replace(cfg, agents=cfg.agents[:i] + (spec,) + cfg.agents[i + 1:])
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_with_agent(0, actuators=lambda a: (ActuatorRef("transformer", 99),) + a.actuators[1:]),
         r"agents\[0\]: actuator references missing transformer 99"),
        (_with_agent(0, sensors=lambda a: ((99, "v_pu"),) + a.sensors[1:]), "missing bus 99"),
        (lambda cfg: replace(cfg, grid_source="nope"), "unknown grid token"),
        (_with_agent(0, sensors=lambda a: ()), r"agents\[0\].sensors.*empty"),
        (_with_agent(0, sensors=lambda a: ((0, "p_mw"),) + a.sensors[1:]),
         r"agents\[0\]\.sensors\[0\]\.quantity: unsupported quantity 'p_mw'"),
        (_with_agent(1, actuators=lambda a: a.actuators + (ActuatorRef("transformer", 3),)),
         r"agents\[0\] and agents\[1\] share actuator transformer:3"),
        (_with_agent(1, id=lambda a: "attacker"), "duplicate agent id"),
        (lambda cfg: replace(cfg, agents=cfg.agents[:1]), "allow_single_class"),
        (_with_agent(0, actuators=lambda a: a.actuators + a.actuators[:1]),
         r"agents\[0\]: lists actuator transformer:0 twice"),
        (lambda cfg: replace(cfg, name=""), "^name: must not be empty$"),
        # Each of these once ran wrong or failed late: in SeedSequence, as a run of 1, in
        # observe, or in a save_config or load_config of the saved text.
        (lambda cfg: replace(cfg, seed=1.5), "^seed: expected an integer$"),
        (lambda cfg: replace(cfg, seed=True), "^seed: expected an integer$"),
        (lambda cfg: replace(cfg, rounds=2.0), r"^schedule\.rounds: expected an integer$"),
        (lambda cfg: replace(cfg, rounds=True), r"^schedule\.rounds: expected an integer$"),
        (lambda cfg: replace(cfg, steps_per_turn=True), r"^schedule\.steps_per_turn: expected an integer$"),
        (_with_agent(0, sensors=lambda a: ((1.0, "v_pu"),) + a.sensors[1:]),
         r"^agents\[0\]\.sensors\[0\]\.bus: expected an integer$"),
        (_with_agent(0, sensors=lambda a: ((np.int64(1), "v_pu"),) + a.sensors[1:]),
         r"^agents\[0\]\.sensors\[0\]\.bus: expected an integer$"),
        (_with_agent(0, sensors=lambda a: ((True, "v_pu"),) + a.sensors[1:]),
         r"^agents\[0\]\.sensors\[0\]\.bus: expected an integer$"),
        # Each of these ran, and its saved text did not reload.
        (lambda cfg: replace(cfg, allow_single_class=1), "^allow_single_class: expected a boolean$"),
        (lambda cfg: replace(cfg, name=5), "^name: expected a string$"),
        (lambda cfg: replace(cfg, performance=PerformanceConfig(p_star=True)), "^p_star: expected a number$"),
        (_with_agent(0, reward=lambda a: replace(a.reward, mu=True)), "^mu: expected a number$"),
        (_with_agent(0, learner=lambda a: replace(a.learner, epsilon=EpsilonSchedule(end=True))),
         "^epsilon_end: expected a number$"),
        (_with_agent(0, learner=lambda a: replace(a.learner, learning_rate=True)), "^learning_rate: expected a number$"),
        (_with_agent(0, learner=lambda a: TabularHyper(bin_lo=False)), "^bin_lo: expected a number$"),
        # And each of these raised a bare TypeError.
        (_with_agent(0, id=lambda a: 5), r"^agents\[0\]\.id: expected a string$"),
        (lambda cfg: replace(cfg, outputs=replace(cfg.outputs, metrics_path=5)),
         r"^outputs\.metrics_path: expected a string$"),
        # These two were taken, and the fingerprint's text did not reload; the rest raised a bare error.
        (lambda cfg: replace(cfg, performance=None), "^performance: expected PerformanceConfig, got NoneType$"),
        (lambda cfg: replace(cfg, outputs=None), "^outputs: expected OutputPaths, got NoneType$"),
        (lambda cfg: replace(cfg, grid_source=5), "^grid: expected str or GridModel, got int$"),
        (lambda cfg: replace(cfg, agents=({"id": "attacker"}, *cfg.agents[1:])),
         r"^agents\[0\]: expected AgentSpec, got dict$"),
        (_with_agent(0, reward=lambda a: None), r"^agents\[0\]\.reward: expected RewardParams, got NoneType$"),
        (_with_agent(0, actuators=lambda a: (("transformer", 0),)),
         r"^agents\[0\]\.actuators\[0\]: expected ActuatorRef, got tuple$"),
        (_with_agent(0, sensors=lambda a: ((0,),)), r"^agents\[0\]\.sensors\[0\]: expected a \(bus, quantity\) pair$"),
        (_with_agent(0, sensors=lambda a: (0,)), r"^agents\[0\]\.sensors\[0\]: expected a \(bus, quantity\) pair$"),
    ],
    ids=["missing_actuator_device", "missing_sensor_bus", "unknown_grid_token", "empty_sensors",
         "non_voltage_sensor", "shared_actuator", "duplicate_agent_id", "single_class",
         "actuator_listed_twice", "empty_name", "float_seed", "true_seed", "float_rounds", "true_rounds",
         "true_steps_per_turn", "float_sensor_bus", "numpy_int_sensor_bus", "true_sensor_bus",
         "int_allow_single_class", "int_name", "true_p_star", "true_mu", "true_epsilon_end", "true_learning_rate",
         "false_bin_lo", "int_agent_id", "int_output_path", "none_performance", "none_outputs", "int_grid",
         "dict_agent", "none_reward", "tuple_actuator", "short_sensor", "int_sensor"],
)
def test_python_built_config_is_checked(edit, message):
    """A config built in Python or changed with `replace` goes through the checks that a loaded one does."""
    cfg = load_config_path(POC)
    assert cfg.agents[0].id == "attacker"
    with pytest.raises(ConfigError, match=message):
        edit(cfg)


def test_an_int_in_a_float_field_keeps_the_fingerprint_of_its_reloaded_text():
    """Each float field stores the float that read_float returns, so 1 saves as the 1.0 it reloads as."""
    cfg = load_config_path(POC)
    built = replace(cfg, performance=PerformanceConfig(p_star=1),
                    agents=(replace(cfg.agents[0], learner=TabularHyper(bin_hi=2)), *cfg.agents[1:]))
    assert type(built.performance.p_star) is float and type(built.agents[0].learner.bin_hi) is float
    assert built.fingerprint() == load_config(save_config(built)).fingerprint()


def test_a_config_keeps_the_agents_it_checked():
    """Lists given in Python are stored as tuples, so a later edit cannot change a checked config."""
    cfg = load_config_path(TWO_BUS)
    agents = list(cfg.agents)
    copied = replace(cfg, agents=agents)
    agents.append(agents[0])  # would give the copy two agents with one id
    assert copied.agents == cfg.agents and copied.fingerprint() == cfg.fingerprint()
    spec = cfg.agents[0]
    listed = replace(spec, sensors=[list(pair) for pair in spec.sensors], actuators=list(spec.actuators))
    assert listed == spec and hash(listed) == hash(spec)
    assert replace(cfg, agents=[listed, *cfg.agents[1:]]).fingerprint() == cfg.fingerprint()


@pytest.mark.parametrize("bad_id", ["", "red,team", "red\nteam", "red\rteam"],
                         ids=["empty", "comma", "newline", "carriage_return"])
def test_agent_id_that_breaks_the_agent_csv_rejected(bad_id):
    """An agent id is a cell of the agent CSV: loaded or set with `replace`, it must fit in one."""
    message = r"agents\[0\]\.id: must be non-empty, without ','"
    doc = poc_doc()
    doc["agents"][0]["id"] = bad_id
    with pytest.raises(ConfigError, match=message):
        load_doc(doc)
    with pytest.raises(ConfigError, match=message):
        _with_agent(0, id=lambda a: bad_id)(load_config_path(POC))


# -- codec property: any valid document has one canonical form -----------------------


# Non-ASCII, quote and backslash exercise the JSON escaping.
_TEXT = 'ab_ -\u00e9\u2603"\\'


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _some(draw, required: dict, optional: dict) -> dict:
    """`required` plus a drawn subset of `optional`."""
    return {**required, **{k: v for k, v in optional.items() if draw(st.booleans())}}


@st.composite
def _bus(draw, i):
    setpoint = {"v_setpoint_pu": draw(_floats(0.9, 1.1))}
    bus = {"id": i, "kind": "slack" if i == 0 else "pq", "base_kv": draw(_floats(0.4, 400.0))}
    if i == 0:
        bus.update(setpoint)
    return _some(draw, bus, {"name": draw(st.text(_TEXT, max_size=6)), **({} if i == 0 else setpoint)})


@st.composite
def _load(draw, bus):
    load = {"bus": bus, "p_mw": draw(_floats(-5.0, 5.0)), "q_mvar": draw(_floats(-2.0, 2.0))}
    if draw(st.booleans()):  # scaling_min <= scaling <= scaling_max, so all three or none
        scaling = draw(_floats(0.5, 1.5))
        load.update(scaling=scaling, scaling_min=scaling - draw(_floats(0.0, 0.5)),
                    scaling_max=scaling + draw(_floats(0.0, 0.5)))
    return load


@st.composite
def _learner(draw):
    epsilon = {"epsilon_start": draw(_floats(0.0, 1.0)), "epsilon_end": draw(_floats(0.0, 1.0)),
               "epsilon_decay_steps": draw(st.integers(1, 5000))}
    if draw(st.booleans()):
        # Either of replay_capacity and batch_size may fall back to its default (1000, 32).
        capacity = draw(st.integers(32, 2000))
        hyper = {"gamma": draw(_floats(0.0, 0.999)), "learning_rate": draw(_floats(1e-6, 1.0)),
                 "replay_capacity": capacity, "batch_size": draw(st.integers(1, min(capacity, 1000))),
                 "hidden": draw(st.integers(1, 64))}
        return _some(draw, {"kind": "qnet"}, {**hyper, **epsilon})
    lo = draw(_floats(0.5, 1.0))
    hyper = {"alpha": draw(_floats(0.001, 1.0)), "gamma": draw(_floats(0.0, 0.999)),
             "n_bins": draw(st.integers(1, 50)), "bin_lo": lo, "bin_hi": lo + draw(_floats(0.01, 0.5))}
    return _some(draw, {"kind": "tabular"}, {**hyper, **epsilon})


@st.composite
def _agent(draw, agent_class, n_bus, load_indices):
    reward = _some(draw, {}, {"mu": draw(_floats(0.9, 1.1)), "sigma": draw(_floats(0.01, 0.1)),
                              "c": draw(_floats(0.01, 0.99))})
    sensors = draw(st.lists(st.integers(0, n_bus - 1), min_size=1, max_size=n_bus))
    return _some(
        draw,
        {"id": agent_class, "class": agent_class,
         "sensors": [_some(draw, {"bus": b}, {"quantity": "v_pu"}) for b in sensors],
         "actuators": [{"kind": "load", "index": i} for i in load_indices]},
        {"reward": reward, "learner": draw(_learner())},
    )


@st.composite
def config_docs(draw):
    n_bus = draw(st.integers(2, 6))
    grid = {
        "s_base_mva": draw(_floats(1.0, 100.0)),
        "buses": [draw(_bus(i)) for i in range(n_bus)],
        "lines": [
            _some(draw, {"from_bus": i, "to_bus": i + 1, "r_pu": draw(_floats(0.0, 0.1)),
                         "x_pu": draw(_floats(0.01, 0.5))}, {"b_shunt_pu": draw(_floats(0.0, 0.1))})
            for i in range(n_bus - 1)
        ],
        "loads": [draw(_load(b)) for b in range(1, n_bus) if draw(st.booleans())],
        **_some(draw, {}, {"transformers": [], "generators": []}),
    }
    n_loads = len(grid["loads"])
    if draw(st.booleans()):
        agents = [draw(_agent("defender", n_bus, range(n_loads)))]
        single = {"allow_single_class": True}
    else:
        agents = [draw(_agent("attacker", n_bus, range(0, n_loads, 2))),
                  draw(_agent("defender", n_bus, range(1, n_loads, 2)))]
        single = {"allow_single_class": False} if draw(st.booleans()) else {}
    p_star = draw(_floats(0.93, 1.0))  # above the default p_fail, 13/14
    performance = _some(draw, {}, {"p_star": p_star, "p_fail": p_star * draw(_floats(0.0, 0.99)),
                                   "v_lo": draw(_floats(0.8, 0.99)), "v_hi": draw(_floats(1.01, 1.2))})
    outputs = _some(draw, {"grid_log_path": "g.csv", "agent_log_path": "a.csv", "metrics_path": "m.json"},
                    {"run_log_path": "r.json"})
    schedule = _some(draw, {"rounds": draw(st.integers(0, 10**6))},
                     {"steps_per_turn": draw(st.integers(1, 5))})
    return {"name": draw(st.text(_TEXT, min_size=1, max_size=8)), "seed": draw(st.integers(0, 2**64 - 1)),
            "grid": grid, "agents": agents, "schedule": schedule, "performance": performance,
            "outputs": outputs, **single}


def _shuffled(value, rnd):
    if isinstance(value, dict):
        keys = list(value)
        rnd.shuffle(keys)
        return {k: _shuffled(value[k], rnd) for k in keys}
    if isinstance(value, list):
        return [_shuffled(item, rnd) for item in value]
    return value


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(doc=config_docs(), rnd=st.randoms(use_true_random=False))
def test_codec_round_trip_is_canonical(doc, rnd):
    cfg = load_doc(doc)
    text = save_config(cfg)
    assert load_config(text) == cfg
    assert save_config(load_config(text)) == text
    assert save_config(load_config(json.dumps(_shuffled(doc, rnd)))) == text


def test_codec_imports_no_gridduel_module():
    """The codec is generic: each domain module registers what it needs in it, never the reverse."""
    tree = ast.parse(Path(gridduel.codec.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += ["." * node.level + (node.module or "") for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [name for name in imported if name.startswith((".", "gridduel"))] == []
