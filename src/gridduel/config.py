"""Single-file experiment definitions: load, validate, canonical save.

One JSON document pins everything a run needs: the grid (inline or the
built-in token), the agents with their sensors, actuators, reward and
learner settings, the round schedule, the performance thresholds and the
output sinks.  Loading is strict: unknown keys anywhere are rejected so a
typo cannot silently change an experiment, and every violation names the
offending field.  Saving is canonical (fixed key order, shortest float
representation), so a config has exactly one on-disk form and a stable
fingerprint.

Below the top level and the agent block, both directions are driven by the
fields of the typed dataclasses: a key is a field's name, an absent key
takes the field's default, and declaration order is the canonical key order.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
import typing
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import agents as agents_mod
from .agents import (
    ActuatorRef,
    EpsilonSchedule,
    QNetAgent,
    QNetHyper,
    RewardParams,
    TabularHyper,
    TabularQAgent,
    boundary_offset,
    default_group,
    usable_sigma,
)
from .core import PerformanceConfig, V_QUANTITY
from .grid import GridModel, ModelValidationError, arl_poc_grid

QNET = "qnet"
TABULAR = "tabular"

GRID_BUILDERS = {"arl_poc_grid": arl_poc_grid}

# A learner `kind` picks its hyperparameter class and names the AgentSpec field holding it.
_HYPER = {QNET: QNetHyper, TABULAR: TabularHyper}


class ConfigError(ValueError):
    """Raised when an input document (experiment, run log, metrics) fails parsing or validation."""


# -- strict-dict helpers -------------------------------------------------------


def _json_object(text: str, ctx: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"parse error at line {e.lineno} column {e.colno}: {e.msg}") from e
    return _as_dict(doc, ctx)


def _as_dict(value, ctx: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{ctx}: expected an object")
    return dict(value)


def _as_list(value, ctx: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{ctx}: expected an array")
    return value


def _pop(d: dict, key: str, ctx: str):
    if key not in d:
        raise ConfigError(f"{ctx}: missing required key '{key}'")
    return d.pop(key)


def _done(d: dict, ctx: str) -> None:
    if d:
        raise ConfigError(f"{ctx}: unknown key(s) {sorted(d)}")


def _int(value, ctx: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{ctx}: expected an integer")
    return value


def _float(value, ctx: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{ctx}: expected a number")
    if not abs(value) <= sys.float_info.max:  # NaN, +-Infinity or an integer beyond float range
        raise ConfigError(f"{ctx}: expected a finite number")
    return float(value)


def _str(value, ctx: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{ctx}: expected a string")
    return value


def _bool(value, ctx: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{ctx}: expected a boolean")
    return value


def _numbers(value, ctx: str) -> np.ndarray:
    """A flat array of numbers as a float array; one type scan and one numpy pass check it."""
    items = _as_list(value, ctx)
    if bool not in map(type, items):  # numpy would read a JSON true among numbers as 1.0
        try:
            arr = np.asarray(items)
            if arr.ndim == 1 and arr.dtype.kind in "if":
                return arr.astype(float, copy=False)
        except ValueError:  # ragged nesting
            pass
    raise ConfigError(f"{ctx}: expected an array of numbers")


_SCALARS = {int: _int, float: _float, str: _str, bool: _bool, np.ndarray: _numbers}


# -- field-driven codec --------------------------------------------------------


@functools.cache
def _fields(cls) -> tuple[tuple[str, object, object, typing.Callable], ...]:
    """(name, resolved type, default or MISSING, reader) per field of cls, in declaration order."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        default = f.default_factory() if f.default_factory is not dataclasses.MISSING else f.default
        out.append((f.name, hints[f.name], default, _reader(hints[f.name])))
    return tuple(out)


def _decode(cls, raw, ctx: str, **fixed):
    """Build cls from the object raw; keys named in fixed come from the caller."""
    d = _as_dict(raw, ctx)
    obj = _take(cls, d, ctx, "", fixed)
    _done(d, ctx)
    return obj


def _take(cls, d: dict, ctx: str, prefix: str, fixed: dict):
    kwargs = dict(fixed)
    for name, tp, default, read in _fields(cls):
        if name in fixed:
            continue
        key = prefix + name
        if tp is EpsilonSchedule:  # flat epsilon_start/_end/_decay_steps keys of the learner block
            kwargs[name] = _take(tp, d, ctx, f"{key}_", {})
        elif key in d:
            kwargs[name] = read(d.pop(key), f"{ctx}.{key}")
        elif default is dataclasses.MISSING:
            raise ConfigError(f"{ctx}: missing required key '{key}'")
        else:
            kwargs[name] = default
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{ctx}: {e}") from e


@functools.cache
def _reader(tp):
    """The check-and-convert function (raw, ctx) for a field of type tp, built once per type."""
    if tp in _SCALARS:
        return _SCALARS[tp]
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:  # tuple[X, ...]
        item = _reader(args[0])
        return lambda raw, ctx: tuple(item(v, f"{ctx}[{i}]") for i, v in enumerate(_as_list(raw, ctx)))
    if type(None) in args:  # X | None
        inner = _reader(args[0])
        return lambda raw, ctx: None if raw is None else inner(raw, ctx)
    return functools.partial(_decode, tp)


def _encode(obj, prefix: str = "") -> dict:
    doc: dict = {}
    for name, tp, default, _ in _fields(type(obj)):
        value = getattr(obj, name)
        if tp is EpsilonSchedule:
            doc.update(_encode(value, f"{prefix}{name}_"))
        # Optional fields holding their empty default (None, "" or False) are
        # left out; numeric defaults such as 0.0 are written.
        elif not (value == default and (default is None or default is False or default == "")):
            doc[prefix + name] = _plain(value)
    return doc


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if dataclasses.is_dataclass(value):
        return _encode(value)
    return value


# -- typed config ---------------------------------------------------------------


@dataclass(frozen=True)
class OutputPaths:
    grid_log_path: str
    agent_log_path: str
    metrics_path: str
    run_log_path: str | None = None

    def __post_init__(self) -> None:
        for name in ("grid_log_path", "agent_log_path", "metrics_path"):
            if not getattr(self, name):
                raise ConfigError(f"outputs.{name}: must not be empty")


@dataclass(frozen=True)
class AgentSpec:
    id: str
    agent_class: str
    sensors: tuple[tuple[int, str], ...]
    actuators: tuple[ActuatorRef, ...]
    reward: RewardParams
    learner_kind: str
    qnet: QNetHyper | None = None
    tabular: TabularHyper | None = None

    def reward_params(self) -> RewardParams:
        return self.reward

    def make_agent(self, rng: np.random.Generator) -> QNetAgent | TabularQAgent:
        groups = [default_group(ref) for ref in self.actuators]
        if self.learner_kind == QNET:
            return QNetAgent(groups, n_in=len(self.sensors), hyper=self.qnet, rng=rng)
        return TabularQAgent(groups, hyper=self.tabular, rng=rng)


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    seed: int
    grid_source: str | GridModel
    agents: tuple[AgentSpec, ...]
    rounds: int
    steps_per_turn: int
    performance: PerformanceConfig
    outputs: OutputPaths
    allow_single_class: bool = False

    def __post_init__(self) -> None:
        # Also re-checks the values that `replace` overrides, e.g. from the CLI.
        if not self.name:
            raise ConfigError("name: must not be empty")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed: must be a 64-bit unsigned integer")
        if self.rounds < 0:
            raise ConfigError("schedule.rounds: must be >= 0")
        if self.steps_per_turn < 1:
            raise ConfigError("schedule.steps_per_turn: must be >= 1")

    def build_grid(self) -> GridModel:
        if isinstance(self.grid_source, str):
            return GRID_BUILDERS[self.grid_source]()
        return self.grid_source

    def fingerprint(self) -> str:
        return hashlib.sha256(save_config(self).encode("utf-8")).hexdigest()


# -- parsing --------------------------------------------------------------------


def _parse_grid(value, ctx: str) -> str | GridModel:
    if isinstance(value, str):
        if value not in GRID_BUILDERS:
            raise ConfigError(f"{ctx}: unknown grid token {value!r}")
        return value
    try:
        return _decode(GridModel, value, ctx).validate()
    except ModelValidationError as e:
        raise ConfigError(f"{ctx}: {e}") from e


def _parse_agent(raw, idx: int) -> AgentSpec:
    ctx = f"agents[{idx}]"
    d = _as_dict(raw, ctx)
    agent_id = _str(_pop(d, "id", ctx), f"{ctx}.id")
    agent_class = _str(_pop(d, "class", ctx), f"{ctx}.class")
    if agent_class not in (agents_mod.ATTACKER, agents_mod.DEFENDER):
        raise ConfigError(f"{ctx}.class: must be 'attacker' or 'defender'")

    sensors = []
    raw_sensors = _as_list(_pop(d, "sensors", ctx), f"{ctx}.sensors")
    if not raw_sensors:
        raise ConfigError(f"{ctx}.sensors: must not be empty")
    for i, s in enumerate(raw_sensors):
        c = f"{ctx}.sensors[{i}]"
        sd = _as_dict(s, c)
        bus = _int(_pop(sd, "bus", c), f"{c}.bus")
        quantity = _str(sd.pop("quantity", V_QUANTITY), f"{c}.quantity")
        if quantity != V_QUANTITY:
            raise ConfigError(f"{c}.quantity: unsupported quantity {quantity!r}")
        _done(sd, c)
        sensors.append((bus, quantity))

    actuators = []
    for i, a in enumerate(_as_list(_pop(d, "actuators", ctx), f"{ctx}.actuators")):
        c = f"{ctx}.actuators[{i}]"
        ad = _as_dict(a, c)
        labels = ad.pop("labels", None)
        ref = _decode(ActuatorRef, ad, c)
        expected = list(agents_mod.LABELS_BY_KIND[ref.kind])
        if labels is not None and labels != expected:
            raise ConfigError(f"{c}.labels: invalid for kind {ref.kind!r}, expected {expected}")
        actuators.append(ref)

    c = f"{ctx}.reward"
    rd = _as_dict(d.pop("reward", {}), c)
    if "c" not in rd:  # by default the reward crosses zero at 5 % deviation for this sigma
        sigma = _float(rd.get("sigma", agents_mod.DEFAULT_SIGMA), f"{c}.sigma")
        rd["c"] = boundary_offset(sigma) if usable_sigma(sigma) else agents_mod.DEFAULT_C
        if not 0.0 < rd["c"] < 1.0:
            raise ConfigError(f"{c}.sigma: gives a default c of {rd['c']!r}, outside (0, 1); "
                              "give 'c' explicitly")
    reward_params = _decode(RewardParams, rd, c, agent_class=agent_class)

    c = f"{ctx}.learner"
    ld = _as_dict(d.pop("learner", {}), c)
    kind = _str(ld.pop("kind", QNET), f"{c}.kind")
    if kind not in _HYPER:
        raise ConfigError(f"{c}.kind: must be 'qnet' or 'tabular'")
    hyper = _decode(_HYPER[kind], ld, c)
    _done(d, ctx)
    return AgentSpec(
        id=agent_id,
        agent_class=agent_class,
        sensors=tuple(sensors),
        actuators=tuple(actuators),
        reward=reward_params,
        learner_kind=kind,
        **{kind: hyper},
    )


def load_config(text: str) -> ExperimentConfig:
    """Parse and fully validate one experiment document."""
    d = _json_object(text, "config")

    name = _str(_pop(d, "name", "config"), "name")
    seed = _int(_pop(d, "seed", "config"), "seed")
    grid_source = _parse_grid(_pop(d, "grid", "config"), "grid")

    raw_agents = _as_list(_pop(d, "agents", "config"), "agents")
    if not raw_agents:
        raise ConfigError("agents: at least one agent is required")
    agent_specs = tuple(_parse_agent(a, i) for i, a in enumerate(raw_agents))

    c = "schedule"
    sd = _as_dict(_pop(d, "schedule", "config"), c)
    rounds = _int(_pop(sd, "rounds", c), f"{c}.rounds")
    steps_per_turn = _int(sd.pop("steps_per_turn", 1), f"{c}.steps_per_turn")
    _done(sd, c)

    performance = _decode(PerformanceConfig, _pop(d, "performance", "config"), "performance")
    outputs = _decode(OutputPaths, _pop(d, "outputs", "config"), "outputs")
    allow_single = _bool(d.pop("allow_single_class", False), "allow_single_class")
    _done(d, "config")

    cfg = ExperimentConfig(
        name=name,
        seed=seed,
        grid_source=grid_source,
        agents=agent_specs,
        rounds=rounds,
        steps_per_turn=steps_per_turn,
        performance=performance,
        outputs=outputs,
        allow_single_class=allow_single,
    )
    _validate_cross(cfg)
    return cfg


def _validate_cross(cfg: ExperimentConfig) -> None:
    grid = cfg.build_grid()

    ids_seen: dict[str, int] = {}
    for i, spec in enumerate(cfg.agents):
        if spec.id in ids_seen:
            raise ConfigError(f"agents[{i}]: duplicate agent id {spec.id!r}")
        ids_seen[spec.id] = i

    classes = {spec.agent_class for spec in cfg.agents}
    if len(classes) == 1 and not cfg.allow_single_class:
        only = next(iter(classes))
        raise ConfigError(
            f"agents: only {only}s are present; set allow_single_class to run without both classes"
        )

    device_counts = {
        agents_mod.TRANSFORMER: len(grid.transformers),
        agents_mod.GENERATOR: len(grid.generators),
        agents_mod.LOAD: len(grid.loads),
    }
    owner: dict[tuple[str, int], int] = {}
    for i, spec in enumerate(cfg.agents):
        for bus, _ in spec.sensors:
            if not 0 <= bus < grid.n_bus:
                raise ConfigError(f"agents[{i}]: sensor references missing bus {bus}")
        for ref in spec.actuators:
            if not 0 <= ref.index < device_counts[ref.kind]:
                raise ConfigError(f"agents[{i}]: actuator references missing {ref.kind} {ref.index}")
            key = (ref.kind, ref.index)
            if key in owner:
                raise ConfigError(
                    f"agents[{owner[key]}] and agents[{i}] share actuator {ref.kind}:{ref.index}"
                )
            owner[key] = i


# -- canonical save -------------------------------------------------------------


def _agent_doc(spec: AgentSpec) -> dict:
    reward_doc = _encode(spec.reward)
    del reward_doc["agent_class"]  # saved as the agent's "class"
    return {
        "id": spec.id,
        "class": spec.agent_class,
        "sensors": [{"bus": bus, "quantity": quantity} for bus, quantity in spec.sensors],
        "actuators": _plain(spec.actuators),
        "reward": reward_doc,
        "learner": {"kind": spec.learner_kind, **_encode(getattr(spec, spec.learner_kind))},
    }


def save_config(cfg: ExperimentConfig) -> str:
    """Canonical UTF-8 JSON text for a config; loading it reproduces cfg exactly."""
    doc: dict = {
        "name": cfg.name,
        "seed": cfg.seed,
        "grid": _plain(cfg.grid_source),
        "agents": [_agent_doc(spec) for spec in cfg.agents],
        "schedule": {"rounds": cfg.rounds, "steps_per_turn": cfg.steps_per_turn},
        "performance": _encode(cfg.performance),
        "outputs": _encode(cfg.outputs),
    }
    if cfg.allow_single_class:
        doc["allow_single_class"] = True
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def load_config_path(path: str | Path) -> ExperimentConfig:
    return load_config(Path(path).read_text(encoding="utf-8"))


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled experiment fixture (poc.json and friends)."""
    return Path(str(resources.files("gridduel").joinpath("fixtures", name)))
