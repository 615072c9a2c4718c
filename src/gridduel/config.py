"""Single-file experiment definitions: load, validate, canonical save.

One JSON document pins everything a run needs: the grid (inline or the
built-in token), the agents with their sensors, actuators, reward and
learner settings, the round schedule, the performance thresholds and the
output sinks.  Loading is strict: unknown or repeated keys are rejected so a
typo cannot silently change an experiment, and every violation names the
offending field.  Saving is canonical (fixed key order, shortest float
representation), so a config has exactly one on-disk form and a stable
fingerprint.

Both directions go through gridduel.codec; only the agent block has its own
reader and writer, and the grid (a builder token or an inline model) its reader.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import agents as agents_mod
from .agents import (
    ActuatorRef,
    QNetAgent,
    QNetHyper,
    RewardParams,
    TabularHyper,
    TabularQAgent,
)
from .codec import (READERS, WRITERS, ConfigError, as_dict, as_list, decode, done, encode, json_object,
                    json_pieces, plain, pop, read_int, read_str)
from .core import PerformanceConfig, V_QUANTITY
from .grid import GridModel, arl_poc_grid

QNET = "qnet"
TABULAR = "tabular"

GRID_BUILDERS = {"arl_poc_grid": arl_poc_grid}

# A learner `kind` picks its hyperparameter class.
_HYPER = {QNET: QNetHyper, TABULAR: TabularHyper}

# Steps in one run (rounds x steps_per_turn x agents). The run log keeps every step
# in memory, about 0.95 KB each on two_bus and 1.6 KB on poc, so 10**7 steps is 10 GB or more.
MAX_STEPS = 10**7


# -- typed config ---------------------------------------------------------------


@dataclass(frozen=True)
class OutputPaths:
    grid_log_path: str
    agent_log_path: str
    metrics_path: str
    run_log_path: str | None = None

    def __post_init__(self) -> None:
        seen: dict[str, str] = {}  # normalised path -> the first key that names it
        for name in ("grid_log_path", "agent_log_path", "metrics_path", "run_log_path"):
            value = getattr(self, name)
            if not value and not (value is None and name == "run_log_path"):  # None: no run log
                raise ConfigError(f"outputs.{name}: must not be empty")
            if value is not None and (first := seen.setdefault(os.path.normpath(value), name)) != name:
                raise ConfigError(f"outputs.{name}: names the same file as outputs.{first}")


@dataclass(frozen=True)
class AgentSpec:
    """One agent; its class is its reward's class and its learner kind its hyperparameters' type."""

    id: str
    sensors: tuple[tuple[int, str], ...]
    actuators: tuple[ActuatorRef, ...]
    reward: RewardParams
    learner: QNetHyper | TabularHyper

    def __post_init__(self) -> None:
        if not isinstance(self.learner, (QNetHyper, TabularHyper)):
            raise TypeError(f"learner must be a QNetHyper or a TabularHyper, not {self.learner!r}")

    @property
    def agent_class(self) -> str:
        return self.reward.agent_class

    @property
    def learner_kind(self) -> str:
        return QNET if isinstance(self.learner, QNetHyper) else TABULAR

    def reward_params(self) -> RewardParams:
        return self.reward

    def make_agent(self, rng: np.random.Generator) -> QNetAgent | TabularQAgent:
        sizes = tuple(len(agents_mod.LABELS_BY_KIND[ref.kind]) for ref in self.actuators)
        if isinstance(self.learner, QNetHyper):
            return QNetAgent(sizes, n_in=len(self.sensors), hyper=self.learner, rng=rng)
        return TabularQAgent(sizes, hyper=self.learner, rng=rng)


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    seed: int
    grid_source: str | GridModel = field(metadata={"key": "grid"})
    agents: tuple[AgentSpec, ...]
    rounds: int = field(metadata={"key": "schedule.rounds"})
    steps_per_turn: int = field(default=1, kw_only=True, metadata={"key": "schedule.steps_per_turn"})
    performance: PerformanceConfig
    outputs: OutputPaths
    allow_single_class: bool = False

    def __post_init__(self) -> None:
        # Every invariant is checked here, so a config that is decoded, constructed
        # in Python or changed by `replace` (e.g. a CLI override) passes the same checks.
        if not self.name:
            raise ConfigError("name: must not be empty")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed: must be a 64-bit unsigned integer")
        if not self.agents:
            raise ConfigError("agents: at least one agent is required")
        if self.rounds < 0:
            raise ConfigError("schedule.rounds: must be >= 0")
        if self.steps_per_turn < 1:
            raise ConfigError("schedule.steps_per_turn: must be >= 1")
        if self.rounds * self.steps_per_turn * len(self.agents) > MAX_STEPS:
            raise ConfigError(f"schedule: rounds x steps_per_turn x agents must be <= {MAX_STEPS}; got "
                              f"{self.rounds} x {self.steps_per_turn} x {len(self.agents)}")
        if isinstance(self.grid_source, str) and self.grid_source not in GRID_BUILDERS:
            raise ConfigError(f"grid: unknown grid token {self.grid_source!r}")
        grid = self.build_grid()  # a GridModel checks itself when built

        ids_seen: set[str] = set()
        for i, spec in enumerate(self.agents):
            if not spec.id or any(c in spec.id for c in ",\n\r"):  # a cell of the agent CSV
                raise ConfigError(f"agents[{i}].id: must be non-empty, without ',', '\\n' or '\\r'; "
                                  f"got {spec.id!r}")
            if spec.id in ids_seen:
                raise ConfigError(f"agents[{i}]: duplicate agent id {spec.id!r}")
            ids_seen.add(spec.id)

        classes = {spec.agent_class for spec in self.agents}
        if len(classes) == 1 and not self.allow_single_class:
            raise ConfigError(f"agents: only {classes.pop()}s are present; "
                              "set allow_single_class to run without both classes")

        device_counts = {
            agents_mod.TRANSFORMER: len(grid.transformers),
            agents_mod.GENERATOR: len(grid.generators),
            agents_mod.LOAD: len(grid.loads),
        }
        owner: dict[tuple[str, int], int] = {}
        for i, spec in enumerate(self.agents):
            if not spec.sensors:
                raise ConfigError(f"agents[{i}].sensors: must not be empty")
            for j, (bus, quantity) in enumerate(spec.sensors):
                if quantity != V_QUANTITY:
                    raise ConfigError(f"agents[{i}].sensors[{j}].quantity: "
                                      f"unsupported quantity {quantity!r}")
                if not 0 <= bus < grid.n_bus:
                    raise ConfigError(f"agents[{i}]: sensor references missing bus {bus}")
            for ref in spec.actuators:
                if not 0 <= ref.index < device_counts[ref.kind]:
                    raise ConfigError(f"agents[{i}]: actuator references missing {ref.kind} {ref.index}")
                key = (ref.kind, ref.index)
                if owner.get(key) == i:
                    raise ConfigError(f"agents[{i}]: lists actuator {ref.kind}:{ref.index} twice")
                if key in owner:
                    raise ConfigError(
                        f"agents[{owner[key]}] and agents[{i}] share actuator {ref.kind}:{ref.index}")
                owner[key] = i

    def build_grid(self) -> GridModel:
        if isinstance(self.grid_source, str):
            return GRID_BUILDERS[self.grid_source]()
        return self.grid_source

    def fingerprint(self) -> str:
        return hashlib.sha256(save_config(self).encode("utf-8")).hexdigest()


# -- parsing --------------------------------------------------------------------


def _parse_agent(raw, ctx: str) -> AgentSpec:
    d = as_dict(raw, ctx)
    agent_id = read_str(pop(d, "id", ctx), f"{ctx}.id")
    agent_class = read_str(pop(d, "class", ctx), f"{ctx}.class")
    if agent_class not in (agents_mod.ATTACKER, agents_mod.DEFENDER):
        raise ConfigError(f"{ctx}.class: must be 'attacker' or 'defender'")

    sensors = []
    for i, s in enumerate(as_list(pop(d, "sensors", ctx), f"{ctx}.sensors")):
        c = f"{ctx}.sensors[{i}]"
        sd = as_dict(s, c)
        bus = read_int(pop(sd, "bus", c), f"{c}.bus")
        quantity = read_str(sd.pop("quantity", V_QUANTITY), f"{c}.quantity")
        done(sd, c)
        sensors.append((bus, quantity))

    actuators = []
    for i, a in enumerate(as_list(pop(d, "actuators", ctx), f"{ctx}.actuators")):
        c = f"{ctx}.actuators[{i}]"
        ad = as_dict(a, c)
        labels = ad.pop("labels", None)
        ref = decode(ActuatorRef, ad, c)
        expected = list(agents_mod.LABELS_BY_KIND[ref.kind])
        if labels is not None and labels != expected:
            raise ConfigError(f"{c}.labels: invalid for kind {ref.kind!r}, expected {expected}")
        actuators.append(ref)

    reward_params = decode(RewardParams, d.pop("reward", {}), f"{ctx}.reward", agent_class=agent_class)

    c = f"{ctx}.learner"
    ld = as_dict(d.pop("learner", {}), c)
    kind = read_str(ld.pop("kind", QNET), f"{c}.kind")
    if kind not in _HYPER:
        raise ConfigError(f"{c}.kind: must be 'qnet' or 'tabular'")
    hyper = decode(_HYPER[kind], ld, c)
    done(d, ctx)
    return AgentSpec(agent_id, tuple(sensors), tuple(actuators), reward_params, hyper)


def load_config(text: str) -> ExperimentConfig:
    """Parse and fully validate one experiment document."""
    return decode(ExperimentConfig, json_object(text, "config"), "config")


# -- canonical save -------------------------------------------------------------


def _agent_doc(spec: AgentSpec) -> dict:
    reward_doc = encode(spec.reward)
    del reward_doc["agent_class"]  # saved as the agent's "class"
    return {
        "id": spec.id,
        "class": spec.agent_class,
        "sensors": [{"bus": bus, "quantity": quantity} for bus, quantity in spec.sensors],
        "actuators": plain(spec.actuators),
        "reward": reward_doc,
        "learner": {"kind": spec.learner_kind, **encode(spec.learner)},
    }


READERS.update({str | GridModel: lambda raw, ctx: raw if isinstance(raw, str) else decode(GridModel, raw, ctx),
                AgentSpec: _parse_agent})
WRITERS[AgentSpec] = _agent_doc


def save_config(cfg: ExperimentConfig) -> str:
    """Canonical UTF-8 JSON text for a config; loading it reproduces cfg exactly."""
    return "".join(json_pieces(encode(cfg)))


def load_config_path(path: str | Path) -> ExperimentConfig:
    return load_config(Path(path).read_text(encoding="utf-8"))


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled experiment fixture (poc.json and friends)."""
    return Path(str(resources.files("gridduel").joinpath("fixtures", name)))
