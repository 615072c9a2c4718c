"""World/agent execution cycle and the resilience analyses built on it.

A :class:`WorldState` couples a grid (current actuator settings) with its
re-solved power flow.  Agents see the world only through their sensors,
act only through disjoint actuators, and the round-based scheduler
interleaves them one turn at a time, re-solving the grid between turns.

The module also hosts the scalar system-performance measure, the
attack-success phases, the two phase classifiers (resilience process and
grid operating state) and the control-asymmetry check over a performance
series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

import numpy as np

from . import agents as agents_mod
from .agents import ActuatorRef, reward as reward_fn
from .grid import GridModel
from .powerflow import PowerFlowSolution, solve_newton_raphson

if TYPE_CHECKING:
    from .config import ExperimentConfig

V_QUANTITY = "v_pu"

# Normal-operation voltage band (distribution-grid practice); the hard band
# [v_lo, v_hi] comes from PerformanceConfig.
NORMAL_BAND = (0.95, 1.05)

# Tolerance band below nominal performance that still counts as planned
# operation when segmenting a performance series.
RESILIENCE_EPS = 0.02

# Performance when exactly one bus sits at the hard band edge and the rest
# are nominal on the 14-bus reference grid; ties the asymmetry threshold to
# the attack-success predicate.
DEFAULT_P_FAIL = 13.0 / 14.0

PHASE_NORMAL = "normal"
PHASE_ALERT = "alert"
PHASE_EMERGENCY = "emergency"
PHASE_BLACKOUT = "blackout"
# The operating phases in which an attack has succeeded: a hard limit broken or no solution.
ATTACK_PHASES = (PHASE_EMERGENCY, PHASE_BLACKOUT)

PLAN = "plan"
ABSORB = "absorb"
RECOVER = "recover"
ADAPT = "adapt"


@dataclass(frozen=True)
class PerformanceConfig:
    p_star: float = 1.0
    p_fail: float = DEFAULT_P_FAIL
    v_lo: float = 0.9
    v_hi: float = 1.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_fail < self.p_star <= 1.0:
            raise ValueError("require 0 <= p_fail < p_star <= 1")
        if not self.v_lo < 1.0 < self.v_hi:
            raise ValueError("require v_lo < 1 < v_hi")


@dataclass(frozen=True)
class WorldState:
    t: int
    grid: GridModel
    solution: PowerFlowSolution


def initial_world(grid: GridModel) -> WorldState:
    return WorldState(t=0, grid=grid, solution=solve_newton_raphson(grid))


def observe(world: WorldState, sensors: Sequence[tuple[int, str]]) -> np.ndarray:
    """Read-only voltage magnitudes at the sensors' buses; the last finite iterate's if the solve failed."""
    values = world.solution.v_pu[[bus for bus, _ in sensors]]
    values.flags.writeable = False
    return values


def apply_actions(world: WorldState, actions: Mapping[ActuatorRef, str]) -> WorldState:
    """Apply one label per device as one grid copy and re-solve the grid.

    Each move's target is read from the grid before the turn; out-of-range
    targets are clamped at the device limits (degrading to hold), so
    application order over the devices cannot matter.  An unknown label
    raises before anything is copied or solved.
    """
    grid = world.grid
    taps: dict[int, int] = {}
    setpoints: dict[int, tuple[float, float]] = {}
    scalings: dict[int, float] = {}
    for ref, label in actions.items():
        move = agents_mod.MOVES[ref.kind].get(label)
        if move is None:
            raise ValueError(f"unknown {ref.kind} action label {label!r}")
        if label == agents_mod.HOLD:
            continue
        if ref.kind == agents_mod.TRANSFORMER:
            taps[ref.index] = grid.transformers[ref.index].tap_pos + move
        elif ref.kind == agents_mod.GENERATOR:
            g = grid.generators[ref.index]
            setpoints[ref.index] = (g.p_mw + move[0], g.q_mvar + move[1])
        else:
            scalings[ref.index] = grid.loads[ref.index].scaling + move
    grid = grid.with_targets(transformers=taps, generators=setpoints, loads=scalings)
    return WorldState(t=world.t + 1, grid=grid, solution=solve_newton_raphson(grid))


def system_performance(world: WorldState, cfg: PerformanceConfig) -> float:
    """Mean per-bus distance from the hard band edge, in [0, 1]; 0 on a failed solve."""
    if not world.solution.converged:
        return 0.0
    v = world.solution.v_pu
    half_band = cfg.v_hi - 1.0
    return float(np.mean(np.maximum(0.0, 1.0 - np.abs(v - 1.0) / half_band)))


def operational_phases(v: np.ndarray, converged: Sequence[bool], cfg: PerformanceConfig) -> list[str]:
    """Operating-state label of each row of a (steps, buses) voltage matrix.

    An unsolved step is a blackout; otherwise a bus outside the hard band
    [v_lo, v_hi] makes an emergency and one outside NORMAL_BAND an alert.
    """
    v = np.asarray(v, float)
    return np.select(
        [~np.asarray(converged, bool),
         np.any((v < cfg.v_lo) | (v > cfg.v_hi), axis=1),
         np.any((v < NORMAL_BAND[0]) | (v > NORMAL_BAND[1]), axis=1)],
        [PHASE_BLACKOUT, PHASE_EMERGENCY, PHASE_ALERT],
        PHASE_NORMAL,
    ).tolist()


class PhaseSegment(NamedTuple):
    phase: str
    start: int
    end: int


def classify_resilience_phases(
    p_series: Sequence[float], cfg: PerformanceConfig
) -> list[PhaseSegment]:
    """Segment a performance series into plan/absorb/recover/adapt stretches.

    Planned operation is anything within RESILIENCE_EPS of nominal.  A drop
    below that opens an absorb segment that lasts while performance keeps
    falling; the climb back is recovery until the mean level of the segment
    preceding the event is reached again, which opens adaptation.  A later
    drop out of adaptation starts the next event with the adapt segment as
    its new baseline.
    """
    p = [float(v) for v in p_series]
    if not p:
        raise ValueError("performance series must be non-empty")
    thr = cfg.p_star * (1.0 - RESILIENCE_EPS)

    segments: list[PhaseSegment] = []
    pre_event = cfg.p_star
    phase = PLAN if p[0] >= thr else ABSORB
    start = 0

    for t in range(1, len(p)):
        nxt: str | None = None
        if phase in (PLAN, ADAPT):
            if p[t] < thr:
                pre_event = float(np.mean(p[start:t]))
                nxt = ABSORB
        elif phase == ABSORB:
            if p[t] > p[t - 1]:
                nxt = RECOVER
        elif phase == RECOVER:
            if p[t] >= pre_event:
                nxt = ADAPT
            elif p[t] < p[t - 1]:
                nxt = ABSORB
        if nxt is not None:
            segments.append(PhaseSegment(phase, start, t - 1))
            phase, start = nxt, t
    segments.append(PhaseSegment(phase, start, len(p) - 1))
    return segments


@dataclass(frozen=True)
class StepRecord:
    t: int
    agent_id: str
    x: np.ndarray
    y: tuple[str, ...]
    reward: float
    p_world: float
    v_pu: np.ndarray
    theta_rad: np.ndarray
    p_inj_pu: np.ndarray
    q_inj_pu: np.ndarray
    converged: bool


# A StepRecord's per-bus vectors, one entry per bus of its run log.
_BUS_VECTORS = ("v_pu", "theta_rad", "p_inj_pu", "q_inj_pu")


@dataclass(frozen=True)
class AgentSummary:
    agent_id: str = field(metadata={"key": "id"})
    agent_class: str = field(metadata={"key": "class"})
    learner_kind: str = field(metadata={"key": "learner"})


@dataclass(frozen=True)
class RunLog:
    config_fingerprint: str
    name: str
    seed: int
    rounds: int
    steps_per_turn: int
    performance: PerformanceConfig
    agents: tuple[AgentSummary, ...]
    initial_v_pu: np.ndarray = field(metadata={"key": "initial.v_pu"})
    initial_theta_rad: np.ndarray = field(metadata={"key": "initial.theta_rad"})
    initial_converged: bool = field(metadata={"key": "initial.converged"})
    initial_p_world: float = field(metadata={"key": "initial.p_world"})
    steps: tuple[StepRecord, ...]
    stopped: str | None = None  # why the run ended before its schedule did

    def __post_init__(self) -> None:
        # Every per-bus vector has one entry per bus, so the writers and the
        # metrics can treat a log as whole (steps, buses) arrays.
        n_bus = len(self.initial_v_pu)
        if n_bus == 0:
            raise ValueError("initial.v_pu: a grid has at least one bus, got 0 values")
        if (n := len(self.initial_theta_rad)) != n_bus:
            raise ValueError(f"initial.theta_rad: expected {n_bus} values, got {n}")
        for i, rec in enumerate(self.steps):
            for name in _BUS_VECTORS:
                if (n := len(getattr(rec, name))) != n_bus:
                    raise ValueError(f"steps[{i}].{name}: expected {n_bus} values, got {n}")


def check_asymmetry_series(
    p_series: Sequence[float], p_fail: float, t0: int, first_t: int = 0
) -> tuple[bool, int | None]:
    """Whether performance stays above p_fail for every step after t0.

    Element ``i`` of the series is taken at time ``first_t + i``.  Returns
    the verdict and the earliest violating time, if any.
    """
    for i, value in enumerate(p_series):
        t = first_t + i
        if t > t0 and value <= p_fail:
            return False, t
    return True, None


def run_experiment(config: ExperimentConfig) -> RunLog:
    """Execute the configured duel and collect the full step-by-step log.

    Rounds advance the agents in their configured order; each agent takes
    ``steps_per_turn`` turns of observe / act / apply / re-solve / reward /
    learn before the next agent moves.  Everything is driven by generators
    derived from the experiment seed, so identical configs replay exactly.
    A turn whose TD loss is not finite is recorded and ends the run, with
    ``stopped`` naming the agent and the step.
    """
    grid = config.build_grid()
    perf = config.performance
    streams = np.random.SeedSequence(config.seed).spawn(len(config.agents))
    runners = [
        spec.make_agent(np.random.default_rng(stream))
        for spec, stream in zip(config.agents, streams)
    ]

    turns = ((spec, runner) for _ in range(config.rounds)
             for spec, runner in zip(config.agents, runners)
             for _ in range(config.steps_per_turn))
    world = initial_world(grid)
    init = world
    records: list[StepRecord] = []
    stopped = None
    for spec, runner in turns:
        x = observe(world, spec.sensors)
        chosen = runner.act(x)
        labels = tuple(agents_mod.LABELS_BY_KIND[ref.kind][i] for ref, i in zip(spec.actuators, chosen))
        world = apply_actions(world, dict(zip(spec.actuators, labels)))
        x_next = observe(world, spec.sensors)
        r = reward_fn(spec.reward_params(), float(np.mean(x_next)))
        loss = runner.learn(x, chosen, r, x_next)
        # The record describes the post-action world: its x is x_next, the
        # observation the reward was evaluated on, and y the action that
        # produced this state.
        records.append(
            StepRecord(
                t=world.t,
                agent_id=spec.id,
                x=x_next,
                y=labels,
                reward=r,
                p_world=system_performance(world, perf),
                v_pu=world.solution.v_pu,
                theta_rad=world.solution.theta_rad,
                p_inj_pu=world.solution.p_inj_pu,
                q_inj_pu=world.solution.q_inj_pu,
                converged=world.solution.converged,
            )
        )
        if loss is not None and not math.isfinite(loss):
            stopped = f"agent {spec.id}: TD loss is not finite ({loss}) at step {world.t}"
            break

    return RunLog(
        config_fingerprint=config.fingerprint(),
        name=config.name,
        seed=config.seed,
        rounds=config.rounds,
        steps_per_turn=config.steps_per_turn,
        performance=perf,
        agents=tuple(
            AgentSummary(spec.id, spec.agent_class, spec.learner_kind)
            for spec in config.agents
        ),
        initial_v_pu=init.solution.v_pu,
        initial_theta_rad=init.solution.theta_rad,
        initial_converged=init.solution.converged,
        initial_p_world=system_performance(init, perf),
        steps=tuple(records),
        stopped=stopped,
    )
