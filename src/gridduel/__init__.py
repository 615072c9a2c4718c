"""Adversarial grid-control duels: RL attackers vs defenders on a static AC grid."""

from .agents import (
    ATTACKER,
    DEFENDER,
    ActuatorRef,
    EpsilonSchedule,
    QNetAgent,
    QNetHyper,
    QNetwork,
    QTable,
    RewardParams,
    TabularHyper,
    TabularQAgent,
    boundary_offset,
    forward,
    reward,
    select_actions,
    td_update,
)
from .config import (
    AgentSpec,
    ConfigError,
    ExperimentConfig,
    OutputPaths,
    fixture_path,
    load_config,
    load_config_path,
    save_config,
)
from .core import (
    Action,
    PerformanceConfig,
    PhaseSegment,
    RunLog,
    StepRecord,
    WorldState,
    apply_actions,
    attack_successful,
    check_asymmetry_series,
    classify_resilience_phases,
    initial_world,
    observe,
    operational_phase,
    run_experiment,
    system_performance,
)
from .grid import (
    Bus,
    Generator,
    GridModel,
    Line,
    Load,
    ModelValidationError,
    Transformer,
    arl_poc_grid,
    build_admittance_matrix,
)
from .powerflow import (
    PowerFlowSolution,
    compute_jacobian,
    compute_mismatch,
    solve_newton_raphson,
)
from .results import (
    MetricsReport,
    compute_metrics,
    emit_plot,
    read_run_log,
    write_agent_log,
    write_grid_log,
    write_metrics,
    write_run_log,
)

__version__ = "0.1.0"
