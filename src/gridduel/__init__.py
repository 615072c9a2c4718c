"""Adversarial grid-control duels: RL attackers vs defenders on a static AC grid."""

from .agents import (
    ActuatorRef,
    EpsilonSchedule,
    QNetHyper,
    QNetwork,
    RewardParams,
    TabularHyper,
    reward,
)
from .config import (
    AgentSpec,
    ConfigError,
    ExperimentConfig,
    OutputPaths,
    fixture_path,
    load_config_path,
    save_config,
)
from .core import (
    PerformanceConfig,
    RunLog,
    apply_actions,
    check_asymmetry_series,
    classify_resilience_phases,
    initial_world,
    operational_phases,
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
from .results import compute_metrics, emit_plot

__version__ = "0.1.0"
