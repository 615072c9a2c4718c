from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

import gridduel
from gridduel.agents import ActuatorRef, QNetHyper, RewardParams, TabularHyper
from gridduel.config import AgentSpec, ExperimentConfig, OutputPaths
from gridduel.core import PerformanceConfig
from gridduel.grid import Bus, Generator, GridModel, Line, Load, Transformer, arl_poc_grid
from gridduel.powerflow import solve_newton_raphson

# Closed-form solution of the two-bus case: slack 1.0/0 rad, series x=0.1 pu,
# PQ load P=0.5 pu, Q=0.  V2 is the high-voltage root of V^4 - V^2 + 0.0025.
TWO_BUS_V2 = 0.9987460731103327
TWO_BUS_THETA2 = -0.05008371058077993


def two_bus_grid(p_load_mw: float = 5.0, r_pu: float = 0.0) -> GridModel:
    return GridModel(
        s_base_mva=10.0,
        buses=(Bus(0, "slack", 110.0, v_setpoint_pu=1.0), Bus(1, "pq", 110.0)),
        lines=(Line(0, 1, r_pu=r_pu, x_pu=0.1),),
        loads=(Load(1, p_mw=p_load_mw, q_mvar=0.0),),
    )


def zero_load_grid(n_bus: int = 3) -> GridModel:
    buses = [Bus(0, "slack", 110.0, v_setpoint_pu=1.0)]
    buses += [Bus(i, "pq", 110.0) for i in range(1, n_bus)]
    lines = tuple(Line(i, i + 1, r_pu=0.01, x_pu=0.05) for i in range(n_bus - 1))
    return GridModel(s_base_mva=10.0, buses=tuple(buses), lines=lines)


def pv_grid() -> GridModel:
    """Four buses, one of each solver role: slack, a pv bus, then two pq buses.

    The pv bus holds 1.01 pu and carries a load, so its angle is an unknown
    while its voltage is not; the partitions of non-slack and pq buses differ.
    Line 0-1 has shunt susceptance and the transformer sits off its nominal tap.
    """
    return GridModel(
        s_base_mva=10.0,
        buses=(
            Bus(0, "slack", 110.0, v_setpoint_pu=1.02),
            Bus(1, "pv", 20.0, v_setpoint_pu=1.01),
            Bus(2, "pq", 20.0),
            Bus(3, "pq", 0.4),
        ),
        lines=(Line(0, 1, r_pu=0.002, x_pu=0.05, b_shunt_pu=0.02),
               Line(1, 2, r_pu=0.01, x_pu=0.02)),
        transformers=(Transformer(2, 3, r_pu=0.10, x_pu=0.95, tap_pos=3, tap_min=-9, tap_max=9,
                                  tap_step_pu=0.0125),),
        generators=(Generator(2, p_mw=0.5, q_mvar=0.1, p_min_mw=0.0, p_max_mw=1.0,
                              q_min_mvar=-0.3, q_max_mvar=0.3),),
        loads=(Load(1, p_mw=1.0, q_mvar=0.2, scaling_min=0.5, scaling_max=1.5),
               Load(3, p_mw=0.4, q_mvar=0.1, scaling_min=0.5, scaling_max=1.5)),
    )


def cli_env(**extra: str) -> dict[str, str]:
    """Environment for a child process that runs ``python -m gridduel.cli``.

    Puts the directory holding the imported ``gridduel`` package first on
    ``PYTHONPATH`` as an absolute path, so the child runs the code under test
    whatever its cwd (a relative ``PYTHONPATH=src`` names nothing from a tmp
    dir).  ``extra`` entries are added on top.
    """
    package_root = str(Path(gridduel.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = package_root + (os.pathsep + inherited if inherited else "")
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


def pytest_configure(config):
    # Hypothesis caches the constants of local source files under its home
    # directory, ./.hypothesis by default, while collecting; use a temp dir.
    config.hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home)


def pytest_unconfigure(config):
    shutil.rmtree(config.hypothesis_home, ignore_errors=True)


@pytest.fixture(scope="session")
def poc_grid():
    return arl_poc_grid()


@pytest.fixture(scope="session")
def poc_solution(poc_grid):
    sol = solve_newton_raphson(poc_grid)
    assert sol.converged
    return sol


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def experiment_config(rounds=1, steps_per_turn=1, seed=42, lone=False, learner="qnet"):
    """Small reference-grid experiment used across the suite (fast learners)."""
    sensors = tuple((b, "v_pu") for b in range(14))
    small_qnet = QNetHyper(hidden=8, batch_size=4, replay_capacity=64)
    hyper = small_qnet if learner == "qnet" else TabularHyper()
    attacker = AgentSpec(
        id="attacker", sensors=sensors,
        actuators=tuple(ActuatorRef("transformer", i) for i in range(6)),
        reward=RewardParams(agent_class="attacker"), learner=hyper,
    )
    defender = AgentSpec(
        id="defender", sensors=sensors,
        actuators=tuple(ActuatorRef("generator", i) for i in range(4))
        + tuple(ActuatorRef("load", i) for i in range(6)),
        reward=RewardParams(agent_class="defender"), learner=hyper,
    )
    return ExperimentConfig(
        name="test", seed=seed, grid_source="arl_poc_grid",
        agents=(attacker,) if lone else (attacker, defender),
        rounds=rounds, steps_per_turn=steps_per_turn,
        performance=PerformanceConfig(),
        outputs=OutputPaths("g.csv", "a.csv", "m.json"),
        allow_single_class=lone,
    )
