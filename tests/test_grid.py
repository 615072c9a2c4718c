import dataclasses

import numpy as np
import pytest

from gridduel.config import ExperimentConfig, load_config, save_config
from gridduel.grid import (
    Bus,
    Generator,
    GridModel,
    Line,
    ModelValidationError,
    build_admittance_matrix,
)

from .conftest import two_bus_grid


def test_single_branch_admittance_closed_form():
    grid = GridModel(
        s_base_mva=10.0,
        buses=(Bus(0, "slack", 110.0, 1.0), Bus(1, "pq", 110.0)),
        lines=(Line(0, 1, r_pu=0.0, x_pu=0.1),),
    ).validate()
    y = build_admittance_matrix(grid)
    expected = np.array([[-10j, 10j], [10j, -10j]])
    assert np.array_equal(y, expected)


def test_shunt_free_rows_sum_to_zero(poc_grid):
    y = build_admittance_matrix(poc_grid)
    assert np.max(np.abs(y.sum(axis=1))) < 1e-12


def test_tap_move_changes_only_its_bus_pair(poc_grid):
    y0 = build_admittance_matrix(poc_grid)
    moved = poc_grid.with_tap(2, poc_grid.transformers[2].tap_pos + 1)
    # Oracle: rebuild the same grid from scratch instead of copy-and-modify.
    t = poc_grid.transformers[2]
    rebuilt = GridModel(
        s_base_mva=poc_grid.s_base_mva,
        buses=poc_grid.buses,
        lines=poc_grid.lines,
        transformers=poc_grid.transformers[:2]
        + (dataclasses.replace(t, tap_pos=t.tap_pos + 1),)
        + poc_grid.transformers[3:],
        generators=poc_grid.generators,
        loads=poc_grid.loads,
    ).validate()
    y1 = build_admittance_matrix(moved)
    assert np.array_equal(y1, build_admittance_matrix(rebuilt))

    f, to = t.from_bus, t.to_bus
    touched = np.zeros_like(y0, dtype=bool)
    touched[f, :] = touched[:, f] = touched[to, :] = touched[:, to] = True
    assert np.array_equal(y0[~touched], y1[~touched])
    assert y1[f, f] != y0[f, f]
    assert y1[f, to] != y0[f, to]


def test_admittance_symmetry_with_and_without_taps(poc_grid):
    y_neutral = build_admittance_matrix(poc_grid)
    assert np.array_equal(y_neutral, y_neutral.T)

    moved = poc_grid.with_tap(0, 4)
    y = build_admittance_matrix(moved)
    f, to = poc_grid.transformers[0].from_bus, poc_grid.transformers[0].to_bus
    assert y[f, to] == y[to, f]
    assert y[f, f] != y_neutral[f, f]  # from-side diagonal scales with the ratio
    assert y[to, to] == y_neutral[to, to]  # to-side diagonal does not


def test_zero_impedance_branch_rejected():
    grid = GridModel(
        s_base_mva=10.0,
        buses=(Bus(0, "slack", 110.0, 1.0), Bus(1, "pq", 110.0)),
        lines=(Line(0, 1, r_pu=0.0, x_pu=0.0),),
    )
    with pytest.raises(ModelValidationError, match="zero-impedance"):
        grid.validate()


def test_disconnected_graph_rejected():
    grid = GridModel(
        s_base_mva=10.0,
        buses=(Bus(0, "slack", 110.0, 1.0), Bus(1, "pq", 110.0), Bus(2, "pq", 110.0)),
        lines=(Line(0, 1, r_pu=0.01, x_pu=0.05),),
    )
    with pytest.raises(ModelValidationError, match="not connected"):
        grid.validate()


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda g: dataclasses.replace(g, buses=g.buses[:-1] + (dataclasses.replace(g.buses[-1], id=0),)),
         "contiguous"),
        (lambda g: dataclasses.replace(g, lines=g.lines + (Line(0, 99, 0.01, 0.05),)),
         "does not exist"),
        (lambda g: dataclasses.replace(
            g, buses=(g.buses[0], dataclasses.replace(g.buses[1], kind="slack", v_setpoint_pu=1.0)) + g.buses[2:]),
         "exactly one slack"),
        (lambda g: dataclasses.replace(
            g, transformers=(dataclasses.replace(g.transformers[0], tap_pos=10),) + g.transformers[1:]),
         "tap_pos"),
    ],
)
def test_validation_rejections(poc_grid, mutate, message):
    with pytest.raises(ModelValidationError, match=message):
        mutate(poc_grid).validate()


def test_generator_must_sit_on_pq_bus():
    grid = GridModel(
        s_base_mva=10.0,
        buses=(Bus(0, "slack", 110.0, 1.0), Bus(1, "pq", 110.0)),
        lines=(Line(0, 1, r_pu=0.01, x_pu=0.05),),
        generators=(Generator(0, 0.5, 0.0, 0.0, 1.0, -0.3, 0.3),),
    )
    with pytest.raises(ModelValidationError, match="pq bus"):
        grid.validate()


def test_poc_grid_counts(poc_grid):
    assert poc_grid.n_bus == 14
    assert len(poc_grid.lines) == 7
    assert len(poc_grid.transformers) == 6
    assert len(poc_grid.generators) == 4
    assert len(poc_grid.loads) == 6
    assert all(tr.tap_pos == 0 for tr in poc_grid.transformers)
    assert all(ld.scaling == 1.0 for ld in poc_grid.loads)


def test_poc_base_case_voltages_inside_tight_band(poc_solution):
    assert np.all(poc_solution.v_pu > 0.95)
    assert np.all(poc_solution.v_pu < 1.05)


def test_copy_helpers_clamp_at_limits(poc_grid):
    at_max = poc_grid.with_tap(0, 99)
    assert at_max.transformers[0].tap_pos == 9
    assert at_max.with_tap(0, at_max.transformers[0].tap_pos + 1).transformers[0].tap_pos == 9

    g = poc_grid.with_generator_setpoint(0, 5.0, -5.0)
    assert g.generators[0].p_mw == 1.0
    assert g.generators[0].q_mvar == -0.3

    ld = poc_grid.with_load_scaling(0, 0.0)
    assert ld.loads[0].scaling == 0.5


def test_copy_helpers_do_not_mutate_source(poc_grid):
    before = poc_grid.transformers[0].tap_pos
    poc_grid.with_tap(0, 5)
    assert poc_grid.transformers[0].tap_pos == before


def test_grid_serialization_round_trip(poc_grid):
    # GridModel -> experiment JSON (inline grid) -> GridModel is the identity.
    base = load_config(save_config_with_grid(poc_grid)).build_grid()
    assert base == poc_grid

    two = two_bus_grid()
    assert load_config(save_config_with_grid(two)).build_grid() == two


def save_config_with_grid(grid: GridModel) -> str:
    from gridduel.agents import ActuatorRef, RewardParams, TabularHyper
    from gridduel.config import AgentSpec, OutputPaths
    from gridduel.core import PerformanceConfig

    kind = "load" if grid.loads else "transformer"
    cfg = ExperimentConfig(
        name="round_trip",
        seed=1,
        grid_source=grid,
        agents=(AgentSpec(
            id="d",
            sensors=((0, "v_pu"),),
            actuators=(ActuatorRef(kind, 0),) if (grid.loads or grid.transformers) else (),
            reward=RewardParams(agent_class="defender"),
            learner=TabularHyper(),
        ),),
        rounds=0,
        steps_per_turn=1,
        performance=PerformanceConfig(),
        outputs=OutputPaths("a.csv", "b.csv", "c.json"),
        allow_single_class=True,
    )
    return save_config(cfg)
