import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridduel.codec import ConfigError
from gridduel.config import ExperimentConfig, load_config, save_config
from gridduel.grid import (
    Bus,
    Generator,
    GridModel,
    Line,
    ModelValidationError,
    actuator_state,
    arl_poc_grid,
    build_admittance_matrix,
)
from gridduel.powerflow import solve_newton_raphson

from .conftest import pv_grid, two_bus_grid


def test_single_branch_admittance_closed_form():
    grid = GridModel(
        s_base_mva=10.0,
        buses=(Bus(0, "slack", 110.0, 1.0), Bus(1, "pq", 110.0)),
        lines=(Line(0, 1, r_pu=0.0, x_pu=0.1),),
    )
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
    )
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
    with pytest.raises(ModelValidationError, match="zero-impedance"):
        GridModel(
            s_base_mva=10.0,
            buses=(Bus(0, "slack", 110.0, 1.0), Bus(1, "pq", 110.0)),
            lines=(Line(0, 1, r_pu=0.0, x_pu=0.0),),
        )


def test_disconnected_graph_rejected():
    with pytest.raises(ModelValidationError, match="not connected"):
        GridModel(
            s_base_mva=10.0,
            buses=(Bus(0, "slack", 110.0, 1.0), Bus(1, "pq", 110.0), Bus(2, "pq", 110.0)),
            lines=(Line(0, 1, r_pu=0.01, x_pu=0.05),),
        )


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
        (lambda g: dataclasses.replace(
            g, lines=(dataclasses.replace(g.lines[0], r_pu=0.0, x_pu=0.0),) + g.lines[1:]),
         "zero-impedance"),
        (lambda g: dataclasses.replace(
            g, transformers=(dataclasses.replace(g.transformers[0], tap_pos=2.5),) + g.transformers[1:]),
         r"transformers\[0\]: tap_pos must be an integer"),
        (lambda g: dataclasses.replace(g, s_base_mva=0.0), "s_base_mva must be > 0"),
        (lambda g: dataclasses.replace(g, buses=()), "grid has no buses"),
        (lambda g: dataclasses.replace(g, buses=(g.buses[1], g.buses[0]) + g.buses[2:]),
         "buses must be listed in id order"),
        (lambda g: dataclasses.replace(g, buses=(g.buses[0], dataclasses.replace(g.buses[1], kind="hub"))
                                       + g.buses[2:]),
         "bus 1: unknown kind 'hub'"),
        (lambda g: _with_first(g, "buses", base_kv=0.0), "bus 0: base_kv must be > 0"),
        (lambda g: _with_first(g, "buses", v_setpoint_pu=None), "bus 0: slack bus needs a positive v_setpoint_pu"),
        (lambda g: _with_first(g, "lines", to_bus=0), r"lines\[0\]: from_bus equals to_bus"),
        (lambda g: _with_first(g, "lines", b_shunt_pu=-0.1), r"lines\[0\]: b_shunt_pu must be >= 0"),
        (lambda g: _with_first(g, "transformers", tap_step_pu=0.2),
         r"transformers\[0\]: tap ratio not positive at tap -9"),
        (lambda g: _with_first(g, "generators", bus=99), r"generators\[0\]: bus 99 does not exist"),
        (lambda g: _with_first(g, "generators", bus=0), r"generators\[0\]: bus 0 must be a pq bus"),
        (lambda g: _with_first(g, "generators", p_mw=2.0), r"generators\[0\]: p_mw 2\.0 outside \[0\.0, 1\.0\]"),
        (lambda g: _with_first(g, "generators", q_mvar=0.5), r"generators\[0\]: q_mvar 0\.5 outside \[-0\.3, 0\.3\]"),
        (lambda g: _with_first(g, "loads", bus=99), r"loads\[0\]: bus 99 does not exist"),
        (lambda g: _with_first(g, "loads", scaling=2.0), r"loads\[0\]: scaling 2\.0 outside \[0\.5, 1\.5\]"),
        (lambda g: _with_first(g, "lines", to_bus=1.0), r"lines\[0\]: to_bus must be an integer"),
        (lambda g: _with_first(g, "lines", to_bus=True), r"lines\[0\]: to_bus must be an integer"),
        (lambda g: _with_first(g, "transformers", from_bus=2.0), r"transformers\[0\]: from_bus must be an integer"),
        (lambda g: _with_first(g, "generators", bus=True), r"generators\[0\]: bus must be an integer"),
        (lambda g: _with_first(g, "loads", bus=8.0), r"loads\[0\]: bus must be an integer"),
        (lambda g: _with_first(g, "loads", bus=np.int64(8)), r"loads\[0\]: bus must be an integer"),
        (lambda g: _with_first(g, "buses", id=0.0), r"buses\[0\]: id must be an integer"),
        (lambda g: _with_first(g, "transformers", to_bus=99), r"transformers\[0\]: bus 99 does not exist"),
        (lambda g: _with_first(g, "transformers", tap_max=9.0), r"transformers\[0\]: tap_max must be an integer"),
    ],
)
def test_validation_rejections(poc_grid, mutate, message):
    """`dataclasses.replace` builds its copy through the checking constructor."""
    with pytest.raises(ModelValidationError, match=message):
        mutate(poc_grid)


def _with_first(g, kind, **changes):
    devices = getattr(g, kind)
    return dataclasses.replace(g, **{kind: (dataclasses.replace(devices[0], **changes),) + devices[1:]})


@pytest.mark.parametrize("mutate, message", [
    (lambda g: _with_first(g, "lines", r_pu=math.nan), r"lines\[0\]: r_pu must be finite"),
    (lambda g: _with_first(g, "transformers", tap_step_pu=math.nan),
     r"transformers\[0\]: tap_step_pu must be finite"),
    (lambda g: dataclasses.replace(g, s_base_mva=math.inf), "s_base_mva must be finite"),
    (lambda g: _with_first(g, "buses", base_kv=-math.inf), r"buses\[0\]: base_kv must be finite"),
    (lambda g: _with_first(g, "buses", v_setpoint_pu=math.nan), r"buses\[0\]: v_setpoint_pu must be finite"),
    (lambda g: _with_first(g, "generators", q_max_mvar=math.inf),
     r"generators\[0\]: q_max_mvar must be finite"),
    (lambda g: _with_first(g, "loads", scaling_max=math.nan), r"loads\[0\]: scaling_max must be finite"),
], ids=["line_r", "tap_step", "s_base", "bus_kv", "bus_setpoint", "generator_q_max", "load_scaling_max"])
def test_non_finite_numbers_rejected(poc_grid, mutate, message):
    """Before this check the first two grids failed every solve and the third solved with zero injections."""
    with pytest.raises(ModelValidationError, match=message):
        mutate(poc_grid)


@pytest.mark.parametrize("mutate, message", [
    (lambda g: _with_first(g, "lines", r_pu=True), r"^lines\[0\]\.r_pu: expected a number$"),
    (lambda g: _with_first(g, "buses", name=5), r"^buses\[0\]\.name: expected a string$"),
    (lambda g: dataclasses.replace(g, buses=(dataclasses.replace(g.buses[0], kind=None), *g.buses[1:])),
     r"^buses\[0\]\.kind: expected a string$"),
    (lambda g: _with_first(g, "buses", v_setpoint_pu=True), r"^buses\[0\]\.v_setpoint_pu: expected a number$"),
    (lambda g: _with_first(g, "transformers", tap_step_pu="0.0125"),
     r"^transformers\[0\]\.tap_step_pu: expected a number$"),
    (lambda g: _with_first(g, "generators", p_max_mw=[1.0]), r"^generators\[0\]\.p_max_mw: expected a number$"),
    (lambda g: _with_first(g, "loads", scaling=10**400), r"^loads\[0\]\.scaling: expected a finite number$"),
    (lambda g: dataclasses.replace(g, s_base_mva=True), r"^s_base_mva: expected a number$"),
], ids=["bool_line_r", "int_bus_name", "none_bus_kind", "bool_setpoint", "str_tap_step", "list_p_max",
        "huge_int_scaling", "bool_s_base"])
def test_python_built_grid_fields_are_checked(poc_grid, mutate, message):
    """A grid built in Python refuses a float or string field of the wrong type, as its JSON reader does."""
    with pytest.raises(ConfigError, match=message):
        mutate(poc_grid)


def test_an_int_in_a_grid_float_field_is_stored_as_its_float(poc_grid):
    """So the saved text reloads as the same grid, with the same text and fingerprint."""
    grid = dataclasses.replace(_with_first(_with_first(poc_grid, "loads", p_mw=1), "buses", base_kv=110),
                               s_base_mva=10)
    assert (type(grid.loads[0].p_mw), type(grid.buses[0].base_kv), type(grid.s_base_mva)) == (float, float, float)
    text = save_config_with_grid(grid)
    assert '"p_mw": 1.0' in text
    assert save_config_with_grid(load_config(text).build_grid()) == text


def test_generator_must_sit_on_pq_bus():
    with pytest.raises(ModelValidationError, match="pq bus"):
        GridModel(
            s_base_mva=10.0,
            buses=(Bus(0, "slack", 110.0, 1.0), Bus(1, "pq", 110.0)),
            lines=(Line(0, 1, r_pu=0.01, x_pu=0.05),),
            generators=(Generator(0, 0.5, 0.0, 0.0, 1.0, -0.3, 0.3),),
        )


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


def test_a_grid_keeps_the_devices_it_checked():
    """A grid built from lists stores tuples of them.

    Editing the lists after the check then changes neither that grid nor the
    solve of a new grid built from the edited lists.
    """
    base = two_bus_grid()
    weak = dataclasses.replace(base.lines[0], x_pu=0.5)
    fresh = solve_newton_raphson(dataclasses.replace(base, lines=(weak,)))
    buses, lines, loads = list(base.buses), list(base.lines), list(base.loads)
    grid = GridModel(base.s_base_mva, buses, lines, loads=loads)
    solve_newton_raphson(grid)
    lines[0] = weak
    assert grid == base
    edited = solve_newton_raphson(GridModel(base.s_base_mva, buses, lines, loads=loads))
    assert edited.v_pu.tobytes() == fresh.v_pu.tobytes()  # v_pu[1] 0.965926, not the unedited 0.998746


@pytest.mark.parametrize("index", [-1, 6, 99])
def test_copy_helpers_reject_a_missing_device(poc_grid, index):
    # A negative index would otherwise splice the tuple into 12 transformers.
    with pytest.raises(IndexError, match=rf"transformers\[{index}\] does not exist"):
        poc_grid.with_tap(index, 3)
    with pytest.raises(IndexError, match="loads"):
        poc_grid.with_load_scaling(index, 1.0)


@pytest.mark.parametrize("call", [
    lambda g: g.with_generator_setpoint(0, 0.5, math.nan),
    lambda g: g.with_generator_setpoint(0, math.nan, 0.0),
    lambda g: g.with_load_scaling(0, math.nan),
], ids=["generator_q", "generator_p", "load"])
def test_copy_helpers_reject_a_nan_target(poc_grid, call):
    with pytest.raises(ValueError, match="must not be NaN"):
        call(poc_grid)


@pytest.mark.parametrize("target", [math.nan, 2.5, 2.0, math.inf, "3"], ids=["nan", "2.5", "2.0", "inf", "str"])
def test_with_tap_rejects_a_non_integer_target(poc_grid, target):
    with pytest.raises(TypeError):
        poc_grid.with_tap(0, target)


def test_with_tap_stores_an_integer_target_as_int(poc_grid):
    """A numpy integer becomes an int, so the grid saves, loads and fingerprints."""
    grid = poc_grid.with_tap(0, np.int64(3))
    assert type(grid.transformers[0].tap_pos) is int
    assert load_config(save_config_with_grid(grid)).build_grid() == grid


# Helper name -> (device tuple it changes, number of target values it takes).
_HELPERS = {"with_tap": ("transformers", 1), "with_generator_setpoint": ("generators", 2),
            "with_load_scaling": ("loads", 1)}
_TARGETS = st.floats() | st.sampled_from([math.inf, -math.inf, 1e308, -1e308, -0.0]) | st.integers(-2**70, 2**70)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(base=st.sampled_from([arl_poc_grid, pv_grid]),
       calls=st.lists(st.tuples(st.sampled_from(sorted(_HELPERS)), st.integers() | st.integers(-1, 6),
                                st.lists(_TARGETS, min_size=2, max_size=2)), max_size=8))
def test_copy_helpers_keep_every_invariant(base, calls):
    """The with_* copies skip the constructor's check, so each must keep every invariant itself.

    Each copy also survives a config round trip, which reads tap positions as integers.
    """
    grid = base()
    for name, index, targets in calls:
        kind, arity = _HELPERS[name]
        targets = targets[:arity]
        helper = getattr(grid, name)
        if not 0 <= index < len(getattr(grid, kind)):
            with pytest.raises(IndexError):
                helper(index, *targets)
        elif name == "with_tap" and not isinstance(targets[0], int):
            with pytest.raises(TypeError):
                helper(index, *targets)
        elif any(math.isnan(v) for v in targets):
            with pytest.raises(ValueError):
                helper(index, *targets)
        else:
            new = helper(index, *targets)
            rebuilt = GridModel(**{f.name: getattr(new, f.name) for f in dataclasses.fields(GridModel)})
            assert new == rebuilt
            assert load_config(save_config_with_grid(new)).build_grid() == new
            grid = new



@pytest.mark.parametrize("name, targets, moved", [
    ("with_tap", (5,), {"tap_pos"}),
    ("with_generator_setpoint", (0.7, 0.2), {"p_mw", "q_mvar"}),
    ("with_load_scaling", (1.2,), {"scaling"}),
], ids=["transformer", "generator", "load"])
def test_a_move_changes_only_its_actuated_fields(name, targets, moved):
    """with_targets rebuilds a moved device from its fields; every other field keeps its value."""
    kind = _HELPERS[name][0]
    grid = pv_grid()
    before, after = getattr(grid, kind)[0], getattr(getattr(grid, name)(0, *targets), kind)[0]
    assert type(after) is type(before)
    assert {f.name for f in dataclasses.fields(before) if getattr(after, f.name) != getattr(before, f.name)} == moved

def test_actuator_state_keeps_its_shape(poc_grid):
    """The per-run memo's key: per kind, a tap, a (p_mw, q_mvar) pair or a scaling per device."""
    grid = poc_grid.with_targets(transformers={1: 3}, generators={2: (0.7, -0.1)}, loads={0: 1.2})
    assert actuator_state(grid) == (tuple([tr.tap_pos for tr in grid.transformers]),
                                    tuple([(g.p_mw, g.q_mvar) for g in grid.generators]),
                                    tuple([ld.scaling for ld in grid.loads]))
    assert actuator_state(grid)[:2] == ((0, 3, 0, 0, 0, 0), ((0.5, 0.0), (0.5, 0.0), (0.7, -0.1), (0.5, 0.0)))


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
