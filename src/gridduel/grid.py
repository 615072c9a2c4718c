"""Per-unit electrical network model and admittance-matrix construction.

The grid is a plain bus/branch description on a single system MVA base:
buses (one slack, the rest PQ or PV), lines, tap-changing two-winding
transformers, PQ generators (modelled as negative loads) and scalable loads.
A :class:`GridModel` is checked once, when it is built: the constructor, the
JSON decoder and ``dataclasses.replace`` all store its devices as tuples and
run :meth:`GridModel.validate` on them, so a list edited later cannot change a
checked grid, and the solver never checks it again.  The check reads a float or
string field through the codec's readers and stores an int given for a float as
that float, so a grid built in Python saves text that reloads as itself.  One
table names each device kind's actuated settings and their limit fields:
``validate`` checks them, :meth:`GridModel.with_targets` clamps a move between
them and :func:`actuator_state` reads them.  ``with_targets`` copies any number
of devices inside limits the grid already holds, so its copy skips the
re-check; the ``with_*`` helpers are its one-device form.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np

from .codec import read_float, read_str

SLACK = "slack"
PV = "pv"
PQ = "pq"

_BUS_KINDS = (SLACK, PV, PQ)
# Each device kind's actuated settings, as (field, lower-limit field, upper-limit field).
_SETTINGS = {
    "transformers": (("tap_pos", "tap_min", "tap_max"),),
    "generators": (("p_mw", "p_min_mw", "p_max_mw"), ("q_mvar", "q_min_mvar", "q_max_mvar")),
    "loads": (("scaling", "scaling_min", "scaling_max"),),
}


class ModelValidationError(ValueError):
    """Raised when a grid description violates a structural invariant."""


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str
    base_kv: float
    v_setpoint_pu: float | None = None
    name: str = ""


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    r_pu: float
    x_pu: float
    b_shunt_pu: float = 0.0


@dataclass(frozen=True)
class Transformer:
    """Two-winding transformer, tap changer on the from (HV) side.

    Effective ratio is ``1 + tap_pos * tap_step_pu``; raising the tap lowers
    the LV-side voltage.
    """

    from_bus: int
    to_bus: int
    r_pu: float
    x_pu: float
    tap_pos: int = 0
    tap_min: int = 0
    tap_max: int = 0
    tap_step_pu: float = 0.0

    @property
    def ratio(self) -> float:
        return 1.0 + self.tap_pos * self.tap_step_pu


@dataclass(frozen=True)
class Generator:
    """PQ generation device (negative load); both P and Q are actuated."""

    bus: int
    p_mw: float
    q_mvar: float
    p_min_mw: float
    p_max_mw: float
    q_min_mvar: float
    q_max_mvar: float


@dataclass(frozen=True)
class Load:
    bus: int
    p_mw: float
    q_mvar: float
    scaling: float = 1.0
    scaling_min: float = 1.0
    scaling_max: float = 1.0


@dataclass(frozen=True)
class GridModel:
    s_base_mva: float
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...] = field(default_factory=tuple)
    transformers: tuple[Transformer, ...] = field(default_factory=tuple)
    generators: tuple[Generator, ...] = field(default_factory=tuple)
    loads: tuple[Load, ...] = field(default_factory=tuple)

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    def __post_init__(self) -> None:
        for kind in ("buses", "lines", "transformers", "generators", "loads"):
            object.__setattr__(self, kind, tuple(getattr(self, kind)))
        if type(self.s_base_mva) is not float:  # True is refused; an int is stored as its float
            object.__setattr__(self, "s_base_mva", read_float(self.s_base_mva, "s_base_mva"))
        self.validate()

    def validate(self) -> None:
        """Check all structural invariants; raise ModelValidationError on the first broken one."""
        if not math.isfinite(self.s_base_mva):
            raise ModelValidationError("s_base_mva must be finite")
        if self.s_base_mva <= 0:
            raise ModelValidationError("s_base_mva must be > 0")
        n = len(self.buses)
        if n == 0:
            raise ModelValidationError("grid has no buses")
        for kind in ("buses", "lines", "transformers", "generators", "loads"):
            for i, device in enumerate(getattr(self, kind)):
                values = vars(device)
                for f in fields(device):
                    value = values[f.name]
                    if f.type == "int" and type(value) is not int:  # not True, 1.0 or np.int64(1)
                        raise ModelValidationError(f"{kind}[{i}]: {f.name} must be an integer")
                    if f.type == "str":
                        read_str(value, f"{kind}[{i}].{f.name}")
                    elif f.type.startswith("float") and type(value) is not float and value is not None:
                        # True is refused; an int is stored, in place, as the float its saved text reloads as
                        values[f.name] = value = read_float(value, f"{kind}[{i}].{f.name}")
                    if f.name in ("from_bus", "to_bus", "bus") and not 0 <= value < n:
                        raise ModelValidationError(f"{kind}[{i}]: bus {value} does not exist")
                    if isinstance(value, float) and not math.isfinite(value):
                        raise ModelValidationError(f"{kind}[{i}]: {f.name} must be finite")
                for name, lo, hi in _SETTINGS.get(kind, ()):
                    if not values[lo] <= values[name] <= values[hi]:
                        raise ModelValidationError(
                            f"{kind}[{i}]: {name} {values[name]} outside [{values[lo]}, {values[hi]}]")
        ids = [b.id for b in self.buses]
        if sorted(ids) != list(range(n)):
            raise ModelValidationError(
                f"bus ids must be contiguous 0..{n - 1} and unique, got {sorted(ids)}"
            )
        if ids != list(range(n)):
            raise ModelValidationError("buses must be listed in id order")
        slacks = [b.id for b in self.buses if b.kind == SLACK]
        if len(slacks) != 1:
            raise ModelValidationError(f"exactly one slack bus required, found {len(slacks)}")
        for b in self.buses:
            if b.kind not in _BUS_KINDS:
                raise ModelValidationError(f"bus {b.id}: unknown kind {b.kind!r}")
            if b.base_kv <= 0:
                raise ModelValidationError(f"bus {b.id}: base_kv must be > 0")
            if b.kind in (SLACK, PV):
                if b.v_setpoint_pu is None or b.v_setpoint_pu <= 0:
                    raise ModelValidationError(
                        f"bus {b.id}: {b.kind} bus needs a positive v_setpoint_pu"
                    )
        for kind in ("lines", "transformers"):
            for i, br in enumerate(getattr(self, kind)):
                if br.from_bus == br.to_bus:
                    raise ModelValidationError(f"{kind}[{i}]: from_bus equals to_bus")
                if br.r_pu == 0.0 and br.x_pu == 0.0:
                    raise ModelValidationError(f"{kind}[{i}]: zero-impedance branch")
        for i, ln in enumerate(self.lines):
            if ln.b_shunt_pu < 0:
                raise ModelValidationError(f"lines[{i}]: b_shunt_pu must be >= 0")
        for i, tr in enumerate(self.transformers):
            for pos in (tr.tap_min, tr.tap_max):
                if 1.0 + pos * tr.tap_step_pu <= 0:
                    raise ModelValidationError(f"transformers[{i}]: tap ratio not positive at tap {pos}")
        for i, g in enumerate(self.generators):
            if self.buses[g.bus].kind != PQ:
                raise ModelValidationError(f"generators[{i}]: bus {g.bus} must be a pq bus (PQ-controlled device)")
        self._check_connected()

    def _check_connected(self) -> None:
        n = len(self.buses)
        adj: list[list[int]] = [[] for _ in range(n)]
        for br in (*self.lines, *self.transformers):
            adj[br.from_bus].append(br.to_bus)
            adj[br.to_bus].append(br.from_bus)
        seen = [False] * n
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        unreachable = [i for i, s in enumerate(seen) if not s]
        if unreachable:
            raise ModelValidationError(f"grid is not connected; isolated buses {unreachable}")

    # -- copy-and-modify actuator helpers ------------------------------------

    def with_targets(
        self,
        transformers: Mapping[int, int] | None = None,
        generators: Mapping[int, tuple[float, float]] | None = None,
        loads: Mapping[int, float] | None = None,
    ) -> GridModel:
        """One copy with each listed device moved to its target, clamped to its limits.

        The mappings take a device index to a tap position, a ``(p_mw, q_mvar)``
        setpoint or a load scaling: one value per setting in the kind's table row,
        each clamped between its limit fields.  A kind with no targets keeps its
        tuple, and no targets at all return the grid itself.  Clamping keeps every
        device inside limits the grid already holds, so the copy skips :meth:`validate`.
        A missing index raises IndexError, a NaN target or one of the wrong arity
        ValueError, and a non-integer target for a field declared ``int`` TypeError.
        """
        new = self
        for kind, targets in (("transformers", transformers), ("generators", generators), ("loads", loads)):
            if not targets:
                continue
            devices, settings = list(getattr(self, kind)), _SETTINGS[kind]
            for index, target in targets.items():
                if not 0 <= index < len(devices):
                    raise IndexError(f"{kind}[{index}] does not exist")
                device = devices[index]
                values = vars(moved := object.__new__(type(device)))  # a copy: no constructor, no re-check
                values.update(vars(device))
                for (name, lo, hi), value in zip(settings, target if len(settings) > 1 else (target,), strict=True):
                    if type(device).__annotations__[name] == "int":  # a tap: 2.5 raises, np.int64(3) is stored as 3
                        value = operator.index(value)
                    values[name] = _clamp(value, values[lo], values[hi])
                devices[index] = moved
            if new is self:  # a shallow copy, carrying the solver's _topology entry
                new = object.__new__(type(self))
                vars(new).update(vars(self))
            object.__setattr__(new, kind, tuple(devices))
        return new

    def with_tap(self, index: int, tap_pos: int) -> GridModel:
        """Copy with transformer ``index`` moved to ``tap_pos`` (clamped); a non-integer raises TypeError."""
        return self.with_targets(transformers={index: tap_pos})

    def with_generator_setpoint(self, index: int, p_mw: float, q_mvar: float) -> GridModel:
        """Copy with generator ``index`` at the given setpoint (clamped to limits)."""
        return self.with_targets(generators={index: (p_mw, q_mvar)})

    def with_load_scaling(self, index: int, scaling: float) -> GridModel:
        """Copy with load ``index`` at the given scaling factor (clamped)."""
        return self.with_targets(loads={index: scaling})


# Each kind's settings as actuator_state keys them: a tap, a (p_mw, q_mvar) pair, a scaling.
_READ_SETTINGS = {kind: operator.attrgetter(*(name for name, _, _ in settings))
                  for kind, settings in _SETTINGS.items()}


def actuator_state(grid: GridModel) -> tuple:
    """Every actuator's setting: all that tells apart the grids of one run."""
    return tuple([tuple(map(read, getattr(grid, kind))) for kind, read in _READ_SETTINGS.items()])


def _clamp(value: float, lo: float, hi: float) -> float:
    """value limited to [lo, hi]; NaN, which no limit can hold, raises."""
    if value != value:  # NaN; math.isnan would also reject an int too large for a float
        raise ValueError("actuator target must not be NaN")
    return min(max(value, lo), hi)


def build_admittance_matrix(grid: GridModel) -> np.ndarray:
    """Assemble the complex N x N bus admittance matrix.

    Lines use the standard pi-equivalent with half the shunt susceptance at
    each end.  Transformers use the ideal-transformer pi-equivalent with the
    off-nominal ratio ``a`` on the from (HV) side: off-diagonals are divided
    by ``a``, the from-side diagonal by ``a**2``.
    """
    n = grid.n_bus
    # Row-major entries as Python complex numbers: each += and -= is the same
    # pair of IEEE adds numpy would do in place, without a numpy call per entry.
    y = [0j] * (n * n)
    for ln in grid.lines:
        ys = 1.0 / complex(ln.r_pu, ln.x_pu)
        f, t = ln.from_bus, ln.to_bus
        y[f * n + f] += ys + 0.5j * ln.b_shunt_pu
        y[t * n + t] += ys + 0.5j * ln.b_shunt_pu
        y[f * n + t] -= ys
        y[t * n + f] -= ys
    for tr in grid.transformers:
        ys = 1.0 / complex(tr.r_pu, tr.x_pu)
        a = tr.ratio
        f, t = tr.from_bus, tr.to_bus
        y[f * n + f] += ys / (a * a)
        y[t * n + t] += ys
        y[f * n + t] -= ys / a
        y[t * n + f] -= ys / a
    return np.array(y).reshape(n, n)


def scheduled_injections_pu(grid: GridModel) -> tuple[np.ndarray, np.ndarray]:
    """Net scheduled P and Q per bus in per-unit (generation minus scaled load)."""
    n = grid.n_bus
    p = [0.0] * n  # Python floats: the same adds as numpy's, without a numpy call per device
    q = [0.0] * n
    for g in grid.generators:
        p[g.bus] += g.p_mw
        q[g.bus] += g.q_mvar
    for ld in grid.loads:
        p[ld.bus] -= ld.p_mw * ld.scaling
        q[ld.bus] -= ld.q_mvar * ld.scaling
    return np.array(p) / grid.s_base_mva, np.array(q) / grid.s_base_mva


def arl_poc_grid() -> GridModel:
    """Built-in 14-bus reference grid used by the bundled experiments.

    One 110 kV slack bus feeds a 20 kV busbar over a coupling branch; two
    radial feeders of three MV buses each carry four generators; six LV
    buses hang behind tap-changing MV/LV transformers and carry one load
    each.  Referenced from experiment configs by the token "arl_poc_grid".
    """
    buses = [Bus(0, SLACK, 110.0, v_setpoint_pu=1.02, name="hv_slack"),
             Bus(1, PQ, 20.0, name="mv_busbar")]
    buses += [Bus(i, PQ, 20.0, name=f"mv_{i}") for i in range(2, 8)]
    buses += [Bus(i, PQ, 0.4, name=f"lv_{i}") for i in range(8, 14)]

    lines = [Line(0, 1, r_pu=0.002, x_pu=0.05)]
    for f, t in ((1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7)):
        lines.append(Line(f, t, r_pu=0.01, x_pu=0.02))

    transformers = [
        Transformer(mv, lv, r_pu=0.10, x_pu=0.95,
                    tap_pos=0, tap_min=-9, tap_max=9, tap_step_pu=0.0125)
        for mv, lv in zip(range(2, 8), range(8, 14))
    ]
    generators = [
        Generator(bus, p_mw=0.5, q_mvar=0.0,
                  p_min_mw=0.0, p_max_mw=1.0, q_min_mvar=-0.3, q_max_mvar=0.3)
        for bus in (3, 4, 6, 7)
    ]
    loads = [
        Load(bus, p_mw=0.4, q_mvar=0.1, scaling=1.0, scaling_min=0.5, scaling_max=1.5)
        for bus in range(8, 14)
    ]
    return GridModel(
        s_base_mva=10.0,
        buses=tuple(buses),
        lines=tuple(lines),
        transformers=tuple(transformers),
        generators=tuple(generators),
        loads=tuple(loads),
    )
