"""Run-log persistence, derived metrics and dependency-free SVG charts.

All writers stream, the run log encoding one step at a time as it writes it,
and are byte-deterministic: fixed header order, 17-significant-digit floats in
the CSVs, shortest round-trip floats in JSON, LF line endings.  Re-running a
log's config regenerates identical files.  The run-log reader streams too: it
decodes each step as soon as it is parsed, so it holds the file's text and the
decoded log, never the parsed JSON document.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import (
    ATTACK_PHASES,
    PerformanceConfig,
    PhaseSegment,
    RunLog,
    classify_resilience_phases,
    operational_phases,
)
from .codec import encode, json_pieces, plain, read_document, read_text

GRID_LOG_HEADER = "step,bus_id,v_pu,theta_rad,p_inj_pu,q_inj_pu"
AGENT_LOG_HEADER = "step,agent_id,inputs,outputs,reward"
# One row each; "%.17g" is format(x, ".17g"), applied to the Python floats of tolist().
_GRID_ROW = "%d,%d,%.17g,%.17g,%.17g,%.17g\n"
_AGENT_ROW = "%d,%s,%s,%s,%.17g\n"


def _write_lines(path: str | Path, pieces: Iterable[str]) -> None:
    """Write the pieces in order, so no output is ever held whole as text."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w", encoding="utf-8", newline="\n") as f:
        f.writelines(pieces)


def write_grid_log(log: RunLog, path: str | Path) -> None:
    """Per-step, per-bus grid state as CSV: one row per (step, bus)."""
    rows = (_GRID_ROW % (rec.t, b, *cells) for rec in log.steps
            for b, cells in enumerate(zip(rec.v_pu.tolist(), rec.theta_rad.tolist(),
                                          rec.p_inj_pu.tolist(), rec.q_inj_pu.tolist())))
    _write_lines(path, itertools.chain([GRID_LOG_HEADER + "\n"], rows))


def write_agent_log(log: RunLog, path: str | Path) -> None:
    """Per-turn agent record as CSV; vector cells are semicolon-joined."""
    rows = (_AGENT_ROW % (rec.t, rec.agent_id, ";".join(["%.17g" % v for v in rec.x.tolist()]),
                          ";".join(rec.y), rec.reward) for rec in log.steps)
    _write_lines(path, itertools.chain([AGENT_LOG_HEADER + "\n"], rows))


# -- full run-log round trip ----------------------------------------------------

def write_run_log(log: RunLog, path: str | Path) -> None:
    """Self-contained JSON form of a run log, sufficient to recompute metrics; json_pieces
    encodes each step only as it writes it, so no more than one encoded step is ever held."""
    _write_lines(path, json_pieces({**encode(replace(log, steps=())), "steps": log.steps}))


def read_run_log(path: str | Path) -> RunLog:
    """Load a file written by write_run_log, one step at a time; a malformed one raises ConfigError naming the key."""
    return read_document(RunLog, read_text(path, "run_log"), "run_log")


# -- metrics ---------------------------------------------------------------------


@dataclass(frozen=True)
class MetricsReport:
    steps: tuple[int, ...]
    mean_voltage: tuple[float, ...]
    p_world: tuple[float, ...]
    operational_phase: tuple[str, ...]
    cumulative_positive_rewards: dict[str, tuple[int, ...]]
    attack_success_step: int | None
    resilience_segments: tuple[PhaseSegment, ...]


def compute_metrics(log: RunLog, cfg: PerformanceConfig) -> MetricsReport:
    """Series the result figures are drawn from, one sample per global step."""
    steps = tuple(rec.t for rec in log.steps)
    # One row per step; RunLog guarantees every row has len(initial_v_pu) buses.
    v = np.array([rec.v_pu for rec in log.steps], float).reshape(len(steps), len(log.initial_v_pu))
    mean_voltage = tuple(np.mean(v, axis=1).tolist())
    p_world = tuple(rec.p_world for rec in log.steps)
    phases = tuple(operational_phases(v, [rec.converged for rec in log.steps], cfg))

    cumulative = {a.agent_id: tuple(itertools.accumulate(int(rec.agent_id == a.agent_id and rec.reward > 0.0)
                                                         for rec in log.steps)) for a in log.agents}

    # First step outside the hard band or unsolved: the attack-success predicate.
    attack_step = next(
        (t for t, phase in zip(steps, phases) if phase in ATTACK_PHASES), None
    )

    segments = tuple(classify_resilience_phases(p_world, cfg)) if p_world else ()
    return MetricsReport(
        steps=steps,
        mean_voltage=mean_voltage,
        p_world=p_world,
        operational_phase=phases,
        cumulative_positive_rewards=cumulative,
        attack_success_step=attack_step,
        resilience_segments=segments,
    )


# The run's effective settings a metrics document starts with, in their order there.
_METRICS_HEADER = ("name", "seed", "rounds", "steps_per_turn", "config_fingerprint", "performance", "agents")


def metrics_doc(report: MetricsReport, log: RunLog) -> dict:
    """JSON-ready metrics document, annotated with the run's effective settings."""
    return {**{name: plain(getattr(log, name)) for name in _METRICS_HEADER}, **encode(report)}


def write_metrics(report: MetricsReport, log: RunLog, path: str | Path) -> None:
    _write_lines(path, json_pieces(metrics_doc(report, log)))


# -- SVG line chart ---------------------------------------------------------------

VIEW_W = 800
VIEW_H = 400
MARGIN_LEFT = 60
MARGIN_RIGHT = 20
MARGIN_TOP = 30
MARGIN_BOTTOM = 40
N_TICKS = 5


# One format per SVG element; callers pass each coordinate as it is to be written.
def _line(x1, y1, x2, y2, stroke: str, width: str) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}" stroke-width="{width}"/>'


def _text(x, y, anchor: str, size: int, text: str, extra: str = "") -> str:
    body = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-size="{size}" '
            f'font-family="sans-serif"{extra}>{body}</text>')


def emit_plot(
    series: Sequence[float],
    path: str | Path,
    title: str = "",
    x_label: str = "step",
    y_label: str = "",
    x_start: int = 0,
) -> None:
    """Write a self-contained SVG line chart of one series.

    The x axis runs from ``x_start`` over the sample indices; a constant
    series is drawn as a horizontal line at mid-height.  A series whose
    y range has no finite, nonzero width raises ValueError before any file
    is written.
    """
    values = [float(v) for v in series]
    if not values:
        raise ValueError("series must be non-empty")
    lo, hi = min(values), max(values)
    if lo == hi:
        lo -= 0.5
        hi += 0.5
    if not 0.0 < hi - lo < math.inf:
        raise ValueError(f"range [{lo!r}, {hi!r}] has no finite nonzero width to draw")

    plot_right = VIEW_W - MARGIN_RIGHT
    plot_bottom = VIEW_H - MARGIN_BOTTOM
    span_x = max(len(values) - 1, 1)

    def x_px(i: int) -> float:
        return MARGIN_LEFT + (plot_right - MARGIN_LEFT) * i / span_x

    def y_px(v: float) -> float:
        return plot_bottom - (plot_bottom - MARGIN_TOP) * (v - lo) / (hi - lo)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {VIEW_W} {VIEW_H}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
    ]
    if title:
        out.append(_text(f"{VIEW_W / 2:.1f}", 18, "middle", 14, title))
    for i in range(N_TICKS + 1):
        v = lo + (hi - lo) * i / N_TICKS
        y = y_px(v)
        out.append(_line(MARGIN_LEFT, f"{y:.3f}", plot_right, f"{y:.3f}", "#dddddd", "1"))
        out.append(_text(MARGIN_LEFT - 6, f"{y + 4:.3f}", "end", 11, f"{v:.6g}"))
    for i in range(N_TICKS + 1):
        idx = round(i * span_x / N_TICKS)
        x = f"{x_px(idx):.3f}"
        out.append(_line(x, plot_bottom, x, plot_bottom + 5, "#000000", "1"))
        out.append(_text(x, plot_bottom + 18, "middle", 11, str(x_start + idx)))
    out.append(_line(MARGIN_LEFT, plot_bottom, plot_right, plot_bottom, "#000000", "1.5"))
    out.append(_line(MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, plot_bottom, "#000000", "1.5"))
    points = " ".join(f"{x_px(i):.3f},{y_px(v):.3f}" for i, v in enumerate(values))
    out.append(f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="{points}"/>')
    out.append(_text(f"{(MARGIN_LEFT + plot_right) / 2:.1f}", VIEW_H - 8, "middle", 12, x_label))
    if y_label:
        mid_y = f"{(MARGIN_TOP + plot_bottom) / 2:.1f}"
        out.append(_text(14, mid_y, "middle", 12, y_label, f' transform="rotate(-90 14 {mid_y})"'))
    out.append("</svg>")
    _write_lines(path, (line + "\n" for line in out))
