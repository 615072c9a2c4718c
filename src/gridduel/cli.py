"""Command-line front end for reproducible experiments.

Exit codes: 0 on success, 1 when an input fails validation, 2 on runtime
failures (I/O; diverging training, once the outputs are written).  The
ARL_LOG_LEVEL environment variable (error, warn, info, debug; unset or empty
means warn, any other value exits 1) controls stderr verbosity only; file
outputs are never affected by it.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .codec import ConfigError, as_dict, as_list, json_object, json_pieces, numbers, pop, read_float, read_int
from .config import load_config_path
from .core import check_asymmetry_series, run_experiment
from .powerflow import solve_newton_raphson
from .results import (
    compute_metrics,
    emit_plot,
    metrics_doc,
    read_run_log,
    write_agent_log,
    write_grid_log,
    write_metrics,
    write_run_log,
)

log = logging.getLogger("gridduel")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = os.environ.get("ARL_LOG_LEVEL") or "warn"
    if level.lower() not in _LOG_LEVELS:
        raise ConfigError(f"ARL_LOG_LEVEL: unknown level {level!r}; use {', '.join(_LOG_LEVELS)}")
    logging.basicConfig(stream=sys.stderr, level=_LOG_LEVELS[level.lower()],
                        format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridduel",
        description="Attacker/defender reinforcement-learning duels on a static AC grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute an experiment and write all its output files")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--rounds", type=int, default=None, help="override the round count")

    p = sub.add_parser("validate", help="load a config and report the effective experiment")
    p.add_argument("--config", required=True)

    p = sub.add_parser("powerflow", help="solve the config's grid once and print the bus table")
    p.add_argument("--config", required=True)

    p = sub.add_parser("metrics", help="recompute the metrics JSON from a run log")
    p.add_argument("--log", required=True)

    p = sub.add_parser("plot", help="render one metrics series as an SVG line chart")
    p.add_argument("--metrics", required=True)
    p.add_argument("--series", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("asymmetry", help="check that performance stays above the failure threshold")
    p.add_argument("--metrics", required=True)
    p.add_argument("--t0", type=int, required=True)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config_path(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.rounds is not None:
        cfg = replace(cfg, rounds=args.rounds)
    log.info("running %s: %d rounds, seed %d", cfg.name, cfg.rounds, cfg.seed)

    run_log = run_experiment(cfg)
    write_grid_log(run_log, cfg.outputs.grid_log_path)
    write_agent_log(run_log, cfg.outputs.agent_log_path)
    report = compute_metrics(run_log, cfg.performance)
    write_metrics(report, run_log, cfg.outputs.metrics_path)
    if cfg.outputs.run_log_path is not None:
        write_run_log(run_log, cfg.outputs.run_log_path)

    final_p = report.p_world[-1] if report.p_world else run_log.initial_p_world
    success = report.attack_success_step if report.attack_success_step is not None else "none"
    positives = " ".join(
        f"positives[{agent_id}]={series[-1] if series else 0}"
        for agent_id, series in report.cumulative_positive_rewards.items()
    )
    print(f"run complete: steps={len(report.steps)} final_p={final_p:.6g} "
          f"attack_success_step={success} {positives}".rstrip())
    if run_log.stopped is not None:
        print(f"error: {run_log.stopped}", file=sys.stderr)
        return 2
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = load_config_path(args.config)
    grid = cfg.build_grid()
    print(f"config ok: {cfg.name}")
    print(f"  seed={cfg.seed} rounds={cfg.rounds} steps_per_turn={cfg.steps_per_turn}")
    print(f"  grid: {grid.n_bus} buses, {len(grid.lines)} lines, "
          f"{len(grid.transformers)} transformers, {len(grid.generators)} generators, "
          f"{len(grid.loads)} loads")
    for spec in cfg.agents:
        print(f"  agent {spec.id}: class={spec.agent_class} learner={spec.learner_kind} "
              f"sensors={len(spec.sensors)} actuators={len(spec.actuators)}")
    return 0


def _cmd_powerflow(args: argparse.Namespace) -> int:
    cfg = load_config_path(args.config)
    grid = cfg.build_grid()
    sol = solve_newton_raphson(grid)
    status = "converged" if sol.converged else f"FAILED ({sol.failure_cause})"
    print(f"power flow {status}: iterations={sol.iterations} "
          f"max_mismatch={sol.max_mismatch_pu:.3e}")
    print("bus,v_pu,theta_rad,p_inj_pu,q_inj_pu")
    for b in range(grid.n_bus):
        print(f"{b},{sol.v_pu[b]:.9f},{sol.theta_rad[b]:.9f},"
              f"{sol.p_inj_pu[b]:.9f},{sol.q_inj_pu[b]:.9f}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    run_log = read_run_log(args.log)
    report = compute_metrics(run_log, run_log.performance)
    sys.stdout.writelines(json_pieces(metrics_doc(report, run_log)))
    return 0


def _first_step(doc: dict) -> int:
    """Time of the first metrics sample; 0 when the file has no steps."""
    steps = as_list(doc.get("steps", []), "metrics.steps")
    return read_int(steps[0], "metrics.steps[0]") if steps else 0


def _series(doc: dict, key: str, ctx: str) -> np.ndarray:
    """The finite samples under key; a run log may hold NaN, a series to draw or check may not."""
    values = numbers(pop(doc, key, ctx), f"{ctx}.{key}")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ConfigError(f"{ctx}.{key}[{bad[0]}]: expected a finite number")
    return values


def _cmd_plot(args: argparse.Namespace) -> int:
    doc = json_object(Path(args.metrics).read_text(encoding="utf-8"), "metrics")
    name = args.series
    if name in ("mean_voltage", "p_world"):
        series = _series(doc, name, "metrics")
    elif name.startswith("cumulative_positive_rewards."):
        ctx = "metrics.cumulative_positive_rewards"
        by_agent = as_dict(pop(doc, "cumulative_positive_rewards", "metrics"), ctx)
        series = _series(by_agent, name.split(".", 1)[1], ctx)
    else:
        raise ConfigError(f"unknown series {name!r}; use mean_voltage, p_world or "
                          "cumulative_positive_rewards.<agent_id>")
    x_start = _first_step(doc)
    try:
        emit_plot(series, args.out, title=f"{doc.get('name', '')}: {name}",
                  x_label="step", y_label=name, x_start=x_start)
    except ValueError as e:  # an empty series, or a range too wide or too narrow to scale
        raise ConfigError(f"metrics.{name}: {e}") from e
    print(f"wrote {args.out}")
    return 0


def _cmd_asymmetry(args: argparse.Namespace) -> int:
    doc = json_object(Path(args.metrics).read_text(encoding="utf-8"), "metrics")
    p_series = _series(doc, "p_world", "metrics")
    performance = as_dict(pop(doc, "performance", "metrics"), "metrics.performance")
    p_fail = read_float(pop(performance, "p_fail", "metrics.performance"), "metrics.performance.p_fail")
    ok, violation = check_asymmetry_series(p_series, p_fail, args.t0, first_t=_first_step(doc))
    if ok:
        print(f"holds: p stayed above p_fail={p_fail:.6g} for all t > {args.t0}")
    else:
        print(f"violated at t={violation}: p dropped to p_fail={p_fail:.6g} or below")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "validate": _cmd_validate,
    "powerflow": _cmd_powerflow,
    "metrics": _cmd_metrics,
    "plot": _cmd_plot,
    "asymmetry": _cmd_asymmetry,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _setup_logging()
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - the exit-code contract wants 2, not a traceback
        log.exception("unexpected failure")
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
