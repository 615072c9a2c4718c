#!/usr/bin/env python3
"""gridduel benchmark: closed-loop passes of one workload from one client process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload duel_qnet --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each one exists):

- ``duel_qnet``:    ``gridduel run`` on the bundled poc config (two Q-net agents).
- ``duel_tabular``: ``run_experiment`` of the same duel with both learners
                    switched to ``tabular``; no CLI and no output files.
- ``log_io``:       the results layer alone on a synthetic 10k-step run log.

Each run sets up several times (setup_s is their median), checks the golden
anchor, then times passes until ``--seconds`` have elapsed.  Every pass is
verified outside the timed region: its output files must hash the same as the
first pass's, and the last pass's outputs are checked in depth.  Times are
reported in reference seconds (see ``reference_seconds``), which cancel the
shared machine's changing speed.  With ``--trace 1`` one more pass runs with span wrappers installed and the
per-layer metrics are reported instead of the end-to-end ones.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The benchmark imports gridduel from ``src/`` of the
checkout it sits in and exits non-zero without a result if it cannot.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".bench_run"
SPANS_OUT = ROOT / ".bench_out"

WORKLOADS = ("duel_qnet", "duel_tabular", "log_io")
# Set to 1 by main() before numpy is first imported, which is why numpy is
# imported inside the functions that use it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 5
MIN_PASSES = 3
LOG_IO_STEPS = 10_000
RESIDUAL_TOL = 1e-8
CAL_ITERS = 1500
CAL_REF_S = 0.2
GOLDEN_FILES = {"out/poc_grid_log.csv": "grid_log.csv", "out/poc_agent_log.csv": "agent_log.csv"}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark; no result is printed."""


@contextlib.contextmanager
def cwd(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


# -- set-up ---------------------------------------------------------------------


def import_gridduel():
    """Import gridduel afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "gridduel" or m.startswith("gridduel.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        gd = importlib.import_module("gridduel")
        importlib.import_module("gridduel.cli")
    except ImportError as e:
        raise SetupError(f"cannot import gridduel from {SRC}: {e}") from e
    if SRC.resolve() not in Path(gd.__file__).resolve().parents:
        raise SetupError(f"gridduel was imported from {gd.__file__}, not from {SRC}")
    return gd


@dataclasses.dataclass(frozen=True)
class Prepared:
    """What a workload's passes need: the config and its file, or the input log."""

    cfg: object
    config_path: Path
    steps: int
    log: object = None


def tabular_config_text(gd, poc_text: str) -> str:
    """The poc duel with both learner blocks replaced by default tabular learners."""
    doc = json.loads(poc_text)
    doc["name"] = "poc_tabular"
    for agent in doc["agents"]:
        agent["learner"] = {"kind": gd.config.TABULAR}
    return json.dumps(doc, indent=2) + "\n"


def synthetic_run_log(gd, cfg, seed: int, n_steps: int):
    """A poc-shaped run log from the seed: 14 buses, voltages near 1.0 pu.

    Rewards are the agents' reward of the mean of their inputs, so the agent
    log passes the same reward check as a real duel's.
    """
    import numpy as np

    core, agents = gd.core, gd.agents
    grid = cfg.build_grid()
    n_bus = grid.n_bus
    rng = np.random.default_rng(seed)
    v = 1.0 + rng.normal(0.0, 0.02, (n_steps + 1, n_bus))
    theta = rng.normal(0.0, 0.01, (n_steps + 1, n_bus))
    p_inj = rng.normal(0.0, 0.05, (n_steps, n_bus))
    q_inj = rng.normal(0.0, 0.05, (n_steps, n_bus))
    converged = rng.random(n_steps) >= 0.01
    perf = cfg.performance

    def p_world(vv, ok):
        if not ok:
            return 0.0
        return float(np.mean(np.maximum(0.0, 1.0 - np.abs(vv - 1.0) / (perf.v_hi - 1.0))))

    label_draws = rng.integers(0, 2**30, (n_steps, max(len(s.actuators) for s in cfg.agents)))

    records = []
    for i in range(n_steps):
        spec = cfg.agents[i % len(cfg.agents)]
        x = v[i + 1][[bus for bus, _ in spec.sensors]]
        labels = tuple(
            agents.LABELS_BY_KIND[ref.kind][draw % len(agents.LABELS_BY_KIND[ref.kind])]
            for ref, draw in zip(spec.actuators, label_draws[i].tolist())
        )
        records.append(core.StepRecord(
            t=i + 1, agent_id=spec.id, x=x, y=labels,
            reward=agents.reward(spec.reward_params(), float(np.mean(x))),
            p_world=p_world(v[i + 1], converged[i]),
            v_pu=v[i + 1], theta_rad=theta[i + 1], p_inj_pu=p_inj[i], q_inj_pu=q_inj[i],
            converged=bool(converged[i]),
        ))
    return core.RunLog(
        config_fingerprint=cfg.fingerprint(), name=f"{cfg.name}_synthetic", seed=seed,
        rounds=n_steps // len(cfg.agents), steps_per_turn=cfg.steps_per_turn,
        performance=perf,
        agents=tuple(core.AgentSummary(s.id, s.agent_class, s.learner_kind) for s in cfg.agents),
        initial_v_pu=v[0], initial_theta_rad=theta[0], initial_converged=True,
        initial_p_world=p_world(v[0], True), steps=tuple(records),
    )


def prepare(gd, workload: str, seed: int, workdir: Path) -> Prepared:
    """Load and validate the workload's config and build its input."""
    poc_path = gd.config.fixture_path("poc.json")
    poc_text = poc_path.read_text(encoding="utf-8")
    if workload == "duel_tabular":
        config_path = workdir / "poc_tabular.json"
        config_path.write_text(tabular_config_text(gd, poc_text), encoding="utf-8")
        cfg = dataclasses.replace(gd.config.load_config_path(config_path), seed=seed)
    else:
        config_path = poc_path
        cfg = gd.config.load_config(poc_text)
    cfg.build_grid()
    if workload == "log_io":
        return Prepared(cfg, config_path, LOG_IO_STEPS,
                        synthetic_run_log(gd, cfg, seed, LOG_IO_STEPS))
    return Prepared(cfg, config_path, cfg.rounds * cfg.steps_per_turn * len(cfg.agents))


def timed_setups(workload: str, seed: int, workdir: Path):
    """Set up SETUP_REPS times; return the last set-up, host and reference seconds of each."""
    host, ref = [], []
    cal = calibration_s()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        gd = import_gridduel()
        prep = prepare(gd, workload, seed, workdir)
        host.append(time.perf_counter() - t0)
        cal_after = calibration_s()
        ref.append(reference_seconds(host[-1], cal, cal_after))
        cal = cal_after
    return gd, prep, host, ref


# -- machine speed ------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _CalRecord:
    t: int
    dx: object
    q: float


def calibration_s() -> float:
    """Seconds this machine takes, right now, for a fixed piece of benchmark-own work.

    The work has the mix of a duel step and its logging (complex mat-vec,
    dense solve, a small tanh layer, frozen records, JSON and 17-digit text)
    but never calls gridduel, so it tracks how fast the shared machine runs at
    the moment and not how fast the program is.
    """
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    y = rng.normal(size=(14, 14)) + 1j * rng.normal(size=(14, 14)) + 20.0 * np.eye(14)
    jac = rng.normal(size=(26, 26)) + 26.0 * np.eye(26)
    w1, w2 = rng.normal(size=(32, 14)), rng.normal(size=(16, 32))
    records = []
    for i in range(CAL_ITERS):
        v = np.exp(1j * rng.normal(size=14) * 0.01)
        s = v * np.conj(y @ v)
        dx = np.linalg.solve(jac, np.concatenate([s.real, s.imag[:12]]))
        q = w2 @ np.tanh(w1 @ s.real)
        records.append(_CalRecord(i, dx, float(q.max())))
        if len(records) == 100:
            json.dumps([{"t": r.t, "dx": list(r.dx), "q": r.q} for r in records])
            "\n".join(",".join(f"{x:.17g}" for x in r.dx) for r in records)
            records = []
    return time.perf_counter() - t0


def reference_seconds(host_s: float, cal_before: float, cal_after: float) -> float:
    """Host seconds rescaled to a machine that runs the calibration in CAL_REF_S.

    The calibrations measured just before and just after the timed work give
    the machine's speed while it ran, so a shared machine's changing speed
    cancels out and a change in the program's speed does not.
    """
    return host_s * CAL_REF_S * 2.0 / (cal_before + cal_after)


# -- passes -----------------------------------------------------------------------


def duel_pass(gd, config_path: Path, seed: int, extra_args=()) -> str:
    """One ``gridduel run`` in the current directory; returns what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = gd.cli.main(["run", "--config", str(config_path), "--seed", str(seed), *extra_args])
    if rc != 0:
        raise RuntimeError(f"gridduel run exited with {rc}")
    return out.getvalue()


def log_io_pass(gd, prep: Prepared):
    """Write the three logs, read the run log back, derive and write metrics, plot."""
    results = gd.results
    results.write_grid_log(prep.log, "grid_log.csv")
    results.write_agent_log(prep.log, "agent_log.csv")
    results.write_run_log(prep.log, "run_log.json")
    reread = results.read_run_log("run_log.json")
    report = results.compute_metrics(reread, reread.performance)
    results.write_metrics(report, reread, "metrics.json")
    results.emit_plot(report.mean_voltage, "mean_voltage.svg", title=f"{reread.name}: mean_voltage",
                      x_label="step", y_label="mean_voltage", x_start=report.steps[0])
    return reread, report


def run_pass(gd, workload: str, prep: Prepared, seed: int):
    if workload == "log_io":
        return log_io_pass(gd, prep)
    if workload == "duel_tabular":
        return gd.core.run_experiment(prep.cfg)
    return duel_pass(gd, prep.config_path, seed)


# -- verification ------------------------------------------------------------------


def run_log_digest(log) -> str:
    """sha256 over every field of an in-memory run log."""
    h = hashlib.sha256(repr((log.config_fingerprint, log.name, log.seed, log.rounds,
                             log.initial_converged, log.initial_p_world)).encode())
    h.update(log.initial_v_pu.tobytes() + log.initial_theta_rad.tobytes())
    for rec in log.steps:
        h.update(repr((rec.t, rec.agent_id, rec.y, rec.reward, rec.p_world, rec.converged)).encode())
        for a in (rec.x, rec.v_pu, rec.theta_rad, rec.p_inj_pu, rec.q_inj_pu):
            h.update(a.tobytes())
    return h.hexdigest()


def output_hashes(directory: Path, run_log=None) -> dict[str, str]:
    """sha256 of every file a pass wrote, and of the run log it returned, if any."""
    hashes = {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }
    if run_log is not None:
        hashes["run_experiment() result"] = run_log_digest(run_log)
    return hashes


def _apply_labels(gd, grid, actuators, labels):
    """The grid after one step's action labels.

    The per-device steps are replayed here, not through core's own action
    code, so that the residual check does not trust the code it checks.
    """
    a = gd.agents
    for ref, label in zip(actuators, labels):
        if label == a.HOLD:
            continue
        if ref.kind == a.TRANSFORMER:
            step = a.TAP_STEP if label == "increment" else -a.TAP_STEP
            grid = grid.with_tap(ref.index, grid.transformers[ref.index].tap_pos + step)
        elif ref.kind == a.GENERATOR:
            g = grid.generators[ref.index]
            dp, dq = {"p_inc": (a.GEN_P_STEP_MW, 0.0), "p_dec": (-a.GEN_P_STEP_MW, 0.0),
                      "q_inc": (0.0, a.GEN_Q_STEP_MVAR), "q_dec": (0.0, -a.GEN_Q_STEP_MVAR)}[label]
            grid = grid.with_generator_setpoint(ref.index, g.p_mw + dp, g.q_mvar + dq)
        else:
            step = a.LOAD_SCALING_STEP if label == "increment" else -a.LOAD_SCALING_STEP
            grid = grid.with_load_scaling(ref.index, grid.loads[ref.index].scaling + step)
    return grid


def check_residuals(gd, cfg, log) -> list[str]:
    """Replay the logged actions and recompute every converged step's mismatch."""
    import numpy as np

    specs = {s.id: s for s in cfg.agents}
    grid = cfg.build_grid()
    states = [(0, grid, log.initial_v_pu, log.initial_theta_rad, log.initial_converged)]
    for rec in log.steps:
        grid = _apply_labels(gd, grid, specs[rec.agent_id].actuators, rec.y)
        states.append((rec.t, grid, rec.v_pu, rec.theta_rad, rec.converged))
    errors = []
    for t, g, v, theta, converged in states:
        if converged:
            worst = float(np.max(np.abs(gd.powerflow.compute_mismatch(g, v, theta))))
            if not worst <= RESIDUAL_TOL:
                errors.append(f"step {t}: residual {worst:.3e} > {RESIDUAL_TOL:g}")
    return errors


def agent_log_rows(path: Path):
    """(step, agent_id, inputs, reward) for every row of an agent-log CSV."""
    import numpy as np

    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        step, agent_id, inputs, _, cell = line.split(",")
        yield int(step), agent_id, np.array([float(v) for v in inputs.split(";")]), float(cell)


def check_rewards(gd, cfg, rows) -> list[str]:
    """Every reward equals agents.reward of the mean of its inputs."""
    import numpy as np

    specs = {s.id: s for s in cfg.agents}
    errors = []
    for step, agent_id, x, logged in rows:
        expected = gd.agents.reward(specs[agent_id].reward_params(), float(np.mean(x)))
        if logged != expected:
            errors.append(f"step {step}: reward {logged!r} != {expected!r}")
    return errors


def check_run_log(gd, prep: Prepared, log) -> list[str]:
    errors = []
    if len(log.steps) != prep.steps:
        errors.append(f"run log has {len(log.steps)} steps, expected {prep.steps}")
    return errors + check_residuals(gd, prep.cfg, log)


def verify(gd, workload: str, prep: Prepared, outputs) -> list[str]:
    """In-depth checks of one pass's outputs, run in the pass directory."""
    if outputs is None:
        return ["the last pass failed"]
    if workload == "log_io":
        return verify_log_io(gd, prep, outputs)
    if workload == "duel_tabular":
        rows = ((rec.t, rec.agent_id, rec.x, rec.reward) for rec in outputs.steps)
        return check_run_log(gd, prep, outputs) + check_rewards(gd, prep.cfg, rows)
    out = prep.cfg.outputs
    errors = [] if "run complete" in outputs else ["gridduel run printed no completion line"]
    errors += check_run_log(gd, prep, gd.results.read_run_log(out.run_log_path))
    return errors + check_rewards(gd, prep.cfg, agent_log_rows(Path(out.agent_log_path)))


def verify_log_io(gd, prep: Prepared, outputs) -> list[str]:
    reread, report = outputs
    errors = []
    gd.results.write_run_log(reread, "rewritten_run_log.json")
    rewritten = Path("rewritten_run_log.json")
    if rewritten.read_bytes() != Path("run_log.json").read_bytes():
        errors.append("write -> read -> write of the run log is not byte-identical")
    rewritten.unlink()
    if gd.results.compute_metrics(prep.log, prep.log.performance) != report:
        errors.append("metrics of the reread log differ from metrics of the in-memory log")
    return errors + check_rewards(gd, prep.cfg, agent_log_rows(Path("agent_log.csv")))


def golden_anchor(gd, workdir: Path) -> list[str]:
    """The duel_qnet path at seed 42, rounds cut to 3, reproduces the golden CSVs."""
    anchor = workdir / "anchor"
    anchor.mkdir()
    with cwd(anchor):
        duel_pass(gd, gd.config.fixture_path("poc.json"), 42, ("--rounds", "3"))
    errors = [
        f"{ours} differs from tests/golden/{golden}"
        for ours, golden in GOLDEN_FILES.items()
        if (anchor / ours).read_bytes() != (GOLDEN / golden).read_bytes()
    ]
    shutil.rmtree(anchor)
    return errors


# -- reporting ----------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile_ms(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(gd, workload: str, seed: int) -> dict:
    import numpy as np

    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "gridduel": gd.__version__, "machine": platform.machine(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


LAYERS = ("cli", "config", "core", "powerflow", "grid", "agents", "results")


def layer_metrics(tracer: spans.Tracer, pass_first: int, pass_s: float,
                  untraced_sps: float, traced_sps: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced set-up and a traced pass.

    ``*_self_s`` and ``*.pass_share`` exclude child spans; other times are
    inclusive.  Counts and ``config.*`` cover both the set-up and the pass,
    shares cover the pass alone.
    """
    s = tracer.summary()
    c = tracer.counters
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}

    def get(name):
        return s.get(name, zero)

    solves = get("powerflow.solve")["calls"]
    learns = get("agents.learn")["calls"]
    m = {
        "cli.self_s": (get("cli.main")["self_s"], "s"),
        "config.load_ms": (get("config.load")["total_s"] * 1e3, "ms"),
        "config.build_grid_ms": (get("config.build_grid")["total_s"] * 1e3, "ms"),
        "config.fingerprint_ms": (get("config.fingerprint")["total_s"] * 1e3, "ms"),
        "grid.admittance_calls": (get("grid.admittance")["calls"], "count"),
        "grid.admittance_s": (get("grid.admittance")["total_s"], "s"),
        "grid.validate_calls": (get("grid.validate")["calls"], "count"),
        "grid.validate_s": (get("grid.validate")["total_s"], "s"),
        "grid.injections_s": (get("grid.injections")["total_s"], "s"),
        "powerflow.solves": (solves, "count"),
        "powerflow.nr_iterations": (c["powerflow.nr_iterations"], "count"),
        "powerflow.converged_ratio": (c["powerflow.converged"] / solves if solves else 0.0, "ratio"),
        "powerflow.solve_ms_p50": (percentile_ms(get("powerflow.solve")["durations"], 50), "ms"),
        "powerflow.solve_ms_p99": (percentile_ms(get("powerflow.solve")["durations"], 99), "ms"),
        "powerflow.self_s": (get("powerflow.solve")["self_s"], "s"),
        "core.steps": (get("core.apply_actions")["calls"], "count"),
        "core.apply_actions_self_s": (get("core.apply_actions")["self_s"], "s"),
        "core.observe_s": (get("core.observe")["total_s"], "s"),
        "core.performance_s": (get("core.performance")["total_s"], "s"),
        "core.scheduler_self_s": (get("core.run_experiment")["self_s"], "s"),
        "agents.act_calls": (get("agents.act")["calls"], "count"),
        "agents.act_ms_p50": (percentile_ms(get("agents.act")["durations"], 50), "ms"),
        "agents.act_ms_p99": (percentile_ms(get("agents.act")["durations"], 99), "ms"),
        "agents.learn_calls": (learns, "count"),
        "agents.learn_ms_p50": (percentile_ms(get("agents.learn")["durations"], 50), "ms"),
        "agents.learn_ms_p99": (percentile_ms(get("agents.learn")["durations"], 99), "ms"),
        "agents.td_updates": (get("agents.td_update")["calls"], "count"),
        "agents.td_update_ratio": (get("agents.td_update")["calls"] / learns if learns else 0.0, "ratio"),
        "agents.td_update_s": (get("agents.td_update")["total_s"], "s"),
        "agents.replay_sample_s": (get("agents.replay_sample")["total_s"], "s"),
    }
    for func_name in spans.RESULTS_FUNCS:
        m[f"results.{func_name}_s"] = (get(f"results.{func_name}")["total_s"], "s")
    m["results.bytes_written"] = (c["results.bytes_written"], "bytes")
    m["results.bytes_read"] = (c["results.bytes_read"], "bytes")

    in_pass = tracer.summary(pass_first)
    for layer in LAYERS:
        self_s = sum(v["self_s"] for k, v in in_pass.items() if k.split(".")[0] == layer)
        m[f"{layer}.pass_share"] = (self_s / pass_s, "ratio")
    m["trace.pass_s"] = (pass_s, "s")
    m["trace.span_share"] = (1.0 - in_pass["bench.pass"]["self_s"] / pass_s, "ratio")
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.untraced_steps_per_s"] = (untraced_sps, "1/s")
    m["trace.traced_steps_per_s"] = (traced_sps, "1/s")
    m["trace.overhead_ratio"] = (untraced_sps / traced_sps - 1.0, "ratio")
    return m


def print_layer_table(tracer: spans.Tracer, pass_first: int, pass_s: float) -> None:
    in_pass = tracer.summary(pass_first)
    print(f"# traced pass: {pass_s:.4f} s; self time by span")
    print(f"# {'span':<28}{'calls':>8}{'total_s':>11}{'self_s':>11}{'share':>8}")
    for name, v in sorted(in_pass.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"# {name:<28}{v['calls']:>8}{v['total_s']:>11.4f}{v['self_s']:>11.4f}"
              f"{v['self_s'] / pass_s:>8.1%}")


# -- entry point ------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        return _run_workload(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    gd, prep, setup_host, setup_ref = timed_setups(workload, seed, workdir)
    print("# env " + json.dumps(environment(gd, workload, seed), sort_keys=True))
    errors = golden_anchor(gd, workdir)

    pass_dir = workdir / "pass"
    pass_dir.mkdir()

    def digest(outputs):
        return output_hashes(pass_dir, outputs if workload == "duel_tabular" else None)

    cal = [calibration_s()]

    def timed_pass(tracer=None):
        """(outputs or None, host seconds, reference seconds) of one pass.

        The calibration after a pass is also the one before the next.
        """
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.pass") if tracer else contextlib.nullcontext():
                outputs = run_pass(gd, workload, prep, seed)
        except Exception as e:  # noqa: BLE001 - a failed pass is counted, not fatal
            print(f"# pass failed: {e!r}", file=sys.stderr)
            outputs = None
        host_s = time.perf_counter() - t0
        cal.append(calibration_s())
        return outputs, host_s, reference_seconds(host_s, cal[-2], cal[-1])

    host, ref, failed, reference = [], [], 0, None
    with cwd(pass_dir):
        t_start = time.perf_counter()
        while len(host) < MIN_PASSES or time.perf_counter() - t_start < seconds:
            outputs, host_s, ref_s = timed_pass()
            host.append(host_s)
            ref.append(ref_s)
            hashes = digest(outputs)
            # The first pass's outputs are the reference every later pass must match.
            reference = reference or hashes
            if outputs is None or hashes != reference:
                failed += 1
        # Checking the last pass's outputs checks the reference they hash equal to.
        errors += verify(gd, workload, prep, outputs)

        if trace:
            tracer = spans.Tracer()
            with tracer.installed(gd):
                with tracer.span("bench.setup"):
                    prepare(gd, workload, seed, workdir)
                pass_first = len(tracer.spans)
                outputs, traced_host_s, traced_ref_s = timed_pass(tracer)
            if outputs is None or digest(outputs) != reference:
                failed += 1
                errors.append("traced pass outputs differ from the untraced reference")
            if tracer.missing:
                print(f"# wrap points not found: {', '.join(tracer.missing)}", file=sys.stderr)

    attempted = len(host) + int(trace)
    if errors:
        failed = attempted
        for e in errors[:20]:
            print(f"# verification: {e}", file=sys.stderr)
    rates = [prep.steps / r for r in ref]
    q1, sps, q3 = quartiles(rates)
    setup_s = statistics.median(setup_ref)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("# pass host seconds: " + " ".join(f"{t:.4f}" for t in host))
    print("# pass reference seconds: " + " ".join(f"{t:.4f}" for t in ref))
    print("# set-up host seconds: " + " ".join(f"{t:.6f}" for t in setup_host))
    print(f"# {workload} seed={seed}: setup_s={setup_s:.6f} s, "
          f"steps_per_s={sps:.3f} 1/s (q1 {q1:.3f}, q3 {q3:.3f}, passes {len(rates)}; "
          f"per host second {prep.steps / statistics.median(host):.3f}), "
          f"peak_rss_mb={peak_rss_mb:.1f} MB, error_rate={failed / attempted:g} ({failed}/{attempted})")

    if trace:
        SPANS_OUT.mkdir(exist_ok=True)
        tracer.dump(SPANS_OUT / f"spans-{workload}.jsonl")
        print_layer_table(tracer, pass_first, traced_host_s)
        metrics = layer_metrics(tracer, pass_first, traced_host_s, sps, prep.steps / traced_ref_s)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "steps_per_s": (sps, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SetupError(f"workload {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # One core for the whole run, so that passes and calibrations share it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, OSError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
