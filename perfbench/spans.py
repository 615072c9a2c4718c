"""In-memory span tracer installed around gridduel's public functions.

A traced pass wraps each layer boundary where its caller looks the name up
(for example ``gridduel.core.solve_newton_raphson``, which is what
``core.apply_actions`` calls), records one span per call with its parent,
and keeps counters measured at the same boundaries.  Nothing is wrapped
outside a ``Tracer.installed`` block, so untraced passes run the plain code.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import Counter, defaultdict

# Index of the path argument of each results function that has one, for byte counts.
_PATH_ARG = {
    "write_grid_log": 1,
    "write_agent_log": 1,
    "write_run_log": 1,
    "read_run_log": 0,
    "write_metrics": 2,
    "emit_plot": 1,
}
RESULTS_FUNCS = ("write_grid_log", "write_agent_log", "write_run_log", "read_run_log",
                 "compute_metrics", "write_metrics", "emit_plot")


def _path_arg(func_name, args, kwargs):
    i = _PATH_ARG[func_name]
    return args[i] if len(args) > i else kwargs["path"]


class Tracer:
    """Spans as ``[name, start, end, parent_index]`` plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self.missing: list[str] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def _wrap(self, fn, name, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def _wrap_points(self, gd):
        """(owner, attribute, span name, post-call hook) for every layer boundary.

        An owner that no longer exists is None; its boundary is reported
        missing instead of wrapped.
        """
        cli, config, core, grid, powerflow, agents, results = (
            gd.cli, gd.config, gd.core, gd.grid, gd.powerflow, gd.agents, gd.results)
        experiment, grid_model = getattr(config, "ExperimentConfig", None), getattr(grid, "GridModel", None)
        qnet, tabular = getattr(agents, "QNetAgent", None), getattr(agents, "TabularQAgent", None)
        qtable, replay = getattr(agents, "QTable", None), getattr(agents, "ReplayBuffer", None)

        def solved(args, kwargs, sol):
            self.counters["powerflow.nr_iterations"] += sol.iterations
            self.counters["powerflow.converged"] += int(sol.converged)

        def nbytes(func_name, counter):
            def hook(args, kwargs, _):
                self.counters[counter] += os.path.getsize(_path_arg(func_name, args, kwargs))
            return hook

        points = [
            (cli, "main", "cli.main", None),
            (config, "load_config", "config.load", None),
            (experiment, "build_grid", "config.build_grid", None),
            (experiment, "fingerprint", "config.fingerprint", None),
            (cli, "run_experiment", "core.run_experiment", None),
            (core, "run_experiment", "core.run_experiment", None),
            (core, "observe", "core.observe", None),
            (core, "apply_actions", "core.apply_actions", None),
            (core, "system_performance", "core.performance", None),
            (core, "solve_newton_raphson", "powerflow.solve", solved),
            (powerflow, "build_admittance_matrix", "grid.admittance", None),
            (powerflow, "scheduled_injections_pu", "grid.injections", None),
            (grid_model, "validate", "grid.validate", None),
            (qnet, "act", "agents.act", None),
            (tabular, "act", "agents.act", None),
            (qnet, "learn", "agents.learn", None),
            (tabular, "learn", "agents.learn", None),
            (agents, "td_update", "agents.td_update", None),
            (qtable, "update", "agents.td_update", None),
            (replay, "sample", "agents.replay_sample", None),
        ]
        for owner in (cli, results):
            for func_name in RESULTS_FUNCS:
                counter = "results.bytes_read" if func_name == "read_run_log" else "results.bytes_written"
                hook = nbytes(func_name, counter) if func_name in _PATH_ARG else None
                points.append((owner, func_name, f"results.{func_name}", hook))
        return points

    @contextlib.contextmanager
    def installed(self, gd):
        """Wrap every layer boundary of the imported ``gridduel`` package ``gd``."""
        saved = []
        try:
            for owner, attr, name, after in self._wrap_points(gd):
                # Attributes are read from the owner's dict so that a class
                # gets back its plain function, not a bound method.
                original = owner.__dict__.get(attr) if owner is not None else None
                if original is None:
                    self.missing.append(f"{name} ({attr})")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self, first: int = 0) -> dict[str, dict]:
        """Per span name: call count, inclusive and self seconds, call durations.

        Only spans from index ``first`` on are counted.  Self time is a
        span's duration minus the time its child spans cover.
        """
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans[first:]:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, start, end, _) in enumerate(self.spans[first:], first):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            dur = end - start
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child_time[idx]
            s["durations"].append(dur)
        return out

    def dump(self, path) -> None:
        """Write the raw spans as JSON lines: name, start, end (seconds), parent index."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps([name, start, end, parent]) + "\n")
