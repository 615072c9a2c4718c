"""Regenerate the golden fixtures in this directory.

Run from the repository root after a deliberate format or model change:

    python tests/golden/regenerate.py

Every golden is produced by the public API from the bundled poc config
(seed 42, rounds cut to 3), so a diff here means an output format changed.
"""

from dataclasses import replace
from pathlib import Path

from gridduel.config import fixture_path, load_config
from gridduel.core import run_experiment
from gridduel.results import compute_metrics, emit_plot, write_agent_log, write_grid_log

HERE = Path(__file__).parent


def write_goldens(directory: Path) -> list[Path]:
    """Write every golden file into directory; return their paths."""
    text = fixture_path("poc.json").read_text(encoding="utf-8")
    (directory / "poc.canonical.json").write_text(text, encoding="utf-8")

    cfg = replace(load_config(text), rounds=3)
    log = run_experiment(cfg)
    report = compute_metrics(log, cfg.performance)

    write_grid_log(log, directory / "grid_log.csv")
    write_agent_log(log, directory / "agent_log.csv")
    emit_plot(report.mean_voltage, directory / "mean_voltage.svg", title="poc: mean_voltage",
              x_label="step", y_label="mean_voltage", x_start=report.steps[0])
    return [directory / name for name in ("poc.canonical.json", "grid_log.csv", "agent_log.csv",
                                          "mean_voltage.svg")]


def main() -> None:
    for path in write_goldens(HERE):
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
