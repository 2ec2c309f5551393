"""Benchmark harness helpers.

Every benchmark rebuilds one result through :mod:`repro.experiments`,
prints the paper-vs-measured report (run pytest with ``-s`` to see it
inline; reports are also written to ``benchmarks/reports/`` —
human-readable ``.txt`` plus machine-readable ``.json`` side by side),
asserts the report's shape checks, and times the experiment via
pytest-benchmark.

Run them with::

    python -m pytest benchmarks/ -q
"""

from __future__ import annotations

import json
import pathlib

REPORT_DIR = pathlib.Path(__file__).parent / "reports"


def report_as_dict(report) -> dict:
    """A JSON-safe view of an ExperimentReport (rows, checks, verdict)."""
    return {
        "experiment": report.experiment,
        "title": report.title,
        "rows": [
            {"metric": metric, "paper": paper, "measured": measured}
            for metric, paper, measured in report.rows
        ],
        "checks": [
            {"description": check.description, "passed": check.passed}
            for check in report.checks
        ],
        "all_passed": report.all_passed,
    }


def emit(report) -> None:
    """Print a report; persist .txt and .json under benchmarks/reports/."""
    text = report.render()
    print()
    print(text)
    REPORT_DIR.mkdir(exist_ok=True)
    slug = report.experiment.lower().replace(" ", "_").replace("(", "").replace(")", "")
    (REPORT_DIR / f"{slug}.txt").write_text(text + "\n")
    (REPORT_DIR / f"{slug}.json").write_text(
        json.dumps(report_as_dict(report), sort_keys=True, indent=2, default=str) + "\n"
    )
