#!/usr/bin/env python3
"""Platform comparison: Table 2 on your terminal.

Runs the §5.8 scenario — V20 (20 % credit) computing pi while V70 runs the
three-phase web profile — on all seven modelled virtualization platforms
under both governors, and prints the reproduced Table 2 next to the paper's
numbers.

This is the long-running example (~20 s): it executes 14 full simulations.

Run:  python examples/platform_comparison.py
"""

import sys

from repro.cli import run_piped
from repro.experiments.claims import run_claim
from repro.experiments.claims import table2_rows
from repro.telemetry import table_to_text


def main() -> None:
    cells, report = run_claim("table2")
    rows = table2_rows(cells)
    print(
        table_to_text(
            [
                "platform",
                "discipline",
                "T perf (paper)",
                "T ondemand (paper)",
                "degradation (paper)",
            ],
            [
                [
                    row.platform,
                    row.discipline,
                    f"{row.time_performance:5.0f}s ({row.paper_performance:.0f}s)",
                    f"{row.time_ondemand:5.0f}s ({row.paper_ondemand:.0f}s)",
                    f"{row.degradation:3.0f}% ({row.paper_degradation:.0f}%)",
                ]
                for row in rows
            ],
            title="Table 2 reproduction: V20 execution times per platform",
        )
    )
    print()
    for check in report.checks:
        print(check)


if __name__ == "__main__":
    sys.exit(run_piped(main))
