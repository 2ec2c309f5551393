"""Every reproduced result at paper scale: one benchmark per registry claim.

Each test runs one entry of :data:`repro.experiments.CLAIMS` (the paper's
Figs. 1-10, Tables 1-2, the §5.2 Eqs. 1-3 and our ablations), prints its
paper-vs-measured report, writes it under ``benchmarks/reports/``, and
asserts its shape checks.  What each claim shows, and the paper's words
for it, is the claim's ``about`` text.
"""

import pytest

from repro.experiments import CLAIMS, run_claim

from .conftest import emit


def _fig1_ladder(runs, report):
    # The paper's top-axis credit ladder, rounded: 13 25 38 50 63 75 88 100 113 125.
    ladder = [round(r.config.guests[0].cap) for (_, f), r in runs.items() if f == "reduced"]
    assert ladder == [13, 25, 38, 50, 63, 75, 88, 100, 113, 125]


def _fig3_oscillation(runs, report):
    # The oscillation is massive in absolute terms too.
    assert runs["run"].frequency_transitions > 1000


def _table1_machines(results, report):
    assert len(results) == len(report.rows) == 5


def _table2_platforms(results, report):
    assert sum(metric.endswith(" degradation") for metric, _, _ in report.rows) == 7


#: Assertions beyond the report's own checks.
EXTRA = {
    "fig1": _fig1_ladder,
    "fig3": _fig3_oscillation,
    "table1": _table1_machines,
    "table2": _table2_platforms,
}


@pytest.mark.parametrize("name", list(CLAIMS))
def test_claim(benchmark, name):
    outcome, report = benchmark.pedantic(run_claim, args=(name,), rounds=1, iterations=1)
    emit(report)
    assert report.all_passed, f"shape criteria failed: {[str(c) for c in report.failures]}"
    if name in EXTRA:
        EXTRA[name](outcome, report)
