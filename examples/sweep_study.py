#!/usr/bin/env python3
"""Sweep study: the paper's evaluation plane as one declarative grid.

Figs. 2-10 each show one (scheduler, governor, load) combination of the
§5.3 execution profile.  This example runs the whole plane in one shot with
:mod:`repro.sweep` — declare the axes, fan the cells out over a process
pool, then reduce: which combinations hold V20's 20 % absolute SLA, and
what does each pay in energy?

Also demonstrates the fleet side: the same grid machinery over
:class:`~repro.cluster.scenario.ClusterScenarioConfig` reproduces the §2.3
"consolidation needs DVFS" comparison in four cells.

Run:  python examples/sweep_study.py
"""

import sys

from repro.cli import run_piped
from repro.cluster import ClusterScenarioConfig
from repro.experiments import ScenarioConfig
from repro.sweep import run_sweep, SweepGrid


def scenario_plane() -> None:
    grid = SweepGrid(
        {
            "scheduler": ["credit", "sedf", "pas"],
            "governor": ["performance", "stable"],
            "v20_load": ["exact", "thrashing"],
        },
        base=ScenarioConfig(duration=800.0, seed=1),
        vary_seed=True,  # deterministic per-cell seeds from the root seed
    )
    print(f"running {len(grid)} scenario cells...")
    results = run_sweep(grid, workers=4)  # byte-identical to workers=1

    print()
    print(
        results.summary_table(
            ["v20_absolute_solo_early", "freq_mhz_solo_early", "energy_joules"],
            title="scheduler x governor x load: SLA, frequency and energy",
        )
    )

    print()
    print("V20 absolute load while solo (booked: 20%), aggregated by scheduler:")
    for scheduler, summary in results.aggregate(
        "v20_absolute_solo_early", by="scheduler"
    ).items():
        verdict = "holds the SLA" if abs(summary["mean"] - 20.0) < 1.5 else "breaks it"
        print(f"  {scheduler:8} mean {summary['mean']:5.1f}%  -> {verdict}")

    sla_holding = [
        cell
        for cell in results
        if cell.metrics["v20_absolute_solo_early"] is not None
        and abs(cell.metrics["v20_absolute_solo_early"] - 20.0) < 1.5
    ]
    cheapest = min(sla_holding, key=lambda cell: cell.metrics["energy_joules"])
    print()
    print(
        f"cheapest SLA-holding cell: {cheapest.label} "
        f"at {cheapest.metrics['energy_joules']:.0f} J"
    )

    results.save("sweep_results.json")
    print("full results written to sweep_results.json (and loadable back)")


def cluster_plane() -> None:
    grid = SweepGrid(
        {"policy": ["spread", "consolidate"], "dvfs": [False, True]},
        base=ClusterScenarioConfig(n_machines=8, n_vms=12, duration=600.0),
    )
    print()
    print(f"running {len(grid)} fleet cells (§2.3 consolidation x DVFS)...")
    results = run_sweep(grid, workers=4)
    print(
        results.summary_table(
            ["fleet_energy_joules", "mean_machines_on", "mean_sla_fraction"],
            title="fleet energy: consolidation and DVFS are complementary",
        )
    )


def main() -> None:
    scenario_plane()
    cluster_plane()


if __name__ == "__main__":
    sys.exit(run_piped(main))
