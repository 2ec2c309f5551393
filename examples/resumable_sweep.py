#!/usr/bin/env python3
"""Resumable sweeps: the result store turns grids into a durable corpus.

A big evaluation grid used to be all-or-nothing: die at cell 990 of 1000
and you recompute everything, and every re-plot re-simulates.  With an
:class:`~repro.store.ExperimentStore`, finished cells stream to disk as
they complete and re-runs only compute what is missing — so interrupted
sweeps resume, repeated figure builds are warm-cache, and independent
grids share cells they have in common (content addressing: the key is a
hash of the cell's config + metrics + seed, not its label).

The same machinery from the command line::

    python -m repro sweep --preset stress-fleet --store results-store
    python -m repro sweep --preset governors --replicates 5 \\
        --store results-store --out-aggregated governors.csv
    python -m repro store ls --store results-store
    python -m repro store show --store results-store <label-or-key>
    python -m repro store gc --store results-store
    python -m repro store export --store results-store --out corpus.csv

Run:  python examples/resumable_sweep.py
"""

import sys
import tempfile
import time

from repro.cli import run_piped
from repro.experiments import ScenarioConfig
from repro.store import ExperimentStore
from repro.sweep import SweepGrid, SweepRunner


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-store-") as root:
        _study(ExperimentStore(root))


def _study(store: ExperimentStore) -> None:
    grid = SweepGrid(
        {
            "scheduler": ["credit", "pas"],
            "governor": ["performance", "stable"],
        },
        base=ScenarioConfig(
            duration=200.0,
            v20_active=(20.0, 180.0),
            v70_active=(60.0, 140.0),
            poisson=True,  # stochastic arrivals: replicates actually spread
        ),
        vary_seed=True,
        replicates=3,
    )

    print(f"cold run: {len(grid)} cells into {store.root} ...")
    cold = SweepRunner(grid, workers=4, store=store)
    started = time.perf_counter()
    results = cold.run()
    cold_s = time.perf_counter() - started
    print(f"  computed {cold.computed}, warm {cold.cache_hits}  ({cold_s:.2f}s)")

    print("warm run: same grid, same store ...")
    warm = SweepRunner(grid, workers=4, store=store)
    started = time.perf_counter()
    rerun = warm.run()
    warm_s = time.perf_counter() - started
    print(f"  computed {warm.computed}, warm {warm.cache_hits}  ({warm_s:.2f}s)")
    print(f"  byte-identical exports: {rerun.to_json() == results.to_json()}")
    print(f"  speedup: {cold_s / max(warm_s, 1e-9):.0f}x")

    # A *different* grid sharing half its cells rides the same entries.
    subset = SweepGrid(
        {"scheduler": ["pas"], "governor": ["performance", "stable"]},
        base=grid.base,
        vary_seed=True,
        replicates=3,
    )
    shared = SweepRunner(subset, store=store)
    shared.run()
    print(
        f"overlapping grid: {shared.cache_hits} cells shared, "
        f"{shared.computed} computed"
    )

    # Replicates collapse to one row per logical cell for plotting.
    print()
    for row in results.aggregated_records():
        print(
            f"  {row['label']:<45} energy {row['energy_joules_mean']:8.0f} J "
            f"± {row['energy_joules_ci95']:.0f}"
        )


if __name__ == "__main__":
    sys.exit(run_piped(main))
