"""Parameter sweeps (subsystem S11): grids of scenarios, run in parallel.

The paper's whole evaluation (§5, Figs. 2-10, Tables 1-2) is a grid —
scheduler x governor x load intensity x platform.  This package makes that
grid a first-class object: declare axes over a config dataclass, fan the
cells out over a process pool, and get back an ordered, exportable results
store.  The figure/table/ablation runners in :mod:`repro.experiments` are
thin reductions over these pieces.

Grid spec format
----------------

A grid is ``axes + base``.  *Axes* is a mapping from a config field name to
the list of values to sweep; the Cartesian product of the axes (last axis
fastest, like nested loops) gives the cells.  *Base* is the config every
cell is derived from — a :class:`~repro.experiments.scenario.ScenarioConfig`
(single-host §5.3 scenario, the default) or a
:class:`~repro.cluster.scenario.ClusterScenarioConfig` (fleet model)::

    from repro.experiments import ScenarioConfig
    from repro.sweep import SweepGrid, run_sweep

    grid = SweepGrid(
        {
            "scheduler": ["credit", "sedf", "pas"],
            "governor": ["performance", "stable"],
            "v20_load": ["exact", "thrashing"],
        },
        base=ScenarioConfig(duration=800.0, seed=1),
        vary_seed=True,     # deterministic per-cell seeds
    )
    results = run_sweep(grid, workers=4)
    results.save("results.json")                 # or .csv
    results.aggregate("energy_joules", by="scheduler")

Axes are not limited to scalars: any spec field works, including whole
guest fleets (``guests`` values may be lists of ``GuestSpec`` objects or
their JSON dict form — the base config's constructor converts them, as it
converts every JSON-shaped value), and ``replicates=N`` expands every cell
into N seed-derived replicate cells whose spread
:meth:`SweepResults.aggregate` reduces to ``std``/``ci95`` columns.

The same spec works as a plain JSON dict on the command line, and named
preset grids from :mod:`repro.experiments.presets` (``repro list`` prints
them) ride the same runner::

    python -m repro sweep --workers 4 --out results.json
    python -m repro sweep --preset governors --replicates 3
    python -m repro sweep --grid '{"scheduler": ["credit", "pas"],
        "v20_load": ["exact", "thrashing"], "duration": [400.0]}'

Experiments whose cells are hand-picked rather than a product use
``SweepGrid.from_variants({"label": config, ...})``; cells that each reduce
through their own metric sets (the paper's claims) share one fan-out
through :func:`~repro.sweep.runner.run_cells`.

Persistence and resume
----------------------

Passing ``store=`` (an :class:`~repro.store.ExperimentStore` or a path)
makes the runner stream every finished cell to disk *as it completes* and,
on re-run, skip cells whose content address is already present::

    results = run_sweep(grid, workers=8, store="results-store")   # cold
    results = run_sweep(grid, workers=8, store="results-store")   # all warm

    python -m repro sweep --preset stress-fleet --store results-store
    python -m repro store ls --store results-store

Parallel cells run on a *persistent* per-process worker pool
(:class:`~repro.sweep.runner.WorkerPool`): one fork per pool size per
process lifetime, shared by every subsequent sweep, consumed as an
``imap``-style completion stream.  Replicated sweeps additionally export a
per-logical-cell aggregate (:meth:`SweepResults.export_aggregated`,
``sweep --out-aggregated``) with mean/std/ci95 columns per metric.

Determinism contract
--------------------

Cell order is fixed by the grid; per-cell seeds are derived with a
process-independent CRC (:func:`~repro.sweep.grid.derive_cell_seed`); each
cell simulates in isolation; exports are canonical (sorted JSON keys, no
execution metadata).  Consequently ``workers=N`` output is byte-identical
to ``workers=1`` output for the same grid — tested, and relied on by every
"more scenarios, faster" follow-up.
"""

from .grid import derive_cell_seed, describe_value, SweepCell, SweepGrid
from .metrics import (
    DEFAULT_CLUSTER_METRICS,
    DEFAULT_SCENARIO_METRICS,
    METRICS,
    reduce_outcome,
)
from .runner import run_sweep, SweepRunner, WorkerPool
from .store import CellResult, SweepResults

__all__ = [
    "SweepGrid",
    "SweepCell",
    "derive_cell_seed",
    "describe_value",
    "SweepRunner",
    "WorkerPool",
    "run_sweep",
    "SweepResults",
    "CellResult",
    "METRICS",
    "DEFAULT_SCENARIO_METRICS",
    "DEFAULT_CLUSTER_METRICS",
    "reduce_outcome",
]
