"""Executing a grid: serial, or fanned out over a persistent worker pool.

The contract is *bit-identical results regardless of worker count*: each
cell is an isolated deterministic simulation (its own engine, its own
seeded RNG streams), results carry their grid index so completion order
never matters, and nothing time- or pid-dependent enters a
:class:`CellResult`.  ``workers=1`` runs everything in-process — the
reference the parallel path is tested against.

Two scaling layers ride on that contract:

* **persistent fan-out** — parallel cells go through :class:`WorkerPool`,
  a process-wide pool reused across sweeps (one fork per pool size per
  process lifetime, not one per sweep), consumed as an ``imap``-style
  completion stream;
* **content-addressed persistence** — with a ``store``
  (:class:`~repro.store.ExperimentStore`), every finished cell is written
  to disk *as it completes*, and re-runs skip cells whose
  :func:`~repro.store.cell_key` is already present (``resume=True``, the
  default) — so an interrupted 1000-cell grid resumes where it died, and
  repeated figure builds are warm-cache.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.pool
import pathlib
from typing import Any, Callable, ClassVar, Iterator, Sequence

from ..errors import ConfigurationError
from ..obs import hooks as _obs
from ..obs.metrics import collect_sweep
from ..store import cell_key, ExperimentStore, metric_names
from .grid import describe_value, SweepCell, SweepGrid
from .metrics import (
    DEFAULT_CLUSTER_METRICS,
    DEFAULT_SCENARIO_METRICS,
    reduce_outcome,
    resolve_metrics,
)
from .store import CellResult, SweepResults


def execute_config(config: Any):
    """Run one cell's config to completion and return the raw outcome.

    Dispatches on config type: :class:`ScenarioConfig` runs the §5.3
    single-host scenario, :class:`ClusterScenarioConfig` the fleet model.
    Imports are deferred so this module can be loaded before the
    experiments package finishes initialising (they import each other).
    """
    from ..cluster.scenario import ClusterScenarioConfig, run_cluster_scenario
    from ..experiments.scenario import ScenarioConfig, run_scenario

    if isinstance(config, ScenarioConfig):
        return run_scenario(config)
    if isinstance(config, ClusterScenarioConfig):
        return run_cluster_scenario(config)
    raise ConfigurationError(
        f"no executor for config type {type(config).__name__}"
    )


def default_metrics_for(config: Any) -> tuple[str, ...]:
    """The default metric set for a cell's config type."""
    from ..cluster.scenario import ClusterScenarioConfig

    if isinstance(config, ClusterScenarioConfig):
        return DEFAULT_CLUSTER_METRICS
    return DEFAULT_SCENARIO_METRICS


def _execute_cell(task: tuple[SweepCell, Sequence[str | Callable]]) -> CellResult:
    cell, metrics = task
    outcome = execute_config(cell.config)
    return CellResult(
        index=cell.index,
        label=cell.label,
        params={k: describe_value(v) for k, v in cell.params.items()},
        seed=cell.seed,
        metrics=reduce_outcome(outcome, metrics),
    )


class WorkerPool:
    """Process-wide persistent worker pools, one per size, reused forever.

    ``Pool.map`` per sweep paid a full interpreter fork (plus catalog and
    module imports under ``spawn``) for every grid; experiments that chain
    several sweeps paid it several times.  This registry forks each pool
    once and hands the same one to every subsequent sweep of that size —
    with the POSIX ``fork`` context the children share the parent's
    read-only pages (processor catalog, code) for free.  Pools are torn
    down atexit; :meth:`shutdown` exists for tests and long-lived hosts.
    """

    _pools: ClassVar[dict[int, multiprocessing.pool.Pool]] = {}

    @classmethod
    def get(cls, workers: int) -> multiprocessing.pool.Pool:
        """The persistent pool of *workers* processes (created on first use)."""
        pool = cls._pools.get(workers)
        if pool is None:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                context = multiprocessing.get_context("spawn")
            pool = context.Pool(workers)
            cls._pools[workers] = pool
        return pool

    @classmethod
    def discard(cls, workers: int) -> None:
        """Terminate and forget the pool of *workers* (recreated on next use).

        Called when a sweep aborts mid-stream: tasks already queued would
        otherwise keep burning CPU into a dead iterator and contend with
        the next sweep for workers.
        """
        pool = cls._pools.pop(workers, None)
        if pool is not None:
            pool.terminate()
            pool.join()

    @classmethod
    def shutdown(cls) -> None:
        """Terminate and forget every pool (idempotent)."""
        for workers in list(cls._pools):
            cls.discard(workers)


atexit.register(WorkerPool.shutdown)


class SweepRunner:
    """Run every cell of a grid and collect a :class:`SweepResults`.

    Parameters
    ----------
    grid:
        The :class:`~repro.sweep.grid.SweepGrid` to execute.
    metrics:
        Metric names (keys of :data:`repro.sweep.metrics.METRICS`) and/or
        module-level callables; defaults to the grid kind's standard set.
        With a *store*, metrics must all be names — the metric list is part
        of each cell's content address.
    workers:
        Pool size.  ``1`` (default) runs in-process; anything above fans
        cells out over the persistent :class:`WorkerPool` of that size,
        consuming completions as they stream in.
    store:
        An :class:`~repro.store.ExperimentStore` (or a path, which opens
        one).  Finished cells are persisted as they complete; damaged or
        version-skewed entries read as misses and are recomputed.
    resume:
        With a store, ``True`` (default) serves already-stored cells from
        disk and computes only the missing ones; ``False`` recomputes every
        cell and overwrites (the CLI's ``--force``).
    progress:
        Optional ``callback(result, from_cache)`` invoked once per finished
        cell, in completion order (cache hits first, then computed cells as
        they stream in).  Purely observational — the CLI's verbosity layer
        hangs off this; results and exports are byte-identical with or
        without it.

    After :meth:`run`, ``cache_hits`` and ``computed`` report how many
    cells came from the store versus fresh simulation.
    """

    def __init__(
        self,
        grid: SweepGrid,
        *,
        metrics: Sequence[str | Callable] | None = None,
        workers: int = 1,
        store: ExperimentStore | str | pathlib.Path | None = None,
        resume: bool = True,
        progress: Callable[[CellResult, bool], None] | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.grid = grid
        self.metrics = (
            tuple(metrics) if metrics is not None else default_metrics_for(grid.base)
        )
        self.workers = workers
        if store is not None and not isinstance(store, ExperimentStore):
            store = ExperimentStore(store)
        self.store = store
        self.resume = resume
        self.progress = progress
        self.cache_hits = 0
        self.computed = 0
        # Resolve names in the *parent*: unknown metrics fail before any
        # simulation, and workers receive callables rather than consulting
        # their (forked, possibly stale) METRICS registry.
        self._resolved = resolve_metrics(self.metrics)
        if self.store is not None:
            # Callables have no stable identity to hash into a content
            # address, so stored sweeps must name their metrics.
            self._metric_names = metric_names(self.metrics)
        else:
            self._metric_names = None

    def _stream(
        self, tasks: Sequence[tuple[SweepCell, Sequence[Callable]]]
    ) -> Iterator[CellResult]:
        """Yield results as cells finish (any order; results carry indices)."""
        if self.workers == 1 or len(tasks) <= 1:
            for task in tasks:
                yield _execute_cell(task)
            return
        pool = WorkerPool.get(self.workers)
        try:
            yield from pool.imap_unordered(_execute_cell, tasks, chunksize=1)
        except BaseException:
            # A cell raised (or the consumer was killed): queued tasks would
            # keep running into a dead iterator — tear the pool down.
            WorkerPool.discard(self.workers)
            raise

    def run(self) -> SweepResults:
        """Execute (or recall) all cells; results come back in grid order."""
        self.cache_hits = 0
        self.computed = 0
        done: dict[int, CellResult] = {}
        pending: list[SweepCell] = []
        keys: dict[int, str] = {}
        # The config payload each pending cell's key was derived from, for
        # its put: derived once, so the blob always matches its key.
        config_payloads: dict[int, dict[str, Any]] = {}
        for cell in self.grid:
            if self.store is None:
                pending.append(cell)
                continue
            key, config = cell_key(
                cell.config, self._metric_names, cell.seed, with_payload=True
            )
            keys[cell.index] = key
            payload = self.store.lookup(key) if self.resume else None
            if payload is not None:
                # Label/params/seed come from the *grid* (the cache is keyed
                # by content, not by what some earlier grid called the cell),
                # so exports stay byte-identical to a cold run.
                done[cell.index] = CellResult(
                    index=cell.index,
                    label=cell.label,
                    params={k: describe_value(v) for k, v in cell.params.items()},
                    seed=cell.seed,
                    metrics=payload["metrics"],
                )
                self.cache_hits += 1
                if self.progress is not None:
                    self.progress(done[cell.index], True)
            else:
                pending.append(cell)
                config_payloads[cell.index] = config
        for result in self._stream([(cell, self._resolved) for cell in pending]):
            # Stream into the store cell by cell: an interrupted sweep keeps
            # everything finished so far, not just complete runs.
            if self.store is not None:
                self.store.put(
                    keys[result.index],
                    config_payload=config_payloads.pop(result.index),
                    label=result.label,
                    params=result.params,
                    seed=result.seed,
                    metrics_list=self._metric_names,
                    metrics=result.metrics,
                )
            done[result.index] = result
            self.computed += 1
            if self.progress is not None:
                self.progress(result, False)
        cells = [done[cell.index] for cell in self.grid]
        metrics_registry = _obs.METRICS
        if metrics_registry is not None:
            collect_sweep(metrics_registry, self)
        meta = self.grid.spec()
        meta["metrics"] = [
            m if isinstance(m, str) else getattr(m, "__name__", str(m))
            for m in self.metrics
        ]
        # Deliberately no worker count, cache statistics, timestamps or host
        # details in meta: the exported bytes must not depend on how (or how
        # warm) the sweep was executed.
        return SweepResults(cells, meta=meta)


def run_sweep(
    grid: SweepGrid,
    *,
    metrics: Sequence[str | Callable] | None = None,
    workers: int = 1,
    store: ExperimentStore | str | pathlib.Path | None = None,
    resume: bool = True,
    progress: Callable[[CellResult, bool], None] | None = None,
) -> SweepResults:
    """One-call façade over :class:`SweepRunner`."""
    return SweepRunner(
        grid,
        metrics=metrics,
        workers=workers,
        store=store,
        resume=resume,
        progress=progress,
    ).run()

