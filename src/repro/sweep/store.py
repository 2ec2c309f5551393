"""Sweep results: an ordered, queryable, exportable store.

A :class:`SweepResults` holds one :class:`CellResult` per grid cell, in
grid order.  Export is canonical — sorted JSON keys, fixed cell order, no
execution metadata — so two runs of the same grid produce byte-identical
files whatever the worker count.  Aggregation groups cells by an axis and
summarises a metric (count/mean/min/max), the reduction the ablation
experiments and the CLI summary are built from.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

from ..errors import ConfigurationError
from ..store.keys import indented_json, write_indented_json
from ..telemetry.export import records_to_csv, table_to_text

#: The replicate suffix :class:`~repro.sweep.grid.SweepGrid` appends to
#: cell labels when ``replicates > 1``.
_REP_SUFFIX = re.compile(r",rep=\d+$")


def _mean_std_ci(values: Sequence[float]) -> tuple[float, float, float]:
    """Mean, sample std and normal-approximation 95% CI half-width."""
    n = len(values)
    mean = sum(values) / n if values else float("nan")
    if n > 1:
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        std = math.sqrt(variance)
    else:
        std = 0.0 if values else float("nan")
    ci95 = 1.96 * std / math.sqrt(n) if n else float("nan")
    return mean, std, ci95


def _write_json(path: pathlib.Path, document: Any) -> None:
    """Stream :func:`indented_json` of *document*, plus a newline, to *path*."""
    with path.open("w", encoding="utf-8") as handle:
        write_indented_json(document, handle.write)
        handle.write("\n")


def _plain(mapping: Mapping[str, Any]) -> dict[str, Any]:
    """*mapping* itself when it is a plain ``dict`` (encoded as is), else a copy."""
    return mapping if type(mapping) is dict else dict(mapping)


@dataclass(frozen=True)
class CellResult:
    """The reduced outcome of one grid cell."""

    index: int
    label: str
    params: Mapping[str, Any]
    seed: int | None
    metrics: Mapping[str, Any]

    def record(self) -> dict[str, Any]:
        """Flat dict: label + params + seed + metrics (CSV row shape)."""
        row: dict[str, Any] = {"label": self.label}
        row.update(self.params)
        row["seed"] = self.seed
        row.update(self.metrics)
        return row


class SweepResults:
    """All cell results of one sweep, with query/aggregate/export helpers."""

    def __init__(
        self, cells: Sequence[CellResult], *, meta: Mapping[str, Any] | None = None
    ) -> None:
        self.cells: tuple[CellResult, ...] = tuple(cells)
        self.meta: dict[str, Any] = dict(meta or {})
        self._by_label = {cell.label: cell for cell in self.cells}

    # -------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[CellResult]:
        return iter(self.cells)

    @property
    def labels(self) -> tuple[str, ...]:
        """Cell labels in grid order."""
        return tuple(cell.label for cell in self.cells)

    def get(self, label: str) -> CellResult:
        """The cell called *label*."""
        try:
            return self._by_label[label]
        except KeyError:
            known = ", ".join(self.labels) or "<none>"
            raise ConfigurationError(f"no sweep cell {label!r}; have: {known}") from None

    def metric(self, label: str, name: str) -> Any:
        """One metric value of one cell."""
        metrics = self.get(label).metrics
        try:
            return metrics[name]
        except KeyError:
            known = ", ".join(sorted(metrics)) or "<none>"
            raise ConfigurationError(
                f"cell {label!r} has no metric {name!r}; have: {known}"
            ) from None

    def filter(self, **params: Any) -> "SweepResults":
        """The sub-sweep whose cells match every given ``param=value``."""
        kept = [
            cell
            for cell in self.cells
            if all(cell.params.get(k) == v for k, v in params.items())
        ]
        return SweepResults(kept, meta=self.meta)

    # ---------------------------------------------------------- aggregation

    def aggregate(self, metric: str, by: str) -> dict[Any, dict[str, float]]:
        """Group cells by axis *by* and summarise *metric* per group.

        Returns ``{axis value: {count, mean, min, max, std, ci95}}`` in
        first-seen order; cells where the metric is ``None`` are skipped.
        ``std`` is the sample standard deviation and ``ci95`` the half-width
        of the normal-approximation 95 % confidence interval on the mean
        (``1.96 * std / sqrt(n)``; 0 for groups of one) — the replicate
        reduction for Poisson-arrival sweeps.  Unhashable axis values
        (lists/dicts from described tuple or kwargs axes) are keyed by
        their canonical JSON encoding.
        """
        groups: dict[Any, list[float]] = {}
        for cell in self.cells:
            if by not in cell.params:
                raise ConfigurationError(
                    f"cell {cell.label!r} has no param {by!r}; "
                    f"axes: {', '.join(cell.params)}"
                )
            key = cell.params[by]
            if isinstance(key, (list, dict)):
                key = json.dumps(key, sort_keys=True, separators=(",", ":"))
            value = cell.metrics.get(metric)
            groups.setdefault(key, [])
            if value is not None:
                groups[key].append(float(value))
        out: dict[Any, dict[str, float]] = {}
        for key, values in groups.items():
            mean, std, ci95 = _mean_std_ci(values)
            out[key] = {
                "count": len(values),
                "mean": mean,
                "min": min(values) if values else float("nan"),
                "max": max(values) if values else float("nan"),
                "std": std,
                "ci95": ci95,
            }
        return out

    def summary_table(
        self, metrics: Sequence[str] | None = None, *, title: str = ""
    ) -> str:
        """An aligned per-cell table of the chosen metrics."""
        if not self.cells:
            raise ConfigurationError("no cells to summarise")
        if metrics is None:
            metrics = sorted(self.cells[0].metrics)
        rows = []
        for cell in self.cells:
            row: list[object] = [cell.label]
            for name in metrics:
                value = cell.metrics.get(name)
                row.append("-" if value is None else value)
            rows.append(row)
        return table_to_text(["cell", *metrics], rows, title=title)

    # ------------------------------------------------- replicate aggregation

    def aggregated_records(self) -> list[dict[str, Any]]:
        """One flat dict per *logical* cell, replicates reduced to statistics.

        Cells differing only in their ``rep=<k>`` replicate suffix collapse
        into one record carrying the base label, the non-replicate params, a
        ``replicates`` count, and ``<metric>_mean`` / ``<metric>_std`` /
        ``<metric>_ci95`` columns per numeric metric (``None`` metrics are
        skipped per-cell; a metric with no numeric samples in a group emits
        ``None`` statistics).  Sweeps without replicates degrade gracefully:
        every cell is its own group with ``std = ci95 = 0``.  Order and
        content are deterministic for a fixed cell sequence — the plotting
        export the raw per-replicate rows were too noisy for.
        """
        order: list[str] = []
        groups: dict[str, dict[str, Any]] = {}
        for cell in self.cells:
            base = _REP_SUFFIX.sub("", cell.label)
            group = groups.get(base)
            if group is None:
                params = {k: v for k, v in cell.params.items() if k != "rep"}
                group = groups[base] = {"params": params, "cells": []}
                order.append(base)
            group["cells"].append(cell)
        records: list[dict[str, Any]] = []
        for base in order:
            group = groups[base]
            cells: list[CellResult] = group["cells"]
            row: dict[str, Any] = {"label": base}
            row.update(group["params"])
            row["replicates"] = len(cells)
            names: dict[str, None] = {}
            for cell in cells:
                for name in cell.metrics:
                    names.setdefault(name)
            for name in names:
                values = [
                    float(cell.metrics[name])
                    for cell in cells
                    if isinstance(cell.metrics.get(name), (int, float))
                    and not isinstance(cell.metrics.get(name), bool)
                ]
                if values:
                    mean, std, ci95 = _mean_std_ci(values)
                else:
                    mean = std = ci95 = None
                row[f"{name}_mean"] = mean
                row[f"{name}_std"] = std
                row[f"{name}_ci95"] = ci95
            records.append(row)
        return records

    def _aggregated_document(self) -> dict[str, Any]:
        return {
            "meta": {**self.meta, "aggregated": True},
            "rows": self.aggregated_records(),
        }

    def to_aggregated_json(self) -> str:
        """Canonical JSON of :meth:`aggregated_records` (plus grid meta)."""
        return indented_json(self._aggregated_document()) + "\n"

    def to_aggregated_csv(self) -> str:
        """:meth:`aggregated_records` as one CSV table."""
        return records_to_csv(self.aggregated_records())

    def export_aggregated(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the per-logical-cell aggregate, JSON or CSV by extension."""
        path = pathlib.Path(path)
        if path.suffix.lower() == ".csv":
            path.write_text(self.to_aggregated_csv())
        else:
            _write_json(path, self._aggregated_document())
        return path

    # -------------------------------------------------------------- export

    def to_records(self) -> list[dict[str, Any]]:
        """Flat dicts, one per cell, in grid order."""
        return [cell.record() for cell in self.cells]

    def _document(self) -> dict[str, Any]:
        return {
            "meta": self.meta,
            "cells": [
                {
                    "index": cell.index,
                    "label": cell.label,
                    "params": _plain(cell.params),
                    "seed": cell.seed,
                    "metrics": _plain(cell.metrics),
                }
                for cell in self.cells
            ],
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, grid order, trailing newline."""
        return indented_json(self._document()) + "\n"

    def to_csv(self) -> str:
        """Flat CSV via :func:`repro.telemetry.export.records_to_csv`."""
        return records_to_csv(self.to_records())

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write JSON (default) or CSV, chosen by the file extension.

        The JSON is :meth:`to_json`'s text, streamed into the file as it is
        encoded rather than built whole first.
        """
        path = pathlib.Path(path)
        if path.suffix.lower() == ".csv":
            path.write_text(self.to_csv())
        else:
            _write_json(path, self._document())
        return path

    @classmethod
    def from_json(cls, text: str) -> "SweepResults":
        """Rebuild a results store from :meth:`to_json` output.

        Round-trips labels, params, seeds and metrics; the original configs
        are not reconstructed.
        """
        payload = json.loads(text)
        cells = [
            CellResult(
                index=entry["index"],
                label=entry["label"],
                params=entry["params"],
                seed=entry["seed"],
                metrics=entry["metrics"],
            )
            for entry in payload["cells"]
        ]
        return cls(cells, meta=payload.get("meta"))

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "SweepResults":
        """Read a JSON results file written by :meth:`save`."""
        return cls.from_json(pathlib.Path(path).read_text())
