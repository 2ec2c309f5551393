"""Declarative parameter grids over scenario and cluster configs.

A :class:`SweepGrid` enumerates *cells*: one config (plus a stable label and
a deterministic seed) per point of a Cartesian product of axes, or per entry
of an explicit variant mapping.  Cells are plain frozen data, picklable, and
ordered — the same grid always expands to the same cells in the same order,
which is what lets the runner promise bit-identical serial/parallel results.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import zlib
from typing import Any, Iterator, Mapping, Sequence

from ..errors import ConfigurationError


def derive_cell_seed(root_seed: int, label: str) -> int:
    """A deterministic, process-independent seed for the cell *label*.

    CRC32 of ``"<root>|<label>"`` — stable across Python versions and
    processes (unlike ``hash()``, which is salted per interpreter).
    """
    return zlib.crc32(f"{root_seed}|{label}".encode("utf-8")) & 0x7FFFFFFF


def describe_value(value: Any) -> Any:
    """A JSON-able, deterministic description of an axis value.

    Spec dataclasses (``GuestSpec``/``WorkloadSpec``/configs) that expose a
    ``describe()`` method are reduced to that compact label; other
    dataclasses fall back to their ``name`` attribute or ``str``.  Tuples
    and mappings are described recursively, so an axis of guest fleets
    yields a list of short guest labels rather than nested reprs.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        describe = getattr(value, "describe", None)
        if callable(describe):
            return describe()
        name = getattr(value, "name", None)
        return name if name is not None else str(value)
    if isinstance(value, Mapping):
        return {key: describe_value(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [describe_value(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _format_value(value: Any) -> str:
    described = describe_value(value)
    if isinstance(described, list) and described and all(
        isinstance(item, str) for item in described
    ):
        return "+".join(described)  # e.g. guests=V20(20%:web:exact)+V70(...)
    if isinstance(described, (dict, list)):
        return json.dumps(described, sort_keys=True, separators=(",", ":"))
    return str(described)


@dataclasses.dataclass(frozen=True)
class SweepCell:
    """One point of a grid: a label, its parameters, and the built config."""

    index: int
    label: str
    params: Mapping[str, Any]
    config: Any
    seed: int | None = None


class SweepGrid:
    """A declarative grid of configs.

    Parameters
    ----------
    axes:
        Mapping of config field name to the sequence of values to sweep.
        Axis order (mapping insertion order) fixes the cell order: the last
        axis varies fastest, like nested loops.  Every key must be a field
        of the base config's dataclass.  The base config's constructor
        turns a JSON-shaped value (a processor's catalog name, a list for a
        tuple field) into the field value, so grids can come straight from
        JSON; each cell's params, label and seed come from the values its
        own config holds, not from their spelling.  Two cells with one
        label (a value listed twice, or a field a cell's config ignores)
        raise :class:`ConfigurationError`.  :attr:`axes` holds each axis's
        values as the cells' configs hold them, in cell order.
    base:
        The config every cell is derived from via ``dataclasses.replace``.
        Defaults to a fresh :class:`~repro.experiments.scenario.ScenarioConfig`.
    vary_seed:
        When True and ``seed`` is not itself an axis, each cell's config
        gets a deterministic per-cell seed derived from the base seed and
        the cell label (:func:`derive_cell_seed`).  When False every cell
        keeps the base seed, so single-config experiments stay bit-equal to
        their pre-sweep form.
    replicates:
        Statistical replication: every cell expands into N cells labelled
        ``...,rep=<k>``, each with a seed derived from the base seed and
        the replicate label — so replicate runs differ only in their random
        streams and :meth:`SweepResults.aggregate` can attach confidence
        intervals.  ``1`` (default) changes nothing.
    """

    def __init__(
        self,
        axes: Mapping[str, Sequence[Any]],
        *,
        base: Any = None,
        vary_seed: bool = False,
        replicates: int = 1,
    ) -> None:
        if base is None:
            from ..experiments.scenario import ScenarioConfig

            base = ScenarioConfig()
        if not dataclasses.is_dataclass(base):
            raise ConfigurationError(
                f"grid base must be a config dataclass, got {type(base).__name__}"
            )
        if replicates < 1:
            raise ConfigurationError(f"replicates must be >= 1, got {replicates}")
        if replicates > 1 and "seed" in axes:
            raise ConfigurationError(
                "an explicit 'seed' axis cannot be combined with replicates > 1: "
                "replicates derive their own per-replicate seeds"
            )
        field_types = {f.name: f.type for f in dataclasses.fields(base)}
        self.base = base
        self.vary_seed = vary_seed
        self.replicates = replicates
        raw: dict[str, tuple[Any, ...]] = {}
        for name, values in axes.items():
            if name not in field_types:
                known = ", ".join(sorted(field_types))
                raise ConfigurationError(
                    f"unknown sweep axis {name!r} for {type(base).__name__}; "
                    f"fields: {known}"
                )
            values = tuple(values)
            if not values:
                raise ConfigurationError(f"sweep axis {name!r} has no values")
            raw[name] = values
        self._cells, self.axes = self._expand(raw)

    @classmethod
    def from_variants(
        cls, variants: Mapping[str, Any], *, replicates: int = 1
    ) -> "SweepGrid":
        """A grid of explicitly named configs (no Cartesian product).

        Used by experiments whose cells are hand-picked combinations rather
        than a full product; cell seeds are whatever each config carries.
        ``replicates`` expands every variant as in the main constructor.
        """
        if not variants:
            raise ConfigurationError("from_variants needs at least one config")
        if replicates < 1:
            raise ConfigurationError(f"replicates must be >= 1, got {replicates}")
        first = next(iter(variants.values()))
        grid = cls.__new__(cls)
        grid.base = first
        grid.vary_seed = False
        grid.replicates = replicates
        grid.axes = {"variant": tuple(variants)}
        cells = []
        for label, config in variants.items():
            seed = getattr(config, "seed", None)
            for cell_label, params, cell_config, cell_seed in grid._replicated(
                label, {"variant": label}, config, seed, root_seed=seed
            ):
                cells.append(
                    SweepCell(
                        index=len(cells),
                        label=cell_label,
                        params=params,
                        config=cell_config,
                        seed=cell_seed,
                    )
                )
        grid._cells = tuple(cells)
        return grid

    def _replicated(self, label, params, config, seed, *, root_seed):
        """Expand one logical cell into its replicate cells (or itself)."""
        if self.replicates == 1:
            yield label, params, config, seed
            return
        for rep in range(self.replicates):
            rep_label = f"{label},rep={rep}"
            rep_seed = seed
            rep_config = config
            if seed is not None:
                rep_seed = derive_cell_seed(root_seed or 0, rep_label)
                rep_config = dataclasses.replace(config, seed=rep_seed)
            yield rep_label, {**params, "rep": rep}, rep_config, rep_seed

    def _expand(
        self, axes: Mapping[str, tuple[Any, ...]]
    ) -> tuple[tuple[SweepCell, ...], dict[str, tuple[Any, ...]]]:
        """The cells, and each axis's values as the cells' configs hold them."""
        if not axes:
            raise ConfigurationError("a sweep grid needs at least one axis")
        cells = []
        held: dict[str, dict[str, Any]] = {name: {} for name in axes}
        labels: set[str] = set()
        root_seed = getattr(self.base, "seed", 0)
        for combo in itertools.product(*axes.values()):
            config = dataclasses.replace(self.base, **dict(zip(axes, combo)))
            params = {name: getattr(config, name) for name in axes}
            texts = {name: _format_value(value) for name, value in params.items()}
            label = ",".join(f"{k}={text}" for k, text in texts.items())
            if label in labels:
                raise ConfigurationError(
                    f"sweep grid gives two cells the label {label!r}: a value "
                    f"is listed twice, or a cell's config ignores an axis"
                )
            labels.add(label)
            for name, text in texts.items():
                held[name].setdefault(text, params[name])
            seed = getattr(config, "seed", None)
            if self.vary_seed and "seed" not in axes and seed is not None:
                seed = derive_cell_seed(root_seed, label)
                config = dataclasses.replace(config, seed=seed)
            for cell_label, cell_params, cell_config, cell_seed in self._replicated(
                label, params, config, seed, root_seed=root_seed
            ):
                cells.append(
                    SweepCell(
                        index=len(cells),
                        label=cell_label,
                        params=cell_params,
                        config=cell_config,
                        seed=cell_seed,
                    )
                )
        return tuple(cells), {
            name: tuple(values.values()) for name, values in held.items()
        }

    @property
    def cells(self) -> tuple[SweepCell, ...]:
        """All cells in deterministic order."""
        return self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self) -> Iterator[SweepCell]:
        return iter(self._cells)

    def spec(self) -> dict[str, Any]:
        """JSON-able description of the grid (axes + base type + size)."""
        spec: dict[str, Any] = {
            "base": type(self.base).__name__,
            "axes": {
                name: [describe_value(v) for v in values]
                for name, values in self.axes.items()
            },
            "cells": len(self._cells),
            "vary_seed": self.vary_seed,
        }
        if self.replicates > 1:
            spec["replicates"] = self.replicates
        return spec
