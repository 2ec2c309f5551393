"""Day-shape catalog: named, seeded utilisation-day generators.

The paper motivates DVFS with hosting-center servers running "below 30% of
processor utilization" most of the time — but *which* 30% matters to an
orchestrator.  This catalog names the canonical day shapes a datacenter
fleet mixes (each a deterministic function of a ``random.Random`` stream),
so heterogeneous fleets are one config line instead of a page of
:class:`~repro.workloads.trace.SyntheticTrace` parameters:

``diurnal-office``
    Quiet nights, a 9-to-5 plateau with a lunch dip — interactive office
    traffic.
``weekend``
    The same customers on a Saturday: a gentle midday bump at a fraction
    of the weekday level.
``flash-crowd``
    A light diurnal baseline broken by one sudden viral spike (seeded
    onset) that decays exponentially — the capacity-planning nightmare.
``batch-overnight``
    Near-idle days, a heavy sustained processing block through the night
    window — ETL/backup fleets.
``noisy-neighbor``
    A moderate base with frequent random bursts — the co-tenant nobody
    wants.

Every shape yields a ``(starts, percents)`` series (:func:`dayshape_series`)
ending in a zero tail at ``day_length`` (so :class:`~repro.workloads.trace.
TraceLoad` can repeat it as whole days).  Cluster populations
(``ClusterScenarioConfig.dayshapes``) replay the series directly; single-host
scenarios (``WorkloadSpec(kind="trace", dayshape=...)``) take it as
:class:`~repro.workloads.trace.TracePoint` lists (:func:`dayshape_points`),
and it can be materialised as a CSV (:func:`dayshape_csv`) for the
``trace_file`` path — the catalog sits *on top of*
:func:`~repro.workloads.trace.load_trace_csv`, not beside it.
"""

from __future__ import annotations

import math
import pathlib
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import itemgetter
from typing import Callable, List

from ..errors import ConfigurationError
from ..units import check_positive
from .trace import _checked_starts, _gauss_draws, TracePoint


@dataclass(frozen=True)
class DayGrid:
    """The RNG-free part of one shape's day, shared by every draw of it.

    ``times`` are the sample starts (``index * step``), ``fractions`` the
    same as day fractions, ``starts`` the replayed series' starts (the
    times plus the zero tail at ``day_length``) and ``envelope`` the
    shape's deterministic value per sample.  :func:`dayshape_series`
    builds one per ``(shape, day_length, step)`` and reuses it, so a fleet
    of VMs makes only its own RNG draws, and ``starts`` is validated once
    when the grid is built: every trace replaying it checks only its own
    percents.
    """

    day_length: float
    times: tuple[float, ...]
    fractions: tuple[float, ...]
    starts: tuple[float, ...]
    envelope: tuple


#: A shape's envelope: day fractions -> one entry per sample.
Envelope = Callable[[tuple[float, ...]], tuple]
#: A shape's draw: (rng, grid) -> demand percent per sample.  Every draw
#: takes its Gaussian noise in one pass (``_gauss_draws``), bit for bit the
#: values and generator state of one ``rng.gauss`` call per sample.
Draw = Callable[[random.Random, DayGrid], List[float]]


def _ramp(x: float, start: float, end: float) -> float:
    """0→1 linearly over [start, end] of the day fraction."""
    if x <= start:
        return 0.0
    if x >= end:
        return 1.0
    return (x - start) / (end - start)


def _office_curve(x: float) -> float:
    """The 9-to-5 envelope in [0, 1]: ramps, plateau, lunch dip."""
    envelope = _ramp(x, 0.30, 0.38) * (1.0 - _ramp(x, 0.70, 0.80))
    lunch = max(0.0, 1.0 - abs(x - 0.5) / 0.04)
    return envelope * (1.0 - 0.3 * lunch)


def _office_envelope(fractions: tuple[float, ...]) -> tuple:
    return tuple(5.0 + 27.0 * _office_curve(x) for x in fractions)


def _diurnal_office(rng: random.Random, grid: DayGrid) -> list[float]:
    noise = _gauss_draws(rng, repeat(1.5, len(grid.envelope)))
    return [base + epsilon for base, epsilon in zip(grid.envelope, noise)]


def _weekend_envelope(fractions: tuple[float, ...]) -> tuple:
    return tuple(4.0 + 8.0 * math.sin(math.pi * x) ** 2 for x in fractions)


def _weekend(rng: random.Random, grid: DayGrid) -> list[float]:
    noise = _gauss_draws(rng, repeat(1.0, len(grid.envelope)))
    return [base + epsilon for base, epsilon in zip(grid.envelope, noise)]


def _flash_crowd_envelope(fractions: tuple[float, ...]) -> tuple:
    return tuple(
        8.0 + 4.0 * math.sin(2.0 * math.pi * x - math.pi / 2.0) for x in fractions
    )


def _flash_crowd(rng: random.Random, grid: DayGrid) -> list[float]:
    onset = rng.uniform(0.25, 0.65)
    decay = grid.day_length / 10.0
    spike_at = onset * grid.day_length
    noise = _gauss_draws(rng, repeat(2.0, len(grid.times)))
    out = []
    for t, x, demand, epsilon in zip(grid.times, grid.fractions, grid.envelope, noise):
        if x >= onset:
            demand += 55.0 * math.exp(-(t - spike_at) / decay)
        out.append(demand + epsilon)
    return out


def _batch_envelope(fractions: tuple[float, ...]) -> tuple:
    """(mean, sigma) per sample: the overnight window or the idle day."""
    return tuple(
        (55.0, 3.0) if x < 0.20 or x >= 0.78 else (3.0, 1.0) for x in fractions
    )


def _batch_overnight(rng: random.Random, grid: DayGrid) -> list[float]:
    noise = _gauss_draws(rng, map(itemgetter(1), grid.envelope))
    return [mean + epsilon for (mean, _), epsilon in zip(grid.envelope, noise)]


def _no_envelope(fractions: tuple[float, ...]) -> tuple:
    return ()


def _noisy_neighbor(rng: random.Random, grid: DayGrid) -> list[float]:
    # Each sample's noise is drawn before its burst test, as one
    # ``rng.gauss`` call per sample would interleave them.
    out = []
    for epsilon in _gauss_draws(rng, repeat(3.0, len(grid.times))):
        demand = 12.0 + epsilon
        if rng.random() < 0.20:
            demand += rng.uniform(15.0, 40.0)
        out.append(demand)
    return out


@dataclass(frozen=True)
class DayShape:
    """One catalog entry: a named, documented day generator.

    A day is the shape's ``envelope`` (deterministic, built once per grid)
    plus its ``draw`` (the per-day RNG draws over that envelope).
    """

    name: str
    description: str
    envelope: Envelope
    draw: Draw


#: The catalog, keyed by name, in documentation order.
DAYSHAPES: dict[str, DayShape] = {
    shape.name: shape
    for shape in (
        DayShape(
            "diurnal-office",
            "quiet nights, 9-to-5 plateau with a lunch dip",
            _office_envelope,
            _diurnal_office,
        ),
        DayShape(
            "weekend",
            "gentle midday bump at a fraction of the weekday level",
            _weekend_envelope,
            _weekend,
        ),
        DayShape(
            "flash-crowd",
            "light diurnal baseline plus one seeded viral spike",
            _flash_crowd_envelope,
            _flash_crowd,
        ),
        DayShape(
            "batch-overnight",
            "near-idle days, heavy sustained overnight processing",
            _batch_envelope,
            _batch_overnight,
        ),
        DayShape(
            "noisy-neighbor",
            "moderate base with frequent random bursts",
            _no_envelope,
            _noisy_neighbor,
        ),
    )
}


def dayshape_names() -> tuple[str, ...]:
    """Catalog shape names, in documentation order."""
    return tuple(DAYSHAPES)


def require_dayshape(name: str) -> DayShape:
    """The catalog entry called *name*; unknown names list the choices."""
    try:
        return DAYSHAPES[name]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown day shape {name!r}; use one of: {', '.join(DAYSHAPES)}"
        ) from None


@lru_cache(maxsize=16, typed=True)
def _day_grid(name: str, day_length: float, step: float) -> DayGrid:
    """The shared :class:`DayGrid` of shape *name* (built once per grid).

    Cached per ``(name, day_length, step)``, argument types included, so
    an ``int`` grid keeps its ``int`` starts.  Arguments are assumed
    validated, as :func:`dayshape_series` does before calling it; the
    starts are validated here, once per grid, as every trace's would be.
    """
    times = tuple(index * step for index in range(int(day_length / step)))
    fractions = tuple(t / day_length for t in times)
    return DayGrid(
        day_length=day_length,
        times=times,
        fractions=fractions,
        starts=_checked_starts((*times, day_length)),
        envelope=DAYSHAPES[name].envelope(fractions),
    )


def dayshape_series(
    name: str,
    rng: random.Random,
    *,
    day_length: float = 400.0,
    step: float = 5.0,
    scale: float = 1.0,
) -> tuple[tuple[float, ...], list[float]]:
    """One day of *name*-shaped demand as ``(starts, percents)``.

    Percents are clamped to [0, 100]; ``scale`` multiplies the shape's
    demand (an intensity knob: the same day at 0.5x or 2x traffic).  The
    series ends in a zero point at ``day_length`` so
    :class:`~repro.workloads.trace.TraceLoad` repeats it as whole days;
    :meth:`~repro.workloads.trace.TraceLoad.from_series` replays it as is.
    ``starts`` is the grid's shared tuple, validated once when the grid was
    built; ``percents`` a fresh list.
    """
    shape = require_dayshape(name)
    check_positive(day_length, "day_length")
    check_positive(step, "step")
    check_positive(scale, "scale")
    grid = _day_grid(name, day_length, step)
    demands = shape.draw(rng, grid)
    if scale != 1.0:
        demands = [demand * scale for demand in demands]
    # max(0.0, min(100.0, value)) written out, bit for bit (NaN -> 100.0).
    percents = [
        (value if value > 0.0 else 0.0) if value < 100.0 else 100.0
        for value in demands
    ]
    percents.append(0.0)
    return grid.starts, percents


def dayshape_points(
    name: str,
    rng: random.Random,
    *,
    day_length: float = 400.0,
    step: float = 5.0,
    scale: float = 1.0,
) -> list[TracePoint]:
    """:func:`dayshape_series` as trace points (one per sample)."""
    starts, percents = dayshape_series(
        name, rng, day_length=day_length, step=step, scale=scale
    )
    return list(map(TracePoint, starts, percents))


def dayshape_csv(
    name: str,
    path: str | pathlib.Path,
    *,
    seed: int = 0,
    day_length: float = 400.0,
    step: float = 5.0,
) -> pathlib.Path:
    """Materialise a shape as a headered utilisation CSV.

    The written file round-trips through
    :func:`~repro.workloads.trace.load_trace_csv`, so any consumer of
    ``WorkloadSpec.trace_file`` (or an external tool) can replay a catalog
    day without importing this module.
    """
    points = dayshape_points(
        name, random.Random(seed), day_length=day_length, step=step
    )
    path = pathlib.Path(path)
    lines = ["time,percent"]
    lines.extend(f"{point.start!r},{point.percent!r}" for point in points)
    path.write_text("\n".join(lines) + "\n")
    return path
