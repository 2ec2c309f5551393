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
from typing import Callable, List

from ..errors import ConfigurationError
from ..units import check_positive
from .trace import TracePoint

#: A shape builder: (rng, day_length, step) -> demand percent per step.
Builder = Callable[[random.Random, float, float], List[float]]


def _clamp(value: float) -> float:
    return max(0.0, min(100.0, value))


def _steps(day_length: float, step: float) -> list[float]:
    return [index * step for index in range(int(day_length / step))]


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


def _diurnal_office(rng: random.Random, day_length: float, step: float) -> list[float]:
    out = []
    for t in _steps(day_length, step):
        x = t / day_length
        out.append(5.0 + 27.0 * _office_curve(x) + rng.gauss(0.0, 1.5))
    return out


def _weekend(rng: random.Random, day_length: float, step: float) -> list[float]:
    out = []
    for t in _steps(day_length, step):
        x = t / day_length
        bump = math.sin(math.pi * x) ** 2
        out.append(4.0 + 8.0 * bump + rng.gauss(0.0, 1.0))
    return out


def _flash_crowd(rng: random.Random, day_length: float, step: float) -> list[float]:
    onset = rng.uniform(0.25, 0.65)
    decay = day_length / 10.0
    out = []
    for t in _steps(day_length, step):
        x = t / day_length
        demand = 8.0 + 4.0 * math.sin(2.0 * math.pi * x - math.pi / 2.0)
        if x >= onset:
            demand += 55.0 * math.exp(-(t - onset * day_length) / decay)
        out.append(demand + rng.gauss(0.0, 2.0))
    return out


def _batch_overnight(rng: random.Random, day_length: float, step: float) -> list[float]:
    out = []
    for t in _steps(day_length, step):
        x = t / day_length
        if x < 0.20 or x >= 0.78:
            out.append(55.0 + rng.gauss(0.0, 3.0))
        else:
            out.append(3.0 + rng.gauss(0.0, 1.0))
    return out


def _noisy_neighbor(rng: random.Random, day_length: float, step: float) -> list[float]:
    out = []
    for _ in _steps(day_length, step):
        demand = 12.0 + rng.gauss(0.0, 3.0)
        if rng.random() < 0.20:
            demand += rng.uniform(15.0, 40.0)
        out.append(demand)
    return out


@dataclass(frozen=True)
class DayShape:
    """One catalog entry: a named, documented day generator."""

    name: str
    description: str
    build: Builder


#: The catalog, keyed by name, in documentation order.
DAYSHAPES: dict[str, DayShape] = {
    shape.name: shape
    for shape in (
        DayShape(
            "diurnal-office",
            "quiet nights, 9-to-5 plateau with a lunch dip",
            _diurnal_office,
        ),
        DayShape(
            "weekend",
            "gentle midday bump at a fraction of the weekday level",
            _weekend,
        ),
        DayShape(
            "flash-crowd",
            "light diurnal baseline plus one seeded viral spike",
            _flash_crowd,
        ),
        DayShape(
            "batch-overnight",
            "near-idle days, heavy sustained overnight processing",
            _batch_overnight,
        ),
        DayShape(
            "noisy-neighbor",
            "moderate base with frequent random bursts",
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
    except KeyError:
        raise ConfigurationError(
            f"unknown day shape {name!r}; use one of: {', '.join(DAYSHAPES)}"
        ) from None


def dayshape_series(
    name: str,
    rng: random.Random,
    *,
    day_length: float = 400.0,
    step: float = 5.0,
    scale: float = 1.0,
) -> tuple[list[float], list[float]]:
    """One day of *name*-shaped demand as ``(starts, percents)`` lists.

    Percents are clamped to [0, 100]; ``scale`` multiplies the shape's
    demand (an intensity knob: the same day at 0.5x or 2x traffic).  The
    series ends in a zero point at ``day_length`` so
    :class:`~repro.workloads.trace.TraceLoad` repeats it as whole days;
    :meth:`~repro.workloads.trace.TraceLoad.from_series` replays it as is.
    """
    shape = require_dayshape(name)
    check_positive(day_length, "day_length")
    check_positive(step, "step")
    check_positive(scale, "scale")
    demands = shape.build(rng, day_length, step)
    starts = [index * step for index in range(len(demands))]
    percents = [_clamp(demand * scale) for demand in demands]
    starts.append(day_length)
    percents.append(0.0)
    return starts, percents


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
