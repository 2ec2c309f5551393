"""Trace-driven demand: replay a (time, demand%) series as CPU load.

The paper's motivation cites hosting-center servers running "below 30% of
processor utilization" most of the time — the diurnal, bursty reality that
makes DVFS worthwhile.  :class:`TraceLoad` replays any recorded utilisation
trace against a domain, and :class:`SyntheticTrace` generates realistic
diurnal traces (base load + day/night swing + seeded noise + bursts) when no
production trace is available (a synthetic stand-in, not measured data).
"""

from __future__ import annotations

import csv
import math
import operator
import pathlib
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Iterable, Iterator, Sequence

from ..errors import ConfigurationError, WorkloadError
from ..sim import PeriodicTimer
from ..units import check_non_negative, check_positive
from .base import Workload

#: Header names recognised as the time column (case-insensitive).
TIME_COLUMNS = ("time", "t", "seconds", "timestamp")
#: Header names recognised as the utilisation column (case-insensitive).
PERCENT_COLUMNS = ("percent", "utilisation", "utilization", "util", "load", "cpu", "demand")


@dataclass(frozen=True, slots=True)
class TracePoint:
    """Demand of *percent* (absolute, of max capacity) from time *start*."""

    start: float
    percent: float

    def __post_init__(self) -> None:
        check_non_negative(self.start, "start")
        check_non_negative(self.percent, "percent")


def load_trace_csv(path: str | pathlib.Path) -> list[TracePoint]:
    """Parse a real utilisation time-series CSV into trace points.

    Two layouts are accepted:

    * a header row naming a time column (one of :data:`TIME_COLUMNS`) and a
      utilisation column (one of :data:`PERCENT_COLUMNS`), matched
      case-insensitively — extra columns are ignored;
    * headerless rows whose first two columns are numeric
      ``time, percent`` pairs.

    Blank lines are skipped; any non-numeric data row raises a
    :class:`~repro.errors.WorkloadError` naming the file and line.  The
    returned points plug straight into :class:`TraceLoad` (which sorts them
    and rejects duplicate times) or, via ``WorkloadSpec(kind="trace",
    trace_file=...)``, into any declarative scenario.
    """
    path = pathlib.Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise WorkloadError(f"cannot read trace file {path}: {error}") from None
    rows = [
        (number, row)
        for number, row in enumerate(csv.reader(text.splitlines()), start=1)
        if row and any(cell.strip() for cell in row)
    ]
    if not rows:
        raise WorkloadError(f"trace file {path} holds no data rows")
    first = [cell.strip() for cell in rows[0][1]]
    time_col, percent_col = 0, 1
    try:
        float(first[0])
    except (ValueError, IndexError):
        header = [cell.strip().lower() for cell in first]
        time_col = next((header.index(n) for n in TIME_COLUMNS if n in header), None)
        percent_col = next(
            (header.index(n) for n in PERCENT_COLUMNS if n in header), None
        )
        if time_col is None or percent_col is None:
            raise WorkloadError(
                f"trace file {path} header {first!r} names no recognised "
                f"time ({', '.join(TIME_COLUMNS)}) and utilisation "
                f"({', '.join(PERCENT_COLUMNS)}) columns"
            ) from None
        rows = rows[1:]
        if not rows:
            raise WorkloadError(
                f"trace file {path} holds a header but no data rows"
            ) from None
    points = []
    for number, row in rows:
        try:
            start = float(row[time_col])
            percent = float(row[percent_col])
        except (ValueError, IndexError):
            raise WorkloadError(
                f"trace file {path} line {number}: expected numeric "
                f"time/percent columns, got {row!r}"
            ) from None
        try:
            points.append(TracePoint(start=start, percent=percent))
        except ConfigurationError as error:
            raise WorkloadError(
                f"trace file {path} line {number}: {error}"
            ) from None
    return points


#: Start tuples that passed :func:`_check_series` through
#: :func:`_checked_starts`, by identity.  Each entry holds its tuple, so the
#: id cannot be reused while listed, and a tuple of numbers cannot change,
#: so it stays valid.  Past the bound the oldest entry drops out; traces on
#: it are then simply checked in full again.
_CHECKED_STARTS: dict[int, tuple] = {}
_CHECKED_STARTS_BOUND = 64


def _checked_starts(starts: Iterable[float]) -> tuple:
    """*starts* as a tuple, validated once for every trace that replays it.

    A series whose starts are this very tuple checks its percents alone: a
    grid shared by a whole population
    (:func:`~repro.workloads.dayshapes.dayshape_series`) is validated once,
    not once per trace.  The tuple is a plain one, so lookups on it keep
    ``bisect``'s fast path.
    """
    starts = tuple(starts)
    _check_series(starts, [0.0] * len(starts))
    if len(_CHECKED_STARTS) >= _CHECKED_STARTS_BOUND:
        del _CHECKED_STARTS[next(iter(_CHECKED_STARTS))]
    _CHECKED_STARTS[id(starts)] = starts
    return starts


def _check_series(starts: Sequence[float], percents: Sequence[float]) -> None:
    """Reject an invalid trace series: the one validation path of traces.

    Every start and percent must be finite and >= 0 (the
    :class:`TracePoint` rule, with the same error type and message), and
    the starts strictly increasing.  The common all-valid case is settled
    by C-level passes over the two lists; only a failing series is walked
    point by point to name the offending value.  Starts returned by
    :func:`_checked_starts` passed this check once and are not re-walked.
    """
    if not starts:
        raise WorkloadError("a trace needs at least one point")
    if len(starts) != len(percents):
        raise WorkloadError(
            f"a trace needs one percent per start, got {len(starts)} starts "
            f"and {len(percents)} percents"
        )
    checked = _CHECKED_STARTS.get(id(starts)) is starts
    if not (
        all(map(math.isfinite, percents))
        and min(percents) >= 0
        and (checked or (all(map(math.isfinite, starts)) and min(starts) >= 0))
    ):
        for start, percent in zip(starts, percents):
            check_non_negative(start, "start")
            check_non_negative(percent, "percent")
    if not checked and not all(map(operator.lt, starts, islice(starts, 1, None))):
        raise WorkloadError(
            f"trace point times must be strictly increasing (no duplicates): {starts}"
        )


#: ``random.TWOPI``: the Box-Muller angle scale.
_TWOPI = 2.0 * math.pi


def _gauss_draws(rng, sigmas: Iterable[float]) -> Iterator[float]:
    """``rng.gauss(0.0, sigma)`` for each of *sigmas*, bit for bit, lazily.

    :meth:`random.Random.gauss` draws Box-Muller normals in pairs and parks
    the second of each pair in ``rng.gauss_next`` for its next call.  This
    generator does the same arithmetic on the same ``rng.random()`` draws
    without a method call per value, and leaves ``gauss_next`` as the
    matching run of ``gauss`` calls would at every value it yields: a
    caller may interleave its own ``rng.random()``/``rng.uniform()`` draws
    (they never touch the spare) or stop early, and *rng* carries on
    exactly as after those ``gauss`` calls.
    """
    random = rng.random
    sigmas = iter(sigmas)
    if rng.gauss_next is not None:
        for sigma in sigmas:
            spare, rng.gauss_next = rng.gauss_next, None
            yield 0.0 + spare * sigma
            break
    cos, log, sin, sqrt = math.cos, math.log, math.sin, math.sqrt
    for sigma in sigmas:
        x2pi = random() * _TWOPI
        g2rad = sqrt(-2.0 * log(1.0 - random()))
        spare = rng.gauss_next = sin(x2pi) * g2rad
        yield 0.0 + cos(x2pi) * g2rad * sigma
        for sigma in sigmas:
            rng.gauss_next = None
            yield 0.0 + spare * sigma
            break


class TraceLoad(Workload):
    """Replays a piecewise-constant demand trace onto a domain.

    The trace is held as parallel sequences (a tuple of starts, a list of
    percents), so :meth:`demand_at` is a binary search rather than a scan
    and large populations (:func:`~repro.cluster.scenario.make_population`)
    can be built from generated series via :meth:`from_series` without
    creating a :class:`TracePoint` per sample.

    Parameters
    ----------
    points:
        The trace, as :class:`TracePoint` entries (sorted internally).
    injection_period:
        Granularity of demand injection.
    repeat:
        Loop the trace when simulated time passes its last point (the trace
        duration is taken as the last point's start time; a zero-demand
        tail point defines the period).
    """

    def __init__(
        self,
        points: Sequence[TracePoint],
        *,
        injection_period: float = 0.05,
        repeat: bool = False,
    ) -> None:
        ordered = sorted(points, key=lambda point: point.start)
        self._init_series(
            tuple(point.start for point in ordered),
            [point.percent for point in ordered],
            injection_period=injection_period,
            repeat=repeat,
        )

    @classmethod
    def from_series(
        cls,
        starts: Iterable[float],
        percents: Iterable[float],
        *,
        injection_period: float = 0.05,
        repeat: bool = False,
    ) -> "TraceLoad":
        """A trace from parallel start/percent series (starts increasing).

        Equivalent to ``TraceLoad([TracePoint(s, p) for s, p in ...])`` on
        valid input and checked by the same validation, but unlike the
        points form the starts are not sorted: out-of-order starts are
        rejected like duplicate ones.  A tuple of starts is kept as is, so
        traces replaying one grid (a day-shape population) share it, and a
        grid validated once (:func:`_checked_starts`) is not re-checked.
        """
        trace = cls.__new__(cls)
        trace._init_series(
            tuple(starts),
            list(percents),
            injection_period=injection_period,
            repeat=repeat,
        )
        return trace

    def _init_series(
        self,
        starts: tuple[float, ...],
        percents: list[float],
        *,
        injection_period: float,
        repeat: bool,
    ) -> None:
        super().__init__()
        _check_series(starts, percents)
        self._starts = starts
        self._percents = percents
        self._duration = starts[-1]
        self.injection_period = check_positive(injection_period, "injection_period")
        self.repeat = repeat
        self._timer: PeriodicTimer | None = None
        self._add_work = None
        self.injected_work = 0.0

    @property
    def points(self) -> tuple[TracePoint, ...]:
        """The trace, sorted by time."""
        return tuple(map(TracePoint, self._starts, self._percents))

    @property
    def duration(self) -> float:
        """Trace length (start of the final point)."""
        return self._duration

    def demand_at(self, time: float) -> float:
        """Demand in percent at *time* (with wrap-around when repeating).

        The percent of the last point whose start is <= *time* (after the
        modulo wrap when ``repeat`` is set), or 0.0 before the first point
        — one ``bisect`` over the sorted starts, O(log points).
        """
        if self.repeat and self._duration > 0:
            time = time % self._duration
        index = bisect_right(self._starts, time)
        return self._percents[index - 1] if index else 0.0

    def start(self) -> None:
        # Bound once: every injection period adds work.
        self._add_work = self.domain.add_work
        self._timer = PeriodicTimer(
            self.engine,
            self.injection_period,
            self._inject,
            label=f"trace.{self.domain.name}",
            fire_immediately=True,
        )
        self._timer.start()

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    def _inject(self, now: float) -> None:
        demand = self.demand_at(now)
        if demand <= 0.0:
            return
        work = demand / 100.0 * self.injection_period
        self.injected_work += work
        self._add_work(work)


class SyntheticTrace:
    """Generator of diurnal utilisation traces.

    Produces a day-long (scaled) pattern: a base load, a sinusoidal
    day/night swing, seeded Gaussian noise, plus optional short bursts —
    the classic shape of the hosting-center traces the paper's motivation
    describes.

    Parameters
    ----------
    base_percent / swing_percent:
        Mean demand and day/night amplitude (demand stays clamped >= 0).
    noise_percent:
        Standard deviation of the per-sample Gaussian noise.
    burst_percent / bursts:
        Height and count of evenly spread short bursts (0 = none).
    day_length:
        Simulated seconds per "day".
    step:
        Trace resolution in seconds.
    """

    def __init__(
        self,
        *,
        base_percent: float = 25.0,
        swing_percent: float = 15.0,
        noise_percent: float = 3.0,
        burst_percent: float = 30.0,
        bursts: int = 2,
        day_length: float = 400.0,
        step: float = 5.0,
    ) -> None:
        self.base_percent = check_non_negative(base_percent, "base_percent")
        self.swing_percent = check_non_negative(swing_percent, "swing_percent")
        self.noise_percent = check_non_negative(noise_percent, "noise_percent")
        self.burst_percent = check_non_negative(burst_percent, "burst_percent")
        if bursts < 0:
            raise WorkloadError(f"bursts must be >= 0, got {bursts}")
        self.bursts = bursts
        self.day_length = check_positive(day_length, "day_length")
        self.step = check_positive(step, "step")

    def series(self, rng) -> tuple[list[float], list[float]]:
        """One day as ``(starts, percents)`` lists, drawing from *rng*.

        The draw order is that of :meth:`generate`, so both forms of the
        same seed describe the same day; :meth:`TraceLoad.from_series`
        replays the lists without building a :class:`TracePoint` each.
        """
        steps = int(self.day_length / self.step)
        burst_slots = set()
        if self.bursts:
            for index in range(self.bursts):
                centre = int((index + 0.5) * steps / self.bursts)
                burst_slots.update({centre - 1, centre, centre + 1})
        starts: list[float] = []
        percents: list[float] = []
        noise = _gauss_draws(rng, repeat(self.noise_percent, steps))
        for index, epsilon in zip(range(steps), noise):
            t = index * self.step
            phase = 2.0 * math.pi * t / self.day_length
            demand = self.base_percent - self.swing_percent * math.cos(phase)
            demand += epsilon
            if index in burst_slots:
                demand += self.burst_percent
            starts.append(t)
            percents.append(max(0.0, min(100.0, demand)))
        starts.append(self.day_length)
        percents.append(0.0)
        return starts, percents

    def generate(self, rng) -> list[TracePoint]:
        """Build one day of trace points using *rng* (a random.Random)."""
        return list(map(TracePoint, *self.series(rng)))
