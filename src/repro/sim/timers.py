"""Periodic timers on top of the event engine.

Governors sample every 100 ms or 1 s, the credit scheduler accounts every
30 ms and ticks every 10 ms, load monitors sample every second — all of these
are :class:`PeriodicTimer` instances.  The timer re-arms itself *before*
invoking the callback so a callback that stops the timer does not leave a
stray event behind (the pending handle is cancelled on stop).

A timer keeps one event handle, which carries the timer
(``EventHandle.timer``), and re-stamps it at each fire.  The engine's
untraced ``run_until`` loop writes that re-arm out and calls the timer's
callback directly; :meth:`PeriodicTimer._fire` is the canonical copy, run
by ``Engine.step`` and the traced loop.  Change both together.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable

from ..errors import SimulationError
from ..units import check_positive
from .engine import Engine
from .events import EventHandle


class PeriodicTimer:
    """Fires ``callback(now)`` every *period* seconds until stopped.

    The first firing happens at ``start_time + period`` unless
    ``fire_immediately`` is set, in which case it also fires at start time.
    """

    __slots__ = (
        "_engine",
        "_period",
        "_callback",
        "_label",
        "_fire_immediately",
        "_handle",
        "_fire_count",
        "_started",
        "_rearm",
    )

    def __init__(
        self,
        engine: Engine,
        period: float,
        callback: Callable[[float], None],
        *,
        label: str = "timer",
        fire_immediately: bool = False,
    ) -> None:
        self._engine = engine
        self._period = check_positive(period, "period")
        self._callback = callback
        self._label = label
        self._fire_immediately = fire_immediately
        self._handle: EventHandle | None = None
        self._fire_count = 0
        self._started = False
        #: ``self._fire`` bound once: every re-arm stores it in the handle.
        self._rearm = self._fire

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Arm the timer.  Starting twice is an error."""
        if self._started:
            raise SimulationError(f"timer {self._label!r} started twice")
        self._started = True
        delay = 0.0 if self._fire_immediately else self._period
        handle = self._engine.schedule(delay, self._rearm, label=self._label)
        handle.timer = self
        self._handle = handle

    def stop(self) -> None:
        """Disarm the timer.  Safe to call when already stopped."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self._started = False

    @property
    def running(self) -> bool:
        """True while the timer is armed."""
        return self._started

    @property
    def period(self) -> float:
        """Current period in seconds."""
        return self._period

    @property
    def fire_count(self) -> int:
        """Number of times the callback has fired."""
        return self._fire_count

    def reschedule(self, period: float) -> None:
        """Change the period; takes effect from the next firing."""
        self._period = check_positive(period, "period")

    # ------------------------------------------------------------ internals

    def _fire(self) -> None:
        # Re-arm first: the callback may call stop(), which must cancel the
        # re-armed handle, not an already-fired one.  The re-arm is an
        # inlined Engine.schedule on the handle the engine just popped: stop()
        # cancels ``self._handle``, so an uncancelled timer handle that pops
        # is always the current one.  The period is validated positive once
        # at construction, so the per-fire delay check is pure overhead.
        engine = self._engine
        now = engine._now
        time = now + self._period
        sequence = engine._sequence
        engine._sequence = sequence + 1
        handle = self._handle
        handle.time = time
        handle.sequence = sequence
        handle.callback = self._rearm
        heappush(engine._heap, (time, sequence, handle))
        self._fire_count += 1
        self._callback(now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self._started else "stopped"
        return f"PeriodicTimer({self._label!r}, period={self._period}, {state}, fired={self._fire_count})"
