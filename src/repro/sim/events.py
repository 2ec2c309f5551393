"""Scheduled-event bookkeeping for the simulation engine.

An :class:`EventHandle` is what :meth:`Engine.schedule` returns.  Handles can
be cancelled (O(1) — the heap entry is tombstoned and skipped on pop) and
inspected for their due time, which the hypervisor uses to preempt pending
end-of-slice events when a higher-priority vCPU wakes.

The handle is deliberately *not* the heap entry: the engine's heap holds
``(time, sequence, handle)`` tuples so ordering is resolved by C-level
tuple comparison on ``(time, sequence)`` alone — the hot loop never calls
back into Python to compare two events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .timers import PeriodicTimer


class EventHandle:
    """A pending callback in the engine's event heap.

    Ordering is ``(time, sequence)``: events at the same simulated time fire
    in the order they were scheduled, which keeps runs deterministic.
    """

    __slots__ = ("time", "sequence", "callback", "label", "_cancelled", "timer")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[[], None],
        label: str = "",
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        #: Human-readable tag; also the event's name in ``engine``-category
        #: trace output (:class:`repro.obs.trace.Tracer`), so stable labels
        #: like ``"slice.web1"`` group meaningfully in Perfetto.
        self.label = label
        self._cancelled = False
        #: The :class:`~repro.sim.timers.PeriodicTimer` this handle re-arms
        #: for (the engine re-arms it in place), or None for a one-shot event.
        self.timer: "PeriodicTimer | None" = None

    def cancel(self) -> None:
        """Tombstone this event; the engine will skip it when popped."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """True when :meth:`cancel` has been called."""
        return self._cancelled

    @property
    def pending(self) -> bool:
        """True while the event is neither cancelled nor fired.

        Firing is represented by ``callback`` being cleared to None (the
        engine does this inline when it dispatches the event).  A periodic
        timer's handle is re-armed as it fires, so it stays pending until
        the timer is stopped.
        """
        return not self._cancelled and self.callback is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        return f"EventHandle(t={self.time:.6f}, seq={self.sequence}, {self.label!r}, {state})"
