"""The discrete-event engine.

The engine owns simulated time.  Components schedule callbacks at absolute or
relative times; :meth:`Engine.run_until` pops them in ``(time, sequence)``
order so that same-time events fire first-scheduled-first — this FIFO
tie-break is what makes whole-system runs bit-reproducible.

The engine deliberately has no notion of processes or coroutines: the
hypervisor, governors and workloads are all callback-driven, which keeps the
hot loop small and the control flow explicit.  The heap holds
``(time, sequence, handle)`` tuples rather than handle objects, so event
ordering is a C-level tuple comparison (``sequence`` is unique, so the
handle itself is never compared), and the :meth:`run_until` loop pops and
dispatches without any per-event Python-level indirection beyond the
callback itself — at 10^5-10^6 events per simulated scenario this loop is
the floor under every sweep's wall time.  Periodic timers fire most of
those events, so the untraced loop re-arms a timer's handle itself and
calls the timer's callback directly, one call frame per fire cheaper.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator

from ..errors import SimulationError
from ..obs import hooks as _obs
from .events import EventHandle

_INF = float("inf")


class Engine:
    """A deterministic discrete-event loop.

    Example
    -------
    >>> engine = Engine()
    >>> fired = []
    >>> _ = engine.schedule(1.5, lambda: fired.append(engine.now))
    >>> engine.run_until(2.0)
    >>> fired
    [1.5]
    """

    __slots__ = (
        "_now",
        "_sequence",
        "_heap",
        "_events_fired",
        "_running",
        "_free",
        "_heap_peak",
        "_free_reuse",
    )

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = 0
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._events_fired = 0
        self._running = False
        self._free: list[EventHandle] = []
        self._heap_peak = 0
        self._free_reuse = 0

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""
        return self._events_fired

    @property
    def pending_count(self) -> int:
        """Number of not-yet-fired, not-cancelled events in the heap."""
        return sum(1 for _, _, handle in self._heap if not handle._cancelled)

    @property
    def heap_peak(self) -> int:
        """High-water mark of the event heap (tombstones included).

        Maintained at schedule time only, so it is free on the pop side;
        a periodic timer's re-arm (in :meth:`run_until` or
        :meth:`~repro.sim.timers.PeriodicTimer._fire`) is pop-then-push
        neutral and cannot move the peak.
        """
        return self._heap_peak

    @property
    def free_list_reuse(self) -> int:
        """Schedules served by re-stamping a pooled handle (vs allocating)."""
        return self._free_reuse

    # ------------------------------------------------------------ scheduling

    def schedule(self, delay: float, callback: Callable[[], None], *, label: str = "") -> EventHandle:
        """Schedule *callback* to fire *delay* seconds from now.

        A zero delay is allowed and fires before the engine advances time,
        after all events already queued for the current instant.  A
        negative, NaN or infinite delay raises :class:`SimulationError`.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"cannot schedule {label or callback!r} after a delay of {delay!r}s: "
                "delays are finite and >= 0"
            )
        time = self._now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        free = self._free
        if free:
            handle = free.pop()
            handle.time = time
            handle.sequence = sequence
            handle.callback = callback
            handle.label = label
            self._free_reuse += 1
        else:
            handle = EventHandle(time, sequence, callback, label)
        heap = self._heap
        heapq.heappush(heap, (time, sequence, handle))
        if len(heap) > self._heap_peak:
            self._heap_peak = len(heap)
        return handle

    def schedule_at(self, time: float, callback: Callable[[], None], *, label: str = "") -> EventHandle:
        """Schedule *callback* at absolute simulated *time*.

        *time* must be finite and not before :attr:`now`.
        """
        if not self._now <= time < _INF:
            raise SimulationError(
                f"cannot schedule {label or callback!r} at t={time!r}, now is t={self._now:.9f}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        free = self._free
        if free:
            handle = free.pop()
            handle.time = time
            handle.sequence = sequence
            handle.callback = callback
            handle.label = label
            self._free_reuse += 1
        else:
            handle = EventHandle(time, sequence, callback, label)
        heap = self._heap
        heapq.heappush(heap, (time, sequence, handle))
        if len(heap) > self._heap_peak:
            self._heap_peak = len(heap)
        return handle

    def release(self, handle: EventHandle) -> None:
        """Return a fired handle to the allocation free list.

        Caller contract: the engine has already fired the handle
        (``callback is None`` — which also proves it is out of the heap) and
        the caller holds the *only* remaining reference.  Owners of
        short-lived, high-frequency events (the host's per-slice end events)
        release them so the next ``schedule`` re-stamps the same object
        instead of allocating — the same trick a periodic timer's re-arm
        plays with its own handle, generalised through a pool.  Handles
        still pending in the heap must never be released: re-stamping one
        would leave a stale heap entry firing the new callback at the old
        time.  A timer's handle is never fired in this sense (its callback
        is restored before the timer's own callback runs), so the pool only
        ever holds one-shot handles, whose ``timer`` is None.
        """
        if handle.callback is not None:
            raise SimulationError(
                f"cannot release pending event {handle.label!r}: it is still in the heap"
            )
        handle._cancelled = False
        self._free.append(handle)

    # --------------------------------------------------------------- running

    def step(self) -> bool:
        """Fire the single next event.  Returns False when the heap is empty."""
        heap = self._heap
        trace = _obs.TRACER
        while heap:
            _, _, handle = heapq.heappop(heap)
            if handle._cancelled:
                continue
            self._now = handle.time
            callback = handle.callback
            handle.callback = None
            self._events_fired += 1
            if trace is not None:
                trace.engine_event(handle.time, handle.label)
            callback()
            return True
        return False

    def run_until(self, time: float) -> None:
        """Run every event with due time <= *time*, then set now = *time*.

        Events scheduled by fired callbacks are honoured if they fall inside
        the window, so periodic timers chain naturally.  *time* must be
        finite and not before :attr:`now`: a NaN target would never stop a
        periodic timer's chain.

        Without a tracer, a periodic timer's handle is re-armed here rather
        than through :meth:`~repro.sim.timers.PeriodicTimer._fire`: the same
        steps in the same order (re-stamp and re-push the handle with the
        next sequence number, count the fire, then run the callback), so
        the event order, sequence numbers and counters are those of
        :meth:`step` and the traced loop, which keep calling ``_fire``.
        The pop and re-push are one ``heapreplace``; keys are unique, so
        the heap's layout, the only thing that differs, orders nothing.
        """
        if not self._now <= time < _INF:
            raise SimulationError(f"cannot run to t={time!r} from t={self._now:.9f}")
        if self._running:
            raise SimulationError("re-entrant run_until() — the engine is already running")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        replace = heapq.heapreplace
        # Hoisted once per window: with no tracer installed the hot loop
        # pays nothing per event (a tracer installed mid-window starts at
        # the next run_until call — installation is a between-runs act).
        trace = _obs.TRACER
        try:
            if trace is not None:
                while heap:
                    due = heap[0][0]
                    if due > time:
                        break
                    _, _, handle = pop(heap)
                    if handle._cancelled:
                        continue
                    self._now = due
                    callback = handle.callback
                    handle.callback = None
                    self._events_fired += 1
                    trace.engine_event(due, handle.label)
                    callback()
            else:
                while heap:
                    entry = heap[0]
                    due = entry[0]
                    if due > time:
                        break
                    handle = entry[2]
                    if handle._cancelled:
                        pop(heap)
                        continue
                    self._now = due
                    timer = handle.timer
                    if timer is not None:
                        # PeriodicTimer._fire, written out, with the pop
                        # and the re-push as one heapreplace.
                        next_time = due + timer._period
                        sequence = self._sequence
                        self._sequence = sequence + 1
                        handle.time = next_time
                        handle.sequence = sequence
                        replace(heap, (next_time, sequence, handle))
                        self._events_fired += 1
                        timer._fire_count += 1
                        timer._callback(due)
                        continue
                    pop(heap)
                    callback = handle.callback
                    handle.callback = None
                    self._events_fired += 1
                    callback()
            if time > self._now:
                self._now = time
        finally:
            self._running = False

    def run_until_idle(self, *, max_events: int | None = None) -> None:
        """Run until no events remain (or *max_events* have fired)."""
        fired = 0
        while self.step():
            fired += 1
            if max_events is not None and fired >= max_events:
                raise SimulationError(f"run_until_idle exceeded max_events={max_events}")

    # ---------------------------------------------------------- introspection

    def pending_events(self) -> Iterator[EventHandle]:
        """Yield pending events in an unspecified order (debugging aid)."""
        return (handle for _, _, handle in self._heap if not handle._cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Engine(now={self._now:.6f}, pending={self.pending_count}, fired={self._events_fired})"
