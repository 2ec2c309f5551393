"""A clock that reads seconds at a fixed reference core speed.

A core of a shared virtual machine can switch between a fast speed and one
about 1.5x slower, for spans of a tenth of a second to several seconds, so
the plain wall time of identical work spreads by a quarter.  :class:`RefClock`
interrupts the process every :data:`PERIOD_S` (``SIGALRM``) and times a
fixed pure-Python probe in the handler.  The seconds between two marks,
less the probes' own time, are rescaled by how much slower than
:data:`REF_PROBE_S` the probes in between ran::

    ref_s = (wall - probe time) * mean((REF_PROBE_S / probe_s) ** SPEED_EXPONENT)

The timer fires at even wall-clock intervals, so the mean weights each
stretch of the phase by its length.  The result reads as the seconds the
phase would take on a core where the probe takes :data:`REF_PROBE_S`.
Only ratios between runs matter, so the constant only sets the scale.

The workloads slow down a little less than the probe on a slow core;
:data:`SPEED_EXPONENT` says how strongly a phase follows the probe, and
``NOTES.md`` shows how it was fitted.
"""

from __future__ import annotations

import signal
import time
from array import array

#: Seconds between two probes.
PERIOD_S = 0.02
#: Probe iterations; about 0.35 ms on a fast core.
PROBE_LOOPS = 800
#: A round figure near the probe's time on a fast core of the 2.0 GHz Xeon
#: VM the figures in ``NOTES.md`` were taken on.
REF_PROBE_S = 0.0003
#: How strongly the workloads' time follows the probe's.
SPEED_EXPONENT = 0.9


class _Counter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, step: int) -> int:
        self.value += step
        return self.value


def probe() -> int:
    """Fixed interpreter work: method calls, attribute and dict traffic."""
    counter = _Counter()
    table: dict[int, int] = {}
    seen: list[int] = []
    total = 0
    for i in range(PROBE_LOOPS):
        table[i & 63] = counter.bump(i)
        seen.append(table.get(i & 31, 0))
        table[1024 + (i & 1023)] = i
        total += table.get(1024 + (i & 511), 0)
    return total + len(seen)


class RefClock:
    """Probe the core speed in the background and read reference seconds."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.at = array("d")  # perf_counter() at each probe's start
        self.took = array("d")  # each probe's seconds
        self._busy = False
        self._previous = None

    def _probe(self) -> None:
        if self._busy:
            return
        self._busy = True
        began = time.perf_counter()
        probe()
        self.took.append(time.perf_counter() - began)
        self.at.append(began)
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self._probe()

    def start(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        # Restart interrupted system calls rather than fail them.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> int:
        """Probe now; the returned mark bounds a :meth:`ref_seconds` span."""
        self._probe()
        return len(self.at) - 1

    def wall_seconds(self, first: int, last: int) -> float:
        """Plain seconds between marks *first* and *last*, less the probes' own time."""
        return self.at[last] - self.at[first] - sum(self.took[first:last])

    def scale(self, first: int, last: int) -> float:
        """Reference seconds per plain second between marks *first* and *last*."""
        took = self.took[first : last + 1]
        return sum((REF_PROBE_S / seconds) ** SPEED_EXPONENT for seconds in took) / len(took)

    def ref_seconds(self, first: int, last: int) -> float:
        """:meth:`wall_seconds` at the reference core speed."""
        return self.wall_seconds(first, last) * self.scale(first, last)
