"""A constant duty-cycle load: *percent* of max-frequency capacity, forever.

Used for Dom0's housekeeping (§5.3 allocates Dom0 10 % of credit; its actual
consumption is light) and as the simplest demand source in tests.
"""

from __future__ import annotations

from ..sim import PeriodicTimer
from ..units import check_percent, check_positive
from .base import Workload


class ConstantLoad(Workload):
    """Injects ``percent/100 * injection_period`` absolute seconds per period.

    Parameters
    ----------
    percent:
        Demand rate as a percentage of the host's max-frequency capacity.
    injection_period:
        Seconds between demand batches.  Small values give a smooth load;
        50 ms is far below the 1 s monitoring window.
    start_at / stop_at:
        Optional active window (defaults: start immediately, never stop).
    """

    def __init__(
        self,
        percent: float,
        *,
        injection_period: float = 0.05,
        start_at: float = 0.0,
        stop_at: float | None = None,
    ) -> None:
        super().__init__()
        self.percent = check_percent(percent, "percent")
        self.injection_period = check_positive(injection_period, "injection_period")
        self.start_at = start_at
        self.stop_at = stop_at
        self._timer: PeriodicTimer | None = None
        self._work_per_period = self.percent / 100.0 * self.injection_period
        self._add_work = None
        self.injected_work = 0.0

    def start(self) -> None:
        # Bound once: every injection period adds work.
        self._add_work = self.domain.add_work
        self._timer = PeriodicTimer(
            self.engine,
            self.injection_period,
            self._inject,
            label=f"constant-load.{self.domain.name}",
            fire_immediately=True,
        )
        if self.start_at > self.engine.now:
            self.engine.schedule(
                self.start_at - self.engine.now,
                self._timer.start,
                label=f"constant-load.{self.domain.name}.begin",
            )
        else:
            self._timer.start()

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    def _inject(self, now: float) -> None:
        if self.stop_at is not None and now >= self.stop_at:
            self.stop()
            return
        # Same expression every fire; hoisting it would still re-derive the
        # identical float, so compute once and reuse.
        work = self._work_per_period
        self.injected_work += work
        self._add_work(work)
