"""pi-app: the paper's execution-time workload (§5.1).

"When we aim at measuring an execution time, we use an application which
computes an approximation of pi."  Here that is a fixed amount of work in
absolute seconds, queued at a start time; the execution time is measured
from the start until the vCPU drains the queue.

Used by the Fig. 1 compensation experiment, the Eq. 2/3 validation sweeps
and the Table 2 platform comparison.
"""

from __future__ import annotations

from ..errors import WorkloadError
from ..units import check_non_negative, check_positive
from .base import Workload


class PiApp(Workload):
    """A batch job of *work* absolute seconds, started at *start_at*.

    Attributes
    ----------
    started_at:
        Simulated time the work was queued (None before start).
    finished_at:
        Simulated time the queue drained (None while running).
    injected_work:
        Absolute work-seconds queued so far: 0.0 before the start, *work*
        after it (the work-conservation counter ``ConstantLoad`` and
        ``TraceLoad`` keep too).
    """

    def __init__(self, work: float, *, start_at: float = 0.0) -> None:
        super().__init__()
        self.work = check_positive(work, "work")
        self.start_at = check_non_negative(start_at, "start_at")
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.injected_work = 0.0

    def bind(self, domain) -> None:
        super().bind(domain)
        domain.on_idle(self._on_idle)

    def start(self) -> None:
        delay = self.start_at - self.engine.now
        if delay < 0:
            raise WorkloadError(
                f"pi-app start_at={self.start_at} is in the past (now={self.engine.now})"
            )
        self.engine.schedule(delay, self._begin, label=f"pi-app.{self.domain.name}.begin")

    def _begin(self) -> None:
        self.started_at = self.engine.now
        self.injected_work = self.work
        self.domain.add_work(self.work)

    def _on_idle(self, now: float) -> None:
        if self.started_at is not None and self.finished_at is None:
            self.finished_at = now

    # -------------------------------------------------------------- results

    @property
    def done(self) -> bool:
        """True once the full work amount completed."""
        return self.finished_at is not None

    @property
    def execution_time(self) -> float:
        """Wall-clock seconds from start to completion.

        Raises until the job has finished — benchmarks must run the host
        long enough (a job at credit c and frequency ratio r needs about
        ``work / (c/100 * r)`` seconds).
        """
        if self.started_at is None or self.finished_at is None:
            raise WorkloadError(
                f"pi-app on {self.domain.name!r} has not finished "
                f"(started={self.started_at}, finished={self.finished_at})"
            )
        return self.finished_at - self.started_at
