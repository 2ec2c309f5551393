"""Request-latency accounting for queued workloads.

The paper's introduction frames everything as QoS ("companies subscribe for
a quality of service and expect providers to fully meet it"), but the
evaluation reports loads and execution times.  This module adds the missing
QoS dimension: a FIFO latency tracker that converts a workload's drained
work back into per-request response times, so experiments can report what a
frequency-starved credit cap *feels like* to the customer's clients.

Model: requests enter a FIFO as (arrival time, work) chunks; the tracker is
periodically told how much work the vCPU completed and walks the FIFO,
recording ``completion - arrival`` for every fully drained chunk, weighted
by the chunk's request count.  Resolution is the polling period (50 ms by
default via the Web-app's injection timer) — far finer than the multi-second
latencies the experiments exhibit under starvation.

Recording a sample is an append; the samples are sorted only when a
percentile is asked for (once, at the end of a run), not kept sorted on the
per-poll path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import WorkloadError
from ..units import check_non_negative

#: Work below this is treated as fully drained (float fuzz guard).
_WORK_EPSILON = 1e-12


@dataclass(slots=True)
class _Chunk:
    """A batch of requests that arrived together."""

    arrival: float
    remaining_work: float
    requests: float


class LatencyTracker:
    """FIFO response-time accounting over fluid request batches.

    Samples are appended in completion order and sorted by
    :meth:`percentile` on its first call after new ones arrived.  Sorting
    ``(latency, weight)`` pairs stably gives the list that inserting each
    pair in order at its ``bisect_right`` point would: equal pairs keep
    their completion order either way, so percentile sums run in the same
    order and return the same bits.
    """

    __slots__ = (
        "_fifo",
        "_samples",
        "_sorted",
        "_total_weight",
        "_weighted_sum",
        "_max_latency",
    )

    def __init__(self) -> None:
        self._fifo: deque[_Chunk] = deque()
        #: ``(latency, weight)`` samples, sorted by latency then weight
        #: whenever :attr:`_sorted` is set; new samples are appended at the
        #: end and clear it.  Ties order by weight, which cannot change any
        #: query (tied entries share the latency value that queries return).
        self._samples: list[tuple[float, float]] = []
        self._sorted = True
        self._total_weight = 0.0
        self._weighted_sum = 0.0
        self._max_latency = 0.0

    # -------------------------------------------------------------- ingest

    def on_arrival(self, now: float, work: float, requests: float) -> None:
        """Record a batch of *requests* arriving at *now* costing *work*."""
        if work <= 0.0 or requests <= 0.0:
            check_non_negative(work, "work")
            check_non_negative(requests, "requests")
            return
        self._fifo.append(_Chunk(now, work, requests))

    def on_progress(self, now: float, work_done: float) -> None:
        """Drain *work_done* absolute seconds from the FIFO head.

        Chunks that fully drain record a response-time sample at *now*:
        ``now - arrival`` clamped at zero, weighted by the chunk's requests.
        """
        if work_done < 0.0:
            check_non_negative(work_done, "work_done")
        budget = work_done
        fifo = self._fifo
        while budget > _WORK_EPSILON and fifo:
            head = fifo[0]
            if head.remaining_work <= budget + _WORK_EPSILON:
                budget -= head.remaining_work
                fifo.popleft()
                # Record the sample (written out: one call per drained
                # chunk on the web app's poll path).  The clamp and the
                # maximum keep ``max()``'s results, -0.0 included.
                latency = now - head.arrival
                if latency < 0.0:
                    latency = 0.0
                weight = head.requests
                self._samples.append((latency, weight))
                self._sorted = False
                self._total_weight += weight
                self._weighted_sum += latency * weight
                if latency > self._max_latency:
                    self._max_latency = latency
            else:
                head.remaining_work -= budget
                budget = 0.0

    # ------------------------------------------------------------- queries

    @property
    def completed_requests(self) -> float:
        """Requests with a recorded response time."""
        return self._total_weight

    @property
    def queued_requests(self) -> float:
        """Requests still (partially) in the FIFO."""
        return sum(chunk.requests for chunk in self._fifo)

    @property
    def mean_response_time(self) -> float:
        """Weighted mean response time in seconds."""
        if self._total_weight == 0.0:
            raise WorkloadError("no completed requests to summarise")
        return self._weighted_sum / self._total_weight

    @property
    def max_response_time(self) -> float:
        """Largest recorded response time."""
        if self._total_weight == 0.0:
            raise WorkloadError("no completed requests to summarise")
        return self._max_latency

    def percentile(self, p_percent: float) -> float:
        """Weighted percentile (``p_percent`` in [0, 100]) of response times."""
        if not 0.0 <= p_percent <= 100.0:
            raise WorkloadError(
                f"percentile must be within [0, 100], got {p_percent}"
            )
        if self._total_weight == 0.0:
            raise WorkloadError("no completed requests to summarise")
        samples = self._samples
        if not self._sorted:
            samples.sort()
            self._sorted = True
        target = self._total_weight * p_percent / 100.0
        cumulative = 0.0
        for latency, weight in samples:
            cumulative += weight
            if cumulative >= target:
                return latency
        return samples[-1][0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencyTracker(completed={self._total_weight:.0f}, "
            f"queued={self.queued_requests:.0f})"
        )
