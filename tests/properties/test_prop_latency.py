"""Property-based tests for the latency tracker."""

import bisect
from collections import deque

import pytest

from hypothesis import given, settings, strategies as st

from repro.workloads import LatencyTracker

events = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),  # inter-arrival gap
        st.floats(min_value=0.001, max_value=5.0, allow_nan=False),  # work
        st.floats(min_value=0.1, max_value=100.0, allow_nan=False),  # requests
    ),
    min_size=1,
    max_size=30,
)


@given(batches=events, drain_steps=st.integers(min_value=1, max_value=20))
@settings(max_examples=50, deadline=None)
def test_conservation_of_requests(batches, drain_steps):
    tracker = LatencyTracker()
    now = 0.0
    total_requests = 0.0
    total_work = 0.0
    for gap, work, requests in batches:
        now += gap
        tracker.on_arrival(now, work, requests)
        total_requests += requests
        total_work += work
    # Drain in uneven slices; completed + queued must always equal sent.
    for _ in range(drain_steps):
        now += 1.0
        tracker.on_progress(now, total_work / drain_steps)
        assert tracker.completed_requests + tracker.queued_requests == (
            pytest.approx(total_requests, rel=1e-6)
        )
    tracker.on_progress(now + 1.0, total_work)  # over-drain is safe
    assert tracker.completed_requests == pytest.approx(total_requests, rel=1e-6)
    assert tracker.queued_requests == pytest.approx(0.0, abs=1e-6)


@given(batches=events)
@settings(max_examples=50, deadline=None)
def test_latencies_nonnegative_and_ordered_percentiles(batches):
    tracker = LatencyTracker()
    now = 0.0
    total_work = 0.0
    for gap, work, requests in batches:
        now += gap
        tracker.on_arrival(now, work, requests)
        total_work += work
    tracker.on_progress(now + 5.0, total_work)
    p50 = tracker.percentile(50)
    p90 = tracker.percentile(90)
    p100 = tracker.percentile(100)
    assert 0.0 <= p50 <= p90 <= p100
    assert p100 == tracker.max_response_time
    # 1e-9 slack: the weighted running sum accumulates float rounding.
    assert 0.0 <= tracker.mean_response_time <= p100 + 1e-9


class _ReferenceTracker:
    """A latency-only model: record in completion order, sort at query time.

    The production tracker sorts ``(latency, weight)`` pairs, so ties order
    by weight; this reference sorts (stably) by latency alone.  Every
    exported number must agree between the two, which pins down that the
    tie order changes neither completion ordering nor percentile/mean/max
    outputs.
    """

    def __init__(self):
        self.samples = []  # (latency, weight), completion order

    def record(self, latency, weight):
        self.samples.append((max(latency, 0.0), weight))

    def percentile(self, p):
        ordered = sorted(self.samples, key=lambda sample: sample[0])
        total = sum(weight for _, weight in ordered)
        target = total * p / 100.0
        cumulative = 0.0
        for latency, weight in ordered:
            cumulative += weight
            if cumulative >= target:
                return latency
        return ordered[-1][0]

    @property
    def mean(self):
        total = sum(weight for _, weight in self.samples)
        return sum(latency * weight for latency, weight in self.samples) / total

    @property
    def max(self):
        return max(latency for latency, _ in self.samples)


@given(
    batches=events,
    drain_steps=st.integers(min_value=1, max_value=10),
    percentiles=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=5,
    ),
)
@settings(max_examples=50, deadline=None)
def test_insort_rewrite_preserves_ordering_and_percentiles(
    batches, drain_steps, percentiles
):
    tracker = LatencyTracker()
    reference = _ReferenceTracker()
    now = 0.0
    fifo = []  # (arrival, remaining_work, requests) — reference FIFO
    total_work = 0.0
    for gap, work, requests in batches:
        now += gap
        tracker.on_arrival(now, work, requests)
        fifo.append([now, work, requests])
        total_work += work
    # Drain in uneven slices, mirroring the drain against the reference
    # FIFO so the reference records samples in true completion order.
    for _ in range(drain_steps):
        now += 1.0
        budget = total_work / drain_steps
        tracker.on_progress(now, budget)
        while budget > 1e-12 and fifo:
            head = fifo[0]
            if head[1] <= budget + 1e-12:
                budget -= head[1]
                fifo.pop(0)
                reference.record(now - head[0], head[2])
            else:
                head[1] -= budget
                budget = 0.0
    tracker.on_progress(now + 1.0, total_work)  # flush any float residue
    while fifo:
        head = fifo.pop(0)
        reference.record(now + 1.0 - head[0], head[2])
    assert tracker.completed_requests == pytest.approx(
        sum(weight for _, weight in reference.samples)
    )
    for p in percentiles:
        assert tracker.percentile(p) == pytest.approx(reference.percentile(p))
    assert tracker.mean_response_time == pytest.approx(reference.mean)
    assert tracker.max_response_time == pytest.approx(reference.max)


@given(batches=events)
@settings(max_examples=30, deadline=None)
def test_fifo_completion_latencies_reflect_arrival_order(batches):
    tracker = LatencyTracker()
    now = 0.0
    arrivals = []
    for gap, work, requests in batches:
        now += gap
        tracker.on_arrival(now, work, requests)
        arrivals.append((now, work))
    completion = now + 100.0
    tracker.on_progress(completion, sum(work for _, work in arrivals))
    # All drained at one instant: the earliest arrival has the largest
    # latency, so max latency == completion - first arrival.
    expected_max = completion - arrivals[0][0]
    assert tracker.max_response_time == pytest.approx(expected_max)


class _InsortTracker:
    """The tracker as it was: every sample inserted in sorted place.

    ``bisect.insort`` of ``(latency, weight)`` at record time, the same
    FIFO walk, clamp and running sums.  The production tracker appends and
    sorts at query time instead; the two must agree bit for bit.
    """

    def __init__(self):
        self.fifo = deque()
        self.samples = []
        self.total_weight = 0.0
        self.weighted_sum = 0.0
        self.max_latency = 0.0

    def on_arrival(self, now, work, requests):
        if work <= 0.0 or requests <= 0.0:
            return
        self.fifo.append([now, work, requests])

    def on_progress(self, now, work_done):
        budget = work_done
        while budget > 1e-12 and self.fifo:
            head = self.fifo[0]
            if head[1] <= budget + 1e-12:
                budget -= head[1]
                self.fifo.popleft()
                self.record(now - head[0], head[2])
            else:
                head[1] -= budget
                budget = 0.0

    def record(self, latency, weight):
        latency = max(latency, 0.0)
        bisect.insort(self.samples, (latency, weight))
        self.total_weight += weight
        self.weighted_sum += latency * weight
        self.max_latency = max(self.max_latency, latency)

    def percentile(self, p):
        target = self.total_weight * p / 100.0
        cumulative = 0.0
        for latency, weight in self.samples:
            cumulative += weight
            if cumulative >= target:
                return latency
        return self.samples[-1][0]


#: Time steps on a coarse grid (so arrivals share instants and drained
#: chunks tie on latency) including steps back in time, which make a
#: completion precede its arrival and so exercise the clamp at zero.
_STEPS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5, -0.5, -3.0]) | st.floats(-1.0, 5.0)
#: Request weights: a few repeated values so tied latencies meet both
#: equal and different weights.
_WEIGHTS = st.sampled_from([1.0, 2.0, 3.0, 0.5]) | st.floats(0.01, 50.0)
_WORK = st.sampled_from([0.1, 0.25, 1.0]) | st.floats(1e-6, 5.0)
_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("arrive"), _STEPS, _WORK, _WEIGHTS),
        st.tuples(st.just("progress"), _STEPS, _WORK | st.just(0.0)),
        st.tuples(st.just("query")),
    ),
    min_size=1,
    max_size=60,
)
_QUANTILES = (0.0, 50.0, 95.0, 99.0, 100.0)


def _summary(tracker):
    """Every query result, as exact bits (None while nothing completed)."""
    if tracker.completed_requests == 0.0:
        return None
    return (
        tracker.completed_requests.hex(),
        tracker.mean_response_time.hex(),
        tracker.max_response_time.hex(),
        tuple(tracker.percentile(p).hex() for p in _QUANTILES),
    )


def _reference_summary(reference):
    if reference.total_weight == 0.0:
        return None
    return (
        reference.total_weight.hex(),
        (reference.weighted_sum / reference.total_weight).hex(),
        reference.max_latency.hex(),
        tuple(reference.percentile(p).hex() for p in _QUANTILES),
    )


@given(operations=_OPERATIONS)
@settings(max_examples=300, deadline=None)
def test_sort_at_query_matches_insort_bit_for_bit(operations):
    tracker = LatencyTracker()
    reference = _InsortTracker()
    now = 0.0
    for operation in operations:
        if operation[0] == "query":
            # Sort, then keep recording: the next query sorts again.
            assert _summary(tracker) == _reference_summary(reference)
            continue
        now += operation[1]
        if operation[0] == "arrive":
            tracker.on_arrival(now, operation[2], operation[3])
            reference.on_arrival(now, operation[2], operation[3])
        else:
            tracker.on_progress(now, operation[2])
            reference.on_progress(now, operation[2])
    assert _summary(tracker) == _reference_summary(reference)
    assert tracker.queued_requests == sum(head[2] for head in reference.fifo)
    # The sorted sample list itself, -0.0 and tie order included.
    if tracker.completed_requests:
        tracker.percentile(50.0)  # sorts what arrived since the last query
    assert [(l.hex(), w.hex()) for l, w in tracker._samples] == [
        (l.hex(), w.hex()) for l, w in reference.samples
    ]


def test_tied_latencies_and_clamped_samples_match_insort():
    # Hand-built: three chunks drained at one instant tie on latency with
    # weights 3, 1, 2; one completion precedes its arrival (clamped to 0).
    tracker = LatencyTracker()
    reference = _InsortTracker()
    for target in (tracker, reference):
        target.on_arrival(1.0, 0.5, 3.0)
        target.on_arrival(1.0, 0.5, 1.0)
        target.on_arrival(1.0, 0.5, 2.0)
        target.on_progress(2.0, 1.5)
        target.on_arrival(5.0, 0.5, 4.0)
        target.on_progress(4.0, 0.5)
    assert _summary(tracker) == _reference_summary(reference)
    assert tracker._samples == [(0.0, 4.0), (1.0, 1.0), (1.0, 2.0), (1.0, 3.0)]
    assert tracker.percentile(0.0) == 0.0 and tracker.percentile(100.0) == 1.0
