"""Unit tests for trace-driven workloads."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, WorkloadError
from repro.workloads import SyntheticTrace, TraceLoad, TracePoint

from ..conftest import make_host


def test_replays_piecewise_demand():
    host = make_host()
    vm = host.create_domain("vm", credit=0)
    trace = TraceLoad(
        [TracePoint(0.0, 40.0), TracePoint(5.0, 10.0), TracePoint(10.0, 0.0)],
        injection_period=0.02,
    )
    vm.attach_workload(trace)
    host.run(until=15.0)
    # 5s at 40% + 5s at 10% = 2.5 abs-seconds.
    assert vm.work_done == pytest.approx(2.5, abs=0.05)


def test_demand_at_lookup():
    trace = TraceLoad([TracePoint(0.0, 40.0), TracePoint(5.0, 10.0)])
    assert trace.demand_at(0.0) == 40.0
    assert trace.demand_at(4.9) == 40.0
    assert trace.demand_at(5.0) == 10.0


def test_repeat_wraps_around():
    trace = TraceLoad(
        [TracePoint(0.0, 40.0), TracePoint(5.0, 10.0), TracePoint(10.0, 0.0)],
        repeat=True,
    )
    assert trace.demand_at(12.0) == 40.0  # 12 % 10 = 2 -> first segment
    assert trace.demand_at(16.0) == 10.0


def test_empty_trace_rejected():
    with pytest.raises(WorkloadError):
        TraceLoad([])


def test_duplicate_times_rejected():
    with pytest.raises(WorkloadError):
        TraceLoad([TracePoint(0.0, 1.0), TracePoint(0.0, 2.0)])


def test_stop_halts_injection():
    host = make_host()
    vm = host.create_domain("vm", credit=0)
    trace = TraceLoad([TracePoint(0.0, 50.0)])
    vm.attach_workload(trace)
    host.run(until=2.0)
    trace.stop()
    done = vm.work_done
    host.run(until=5.0)
    assert vm.work_done == pytest.approx(done, abs=0.05)


def test_synthetic_trace_shape():
    generator = SyntheticTrace(
        base_percent=25.0, swing_percent=15.0, noise_percent=0.0, bursts=0
    )
    points = generator.generate(random.Random(1))
    demands = [p.percent for p in points[:-1]]
    # Trough at t=0 (cos phase), peak mid-day.
    assert demands[0] == pytest.approx(10.0, abs=0.5)
    assert max(demands) == pytest.approx(40.0, abs=0.5)
    assert points[-1].percent == 0.0


def test_synthetic_trace_bursts_visible():
    quiet = SyntheticTrace(noise_percent=0.0, bursts=0).generate(random.Random(1))
    bursty = SyntheticTrace(noise_percent=0.0, bursts=2, burst_percent=30.0).generate(
        random.Random(1)
    )
    # Bursts land mid-half-day (on the diurnal shoulder, demand ~25%), so
    # the bursty peak is shoulder + burst = ~55 vs the quiet peak of ~40.
    assert max(p.percent for p in bursty) > max(p.percent for p in quiet) + 10.0


def test_synthetic_trace_reproducible():
    a = SyntheticTrace().generate(random.Random(7))
    b = SyntheticTrace().generate(random.Random(7))
    assert a == b


def test_synthetic_trace_clamped_to_valid_range():
    points = SyntheticTrace(
        base_percent=95.0, swing_percent=20.0, noise_percent=10.0, bursts=3
    ).generate(random.Random(3))
    assert all(0.0 <= p.percent <= 100.0 for p in points)


def test_synthetic_drives_trace_load_end_to_end():
    host = make_host(seed=11)
    vm = host.create_domain("vm", credit=0)
    points = SyntheticTrace(day_length=50.0, step=1.0).generate(
        host.rng.stream("trace")
    )
    vm.attach_workload(TraceLoad(points))
    host.run(until=50.0)
    mean_load = host.recorder.series("vm.global_load").window(5, 50).mean()
    assert 10.0 <= mean_load <= 50.0


def reference_demand_at(points, time, *, repeat):
    """The linear scan the bisect lookup replaced, kept as the oracle."""
    ordered = sorted(points, key=lambda point: point.start)
    duration = ordered[-1].start
    if repeat and duration > 0:
        time = time % duration
    demand = 0.0
    for point in ordered:
        if time >= point.start:
            demand = point.percent
        else:
            break
    return demand


@st.composite
def traces_and_times(draw):
    """A random trace plus query times at starts, in gaps, before and after."""
    starts = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    percents = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=len(starts),
            max_size=len(starts),
        )
    )
    points = [TracePoint(start, percent) for start, percent in zip(starts, percents)]
    ordered = sorted(starts)
    gaps = [(a + b) / 2.0 for a, b in zip(ordered, ordered[1:])]
    edges = [ordered[0] - 1.0, ordered[-1] + 0.5, ordered[-1] * 3.0 + 7.25]
    extra = draw(
        st.lists(
            st.floats(min_value=-50.0, max_value=5000.0, allow_nan=False),
            max_size=5,
        )
    )
    return points, ordered + gaps + edges + extra


@settings(max_examples=200, deadline=None)
@given(case=traces_and_times(), repeat=st.booleans())
def test_bisect_lookup_matches_linear_scan(case, repeat):
    points, times = case
    trace = TraceLoad(points, repeat=repeat)
    for time in times:
        assert trace.demand_at(time) == reference_demand_at(
            points, time, repeat=repeat
        )


def test_series_path_replays_like_points_path():
    starts, percents = SyntheticTrace().series(random.Random(5))
    by_series = TraceLoad.from_series(starts, percents, repeat=True)
    by_points = TraceLoad(SyntheticTrace().generate(random.Random(5)), repeat=True)
    assert by_series.points == by_points.points
    assert by_series.duration == by_points.duration
    times = [index * 2.5 for index in range(400)]
    assert [by_series.demand_at(t) for t in times] == [
        by_points.demand_at(t) for t in times
    ]


@pytest.mark.parametrize(
    "starts, percents, error",
    [
        pytest.param([0.0, 0.0], [1.0, 2.0], WorkloadError, id="duplicate-time"),
        pytest.param([0.0, 5.0], [1.0, -2.0], ConfigurationError, id="negative-percent"),
        pytest.param([-1.0, 5.0], [1.0, 2.0], ConfigurationError, id="negative-start"),
        pytest.param([0.0, 5.0], [math.nan, 2.0], ConfigurationError, id="nan-percent"),
        pytest.param([0.0, math.nan], [1.0, 2.0], ConfigurationError, id="nan-start"),
        pytest.param([0.0, 5.0], [1.0, math.inf], ConfigurationError, id="inf-percent"),
    ],
)
def test_points_and_series_paths_reject_alike(starts, percents, error):
    with pytest.raises(error) as by_series:
        TraceLoad.from_series(starts, percents)
    with pytest.raises(error) as by_points:
        TraceLoad([TracePoint(s, p) for s, p in zip(starts, percents)])
    assert type(by_series.value) is type(by_points.value)
    assert str(by_series.value) == str(by_points.value)


def test_a_grid_checked_once_still_checks_each_series_percents():
    from repro.workloads.trace import _checked_starts

    starts = _checked_starts([0.0, 5.0, 10.0])
    assert starts == (0.0, 5.0, 10.0)
    assert TraceLoad.from_series(starts, [1.0, 2.0, 0.0]).demand_at(6.0) == 2.0
    with pytest.raises(ConfigurationError, match="percent"):
        TraceLoad.from_series(starts, [1.0, -2.0, 0.0])
    with pytest.raises(ConfigurationError, match="percent"):
        TraceLoad.from_series(starts, [1.0, math.nan, 0.0])
    with pytest.raises(WorkloadError, match="one percent per start"):
        TraceLoad.from_series(starts, [1.0])
    with pytest.raises(WorkloadError, match="strictly increasing"):
        _checked_starts([0.0, 5.0, 5.0])
    with pytest.raises(ConfigurationError, match="start"):
        _checked_starts([0.0, -5.0])


def test_series_path_rejects_out_of_order_and_ragged_series():
    with pytest.raises(WorkloadError, match="strictly increasing"):
        TraceLoad.from_series([5.0, 0.0], [1.0, 2.0])
    with pytest.raises(WorkloadError, match="one percent per start"):
        TraceLoad.from_series([0.0, 5.0], [1.0])
    with pytest.raises(WorkloadError, match="at least one point"):
        TraceLoad.from_series([], [])
