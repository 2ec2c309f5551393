"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, PeriodicTimer


def test_starts_at_time_zero(engine):
    assert engine.now == 0.0


def test_schedule_and_run_fires_callback(engine):
    fired = []
    engine.schedule(1.5, lambda: fired.append(engine.now))
    engine.run_until(2.0)
    assert fired == [1.5]


def test_run_until_advances_clock_even_without_events(engine):
    engine.run_until(10.0)
    assert engine.now == 10.0


def test_events_fire_in_time_order(engine):
    order = []
    engine.schedule(3.0, lambda: order.append("c"))
    engine.schedule(1.0, lambda: order.append("a"))
    engine.schedule(2.0, lambda: order.append("b"))
    engine.run_until(5.0)
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_fifo(engine):
    order = []
    for tag in ("first", "second", "third"):
        engine.schedule(1.0, lambda tag=tag: order.append(tag))
    engine.run_until(1.0)
    assert order == ["first", "second", "third"]


def test_event_not_due_does_not_fire(engine):
    fired = []
    engine.schedule(5.0, lambda: fired.append(1))
    engine.run_until(4.999)
    assert fired == []
    assert engine.now == 4.999


def test_boundary_event_fires_at_exact_run_until_time(engine):
    fired = []
    engine.schedule(5.0, lambda: fired.append(1))
    engine.run_until(5.0)
    assert fired == [1]


def test_cancelled_event_does_not_fire(engine):
    fired = []
    handle = engine.schedule(1.0, lambda: fired.append(1))
    handle.cancel()
    engine.run_until(2.0)
    assert fired == []
    assert handle.cancelled


def test_cancel_is_idempotent(engine):
    handle = engine.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert handle.cancelled


def test_schedule_in_past_raises(engine):
    engine.run_until(10.0)
    with pytest.raises(SimulationError):
        engine.schedule(-1.0, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule_at(5.0, lambda: None)


def test_run_backwards_raises(engine):
    engine.run_until(10.0)
    with pytest.raises(SimulationError):
        engine.run_until(5.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_schedule_raises(engine, bad):
    with pytest.raises(SimulationError):
        engine.schedule(bad, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule_at(bad, lambda: None)
    assert engine.pending_count == 0
    engine.run_until(1.0)
    assert engine.now == 1.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_run_until_raises_without_running(engine, bad):
    timer = PeriodicTimer(engine, 0.1, lambda now: None)
    timer.start()
    with pytest.raises(SimulationError):
        engine.run_until(bad)
    assert engine.now == 0.0
    assert engine.events_fired == 0
    engine.run_until(1.0)  # the engine is not left marked as running
    assert timer.fire_count == 10


def test_zero_delay_event_fires(engine):
    fired = []
    engine.schedule(0.0, lambda: fired.append(engine.now))
    engine.run_until(0.0)
    assert fired == [0.0]


def test_callback_can_schedule_more_events(engine):
    fired = []

    def chain():
        fired.append(engine.now)
        if len(fired) < 3:
            engine.schedule(1.0, chain)

    engine.schedule(1.0, chain)
    engine.run_until(10.0)
    assert fired == [1.0, 2.0, 3.0]


def test_event_scheduled_inside_window_fires_in_same_run(engine):
    fired = []
    engine.schedule(1.0, lambda: engine.schedule(0.5, lambda: fired.append(engine.now)))
    engine.run_until(2.0)
    assert fired == [1.5]


def test_event_scheduled_beyond_window_waits(engine):
    fired = []
    engine.schedule(1.0, lambda: engine.schedule(5.0, lambda: fired.append(engine.now)))
    engine.run_until(2.0)
    assert fired == []
    engine.run_until(6.0)
    assert fired == [6.0]


def test_step_fires_single_event(engine):
    fired = []
    engine.schedule(1.0, lambda: fired.append("a"))
    engine.schedule(2.0, lambda: fired.append("b"))
    assert engine.step()
    assert fired == ["a"]
    assert engine.now == 1.0


def test_step_on_empty_heap_returns_false(engine):
    assert not engine.step()


def test_step_skips_cancelled(engine):
    fired = []
    handle = engine.schedule(1.0, lambda: fired.append("a"))
    engine.schedule(2.0, lambda: fired.append("b"))
    handle.cancel()
    assert engine.step()
    assert fired == ["b"]


def test_events_fired_counts_only_executed(engine):
    handle = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    handle.cancel()
    engine.run_until(3.0)
    assert engine.events_fired == 1


def test_pending_count_excludes_cancelled(engine):
    handle = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    handle.cancel()
    assert engine.pending_count == 1


def test_run_until_idle_drains_heap(engine):
    fired = []
    engine.schedule(1.0, lambda: fired.append(1))
    engine.schedule(7.0, lambda: fired.append(2))
    engine.run_until_idle()
    assert fired == [1, 2]
    assert engine.pending_count == 0


def test_run_until_idle_max_events_guard(engine):
    def forever():
        engine.schedule(1.0, forever)

    engine.schedule(1.0, forever)
    with pytest.raises(SimulationError):
        engine.run_until_idle(max_events=100)


def test_reentrant_run_until_raises(engine):
    def reenter():
        engine.run_until(10.0)

    engine.schedule(1.0, reenter)
    with pytest.raises(SimulationError):
        engine.run_until(2.0)


def test_clock_matches_event_time_inside_callback(engine):
    seen = []
    engine.schedule(2.5, lambda: seen.append(engine.now))
    engine.run_until(9.0)
    assert seen == [2.5]
    assert engine.now == 9.0


def test_deterministic_across_identical_runs():
    def build():
        engine = Engine()
        order = []
        engine.schedule(1.0, lambda: order.append("x"))
        engine.schedule(1.0, lambda: order.append("y"))
        engine.schedule(0.5, lambda: engine.schedule(0.5, lambda: order.append("z")))
        engine.run_until(2.0)
        return order

    assert build() == build()
