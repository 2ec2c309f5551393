"""Unit tests for the QoS controllers and the shared quota ladder."""

import pytest

from repro.errors import ConfigurationError
from repro.qos import (
    CONTROLLER_REGISTRY,
    LadderController,
    NaiveController,
    NoneController,
    QuotaLadder,
    controller_names,
    make_controller,
)

from ..conftest import make_host


# --------------------------------------------------------------- QuotaLadder


def test_ladder_rejects_levels_not_starting_at_one():
    with pytest.raises(ConfigurationError):
        QuotaLadder(levels=(0.9, 0.5))


def test_ladder_rejects_non_decreasing_levels():
    with pytest.raises(ConfigurationError):
        QuotaLadder(levels=(1.0, 0.5, 0.5))


@pytest.mark.parametrize("levels", [8, "1", ["1", "0.5"], [True, 0.5], [1.0, None]])
def test_ladder_rejects_levels_that_are_not_numbers(levels):
    with pytest.raises(ConfigurationError, match="sequence of numbers"):
        QuotaLadder(levels=levels)


def test_ladder_rejects_inverted_hysteresis():
    with pytest.raises(ConfigurationError):
        QuotaLadder(high=0.2, low=0.6)


def test_ladder_steps_one_rung_at_a_time():
    ladder = QuotaLadder(levels=(1.0, 0.8, 0.6), high=0.6, low=0.2, cooldown_s=0.0)
    assert ladder.step(0.0, 0.9) == 0.8
    assert ladder.step(1.0, 0.9) == 0.6
    assert ladder.step(2.0, 0.9) is None  # bottom rung
    assert ladder.fraction == 0.6


def test_ladder_cooldown_blocks_back_to_back_steps():
    ladder = QuotaLadder(high=0.6, low=0.2, cooldown_s=5.0)
    assert ladder.step(0.0, 1.0) is not None
    assert ladder.step(2.0, 1.0) is None  # inside the cooldown
    assert ladder.step(5.0, 1.0) is not None


def test_ladder_dead_band_holds_level():
    ladder = QuotaLadder(high=0.6, low=0.2, cooldown_s=0.0)
    ladder.step(0.0, 0.9)
    assert ladder.level == 1
    assert ladder.step(1.0, 0.4) is None  # between low and high: no move
    assert ladder.level == 1
    assert ladder.step(2.0, 0.1) == 1.0
    assert ladder.level == 0


# ------------------------------------------------------------------ registry


def test_registry_names():
    assert controller_names() == ("none", "naive", "ladder")
    assert set(CONTROLLER_REGISTRY) == {"none", "naive", "ladder"}


def test_make_controller_builds_each_registered_name():
    assert isinstance(make_controller("none"), NoneController)
    assert isinstance(make_controller("naive"), NaiveController)
    assert isinstance(make_controller("ladder"), LadderController)


def test_make_controller_unknown_name_lists_choices():
    with pytest.raises(ConfigurationError, match="none.*naive.*ladder"):
        make_controller("aggressive")


def test_make_controller_forwards_kwargs():
    controller = make_controller("ladder", high=0.8, low=0.1, cooldown_s=2.0)
    assert controller._ladder.high == 0.8


def test_naive_rejects_bad_threshold():
    with pytest.raises(ConfigurationError):
        make_controller("naive", threshold=1.5)


# ------------------------------------------------------------------- binding


def bound(name, **kwargs):
    host = make_host()
    lc = host.create_domain("web", credit=30)
    be = host.create_domain("batch", credit=40)
    controller = make_controller(name, **kwargs)
    controller.bind(host, [lc], [be])
    return host, lc, be, controller


def test_controller_host_raises_before_bind():
    with pytest.raises(ConfigurationError, match="not bound"):
        make_controller("ladder").host


def test_controller_rejects_double_bind():
    host, lc, be, controller = bound("ladder")
    with pytest.raises(ConfigurationError, match="bound twice"):
        controller.bind(host, [lc], [be])


def test_none_controller_only_counts():
    _, _, _, controller = bound("none")
    controller.control(1.0, 0.9)
    controller.control(2.0, 0.9)
    assert controller.stats.decisions == 2
    assert controller.stats.steps_down == 0
    assert controller.quota_fraction() == 1.0
    assert controller.stats.contention_peak == 0.9


# ----------------------------------------------------------------- actuation


def test_naive_throttles_be_and_boosts_lc():
    host, lc, be, controller = bound("naive", lc_boost=2.0)
    scheduler = host.scheduler
    be_cap = scheduler.cap_of(be)
    lc_weight = scheduler.weight_of(lc)
    controller.control(1.0, 0.9)
    assert controller.stats.steps_down == 1
    assert controller.quota_fraction() == pytest.approx(0.8)
    assert scheduler.cap_of(be) == pytest.approx(be_cap * 0.8)
    assert scheduler.cap_of(lc) == 0.0  # uncapped during the episode
    assert scheduler.weight_of(lc) == pytest.approx(lc_weight * 2.0)


def test_naive_restores_baselines_exactly():
    host, lc, be, controller = bound("naive")
    scheduler = host.scheduler
    baseline = (scheduler.cap_of(be), scheduler.cap_of(lc), scheduler.weight_of(lc))
    controller.control(1.0, 0.9)
    controller.control(2.0, 0.0)
    assert controller.quota_fraction() == 1.0
    assert controller.stats.steps_up == 1
    assert controller.stats.lc_sla_saves == 1
    after = (scheduler.cap_of(be), scheduler.cap_of(lc), scheduler.weight_of(lc))
    assert after == baseline


def test_naive_respects_floor():
    _, _, _, controller = bound("naive", step=0.5, floor=0.25)
    for t in range(1, 6):
        controller.control(float(t), 1.0)
    assert controller.quota_fraction() == pytest.approx(0.25)


def test_ladder_controller_walks_the_ladder():
    host, lc, be, controller = bound("ladder", cooldown_s=0.0)
    scheduler = host.scheduler
    be_cap = scheduler.cap_of(be)
    controller.control(1.0, 0.9)
    controller.control(2.0, 0.9)
    assert controller.level == 2
    assert controller.stats.steps_down == 2
    assert scheduler.cap_of(be) == pytest.approx(be_cap * 0.6)
    controller.control(3.0, 0.0)
    controller.control(4.0, 0.0)
    assert controller.level == 0
    assert controller.stats.lc_sla_saves == 1
    assert scheduler.cap_of(be) == pytest.approx(be_cap)


def test_ladder_controller_honours_cooldown():
    _, _, _, controller = bound("ladder", cooldown_s=10.0)
    controller.control(1.0, 0.9)
    controller.control(2.0, 0.9)  # inside cooldown: no second step
    assert controller.stats.steps_down == 1
    assert controller.level == 1


def test_stats_accrue_time_at_level():
    _, _, _, controller = bound("ladder", cooldown_s=0.0)
    controller.control(0.0, 0.9)  # -> level 1 (no prior sample to charge)
    controller.control(5.0, 0.4)  # 5 s at level 1, dead band holds
    controller.control(8.0, 0.0)  # 3 s more at level 1, then restore
    stats = controller.stats
    assert stats.time_at_level[1] == pytest.approx(8.0)
    assert stats.time_throttled_s == pytest.approx(8.0)


def test_uncapped_be_guest_throttles_against_its_credit():
    host = make_host()
    lc = host.create_domain("web", credit=30)
    be = host.create_domain("batch", credit=50)
    host.scheduler.set_cap(be, 0.0)  # running uncapped (the null-credit case)
    controller = make_controller("naive")
    controller.bind(host, [lc], [be])
    controller.control(1.0, 0.9)
    # cap 0 means "no cap", so the booked credit is the 100% point instead.
    assert host.scheduler.cap_of(be) == pytest.approx(be.credit * 0.8)
