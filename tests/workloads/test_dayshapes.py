"""The day-shape catalog: registry, determinism, shape properties."""

import hashlib
import random

import pytest

from repro.errors import ConfigurationError
from repro.workloads import (
    DAYSHAPES,
    dayshape_csv,
    dayshape_names,
    dayshape_points,
    dayshape_series,
    load_trace_csv,
    TraceLoad,
)

DAY = 400.0
STEP = 5.0


def points(name, seed=1, **kwargs):
    return dayshape_points(
        name, random.Random(seed), day_length=DAY, step=STEP, **kwargs
    )


def mean_percent(pts):
    body = pts[:-1]  # drop the zero tail
    return sum(p.percent for p in body) / len(body)


def test_catalog_names_the_documented_shapes():
    assert dayshape_names() == (
        "diurnal-office",
        "weekend",
        "flash-crowd",
        "batch-overnight",
        "noisy-neighbor",
    )
    assert all(shape.description for shape in DAYSHAPES.values())


def test_unknown_shape_lists_the_catalog():
    with pytest.raises(ConfigurationError, match="diurnal-office"):
        dayshape_points("mondays", random.Random(0))


def test_points_are_valid_and_repeatable_traces():
    for name in dayshape_names():
        pts = points(name)
        assert len(pts) == int(DAY / STEP) + 1
        assert all(0.0 <= p.percent <= 100.0 for p in pts)
        assert pts[-1].start == DAY and pts[-1].percent == 0.0
        trace = TraceLoad(pts, repeat=True)
        # Wrap-around: demand one full day later matches the day's start.
        assert trace.demand_at(DAY + 10.0) == trace.demand_at(10.0)


def test_same_seed_same_points():
    for name in dayshape_names():
        assert points(name, seed=7) == points(name, seed=7)
        assert points(name, seed=7) != points(name, seed=8)


def test_office_peaks_during_business_hours():
    pts = points("diurnal-office")
    midday = [p.percent for p in pts if 0.40 * DAY <= p.start <= 0.46 * DAY]
    night = [p.percent for p in pts if p.start <= 0.15 * DAY]
    assert min(midday) > max(night)


def test_weekend_is_a_quieter_office():
    assert mean_percent(points("weekend")) < 0.6 * mean_percent(
        points("diurnal-office")
    )


def test_flash_crowd_has_one_dominant_spike():
    pts = points("flash-crowd")
    values = sorted(p.percent for p in pts[:-1])
    median = values[len(values) // 2]
    assert max(values) > 3.0 * median


def test_batch_overnight_loads_the_night_window():
    pts = points("batch-overnight")[:-1]  # drop the zero tail
    night = [p.percent for p in pts if p.start < 0.18 * DAY or p.start >= 0.80 * DAY]
    day = [p.percent for p in pts if 0.30 * DAY <= p.start < 0.70 * DAY]
    assert min(night) > max(day)


def test_noisy_neighbor_is_rougher_than_office():
    def roughness(pts):
        # Mean absolute step-to-step jump: bursts, not diurnal swing.
        body = pts[:-1]
        return sum(
            abs(b.percent - a.percent) for a, b in zip(body, body[1:])
        ) / (len(body) - 1)

    assert roughness(points("noisy-neighbor")) > 2.0 * roughness(
        points("diurnal-office")
    )


def test_scale_multiplies_demand():
    full = points("diurnal-office", seed=3)
    half = points("diurnal-office", seed=3, scale=0.5)
    for a, b in zip(full[:-1], half[:-1]):
        assert b.percent == pytest.approx(a.percent * 0.5)


@pytest.mark.parametrize(
    "day_length, step, scale, digest",
    [
        (400.0, 5.0, 1.0, "06995b661927b4556791a518492185092ef6325a564cef04ab4f20716cf7b571"),
        (400.0, 5.0, 0.5, "fc6bd8bd29d11e40e4121ed0b172b846c273ceaa372bf1b211462d4137aae369"),
        (400.0, 5.0, 2.0, "04b9b5f4d10ae5ad7afbfd863ac9f8a2dd169db4d7d942799247ea9bfbcc60db"),
        (37.5, 2.5, 1.0, "4ac1122b913c75bcd71d494e9ac0f362f5881652353a895e527ccfcb3d236717"),
        (37.5, 2.6, 0.45, "b2dddae1b2db309b942ed9523edb5f8490cefa20ee84b851453e77332d108820"),
        # An int grid keeps int starts (``repr`` shows it), unlike 400.0/5.0.
        (400, 5, 1, "5eccb70fbcfe0210986479d6f46002f270d68f900d223a0fcfb39e14db5b14dd"),
    ],
)
def test_series_are_byte_identical(day_length, step, scale, digest):
    """sha256 over the ``repr`` of every start and percent of every shape."""
    rows = []
    for name in dayshape_names():
        for seed in range(3):
            starts, percents = dayshape_series(
                name, random.Random(seed), day_length=day_length, step=step, scale=scale
            )
            rows.append(
                f"{name} {seed} {list(map(repr, starts))} {list(map(repr, percents))}"
            )
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == digest


def test_dayshape_csv_round_trips_through_the_trace_loader(tmp_path):
    path = dayshape_csv(
        "flash-crowd", tmp_path / "crowd.csv", seed=5, day_length=DAY, step=STEP
    )
    loaded = load_trace_csv(path)
    direct = dayshape_points("flash-crowd", random.Random(5), day_length=DAY, step=STEP)
    assert [(p.start, p.percent) for p in loaded] == [
        (p.start, p.percent) for p in direct
    ]


def test_workload_spec_accepts_a_dayshape():
    from repro.experiments import ScenarioConfig
    from repro.experiments.scenario import GuestSpec, WorkloadSpec

    spec = WorkloadSpec(kind="trace", dayshape="flash-crowd", repeat=True)
    assert spec.describe() == "trace:flash-crowd"
    assert WorkloadSpec.from_dict(spec.to_dict()) == spec
    config = ScenarioConfig(
        guests=(GuestSpec(name="F30", credit=30.0, workloads=(spec,)),),
        duration=60.0,
    )
    assert ScenarioConfig.from_dict(config.to_dict()) == config


def test_workload_spec_rejects_unknown_dayshape():
    from repro.experiments.scenario import WorkloadSpec

    with pytest.raises(ConfigurationError, match="unknown day shape"):
        WorkloadSpec(kind="trace", dayshape="casual-friday")


def test_dayshape_guest_runs_end_to_end():
    from repro.experiments import run_scenario, ScenarioConfig
    from repro.experiments.scenario import GuestSpec, WorkloadSpec

    config = ScenarioConfig(
        guests=(
            GuestSpec(
                name="D25",
                credit=25.0,
                workloads=(WorkloadSpec(kind="trace", dayshape="diurnal-office"),),
            ),
        ),
        duration=120.0,
    )
    result = run_scenario(config)
    assert result.guest_mean("D25", "global", (60.0, 110.0)) > 0.0
