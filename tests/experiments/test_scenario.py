"""Unit tests for the declarative scenario builder."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import GuestSpec, ScenarioConfig, run_scenario, WorkloadSpec
from repro.experiments.scenario import (
    analysis_windows,
    build_scenario,
    effective_guests,
    guest_active_span,
    guest_window,
    secondary_activation,
)


def small(**changes):
    config = ScenarioConfig(
        v20_active=(5.0, 55.0),
        v70_active=(20.0, 40.0),
        duration=60.0,
    )
    return config.with_changes(**changes)


def test_builds_three_domains_with_paper_credits():
    host = build_scenario(small())
    names = [d.name for d in host.domains]
    assert names == ["Dom0", "V20", "V70"]
    assert host.domain("V20").credit == 20
    assert host.domain("V70").credit == 70
    assert host.domain("Dom0").is_dom0


def test_pas_forces_userspace_governor():
    host = build_scenario(small(scheduler="pas", governor="stable"))
    assert host.governor.name == "userspace"


def test_idle_load_leaves_no_workload():
    host = build_scenario(small(v70_load="idle"))
    assert host.domain("V70").workload is None
    assert host.domain("V20").workload is not None


def test_unknown_load_kind_rejected():
    with pytest.raises(ConfigurationError):
        build_scenario(small(v20_load="bursty"))


def test_run_scenario_produces_series_and_phase_means():
    result = run_scenario(small())
    load = result.phase_mean("V20.global_load", (30.0, 50.0))
    assert load == pytest.approx(20.0, abs=2.0)
    assert result.frequency_transitions >= 0
    assert result.energy_joules > 0


def test_series_smoothing_applies_three_sample_mean():
    result = run_scenario(small())
    raw = result.series("V20.global_load", smooth=False)
    smooth = result.series("V20.global_load")
    assert len(raw) == len(smooth)
    assert raw.name != smooth.name


def test_with_changes_replaces_fields():
    config = small()
    changed = config.with_changes(scheduler="sedf")
    assert changed.scheduler == "sedf"
    assert config.scheduler == "credit"


def test_scheduler_kwargs_forwarded():
    host = build_scenario(small(scheduler="pas", scheduler_kwargs={"use_cf": False}))
    assert host.scheduler.use_cf is False


# ------------------------------------------------------- declarative surface


def test_with_changes_rejects_unknown_fields_with_choices():
    with pytest.raises(ConfigurationError, match="valid fields.*scheduler"):
        small().with_changes(shceduler="pas")


@pytest.mark.parametrize("duration", [0.0, -1.0, float("nan"), float("inf")])
def test_non_positive_duration_rejected(duration):
    with pytest.raises(ConfigurationError, match="duration must be a finite positive"):
        ScenarioConfig(duration=duration)
    with pytest.raises(ConfigurationError, match="duration must be a finite positive"):
        ScenarioConfig().with_changes(duration=duration)


def test_guests_must_be_specs():
    with pytest.raises(ConfigurationError, match="guests must hold guest specs"):
        ScenarioConfig(guests=(1,))


def test_legacy_fields_expand_to_two_guest_specs():
    guests = effective_guests(small(v20_load="thrashing"))
    assert [g.name for g in guests] == ["V20", "V70"]
    assert guests[0].workloads[0].load == "thrashing"
    assert guests[0].workloads[0].active == ((5.0, 55.0),)


def test_explicit_guests_override_legacy_fields():
    config = small(
        guests=(
            GuestSpec(
                name="A",
                credit=30.0,
                workloads=(WorkloadSpec(kind="web", active=((5.0, 40.0),)),),
            ),
        )
    )
    host = build_scenario(config)
    assert [d.name for d in host.domains] == ["Dom0", "A"]
    assert host.domain("A").credit == 30.0


def test_guest_specs_accept_dict_form():
    config = small(
        guests=[
            {"name": "A", "credit": 25, "workloads": [{"kind": "pi", "work": 1.0}]}
        ]
    )
    assert config.guests[0] == GuestSpec(
        name="A", credit=25, workloads=(WorkloadSpec(kind="pi", work=1.0),)
    )


def test_duplicate_guest_names_rejected():
    with pytest.raises(ConfigurationError, match="duplicate guest names"):
        small(guests=(GuestSpec(name="A", credit=10), GuestSpec(name="A", credit=20)))


def test_dom0_guest_name_reserved():
    with pytest.raises(ConfigurationError, match="reserved"):
        small(guests=(GuestSpec(name="Dom0", credit=10),))


def test_unknown_workload_kind_and_load_rejected():
    with pytest.raises(ConfigurationError, match="unknown workload kind"):
        WorkloadSpec(kind="fft")
    with pytest.raises(ConfigurationError, match="unknown load kind"):
        WorkloadSpec(load="bursty")


def test_trace_spec_needs_points_or_diurnal():
    with pytest.raises(ConfigurationError, match="trace"):
        WorkloadSpec(kind="trace")


def test_active_windows_rejected_for_kinds_that_ignore_them():
    with pytest.raises(ConfigurationError, match="active"):
        WorkloadSpec(kind="pi", active=((0.0, 10.0),))
    with pytest.raises(ConfigurationError, match="active"):
        WorkloadSpec(kind="trace", trace=((0.0, 5.0),), active=((0.0, 10.0),))
    with pytest.raises(ConfigurationError, match="at most one"):
        WorkloadSpec(kind="constant", active=((0.0, 10.0), (20.0, 30.0)))


def test_trace_span_holds_final_nonzero_demand_to_run_end():
    config = ScenarioConfig(
        duration=100.0,
        guests=(
            GuestSpec(
                name="T",
                credit=50.0,
                workloads=(WorkloadSpec(kind="trace", trace=((0.0, 50.0),)),),
            ),
            GuestSpec(
                name="Z",
                credit=20.0,
                workloads=(
                    WorkloadSpec(kind="trace", trace=((0.0, 30.0), (40.0, 0.0))),
                ),
            ),
        ),
    )
    # T's single nonzero point drives demand for the whole run; Z's trace
    # ends at an explicit zero point.
    assert guest_active_span(config, "T") == (0.0, 100.0)
    assert guest_active_span(config, "Z") == (0.0, 40.0)


def test_guest_names_differing_only_in_case_rejected():
    with pytest.raises(ConfigurationError, match="case-insensitive"):
        ScenarioConfig(
            guests=(GuestSpec(name="A", credit=10), GuestSpec(name="a", credit=20))
        )
    with pytest.raises(ConfigurationError, match="reserved"):
        ScenarioConfig(guests=(GuestSpec(name="dom0", credit=10),))


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match="valid fields"):
        ScenarioConfig.from_dict({"schedular": "pas"})
    with pytest.raises(ConfigurationError, match="valid fields"):
        GuestSpec.from_dict({"name": "A", "credit": 10, "color": "red"})


def test_from_dict_resolves_processor_by_catalog_name():
    config = ScenarioConfig.from_dict({"processor": "Intel Xeon E5-2620"})
    assert config.processor.name == "Intel Xeon E5-2620"
    with pytest.raises(ConfigurationError, match="unknown processor"):
        ScenarioConfig.from_dict({"processor": "Pentium III"})


def test_multiple_workloads_per_guest():
    config = small(
        guests=(
            GuestSpec(
                name="A",
                credit=40.0,
                workloads=(
                    WorkloadSpec(kind="pi", work=0.5),
                    WorkloadSpec(kind="constant", demand_percent=5.0),
                ),
            ),
        )
    )
    host = build_scenario(config)
    assert len(host.domain("A").workloads) == 2


def test_manager_field_builds_and_starts_a_manager():
    host = build_scenario(small(manager="user-credit", governor="ondemand"))
    assert host.user_manager is not None
    with pytest.raises(ConfigurationError, match="unknown manager"):
        small(manager="kernel-daemon")


@pytest.mark.parametrize("manager", ["user-credit", "user-full"])
def test_a_manager_beside_pas_is_an_error(manager):
    # PAS already is the design a manager would add: two cap or frequency
    # controllers would fight over the same domains.
    with pytest.raises(ConfigurationError, match="cannot run beside the pas scheduler"):
        small(scheduler="pas", manager=manager)
    with pytest.raises(ConfigurationError, match="cannot run beside the pas scheduler"):
        ScenarioConfig.from_dict({"scheduler": "pas", "manager": manager})
    small(scheduler="credit", manager=manager)
    small(scheduler="pas")


# ----------------------------------------------------------------- windows


def test_analysis_windows_match_legacy_formula_on_default_timeline():
    assert analysis_windows(ScenarioConfig()) == (
        (100.0, 240.0),
        (300.0, 540.0),
        (600.0, 740.0),
    )


def test_analysis_windows_follow_custom_overlapping_timelines():
    # Secondary guest wakes before the primary's lead margin has passed and
    # outlives the run: the derived phases track the actual overlap.
    config = ScenarioConfig(
        duration=300.0, v20_active=(10.0, 290.0), v70_active=(40.0, 400.0)
    )
    solo, both, late = analysis_windows(config)
    assert solo == (20.0, 32.5)  # lead max(10, 7.5), tail min(10, 7.5)
    assert both[0] > 40.0 and both[1] <= 400.0
    assert secondary_activation(config) == 40.0


def test_analysis_windows_fall_back_to_thirds_without_two_timelines():
    config = ScenarioConfig(
        duration=300.0,
        guests=(
            GuestSpec(
                name="T",
                credit=50.0,
                workloads=(WorkloadSpec(kind="constant", demand_percent=30.0),),
            ),
        ),
    )
    solo, both, late = analysis_windows(config)
    assert solo[0] == pytest.approx(25.0)  # _trimmed(0, 100)
    assert late[1] == pytest.approx(290.0)


def test_guest_window_trims_each_guests_own_span():
    config = small()
    assert guest_window(config, "V20") == (
        pytest.approx(17.5),
        pytest.approx(45.0),
    )
    assert guest_active_span(config, "V70") == (20.0, 40.0)
    with pytest.raises(ConfigurationError, match="no guest"):
        guest_window(config, "V99")


def test_idle_guest_has_no_active_span():
    assert guest_active_span(small(v70_load="idle"), "V70") is None


def test_guest_window_rejects_spans_too_short_to_trim():
    # A span shorter than its trim margins must raise the clear error, not
    # return an inverted (start > end) window.
    config = ScenarioConfig(
        duration=12.0, v20_active=(0.5, 12.5), v70_active=(1.0, 12.2)
    )
    with pytest.raises(ConfigurationError, match="too short"):
        guest_window(config, "V20")


def test_result_guest_queries():
    result = run_scenario(small())
    assert result.guest_names == ("V20", "V70")
    window = result.guest_window("V20")
    assert result.guest_mean("V20", "global", window) == pytest.approx(20.0, abs=2.0)
    assert len(result.guest_series("V70")) > 0
