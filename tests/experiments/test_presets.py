"""The preset registry: round-trips, grids, and legacy equivalence."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    effective_guests,
    get_preset,
    preset_config,
    preset_grid,
    PRESETS,
    ScenarioConfig,
    run_scenario,
)

REQUIRED = {
    "paper-5.3",
    "governors",
    "diurnal-web",
    "pi-batch",
    "mixed-guests",
    "stress-fleet",
    "calib",
}


def test_registry_carries_the_documented_presets():
    assert REQUIRED <= set(PRESETS)
    for preset in PRESETS.values():
        assert preset.description
        assert preset.cells >= 1


@pytest.mark.parametrize("name", sorted(REQUIRED))
def test_every_preset_round_trips_through_json(name):
    config = preset_config(name)
    assert ScenarioConfig.from_dict(config.to_dict()) == config


@pytest.mark.parametrize("name", sorted(REQUIRED))
def test_every_preset_survives_a_json_dump(name):
    import json

    config = preset_config(name)
    text = json.dumps(config.to_dict())  # must be JSON-able, not just dict-able
    assert ScenarioConfig.from_dict(json.loads(text)) == config


def test_paper_preset_is_the_default_config():
    assert preset_config("paper-5.3") == ScenarioConfig()


def test_unknown_preset_names_the_choices():
    with pytest.raises(ConfigurationError, match="paper-5.3"):
        get_preset("paper-5-3")


def test_preset_grid_expands_axes():
    grid = preset_grid("governors")
    preset = get_preset("governors")
    assert len(grid) == preset.cells
    assert set(grid.axes) == set(preset.axes)


def test_axisless_preset_becomes_single_variant_grid():
    grid = preset_grid("paper-5.3")
    assert len(grid) == 1
    assert grid.cells[0].label == "paper-5.3"
    assert grid.cells[0].config == ScenarioConfig()


def test_preset_grid_overrides_and_replicates():
    grid = preset_grid("governors", overrides={"duration": 100.0}, replicates=2)
    assert len(grid) == 2 * get_preset("governors").cells
    assert all(cell.config.duration == 100.0 for cell in grid)
    seeds = [cell.seed for cell in grid]
    assert len(set(seeds)) == len(seeds)


def test_preset_grid_rejects_unknown_override():
    with pytest.raises(ConfigurationError, match="unknown scenario config field"):
        preset_grid("governors", overrides={"durration": 100.0})


def _series_pairs(result, name):
    return list(result.series(name, smooth=False))


def test_paper_preset_equals_legacy_two_guest_fields_bit_for_bit():
    # The compatibility criterion: expanding the legacy fields through the
    # generic guest interpreter must not move a single sample.
    legacy = ScenarioConfig(
        duration=200.0, v20_active=(20.0, 180.0), v70_active=(60.0, 140.0)
    )
    explicit = legacy.with_changes(guests=effective_guests(legacy))
    a, b = run_scenario(legacy), run_scenario(explicit)
    assert a.energy_joules == b.energy_joules
    assert a.frequency_transitions == b.frequency_transitions
    for name in ("V20.global_load", "V20.absolute_load", "V70.global_load", "host.freq_mhz"):
        assert _series_pairs(a, name) == _series_pairs(b, name)


def test_mixed_guests_preset_runs_and_reports_all_guests():
    config = preset_config("mixed-guests").with_changes(duration=120.0)
    result = run_scenario(config)
    assert result.guest_names == ("W20", "B30", "T25")
    assert result.guest_mean("W20", "global", (60.0, 100.0)) > 0.0


def test_stress_fleet_preset_holds_every_credit():
    config = preset_config("stress-fleet").with_changes(duration=120.0)
    result = run_scenario(config)
    assert len(result.guest_names) == 8
    # Guests active inside the shortened run still get their booked share.
    active = result.guest_mean("S00", "global", (40.0, 110.0))
    assert active == pytest.approx(10.0, abs=1.5)


def test_pi_batch_preset_stops_when_batch_done():
    result = run_scenario(preset_config("pi-batch"))
    assert result.host.now < preset_config("pi-batch").duration
    for domain in result.host.domains:
        for workload in domain.workloads:
            if hasattr(workload, "done"):
                assert workload.done


# --------------------------------------------------------- cluster presets

CLUSTER_PRESETS = {
    "dc-diurnal",
    "dc-diurnal-small",
    "dc-fleet-medium",
    "dc-fleet-large",
}


def test_cluster_presets_are_registered_with_kind():
    assert CLUSTER_PRESETS <= set(PRESETS)
    for name in CLUSTER_PRESETS:
        preset = get_preset(name)
        assert preset.kind == "cluster"
        assert preset.axes == {
            "policy": ("static", "consolidate", "load-balance", "power-budget")
        }
        assert preset.metrics == ("fleet", "cluster")
    for name in REQUIRED:
        assert get_preset(name).kind == "scenario"


@pytest.mark.parametrize("name", sorted(CLUSTER_PRESETS))
def test_cluster_presets_round_trip_through_json(name):
    import json

    from repro.cluster import ClusterScenarioConfig

    config = preset_config(name)
    text = json.dumps(config.to_dict())
    assert ClusterScenarioConfig.from_dict(json.loads(text)) == config


def test_cluster_preset_grid_expands_policy_axis():
    grid = preset_grid("dc-diurnal-small")
    assert len(grid) == 4
    policies = [cell.config.policy for cell in grid]
    assert policies == ["static", "consolidate", "load-balance", "power-budget"]


def test_dc_hetero_preset_declares_the_mixed_fleet():
    import json

    from repro.cluster import ClusterScenarioConfig

    preset = get_preset("dc-hetero")
    assert preset.kind == "cluster"
    assert preset.axes == {
        "policy": ("static", "consolidate", "power-budget"),
        "placement": ("efficiency", "performance"),
    }
    config = preset_config("dc-hetero")
    assert len(config.machines) == 2  # i7 group + big.LITTLE group
    assert config.total_machines == 4
    text = json.dumps(config.to_dict())
    assert ClusterScenarioConfig.from_dict(json.loads(text)) == config
    grid = preset_grid("dc-hetero")
    assert len(grid) == 6  # 3 policies x 2 placements


def test_cluster_preset_budgets_are_feasible_and_binding():
    # The power-budget acceptance shape on the CI fleet: the cap holds
    # every epoch and consolidation undercuts static provisioning.
    from repro.cluster.scenario import run_cluster_scenario

    config = preset_config("dc-diurnal-small")
    static = run_cluster_scenario(config.with_changes(policy="static"))
    packed = run_cluster_scenario(config.with_changes(policy="consolidate"))
    capped = run_cluster_scenario(config.with_changes(policy="power-budget"))
    assert capped.peak_power_w <= config.power_budget_w
    assert packed.fleet_energy_joules < static.fleet_energy_joules
    assert capped.fleet_energy_joules < static.fleet_energy_joules
