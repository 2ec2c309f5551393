"""ClusterScenarioConfig JSON round-trip (fleet cells as first-class specs)."""

import pytest

from repro.cluster import ClusterScenarioConfig
from repro.cluster.orchestrator import epoch_count
from repro.cluster.scenario import build_cluster, run_cluster_scenario
from repro.cpu import catalog
from repro.errors import ConfigurationError
from repro.sweep import SweepGrid
from repro.sweep.metrics import fleet_metrics


def test_to_dict_round_trips_exactly():
    config = ClusterScenarioConfig(
        n_machines=3, n_vms=5, policy="spread", dvfs=False, duration=150.0, seed=11
    )
    data = config.to_dict()
    assert data["kind"] == "cluster"
    assert data["processor"] == config.processor.name
    assert ClusterScenarioConfig.from_dict(data) == config


def test_round_tripped_config_simulates_identically():
    config = ClusterScenarioConfig(n_machines=2, n_vms=3, duration=100.0)
    direct = fleet_metrics(run_cluster_scenario(config))
    loaded = fleet_metrics(
        run_cluster_scenario(ClusterScenarioConfig.from_dict(config.to_dict()))
    )
    assert direct == loaded


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigurationError, match="unknown cluster scenario field"):
        ClusterScenarioConfig.from_dict({"kind": "cluster", "warp_factor": 9})


def test_from_dict_rejects_wrong_kind():
    with pytest.raises(ConfigurationError, match="kind="):
        ClusterScenarioConfig.from_dict({"kind": "scenario"})


def test_from_dict_rejects_unknown_processor():
    with pytest.raises(ConfigurationError, match="unknown processor"):
        ClusterScenarioConfig.from_dict({"processor": "Pentium III"})


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"processor": 3770}, "unknown processor 3770; catalog: "),
        ({"migration": "fast"}, "migration takes a migration model"),
    ],
)
def test_a_value_of_no_spec_type_is_refused_up_front(changes, message):
    with pytest.raises(ConfigurationError, match=message):
        ClusterScenarioConfig().with_changes(**changes)


def test_processor_by_catalog_name():
    config = ClusterScenarioConfig.from_dict(
        {"processor": "Intel Xeon E5-2620", "n_machines": 2}
    )
    assert config.processor == catalog.XEON_E5_2620


def test_grid_axes_coerce_from_json():
    grid = SweepGrid(
        {"policy": ["spread", "consolidate"], "processor": ["Intel Core i7-3770"]},
        base=ClusterScenarioConfig(n_machines=2, n_vms=3, duration=50.0),
    )
    assert len(grid) == 2
    assert all(cell.config.processor == catalog.CORE_I7_3770 for cell in grid)


def test_describe_is_compact():
    config = ClusterScenarioConfig(n_machines=4, n_vms=9, policy="spread", dvfs=True)
    assert config.describe() == "fleet(9vm/4m:spread+dvfs)"


def test_with_changes_rejects_unknown_fields_with_choices():
    with pytest.raises(ConfigurationError, match="unknown cluster scenario field.*flux"):
        ClusterScenarioConfig().with_changes(flux=1)


def test_preset_grid_rejects_unknown_cluster_override():
    from repro.experiments import preset_grid

    with pytest.raises(ConfigurationError, match="valid fields: n_machines"):
        preset_grid("dc-diurnal-small", overrides={"flux": 1})


@pytest.mark.parametrize("duration", [0.0, -1.0, float("nan"), float("inf")])
def test_non_positive_duration_rejected(duration):
    with pytest.raises(ConfigurationError, match="duration must be a finite positive"):
        ClusterScenarioConfig(duration=duration)


@pytest.mark.parametrize(
    "duration, epoch_s", [(4.0, 10.0), (15.0, 10.0), (200.0, 30.0), (1.0, 0.3)]
)
def test_duration_of_partial_epochs_rejected(duration, epoch_s):
    with pytest.raises(ConfigurationError, match="is not a whole number of"):
        ClusterScenarioConfig(duration=duration, epoch_s=epoch_s)


@pytest.mark.parametrize(
    "duration, epoch_s, epochs", [(200.0, 10.0, 20), (0.3, 0.1, 3), (1e6, 0.1, 10**7)]
)
def test_whole_epochs_count_to_a_relative_tolerance(duration, epoch_s, epochs):
    assert epoch_count(duration, epoch_s) == epochs
    assert ClusterScenarioConfig(duration=duration, epoch_s=epoch_s).duration == duration


def test_orchestrator_run_rejects_partial_epochs():
    sim = build_cluster(ClusterScenarioConfig(n_machines=2, n_vms=2))
    with pytest.raises(ConfigurationError, match="duration 15.0 s is not a whole number"):
        sim.run(15.0)
    assert sim.stats == []
    assert len(sim.run(20.0)) == 2


@pytest.mark.parametrize("budget", [0.0, -3.0, float("nan"), float("inf")])
def test_power_cap_must_be_finite_and_positive(budget):
    with pytest.raises(ConfigurationError, match="power_budget_w must be a finite positive"):
        ClusterScenarioConfig(policy="static", power_budget_w=budget)
    assert ClusterScenarioConfig(policy="static", power_budget_w=60.0).power_budget_w == 60.0


def test_machine_groups_must_be_specs():
    with pytest.raises(ConfigurationError, match="machines must hold machine specs"):
        ClusterScenarioConfig(machines=(1,))
