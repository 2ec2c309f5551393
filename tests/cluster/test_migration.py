"""Migration cost model: pricing, round-trip, and its effect on the fleet."""

import pytest

from repro.cluster import (
    ClusterScenarioConfig,
    ClusterVM,
    DEFAULT_MIGRATION,
    EpochPlan,
    FREE_MIGRATION,
    MachineSpec,
    MigrationModel,
    OrchestrationPolicy,
    Orchestrator,
    run_cluster_scenario,
)
from repro.errors import ConfigurationError


def test_model_round_trips_exactly():
    model = MigrationModel(
        downtime_s=0.7, copy_overhead_percent=12.0, copy_duration_s=4.0
    )
    assert MigrationModel.from_dict(model.to_dict()) == model


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigurationError, match="unknown migration model field"):
        MigrationModel.from_dict({"downtime_s": 1.0, "teleport": True})


def test_negative_costs_rejected():
    with pytest.raises(ConfigurationError):
        MigrationModel(downtime_s=-1.0)


def test_overhead_capped_at_one_epoch():
    model = MigrationModel(
        downtime_s=0.5, copy_overhead_percent=10.0, copy_duration_s=40.0
    )
    # The copy outlives the epoch: the full surcharge applies all epoch.
    assert model.host_overhead_percent(10.0) == pytest.approx(10.0)
    # A short copy is averaged over the epoch.
    short = MigrationModel(copy_overhead_percent=10.0, copy_duration_s=2.0)
    assert short.host_overhead_percent(10.0) == pytest.approx(2.0)
    assert model.downtime_fraction(10.0) == pytest.approx(0.05)


class _PingPong(OrchestrationPolicy):
    """Moves the single VM between two machines every epoch (a churn rig)."""

    name = "ping-pong"

    def plan(self, machines, vms, demands, current, *, time, epoch_index, epoch_s, dvfs):
        dest = machines[epoch_index % 2].name
        return EpochPlan(assignment={vm.name: dest for vm in vms})


def _churny_sim(migration):
    vm = ClusterVM("vm0", credit=30.0, memory_mb=2048, demand=lambda t: 20.0)
    sim = Orchestrator(
        machine_specs=[MachineSpec(count=2)],
        vms=[vm],
        policy=_PingPong(),
        dvfs=True,
        epoch_s=10.0,
        migration=migration,
    )
    sim.run(100.0)
    return sim


def test_migrations_recorded_with_source_and_dest():
    sim = _churny_sim(FREE_MIGRATION)
    # Epoch 0 places (not a migration); every later epoch moves the VM.
    assert sim.total_migrations == 9
    records = sim.migration_records()
    assert len(records) == 9
    assert records[0] == {"time": 10.0, "vm": "vm0", "source": "m000", "dest": "m001"}
    assert {record["vm"] for record in records} == {"vm0"}


def test_a_drained_source_serves_its_epoch_then_powers_off():
    sim = _churny_sim(FREE_MIGRATION)
    hosts = sim.host_records()
    for event in sim.events:
        after = {
            record["machine"]: record
            for record in hosts
            if record["time"] == event.time + sim.epoch_s
        }
        # Copying its pages kept the source on (burning power) through the
        # migration epoch; it was off by the epoch's record.
        assert after[event.source]["vms"] == 0
        assert after[event.source]["power_w"] > 0.0
        assert not after[event.source]["powered_on"]
        assert after[event.dest]["powered_on"]
    assert [stat.machines_on for stat in sim.stats] == [1] * len(sim.stats)


def test_downtime_reduces_served_demand():
    priced = _churny_sim(MigrationModel(downtime_s=2.0, copy_overhead_percent=0.0))
    free = _churny_sim(FREE_MIGRATION)
    assert free.sla_violations == 0
    # 2 s blackout per 10 s epoch: migration epochs serve 80% of demand.
    assert priced.sla_violations == 9
    migration_epochs = [stat for stat in priced.stats if stat.migrations]
    assert all(
        stat.sla_fraction == pytest.approx(0.8) for stat in migration_epochs
    )


def test_copy_overhead_costs_energy():
    priced = _churny_sim(
        MigrationModel(downtime_s=0.0, copy_overhead_percent=30.0, copy_duration_s=10.0)
    )
    free = _churny_sim(FREE_MIGRATION)
    assert priced.fleet_energy_joules > free.fleet_energy_joules * 1.02


def test_none_migration_model_is_free():
    vm = ClusterVM("vm0", credit=30.0, memory_mb=2048, demand=lambda t: 20.0)
    sim = Orchestrator(
        machine_specs=[MachineSpec(count=2)],
        vms=[vm],
        policy=_PingPong(),
        dvfs=True,
        epoch_s=10.0,
    )
    sim.run(50.0)
    assert sim.total_migrations == 4
    assert sim.sla_violations == 0


def test_config_carries_migration_model():
    config = ClusterScenarioConfig(
        migration={"downtime_s": 1.0, "copy_overhead_percent": 3.0, "copy_duration_s": 5.0}
    )
    assert isinstance(config.migration, MigrationModel)
    assert config.migration.downtime_s == 1.0
    rebuilt = ClusterScenarioConfig.from_dict(config.to_dict())
    assert rebuilt == config
    assert ClusterScenarioConfig().migration == DEFAULT_MIGRATION


def test_migration_cost_is_an_axis(tmp_path):
    from repro.sweep import SweepGrid

    grid = SweepGrid(
        {
            "migration": [
                {"downtime_s": 0.0, "copy_overhead_percent": 0.0, "copy_duration_s": 0.0},
                {"downtime_s": 2.0, "copy_overhead_percent": 20.0, "copy_duration_s": 10.0},
            ]
        },
        base=ClusterScenarioConfig(n_machines=2, n_vms=3, duration=60.0),
    )
    assert len(grid) == 2
    assert all(isinstance(cell.config.migration, MigrationModel) for cell in grid)


def test_run_cluster_scenario_prices_policy_migrations():
    base = ClusterScenarioConfig(
        n_machines=4,
        n_vms=10,
        duration=200.0,
        day_length=200.0,
        vm_memory_mb=2048,
        vm_credit=30.0,
        policy="load-balance",
        dayshapes=("noisy-neighbor",),
        seed=3,
    )
    priced = run_cluster_scenario(base)
    free = run_cluster_scenario(base.with_changes(migration=FREE_MIGRATION))
    assert priced.total_migrations > 0
    assert priced.mean_sla_fraction < free.mean_sla_fraction
