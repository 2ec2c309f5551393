"""Unit tests for the orchestrator's epoch loop under ``consolidate-ffd``."""

import pytest

from repro.cluster import ClusterVM, MachineSpec, Orchestrator
from repro.errors import ConfigurationError


def population(n, demand=15.0):
    return [
        ClusterVM(f"vm{i}", credit=30.0, memory_mb=4096, demand=lambda t: demand)
        for i in range(n)
    ]


def fleet(n_machines, vms, policy="consolidate-ffd", **kwargs):
    return Orchestrator(
        machine_specs=[MachineSpec(count=n_machines)], vms=vms, policy=policy, **kwargs
    )


def test_run_produces_one_stat_per_epoch():
    sim = fleet(4, population(4), dvfs=True, epoch_s=10.0)
    stats = sim.run(100.0)
    assert len(stats) == 10
    assert stats[-1].time == pytest.approx(100.0)


def test_sla_fraction_full_when_capacity_sufficient():
    sim = fleet(4, population(4), dvfs=True)
    sim.run(100.0)
    assert sim.mean_sla_fraction == pytest.approx(1.0)


def test_consolidation_uses_fewer_machines_than_spread():
    packed = fleet(4, population(4), dvfs=False)
    spread = fleet(4, population(4), policy="spread", dvfs=False)
    packed.run(50.0)
    spread.run(50.0)
    assert packed.mean_machines_on < spread.mean_machines_on


def test_dvfs_reduces_fleet_energy():
    with_dvfs = fleet(4, population(4), dvfs=True)
    without = fleet(4, population(4), dvfs=False)
    with_dvfs.run(100.0)
    without.run(100.0)
    assert with_dvfs.fleet_energy_joules < without.fleet_energy_joules * 0.9


def test_stable_demand_causes_no_migrations():
    sim = fleet(4, population(4), dvfs=True)
    sim.run(100.0)
    assert sim.total_migrations == 0


def test_migrations_counted_when_population_shifts():
    sim = fleet(4, population(4), dvfs=True)
    sim.run(10.0)
    # Make the biggest VM bigger so FFD reorders the packing.
    sim.vms[0] = ClusterVM("vm0", credit=30.0, memory_mb=8192, demand=lambda t: 15.0)
    sim.run(10.0)
    assert sim.total_migrations > 0


def test_queries_require_run():
    sim = fleet(2, population(2), dvfs=True)
    with pytest.raises(ConfigurationError):
        _ = sim.mean_sla_fraction


def test_duplicate_vm_names_rejected():
    vms = population(2)
    vms[1] = ClusterVM("vm0", credit=10, memory_mb=1024, demand=lambda t: 1.0)
    with pytest.raises(ConfigurationError):
        fleet(2, vms, dvfs=True)


def test_policy_must_be_registered_or_an_orchestration_policy():
    with pytest.raises(ConfigurationError, match="OrchestrationPolicy"):
        fleet(2, population(2), policy=lambda machines, vms: 1, dvfs=True)


def test_empty_fleet_rejected():
    with pytest.raises(ConfigurationError, match="empty fleet"):
        Orchestrator(machine_specs=[], vms=population(1), policy="spread", dvfs=True)


def test_epoch_stats_fields():
    sim = fleet(2, population(2), dvfs=True)
    stats = sim.run(20.0)
    for stat in stats:
        assert stat.machines_on >= 1
        assert stat.energy_joules > 0
        assert stat.served_percent <= stat.demand_percent + 1e-9
        assert stat.sla_fraction == pytest.approx(1.0)
