"""Unit tests for the §2.3 placement baselines: ``spread`` and ``consolidate-ffd``."""

import pytest

from repro.cluster import (
    current_assignment,
    ClusterVM,
    FirstFitPolicy,
    Machine,
    MachineSpec,
    Orchestrator,
    PlacementError,
    SpreadPolicy,
)


def fleet(n, memory=16384):
    return [Machine(f"m{i}", MachineSpec(memory_mb=memory)) for i in range(n)]


def vms(n, memory=4096, credit=30.0):
    return [
        ClusterVM(f"vm{i}", credit=credit, memory_mb=memory, demand=lambda t: 10.0)
        for i in range(n)
    ]


def plan(policy, machines, population):
    return policy.plan(
        machines,
        population,
        {vm.name: vm.demand_at(0.0) for vm in population},
        current_assignment(machines),
        time=0.0,
        epoch_index=0,
        epoch_s=10.0,
        dvfs=True,
    ).assignment


def hosts_used(assignment):
    return len(set(assignment.values()))


def test_consolidation_packs_minimum_machines():
    assignment = plan(FirstFitPolicy(), fleet(6), vms(8, memory=4096))  # 4 per 16GB host
    assert hosts_used(assignment) == 2


def test_consolidation_powers_off_empty_machines():
    sim = Orchestrator(
        machine_specs=[MachineSpec(count=4)],
        vms=vms(2),
        policy="consolidate-ffd",
        dvfs=True,
    )
    sim.run(10.0)
    assert [m.powered_on for m in sim.machines] == [True, False, False, False]


def test_consolidation_memory_bound():
    with pytest.raises(PlacementError):
        plan(FirstFitPolicy(), fleet(2, memory=8192), vms(5, memory=4096))  # needs 2.5 hosts


def test_spread_uses_whole_fleet():
    assignment = plan(SpreadPolicy(), fleet(4), vms(4))
    assert sorted(assignment.values()) == ["m0", "m1", "m2", "m3"]


def test_spread_overflows_to_next_machine():
    assignment = plan(SpreadPolicy(), fleet(2, memory=8192), vms(4, memory=4096))
    assert sorted(assignment.values()) == ["m0", "m0", "m1", "m1"]


def test_spread_memory_infeasible_raises():
    with pytest.raises(PlacementError):
        plan(SpreadPolicy(), fleet(1, memory=4096), vms(2, memory=4096))


def test_plans_ignore_the_live_placement():
    machines = fleet(3)
    population = vms(3)
    for machine, vm in zip(reversed(machines), population):
        machine.place(vm)
    for policy in (SpreadPolicy(), FirstFitPolicy()):
        assert plan(policy, machines, population) == plan(policy, fleet(3), population)


def test_repacking_clears_previous_assignment():
    sim = Orchestrator(
        machine_specs=[MachineSpec(count=3)],
        vms=vms(3),
        policy="consolidate-ffd",
        dvfs=True,
    )
    sim.run(10.0)
    sim.vms = sim.vms[:1]
    sim.run(10.0)
    assert sum(len(m.vms) for m in sim.machines) == 1


def test_first_fit_decreasing_order():
    big = ClusterVM("big", credit=10, memory_mb=8192, demand=lambda t: 1.0)
    small = [
        ClusterVM(f"s{i}", credit=10, memory_mb=2048, demand=lambda t: 1.0)
        for i in range(5)
    ]
    # FFD places the 8GB VM first; the small ones fill the gaps.
    assignment = plan(FirstFitPolicy(), fleet(2, memory=10240), [*small, big])
    assert hosts_used(assignment) == 2
    assert len(assignment) == 6
    assert assignment["big"] == "m0"
