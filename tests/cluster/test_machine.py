"""Unit tests for cluster machines."""

import math

import pytest

from repro.cluster import ClusterVM, Machine, MachineSpec
from repro.errors import ConfigurationError


def demands_of(machine, time=0.0):
    """The epoch's demand samples of *machine*'s VMs, as the orchestrator takes them."""
    return {vm.name: vm.demand_at(time) for vm in machine.vms}


def make_vm(name="vm", credit=30.0, memory=4096, demand=20.0):
    return ClusterVM(name, credit=credit, memory_mb=memory, demand=lambda t: demand)


@pytest.fixture
def machine():
    return Machine("m0", MachineSpec(memory_mb=8192))


def test_placement_respects_memory(machine):
    machine.place(make_vm("a", memory=4096))
    machine.place(make_vm("b", memory=4096))
    assert machine.memory_free_mb == 0
    with pytest.raises(ConfigurationError):
        machine.place(make_vm("c", memory=1))


def test_duplicate_placement_rejected(machine):
    vm = make_vm("a")
    machine.place(vm)
    with pytest.raises(ConfigurationError):
        machine.place(vm)


def test_evict_and_clear(machine):
    a, b = make_vm("a"), make_vm("b", memory=2048)
    machine.place(a)
    machine.place(b)
    machine.evict(a)
    assert machine.memory_used_mb == 2048
    assert machine.clear() == [b]
    assert machine.memory_used_mb == 0


def test_evict_absent_vm_rejected(machine):
    with pytest.raises(ConfigurationError):
        machine.evict(make_vm("ghost"))


def test_epoch_serves_demand_within_capacity(machine):
    machine.place(make_vm("a", demand=20.0))
    demand, served = machine.run_epoch(demands_of(machine), 10.0, dvfs=False)
    assert demand == pytest.approx(20.0)
    assert served == pytest.approx(20.0)


def test_dvfs_picks_lowest_absorbing_state(machine):
    machine.place(make_vm("a", demand=20.0))
    machine.run_epoch(demands_of(machine), 10.0, dvfs=True)
    # 20% demand + 5% overhead = 25% absolute: the i7's 1600 MHz state
    # (capacity 40.6%) absorbs it.
    assert machine.freq_mhz == 1600


def test_no_dvfs_pins_max(machine):
    machine.place(make_vm("a", demand=20.0))
    machine.run_epoch(demands_of(machine), 10.0, dvfs=False)
    assert machine.freq_mhz == machine.spec.processor.table().max_state.freq_mhz


def test_dvfs_saves_energy(machine):
    other = Machine("m1", MachineSpec(memory_mb=8192))
    machine.place(make_vm("a", demand=20.0))
    other.place(make_vm("a", demand=20.0))
    machine.run_epoch(demands_of(machine), 100.0, dvfs=True)
    other.run_epoch(demands_of(other), 100.0, dvfs=False)
    assert machine.energy_joules < other.energy_joules * 0.8


def test_served_clipped_by_capacity():
    machine = Machine("m0", MachineSpec(memory_mb=65536))
    for index in range(4):
        machine.place(make_vm(f"vm{index}", credit=40.0, demand=40.0))
    demand, served = machine.run_epoch(demands_of(machine), 10.0, dvfs=False)
    assert demand == pytest.approx(160.0)
    assert served <= 95.0 + 1e-9  # 100% minus the 5% overhead


def test_powered_off_machine_consumes_nothing(machine):
    machine.power_off_if_empty()
    assert not machine.powered_on
    machine.run_epoch(demands_of(machine), 100.0, dvfs=True)
    assert machine.energy_joules == 0.0


def test_serving_a_vm_without_a_demand_sample_is_an_error(machine):
    machine.place(make_vm("a"))
    machine.place(make_vm("b"))
    with pytest.raises(ConfigurationError, match="hosts VM 'b' but no demand sample"):
        machine.run_epoch({"a": 10.0}, 10.0, dvfs=True)


def test_power_off_refused_with_vms(machine):
    machine.place(make_vm("a"))
    assert not machine.power_off_if_empty()
    assert machine.powered_on


def test_placing_powers_machine_on(machine):
    machine.power_off_if_empty()
    machine.place(make_vm("a"))
    assert machine.powered_on


def test_vm_demand_clamped_to_credit():
    vm = ClusterVM("v", credit=25.0, memory_mb=1024, demand=lambda t: 80.0)
    assert vm.demand_at(0.0) == 25.0


def test_vm_negative_demand_rejected():
    vm = ClusterVM("v", credit=25.0, memory_mb=1024, demand=lambda t: -1.0)
    with pytest.raises(ConfigurationError):
        vm.demand_at(0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_vm_non_finite_demand_rejected(bad):
    vm = ClusterVM("v", credit=20.0, memory_mb=512, demand=lambda t: bad)
    with pytest.raises(ConfigurationError, match=r"VM 'v' returned .* at t=2\.5"):
        vm.demand_at(2.5)


def test_vm_rejected_sample_is_not_remembered():
    answers = iter([-1.0, 7.0])
    vm = ClusterVM("v", credit=20.0, memory_mb=512, demand=lambda t: next(answers))
    with pytest.raises(ConfigurationError, match="negative demand"):
        vm.demand_at(0.0)
    assert vm.demand_at(0.0) == 7.0
