"""Property-based tests for cluster placement and fleet accounting."""

from hypothesis import given, settings, strategies as st

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
from repro.cluster.policies import _FleetState


@st.composite
def populations(draw):
    count = draw(st.integers(min_value=1, max_value=10))
    vms = []
    for index in range(count):
        memory = draw(st.sampled_from([1024, 2048, 4096, 8192]))
        demand = draw(st.floats(min_value=0.0, max_value=30.0))
        vms.append(
            ClusterVM(
                f"vm{index}",
                credit=30.0,
                memory_mb=memory,
                demand=lambda t, d=demand: d,
            )
        )
    return vms


def fleet(n=6, memory=16384):
    return [Machine(f"m{i}", MachineSpec(memory_mb=memory)) for i in range(n)]


def plan(policy, machines, vms):
    return policy.plan(
        machines,
        vms,
        {vm.name: vm.demand_at(0.0) for vm in vms},
        current_assignment(machines),
        time=0.0,
        epoch_index=0,
        epoch_s=10.0,
        dvfs=True,
    ).assignment


def orchestrator(vms, *, dvfs):
    return Orchestrator(
        machine_specs=[MachineSpec(count=6)],
        vms=vms,
        policy="consolidate-ffd",
        dvfs=dvfs,
    )


@given(vms=populations())
@settings(max_examples=40, deadline=None)
def test_consolidation_never_violates_memory(vms):
    machines = fleet()
    try:
        assignment = plan(FirstFitPolicy(), machines, vms)
    except PlacementError:
        return
    for machine in machines:
        used = sum(vm.memory_mb for vm in vms if assignment[vm.name] == machine.name)
        assert used <= machine.spec.memory_mb


@given(vms=populations())
@settings(max_examples=40, deadline=None)
def test_every_vm_placed_exactly_once(vms):
    machines = fleet()
    try:
        assignment = plan(FirstFitPolicy(), machines, vms)
    except PlacementError:
        return
    assert sorted(assignment) == sorted(vm.name for vm in vms)
    assert set(assignment.values()) <= {machine.name for machine in machines}


@given(vms=populations())
@settings(max_examples=40, deadline=None)
def test_consolidation_uses_no_more_machines_than_spread(vms):
    machines = fleet()
    try:
        packed = plan(FirstFitPolicy(), machines, vms)
        spread = plan(SpreadPolicy(), machines, vms)
    except PlacementError:
        return
    assert len(set(packed.values())) <= len(set(spread.values()))


@given(vms=populations())
@settings(max_examples=25, deadline=None)
def test_fleet_energy_with_dvfs_never_exceeds_without(vms):
    try:
        with_dvfs = orchestrator(vms, dvfs=True)
        without = orchestrator(vms, dvfs=False)
        with_dvfs.run(50.0)
        without.run(50.0)
    except PlacementError:
        return
    assert with_dvfs.fleet_energy_joules <= without.fleet_energy_joules + 1e-6


@given(vms=populations())
@settings(max_examples=25, deadline=None)
def test_served_never_exceeds_demand(vms):
    try:
        sim = orchestrator(vms, dvfs=True)
        sim.run(50.0)
    except PlacementError:
        return
    for stat in sim.stats:
        assert stat.served_percent <= stat.demand_percent + 1e-9
        assert 0.0 <= stat.sla_fraction <= 1.0 + 1e-9


@st.composite
def fleet_walks(draw):
    """A placed fleet, a host preference order and a random walk of moves."""
    vms = draw(populations())
    machines = fleet(n=5, memory=32768)
    for vm in vms:
        start = draw(st.integers(min_value=0, max_value=len(machines) - 1))
        # First fit from the drawn host; 10 VMs of at most 8 GB always fit.
        host = next(
            m for m in machines[start:] + machines[:start] if m.fits(vm)
        )
        host.place(vm)
    order = draw(st.permutations(machines))
    moves = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(vms) - 1),
                st.integers(min_value=0, max_value=len(machines) - 1),
            ),
            max_size=25,
        )
    )
    limit = draw(st.sampled_from([20.0, 40.0, 75.0, 150.0]))
    return machines, vms, order, moves, limit


def _headroom_by_scan(state, order, vm, limit, *, exclude, powered_only):
    """``host_with_headroom`` with "is this host used" read off ``assignment``."""
    used_hosts = set(state.assignment.values())
    used = [m.name for m in order if m.name != exclude and m.name in used_hosts]
    empty = [m.name for m in order if m.name != exclude and m.name not in used_hosts]
    for name in used + ([] if powered_only else empty):
        budget = limit * state.capacity_scale(name) - state.overhead(name)
        if state.fits(vm, name) and state.load(name) + state.demand(vm) <= budget:
            return name
    return None


@given(walk=fleet_walks())
@settings(max_examples=60, deadline=None)
def test_fleet_state_index_matches_assignment_scan(walk):
    machines, vms, order, moves, limit = walk
    demands = {vm.name: vm.demand_at(0.0) for vm in vms}
    state = _FleetState(machines, vms, order=order)
    state.refresh(demands, current_assignment(machines))
    names = [machine.name for machine in machines]

    def check():
        for name in names:
            scanned = [vm for vm, host in state.assignment.items() if host == name]
            assert state.vms_on(name) == scanned
            assert state.is_used(name) == bool(scanned)
        assert state.used_hosts() == len(set(state.assignment.values()))
        for vm in state.assignment:
            for exclude in names:
                for powered_only in (False, True):
                    assert state.host_with_headroom(
                        vm, limit, exclude=exclude, powered_only=powered_only
                    ) == _headroom_by_scan(
                        state,
                        order,
                        vm,
                        limit,
                        exclude=exclude,
                        powered_only=powered_only,
                    )

    check()
    for vm_index, host_index in moves:
        state.move(vms[vm_index].name, names[host_index])
        check()
