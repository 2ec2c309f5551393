"""Orchestration policies: registry, placement behaviour, cap compliance."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    ClusterScenarioConfig,
    ClusterVM,
    ConsolidatePolicy,
    current_assignment,
    FirstFitPolicy,
    Machine,
    MachineSpec,
    make_policy,
    ORCHESTRATION_POLICIES,
    Orchestrator,
    POLICY_REGISTRY,
    PowerBudgetPolicy,
    run_cluster_scenario,
    SpreadPolicy,
    StaticPolicy,
)
from repro.cluster.policies import pack_balanced, pack_first_fit, PlacementError
from repro.cpu import catalog
from repro.errors import ConfigurationError
from repro.experiments import preset_config

#: A heterogeneous diurnal fleet where packing decisions actually differ.
BASE = ClusterScenarioConfig(
    n_machines=6,
    n_vms=15,
    duration=200.0,
    day_length=200.0,
    trace_step=5.0,
    vm_credit=30.0,
    vm_memory_mb=2048,
    dayshapes=(
        "diurnal-office",
        "flash-crowd",
        "batch-overnight",
        "noisy-neighbor",
        "weekend",
    ),
    dayshape_scale=0.45,
    seed=11,
)


def test_registry_names_are_stable():
    assert ORCHESTRATION_POLICIES == ("static", "consolidate", "load-balance", "power-budget")


def test_unknown_policy_lists_the_registry():
    with pytest.raises(ConfigurationError, match="static"):
        make_policy("bin-pack-9000")


def test_registry_holds_the_placement_baselines():
    assert tuple(POLICY_REGISTRY) == (*ORCHESTRATION_POLICIES, "spread", "consolidate-ffd")
    assert isinstance(make_policy("spread", placement="performance"), SpreadPolicy)
    assert isinstance(make_policy("consolidate-ffd"), FirstFitPolicy)


def test_unknown_config_policy_fails_at_spec_time_listing_all_names():
    with pytest.raises(ConfigurationError) as raised:
        ClusterScenarioConfig.from_dict({"kind": "cluster", "policy": "warp"})
    for name in POLICY_REGISTRY:
        assert name in str(raised.value)
    with pytest.raises(ConfigurationError, match="consolidate-ffd"):
        BASE.with_changes(policy="warp")


def test_power_budget_requires_a_cap():
    with pytest.raises(ConfigurationError, match="power_budget_w"):
        make_policy("power-budget")


def test_static_never_migrates_and_reserves_by_credit():
    sim = run_cluster_scenario(BASE.with_changes(policy="static"))
    assert sim.total_migrations == 0
    assert sim.sla_violations == 0
    # Booked credit is reserved: per host, credits + overhead fit capacity.
    for machine in sim.machines:
        booked = sum(vm.credit for vm in machine.vms)
        assert booked + machine.spec.overhead_percent <= 100.0
    # 15 VMs x 30% credit at 95% usable => 3 per host, 5 hosts, constant.
    assert {stat.machines_on for stat in sim.stats} == {5}


def test_consolidate_uses_fewer_hosts_than_static():
    static = run_cluster_scenario(BASE.with_changes(policy="static"))
    packed = run_cluster_scenario(BASE.with_changes(policy="consolidate"))
    assert packed.mean_machines_on < static.mean_machines_on
    assert packed.fleet_energy_joules < static.fleet_energy_joules
    assert packed.mean_sla_fraction > 0.99


def test_consolidate_hysteresis_delays_the_drain():
    demands = {"vm0": 40.0, "vm1": 40.0}

    def demand(name):
        # Both VMs hot for 3 epochs, then one goes idle for good.
        return lambda t: demands[name] if t < 30.0 else (4.0 if name == "vm1" else 40.0)

    vms = [
        ClusterVM(name, credit=50.0, memory_mb=2048, demand=demand(name))
        for name in ("vm0", "vm1")
    ]
    sim = Orchestrator(
        machine_specs=[MachineSpec(count=2)],
        vms=vms,
        policy=ConsolidatePolicy(target_percent=75.0, hysteresis_epochs=3),
        dvfs=True,
        epoch_s=10.0,
    )
    sim.run(100.0)
    on_counts = [stat.machines_on for stat in sim.stats]
    # Two hosts while both are hot; the drain lands only after the packing
    # has wanted fewer hosts for 3 consecutive epochs.
    assert on_counts[:3] == [2, 2, 2]
    assert on_counts[-1] == 1
    first_single = on_counts.index(1)
    assert first_single >= 5  # t>=30 demand drop + 3-epoch streak
    assert sim.total_migrations == 1


def test_consolidate_spills_overloaded_hosts_immediately():
    demands = {"vm0": 20.0, "vm1": 20.0, "vm2": 20.0}

    def demand(name):
        return lambda t: demands[name] if t < 30.0 else 45.0

    vms = [
        ClusterVM(name, credit=60.0, memory_mb=2048, demand=demand(name))
        for name in ("vm0", "vm1", "vm2")
    ]
    sim = Orchestrator(
        machine_specs=[MachineSpec(count=3)],
        vms=vms,
        policy=ConsolidatePolicy(target_percent=75.0, spill_percent=88.0),
        dvfs=True,
        epoch_s=10.0,
    )
    sim.run(100.0)
    # 3x20+5 = 65% packs on one host; 3x45+5 = 140% must spill onto more.
    assert sim.stats[0].machines_on == 1
    assert sim.stats[-1].machines_on > 1
    assert sim.total_migrations >= 1


def _final_demand_spread(sim):
    last = sim.stats[-1].time - sim.epoch_s
    loads = [
        sum(vm.demand_at(last) for vm in machine.vms) for machine in sim.machines
    ]
    return max(loads) - min(loads)


def test_load_balance_keeps_hosts_even():
    balanced = run_cluster_scenario(BASE.with_changes(policy="load-balance"))
    packed = run_cluster_scenario(BASE.with_changes(policy="consolidate"))
    # The whole fleet stays on, and demand spreads far flatter than a
    # consolidating policy leaves it (which idles some hosts entirely).
    final = balanced.host_records()[-BASE.n_machines :]
    assert all(record["powered_on"] for record in final)
    assert _final_demand_spread(balanced) < _final_demand_spread(packed)


def test_power_budget_respects_the_cap_every_epoch():
    budget = 150.0
    sim = run_cluster_scenario(
        BASE.with_changes(policy="power-budget", power_budget_w=budget)
    )
    assert sim.peak_power_w <= budget
    assert all(stat.power_w <= budget + 1e-9 for stat in sim.stats)


def test_power_budget_cap_trades_sla_for_watts():
    loose = run_cluster_scenario(
        BASE.with_changes(policy="power-budget", power_budget_w=1000.0)
    )
    tight = run_cluster_scenario(
        BASE.with_changes(policy="power-budget", power_budget_w=110.0)
    )
    assert tight.peak_power_w <= 110.0
    assert tight.fleet_energy_joules < loose.fleet_energy_joules
    assert tight.mean_sla_fraction < loose.mean_sla_fraction


def test_power_budget_beats_static_on_energy():
    static = run_cluster_scenario(BASE.with_changes(policy="static"))
    capped = run_cluster_scenario(
        BASE.with_changes(policy="power-budget", power_budget_w=150.0)
    )
    assert capped.fleet_energy_joules < static.fleet_energy_joules


def test_policies_pin_frequencies_under_power_budget():
    sim = run_cluster_scenario(
        BASE.with_changes(policy="power-budget", power_budget_w=120.0)
    )
    # The cap binds: some host must have been steered below the frequency
    # plain demand-driven DVFS picks.
    free = run_cluster_scenario(BASE.with_changes(policy="consolidate"))
    assert sim.fleet_energy_joules < free.fleet_energy_joules


def test_placement_baselines_run_through_the_orchestrator():
    for policy in ("spread", "consolidate-ffd"):
        sim = run_cluster_scenario(
            BASE.with_changes(policy=policy, n_vms=6, vm_memory_mb=5120)
        )
        assert len(sim.stats) == 20


def _run_digest(config):
    sim = run_cluster_scenario(config)
    records = [
        sim.epoch_records(),
        sim.host_records(),
        sim.migration_records(),
        sim.domain_records(),
    ]
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


_ABLATION_FLEET = ClusterScenarioConfig(n_machines=8, n_vms=12)


#: Epoch, host, migration and domain record digests, pinned from the
#: placement-callable implementation the two baselines replaced.
_BASELINE_DIGESTS = [
    (
        _ABLATION_FLEET.with_changes(policy="spread", dvfs=False),
        "74ea58d62484bb3d10b564e4740659b16cc3081622d975a620e372205930fd04",
    ),
    (
        _ABLATION_FLEET.with_changes(policy="spread", dvfs=True),
        "3e2b301ef0af4d78bf1ad36e32bf53b019f8b62731a41db21558d0052e8452aa",
    ),
    (
        _ABLATION_FLEET.with_changes(policy="consolidate-ffd", dvfs=False),
        "e2d668828b057f4ad81014ee86d14b9534ce9df06f974d38f853f34c858a3949",
    ),
    (
        _ABLATION_FLEET.with_changes(policy="consolidate-ffd", dvfs=True),
        "cf6c3b297c9da0e5407ef98b384fffbdb000e78d20d598db61bc7c19042d9142",
    ),
    (
        preset_config("dc-hetero").with_changes(policy="spread"),
        "f9f7ec2df38406fbdd4b44841a590efee9c21cc3b11bca3998cdd419783e7aa8",
    ),
    (
        preset_config("dc-hetero").with_changes(policy="consolidate-ffd"),
        "7f622130fe658cb3df4d168399cbaeb7869db3a06e25f1d0411a384ab7491b88",
    ),
]


@pytest.mark.parametrize(
    ("config", "digest"),
    _BASELINE_DIGESTS,
    ids=[config.describe() for config, _ in _BASELINE_DIGESTS],
)
def test_placement_baselines_reproduce_their_records(config, digest):
    assert _run_digest(config) == digest


def test_spread_bills_nothing_to_hosts_it_leaves_empty():
    sim = run_cluster_scenario(
        ClusterScenarioConfig(
            n_machines=8, n_vms=4, policy="spread", dvfs=False, duration=200.0
        )
    )
    ever_used = {
        record["machine"] for record in sim.host_records() if record["vms"]
    }
    assert len(ever_used) == 4
    assert sim.mean_machines_on == 4.0
    for machine in sim.machines:
        if machine.name not in ever_used:
            assert machine.energy_joules == 0.0


def test_static_policy_is_reusable_object():
    policy = StaticPolicy()
    vms = [
        ClusterVM(f"vm{i}", credit=30.0, memory_mb=4096, demand=lambda t: 10.0)
        for i in range(4)
    ]
    sim = Orchestrator(
        machine_specs=[MachineSpec(count=2)],
        vms=vms,
        policy=policy,
        dvfs=True,
        epoch_s=10.0,
    )
    sim.run(50.0)
    assert current_assignment(sim.machines) == {
        "vm0": "m000",
        "vm1": "m000",
        "vm2": "m000",
        "vm3": "m001",
    }


def test_static_plans_keep_the_fleet_once_it_holds_the_booking():
    policy = StaticPolicy()
    machines = [Machine(f"m{index}", MachineSpec()) for index in range(2)]
    vms = [
        ClusterVM(f"vm{i}", credit=30.0, memory_mb=4096, demand=lambda t: 10.0)
        for i in range(4)
    ]
    demands = {vm.name: 10.0 for vm in vms}

    def plan():
        return policy.plan(
            machines,
            vms,
            demands,
            current_assignment(machines),
            time=0.0,
            epoch_index=0,
            epoch_s=10.0,
            dvfs=True,
        )

    booking = plan().assignment
    assert booking == {"vm0": "m0", "vm1": "m0", "vm2": "m0", "vm3": "m1"}
    by_name = {machine.name: machine for machine in machines}
    for vm in vms:
        by_name[booking[vm.name]].place(vm)
    assert plan().assignment is None
    # A placement that drifted from the booking is restored.
    by_name["m1"].evict(vms[3])
    by_name["m0"].evict(vms[0])
    by_name["m1"].place(vms[0])
    by_name["m0"].place(vms[3])
    assert plan().assignment == booking


def test_power_budget_policy_carries_consolidate_knobs():
    policy = PowerBudgetPolicy(budget_w=200.0, target_percent=60.0)
    assert policy.target_percent == 60.0
    assert policy.budget_w == 200.0


# ------------------------------------------------- packers vs their references


def reference_pack_balanced(machines, vms, weight):
    """The full-scan worst-fit the heap replaced, kept as the oracle."""
    loads = {machine.name: 0.0 for machine in machines}
    free_mb = {machine.name: machine.spec.memory_mb for machine in machines}
    assignment = {}
    for vm in sorted(vms, key=lambda v: (-weight(v), v.name)):
        feasible = [m for m in machines if vm.memory_mb <= free_mb[m.name]]
        if not feasible:
            raise PlacementError(f"VM {vm.name!r} ({vm.memory_mb} MB) fits no machine")
        target = min(
            feasible,
            key=lambda m: (loads[m.name] / (m.capacity_percent / 100.0), m.name),
        )
        assignment[vm.name] = target.name
        loads[target.name] += weight(vm)
        free_mb[target.name] -= vm.memory_mb
    return assignment


def reference_pack_first_fit(machines, vms, weight, *, limit_percent):
    """The visit-every-host first fit, kept as the oracle."""
    loads = {machine.name: 0.0 for machine in machines}
    free_mb = {machine.name: machine.spec.memory_mb for machine in machines}
    assignment = {}
    for vm in sorted(vms, key=lambda v: (-weight(v), v.name)):
        share = weight(vm)
        for machine in machines:
            if vm.memory_mb > free_mb[machine.name]:
                continue
            budget = (
                limit_percent * (machine.capacity_percent / 100.0)
                - machine.spec.overhead_percent
            )
            if loads[machine.name] + share > budget and loads[machine.name] > 0.0:
                continue
            assignment[vm.name] = machine.name
            loads[machine.name] += share
            free_mb[machine.name] -= vm.memory_mb
            break
        else:
            raise PlacementError(f"VM {vm.name!r} ({vm.memory_mb} MB) fits no machine")
    return assignment


@st.composite
def packing_cases(draw):
    """A mixed fleet (some hosts too small for big VMs) and a population."""
    count = draw(st.integers(min_value=1, max_value=8))
    names = draw(st.permutations([f"m{index}" for index in range(count)]))
    machines = [
        Machine(
            name,
            MachineSpec(
                processor=draw(
                    st.sampled_from([catalog.CORE_I7_3770, catalog.BIG_LITTLE_44])
                ),
                memory_mb=draw(st.sampled_from([2048, 4096, 8192, 16384])),
            ),
        )
        for name in names
    ]
    weights = {}
    vms = []
    for index in range(draw(st.integers(min_value=0, max_value=16))):
        name = f"vm{index}"
        # Few distinct weights, so ties exercise the name tiebreak; the
        # largest overload a host on their own.
        weights[name] = draw(st.sampled_from([0.0, 2.5, 10.0, 17.5, 30.0, 95.0, 120.0]))
        vms.append(
            ClusterVM(
                name,
                credit=30.0,
                memory_mb=draw(st.sampled_from([1024, 2048, 4096, 8192])),
                demand=lambda t: 0.0,
            )
        )
    return machines, vms, lambda vm: weights[vm.name]


def outcome(packer, *args, **kwargs):
    try:
        return packer(*args, **kwargs)
    except PlacementError as error:
        return ("PlacementError", str(error))


@settings(max_examples=300, deadline=None)
@given(case=packing_cases())
def test_heap_pack_balanced_matches_the_min_scan(case):
    machines, vms, weight = case
    assert outcome(pack_balanced, machines, vms, weight) == outcome(
        reference_pack_balanced, machines, vms, weight
    )


@settings(max_examples=300, deadline=None)
@given(case=packing_cases(), limit=st.sampled_from([1.0, 40.0, 75.0, 100.0]))
def test_pruned_pack_first_fit_matches_the_full_visit(case, limit):
    machines, vms, weight = case
    assert outcome(
        pack_first_fit, machines, vms, weight, limit_percent=limit
    ) == outcome(reference_pack_first_fit, machines, vms, weight, limit_percent=limit)


def test_equal_shares_close_hosts_by_cpu_alone():
    # 16 GB hosts take eight 2 GB VMs each by memory but only three 30 %
    # shares under a 95 % budget; once the smallest share no longer fits,
    # a host is not visited again, and the placement is the full visit's.
    machines = [Machine(f"m{index}", MachineSpec()) for index in range(4)]
    vms = [
        ClusterVM(f"vm{index:02d}", credit=30.0, memory_mb=2048, demand=lambda t: 0.0)
        for index in range(10)
    ]
    packed = pack_first_fit(machines, vms, lambda vm: vm.credit, limit_percent=100.0)
    assert packed == reference_pack_first_fit(
        machines, vms, lambda vm: vm.credit, limit_percent=100.0
    )
    assert [list(packed.values()).count(m.name) for m in machines] == [3, 3, 3, 1]


# ------------------------------------------------------ one sample per epoch


def counting_population(count, calls):
    """VMs whose demand callables log every (vm, time) they are asked."""

    def demand(name):
        def sample(t):
            calls.append((name, t))
            return 12.0 + 18.0 * ((t // 10.0) % 3 == 0)

        return sample

    return [
        ClusterVM(f"vm{index}", credit=30.0, memory_mb=4096, demand=demand(f"vm{index}"))
        for index in range(count)
    ]


def test_power_budget_samples_each_vm_once_per_epoch():
    calls = []
    vms = counting_population(6, calls)
    sim = Orchestrator(
        machine_specs=[MachineSpec(count=4)],
        vms=vms,
        policy=PowerBudgetPolicy(budget_w=120.0),
        dvfs=True,
        epoch_s=10.0,
        power_budget_w=120.0,
    )
    sim.run(100.0)
    epochs = [index * 10.0 for index in range(10)]
    assert len(sim.stats) == len(epochs)
    assert sorted(calls) == sorted((vm.name, t) for vm in vms for t in epochs)


def test_a_new_query_time_takes_a_fresh_sample():
    calls = []
    (vm,) = counting_population(1, calls)
    assert vm.demand_at(0.0) == 30.0
    assert vm.demand_at(0.0) == 30.0
    assert vm.demand_at(10.0) == 12.0
    assert vm.demand_at(0.0) == 30.0
    assert calls == [("vm0", 0.0), ("vm0", 10.0), ("vm0", 0.0)]
