"""``power-budget`` planning: the cached step-down loop matches a naive one.

The policy predicts each host once and re-predicts only the host it steps
down.  These tests replay every epoch of a 64-machine fleet whose cap binds
and check, per plan, that a loop re-predicting every host on every step
(the obvious reading of the algorithm) picks the same frequencies, and that
the policy made no more ``predict_power`` calls than hosts budgeted plus
step-downs taken.  Hosts with tied watts step down last name first, as a
``max`` over ``(watts, name)`` picks them.
"""

import pytest

from repro.cluster import PowerBudgetPolicy, current_assignment
from repro.cluster.machine import Machine, MachineSpec
from repro.cluster.vm import ClusterVM
from repro.cluster.scenario import build_cluster
from repro.experiments.presets import get_preset

#: 64 machines at 20 W each: well under what the demand wants, so it binds.
CONFIG = get_preset("dc-fleet-large").config.with_changes(
    n_machines=64,
    n_vms=192,
    policy="power-budget",
    power_budget_w=64 * 20.0,
)


def naive_frequencies(policy, machines, vms, assignment, *, time, dvfs):
    """The step-down loop re-predicting every host on every step.

    Returns the chosen MHz per host and the number of step-downs taken.
    """
    current = current_assignment(machines)
    migrating = {
        host
        for vm_name, dest in assignment.items()
        if current.get(vm_name) not in (None, dest)
        for host in (current[vm_name], dest)
    }
    demands = {vm.name: vm.demand_at(time) for vm in vms}
    hosted: dict[str, float] = {name: 0.0 for name in migrating}
    for vm_name, machine_name in assignment.items():
        hosted[machine_name] = hosted.get(machine_name, 0.0) + demands[vm_name]
    by_name = {machine.name: machine for machine in machines}
    chosen = {}
    for name, demand in sorted(hosted.items()):
        machine = by_name[name]
        total = demand + machine.spec.overhead_percent
        chosen[name] = machine.plan_frequency(total) if dvfs else machine.max_freq_mhz

    def predicted(name):
        machine = by_name[name]
        return machine.predict_power(
            hosted[name] + machine.spec.overhead_percent,
            chosen[name],
            full_util=name in migrating,
        )

    steps = 0
    while sum(predicted(name) for name in chosen) > policy.budget_w:
        candidates = [n for n in chosen if chosen[n] > by_name[n].min_freq_mhz]
        if not candidates:
            break
        hottest = max(candidates, key=lambda n: (predicted(n), n))
        chosen[hottest] = by_name[hottest].step_down_choice(chosen[hottest])
        steps += 1
    return chosen, steps


def test_cached_plan_matches_naive_loop_within_call_bound(monkeypatch):
    calls = [0]
    predict_power = Machine.predict_power

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return predict_power(self, *args, **kwargs)

    sim = build_cluster(CONFIG)
    policy = sim.policy
    assert isinstance(policy, PowerBudgetPolicy)
    plan = policy.plan
    checked = []

    def checked_plan(machines, vms, demands, current, *, time, epoch_index, epoch_s, dvfs):
        calls[0] = 0
        with monkeypatch.context() as patch:
            patch.setattr(Machine, "predict_power", counting)
            result = plan(
                machines,
                vms,
                demands,
                current,
                time=time,
                epoch_index=epoch_index,
                epoch_s=epoch_s,
                dvfs=dvfs,
            )
        made = calls[0]
        assignment = (
            result.assignment
            if result.assignment is not None
            else current_assignment(machines)
        )
        expected, steps = naive_frequencies(
            policy, machines, vms, assignment, time=time, dvfs=dvfs
        )
        assert dict(result.freq_floors) == expected
        assert dict(result.freq_ceilings) == expected
        assert made <= len(expected) + steps
        checked.append(steps)
        return result

    monkeypatch.setattr(policy, "plan", checked_plan)
    sim.run(CONFIG.duration)
    assert len(checked) == len(sim.stats)
    assert sum(checked) > 0, "the cap never bound; the test proves nothing"


def tied_fleet():
    """Four identical hosts, one VM each at equal demand: every watt ties."""
    machines = [Machine(f"m{index}", MachineSpec()) for index in range(4)]
    vms = [
        ClusterVM(f"v{index}", credit=80.0, memory_mb=2048, demand=lambda t: 70.0)
        for index in range(4)
    ]
    for machine, vm in zip(machines, vms):
        machine.place(vm)
    return machines, vms


@pytest.mark.parametrize(
    "budget_w, frequencies",
    [
        (300.0, (2800, 2800, 2800, 2800)),
        (250.0, (2800, 2800, 2400, 2400)),
        (200.0, (2400, 2400, 2000, 2000)),
        (175.0, (2000, 2000, 2000, 2000)),
        (150.0, (2000, 2000, 1600, 1600)),
        (100.0, (1600, 1600, 1600, 1600)),  # infeasible: all at the floor
    ],
)
def test_tied_watts_step_down_the_last_name_first(budget_w, frequencies):
    machines, vms = tied_fleet()
    policy = PowerBudgetPolicy(budget_w=budget_w)
    plan = policy.plan(
        machines,
        vms,
        {vm.name: vm.demand_at(0.0) for vm in vms},
        current_assignment(machines),
        time=0.0,
        epoch_index=0,
        epoch_s=10.0,
        dvfs=True,
    )
    expected, _ = naive_frequencies(
        policy, machines, vms, current_assignment(machines), time=0.0, dvfs=True
    )
    assert plan.assignment is None
    assert dict(plan.freq_floors) == expected
    assert expected == {f"m{index}": mhz for index, mhz in enumerate(frequencies)}
