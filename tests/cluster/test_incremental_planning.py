"""Fleet planning at scale, and the infeasible power cap.

The golden fleets are too small to reach a consolidate spill, a hysteresis
drain and first-fit host closing in one run, so the ``dc-fleet-large`` mix
is pinned here at 64 machines / 192 VMs with a binding 1280 W cap: the
sweep export's sha256, the migrations executed and the ``predict_power``
calls the ``power-budget`` step-down loop makes.  A planning change that
moves any decision shows in one of the three.
"""

import hashlib
import json

from repro.cluster import ClusterVM, MachineSpec, Orchestrator, PowerBudgetPolicy
from repro.cluster.machine import Machine
from repro.experiments import get_preset, preset_grid
from repro.obs import MetricsRegistry, observed
from repro.sweep import SweepRunner


def test_dc_fleet_large_at_scale_is_pinned(monkeypatch):
    counts = {"predict_power": 0, "migrations": 0}
    predict_power = Machine.predict_power
    run = Orchestrator.run

    def counted_predict_power(machine, *args, **kwargs):
        counts["predict_power"] += 1
        return predict_power(machine, *args, **kwargs)

    def counted_run(sim, duration):
        stats = run(sim, duration)
        counts["migrations"] += sim.total_migrations
        return stats

    monkeypatch.setattr(Machine, "predict_power", counted_predict_power)
    monkeypatch.setattr(Orchestrator, "run", counted_run)
    grid = preset_grid(
        "dc-fleet-large",
        overrides={"n_machines": 64, "n_vms": 192, "power_budget_w": 1280.0},
    )
    assert [cell.config.policy for cell in grid] == [
        "static",
        "consolidate",
        "load-balance",
        "power-budget",
    ]
    export = SweepRunner(grid, metrics=get_preset("dc-fleet-large").metrics).run()
    assert (
        hashlib.sha256(export.to_json().encode()).hexdigest()
        == "93a35100c3c2d2ea11c70ae26e7e85b626aae6f277a73013a4d3caded15c5e5d"
    )
    assert counts == {"predict_power": 994, "migrations": 94}


def _capped_fleet():
    vms = [
        ClusterVM(f"vm{i}", credit=40.0, memory_mb=2048, demand=lambda t: 20.0)
        for i in range(3)
    ]
    return Orchestrator(
        machine_specs=[MachineSpec(count=2)],
        vms=vms,
        policy=PowerBudgetPolicy(budget_w=1.0),
        dvfs=True,
    )


def _exports(sim):
    return json.dumps(
        [sim.epoch_records(), sim.host_records(), sim.migration_records()]
    )


def test_an_infeasible_cap_is_counted_every_epoch():
    registry = MetricsRegistry()
    observed_sim = _capped_fleet()
    with observed(metrics=registry):
        observed_sim.run(50.0)
    assert registry.counter("cluster.cap_infeasible_epochs") == 5
    # Every epoch served over the cap: it was infeasible, not ignored.
    assert all(stat.power_w > 1.0 for stat in observed_sim.stats)
    plain_sim = _capped_fleet()
    plain_sim.run(50.0)
    assert _exports(plain_sim) == _exports(observed_sim)


def test_a_feasible_cap_counts_no_infeasible_epoch():
    registry = MetricsRegistry()
    sim = _capped_fleet()
    sim.policy.budget_w = 1000.0
    with observed(metrics=registry):
        sim.run(50.0)
    assert registry.counter("cluster.cap_infeasible_epochs") == 0


def test_the_planning_state_is_kept_until_the_population_changes():
    vms = [
        ClusterVM(f"vm{i}", credit=40.0, memory_mb=2048, demand=lambda t: 10.0)
        for i in range(4)
    ]
    sim = Orchestrator(
        machine_specs=[MachineSpec(count=3)], vms=vms, policy="consolidate", dvfs=True
    )
    sim.run(20.0)
    kept = sim.policy._state
    sim.run(20.0)
    assert sim.policy._state is kept
    sim.vms[0] = ClusterVM("vm0", credit=40.0, memory_mb=8192, demand=lambda t: 5.0)
    sim.run(10.0)
    assert sim.policy._state is not kept
    kept = sim.policy._state
    sim.vms = sim.vms[:3]
    sim.run(10.0)
    assert sim.policy._state is not kept
