"""Kept planning state plans exactly like state rebuilt every epoch.

``consolidate``, ``power-budget`` and ``load-balance`` keep one
``_FleetState`` (and its placement order) across epochs and refresh only
its per-epoch parts.  The reference run rebuilds both every epoch, which
is what the policies did before they kept anything: ``describes`` always
answers no.  Both runs go through the same population changes mid-run
(a truncated ``sim.vms``, then a same-name VM swapped in with different
memory and demand), and must export the same records.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterVM, MachineSpec, Orchestrator
from repro.cluster.policies import _FleetState

POLICIES = ("consolidate", "power-budget", "load-balance")


def _demand(base, swing, phase):
    # Piecewise-constant in time, so hosts cross the spill and drain
    # thresholds back and forth over a few epochs.
    return lambda t: base + swing * ((int(t // 10.0) + phase) % 3)


@st.composite
def scenarios(draw):
    machines = draw(st.integers(min_value=2, max_value=6))
    count = draw(st.integers(min_value=2, max_value=3 * machines))
    vms = [
        (
            draw(st.sampled_from([1024, 2048, 4096])),
            draw(st.floats(min_value=0.0, max_value=30.0)),
            draw(st.floats(min_value=0.0, max_value=25.0)),
            draw(st.integers(min_value=0, max_value=2)),
        )
        for _ in range(count)
    ]
    keep = draw(st.integers(min_value=1, max_value=count))
    # The swapped-in VM frees or claims memory on its host.
    swap = (
        draw(st.sampled_from([1024, 8192])),
        draw(st.floats(min_value=0.0, max_value=40.0)),
    )
    return machines, vms, keep, swap


def _run(policy, machines, vms, keep, swap):
    population = [
        ClusterVM(
            f"vm{index}",
            credit=40.0,
            memory_mb=memory,
            demand=_demand(base, swing, phase),
        )
        for index, (memory, base, swing, phase) in enumerate(vms)
    ]
    sim = Orchestrator(
        machine_specs=[MachineSpec(count=machines, memory_mb=16384)],
        vms=population,
        policy=policy,
        dvfs=True,
        power_budget_w=40.0 * machines,
    )
    outcome = None
    try:
        sim.run(60.0)
        sim.vms = sim.vms[:keep]
        sim.run(40.0)
        memory, demand = swap
        sim.vms[0] = ClusterVM(
            sim.vms[0].name, credit=40.0, memory_mb=memory, demand=lambda t: demand
        )
        sim.run(60.0)
    except Exception as error:  # both runs must fail the same way, if at all
        outcome = (type(error).__name__, str(error))
    return (
        sim.epoch_records(),
        sim.host_records(),
        sim.migration_records(),
        outcome,
    )


@given(scenario=scenarios())
@settings(max_examples=40, deadline=None)
def test_kept_state_plans_like_state_rebuilt_every_epoch(scenario):
    for policy in POLICIES:
        kept = _run(policy, *scenario)
        with mock.patch.object(_FleetState, "describes", return_value=False):
            rebuilt = _run(policy, *scenario)
        assert kept == rebuilt
