"""Ablation E: consolidation x DVFS — quantifying §2.3 (ours).

§2.3: "even if consolidation can reduce the number of active machines in a
hosting center, it cannot optimally guarantee full usage of CPU on active
machines as it is memory bound.  Consequently, DVFS is complementary to
consolidation."

Setup: a fleet of i7-3770 machines (16 GB each), a population of VMs whose
memory footprints (5 GB) bind at 3 VMs per host while their *CPU* demand
follows light diurnal traces — so even perfectly packed hosts idle around
40-80 % CPU.  Four strategies:

* spread, no DVFS — the worst case (whole fleet on, at max frequency);
* spread + DVFS — what DVFS alone buys;
* consolidation, no DVFS — what packing alone buys;
* consolidation + DVFS — the paper's position: both.

The shape claim: consolidation + DVFS beats consolidation alone by a
meaningful margin *because* packed hosts are still CPU-underloaded, and
every strategy delivers the full SLA (demand never exceeds booked credits).
"""

from __future__ import annotations

from ..cluster import ClusterScenarioConfig, Orchestrator
from ..sweep import run_cells, SweepGrid
from ..sweep.metrics import fleet_metrics
from .report import ExperimentReport


def run_consolidation_ablation(
    *,
    n_machines: int = 8,
    n_vms: int = 12,
    duration: float = 600.0,
    seed: int = 7,
) -> ExperimentReport:
    """Fleet energy under the four strategies of §2.3.

    A thin reduction over a policy x DVFS sweep of the declarative
    :class:`~repro.cluster.scenario.ClusterScenarioConfig` (the raw sims
    are kept for the packed-host memory-bound introspection below).
    """
    report = ExperimentReport(
        experiment="Ablation E (consolidation)",
        title="memory-bound consolidation leaves CPU idle - DVFS is complementary (§2.3)",
    )
    base = ClusterScenarioConfig(
        n_machines=n_machines, n_vms=n_vms, duration=duration, seed=seed
    )
    strategies = {
        "spread, no DVFS": base.with_changes(policy="spread", dvfs=False),
        "spread + DVFS": base.with_changes(policy="spread", dvfs=True),
        "consolidation, no DVFS": base.with_changes(policy="consolidate", dvfs=False),
        "consolidation + DVFS": base.with_changes(policy="consolidate", dvfs=True),
    }
    sims: dict[str, Orchestrator] = run_cells(SweepGrid.from_variants(strategies))
    energy: dict[str, float] = {}
    for label, sim in sims.items():
        metrics = fleet_metrics(sim)
        energy[label] = metrics["fleet_energy_joules"]
        report.add_row(
            label,
            "energy kJ / machines on / SLA",
            f"{metrics['fleet_energy_joules'] / 1000:8.1f} / {metrics['mean_machines_on']:4.1f} "
            f"/ {metrics['mean_sla_fraction'] * 100:5.1f}%",
        )

    consolidated = sims["consolidation + DVFS"]
    packed_hosts = [m for m in consolidated.machines if m.vms]
    cpu_loads = [sum(vm.demand_at(0.0) for vm in m.vms) for m in packed_hosts]
    report.add_row(
        "packed-host CPU demand (t=0)",
        "well under 100% (memory-bound)",
        " / ".join(f"{load:.0f}%" for load in cpu_loads),
    )
    report.check(
        "consolidation alone saves energy vs spread",
        energy["consolidation, no DVFS"] < energy["spread, no DVFS"] * 0.8,
    )
    report.check(
        "DVFS still saves >= 10% on top of consolidation (the §2.3 claim)",
        energy["consolidation + DVFS"] < energy["consolidation, no DVFS"] * 0.9,
    )
    report.check(
        "combining both is the cheapest strategy",
        energy["consolidation + DVFS"] == min(energy.values()),
    )
    report.check(
        "memory binds before CPU: packed hosts stay below 80% CPU demand",
        all(load < 80.0 for load in cpu_loads),
    )
    report.check(
        "every strategy delivers the full SLA",
        all(sim.mean_sla_fraction > 0.999 for sim in sims.values()),
    )
    return report
