"""Cluster orchestration benchmark: policy comparison on the diurnal fleet.

The acceptance shape for the datacenter orchestration subsystem, on the
``dc-diurnal`` preset (24 VMs mixing all five day shapes on 10 machines):

* ``consolidate`` and ``power-budget`` both undercut ``static``
  credit-provisioning on fleet energy;
* ``power-budget`` keeps the fleet under its watt cap in *every* epoch;
* ``static`` never migrates, the dynamic policies pay for their churn in
  priced migrations yet keep the SLA above 97 %.

Runs without pytest-benchmark (plain assertions) so CI can invoke it with
a bare ``python -m pytest benchmarks/bench_cluster.py``.
"""

from repro.cluster import ORCHESTRATION_POLICIES, run_cluster_scenario
from repro.experiments import preset_config
from repro.experiments.report import ExperimentReport
from repro.sweep.metrics import cluster_metrics

from .conftest import emit



def test_orchestration_policies_on_the_diurnal_fleet():
    config = preset_config("dc-diurnal")
    metrics = {}
    for policy in ORCHESTRATION_POLICIES:
        sim = run_cluster_scenario(config.with_changes(policy=policy))
        metrics[policy] = cluster_metrics(sim)

    report = ExperimentReport(
        experiment="Cluster benchmark",
        title="orchestration policies on the dc-diurnal fleet (24 VMs / 10 machines)",
    )
    for policy in ORCHESTRATION_POLICIES:
        m = metrics[policy]
        report.add_row(
            policy,
            "Wh / hosts / migrations / SLA / peak W",
            f"{m['energy_kwh'] * 1000:6.2f} / {m['hosts_on_mean']:5.2f} / "
            f"{m['migrations']:3d} / {m['sla_mean'] * 100:6.2f}% / "
            f"{m['power_peak_w']:6.1f}",
        )
    report.check(
        "consolidate beats static on energy",
        metrics["consolidate"]["energy_kwh"] < metrics["static"]["energy_kwh"],
    )
    report.check(
        "power-budget beats static on energy",
        metrics["power-budget"]["energy_kwh"] < metrics["static"]["energy_kwh"],
    )
    report.check(
        f"power-budget respects the {config.power_budget_w:.0f} W cap every epoch",
        metrics["power-budget"]["power_peak_w"] <= config.power_budget_w,
    )
    report.check(
        "static provisioning never migrates",
        metrics["static"]["migrations"] == 0,
    )
    report.check(
        "dynamic policies migrate (the churn is real, and priced)",
        metrics["consolidate"]["migrations"] > 0
        and metrics["load-balance"]["migrations"] > 0,
    )
    report.check(
        "every policy keeps the SLA above 97%",
        all(m["sla_mean"] > 0.97 for m in metrics.values()),
    )
    emit(report)
    assert report.all_passed, f"shape criteria failed: {[str(c) for c in report.failures]}"
