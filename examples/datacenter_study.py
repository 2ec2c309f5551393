"""Datacenter orchestration study: policies, caps and day shapes.

Runs the ``dc-diurnal`` fleet (24 VMs mixing all five day shapes on 10
machines) under every orchestration policy, then tightens the
``power-budget`` watt cap step by step to show the energy/SLA trade the
multi-host PAS cap buys.

Run with::

    PYTHONPATH=src python examples/datacenter_study.py
"""

import sys

from repro.cli import run_piped
from repro.cluster import ORCHESTRATION_POLICIES, run_cluster_scenario
from repro.experiments import preset_config
from repro.sweep.metrics import cluster_metrics
from repro.telemetry import table_to_text


def main() -> None:
    config = preset_config("dc-diurnal")

    rows = []
    for policy in ORCHESTRATION_POLICIES:
        sim = run_cluster_scenario(config.with_changes(policy=policy))
        m = cluster_metrics(sim)
        rows.append(
            [
                policy,
                f"{m['energy_kwh'] * 1000:8.2f}",
                f"{m['hosts_on_mean']:6.2f}",
                str(m["migrations"]),
                f"{m['sla_mean'] * 100:6.2f}",
                f"{m['power_peak_w']:7.1f}",
            ]
        )
    print(
        table_to_text(
            ["policy", "energy Wh", "hosts on", "migrations", "SLA %", "peak W"],
            rows,
            title="dc-diurnal: one day, four orchestration policies",
        )
    )

    print()
    rows = []
    for budget in (240.0, 200.0, 170.0, 140.0):
        sim = run_cluster_scenario(
            config.with_changes(policy="power-budget", power_budget_w=budget)
        )
        m = cluster_metrics(sim)
        rows.append(
            [
                f"{budget:.0f} W",
                f"{m['energy_kwh'] * 1000:8.2f}",
                f"{m['sla_mean'] * 100:6.2f}",
                f"{m['power_peak_w']:7.1f}",
                "yes" if m["power_peak_w"] <= budget else "NO",
            ]
        )
    print(
        table_to_text(
            ["cap", "energy Wh", "SLA %", "peak W", "cap held"],
            rows,
            title="tightening the cluster watt cap (power-budget policy)",
        )
    )


if __name__ == "__main__":
    sys.exit(run_piped(main))
