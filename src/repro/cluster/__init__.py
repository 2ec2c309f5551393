"""Datacenter orchestration substrate (grown from the §2.3 argument).

§2.3 claims — without measuring — that server consolidation cannot replace
DVFS because **memory bounds packing**.  This package makes the claim
quantitative, and then takes it to production scale: an epoch-driven
:class:`~repro.cluster.orchestrator.Orchestrator` re-evaluates the fleet
every epoch, live-migrates VMs under a configurable cost model, and steers
per-host frequency bounds — so cluster-level policies (static
credit-provisioning, hysteretic consolidation, load balancing, and the
multi-host-PAS ``power-budget`` watt cap) can be compared on energy, SLA,
churn and cap compliance.

It is a *fleet-scale, epoch-fluid* model (demand and capacity as rates per
epoch), deliberately coarser than the slice-level single-host simulator in
:mod:`repro.hypervisor`: cluster placement decisions play out over minutes,
where per-slice mechanics average out.  It reuses the same processor catalog,
the Eq. 1 capacity law and the package power model, so per-host frequency
selection is exactly Listing 1.1.

Pieces:

* :class:`~repro.cluster.machine.MachineSpec` / ``Machine`` — a host with a
  processor, finite memory and policy-clampable frequency;
* :class:`~repro.cluster.vm.ClusterVM` — a VM with booked credit, a memory
  footprint and a demand trace;
* :mod:`~repro.cluster.policies` — the policy registry: the orchestration
  policies (``static``, ``consolidate``, ``load-balance``,
  ``power-budget``) and the §2.3 placement baselines (``spread`` vs
  memory-bound first-fit ``consolidate-ffd``);
* :mod:`~repro.cluster.migration` — downtime + dirty-page-copy pricing of
  one live migration;
* :class:`~repro.cluster.orchestrator.Orchestrator` — the epoch loop,
  producing fleet *and* per-host telemetry series;
* :class:`~repro.cluster.scenario.ClusterScenarioConfig` — the declarative,
  sweepable fleet spec (day-shape populations, migration pricing, watt
  caps).
"""

from .machine import Machine, MachineSpec
from .vm import ClusterVM
from .migration import (
    DEFAULT_MIGRATION,
    FREE_MIGRATION,
    MigrationEvent,
    MigrationModel,
)
from .policies import (
    ConsolidatePolicy,
    current_assignment,
    EpochPlan,
    FirstFitPolicy,
    LoadBalancePolicy,
    make_policy,
    ORCHESTRATION_POLICIES,
    OrchestrationPolicy,
    PlacementError,
    POLICY_REGISTRY,
    PowerBudgetPolicy,
    SpreadPolicy,
    StaticPolicy,
)
from .orchestrator import EpochStats, Orchestrator
from .scenario import (
    build_cluster,
    ClusterScenarioConfig,
    make_population,
    run_cluster_scenario,
)

__all__ = [
    "Machine",
    "MachineSpec",
    "ClusterVM",
    "MigrationModel",
    "MigrationEvent",
    "DEFAULT_MIGRATION",
    "FREE_MIGRATION",
    "PlacementError",
    "OrchestrationPolicy",
    "EpochPlan",
    "StaticPolicy",
    "ConsolidatePolicy",
    "LoadBalancePolicy",
    "PowerBudgetPolicy",
    "SpreadPolicy",
    "FirstFitPolicy",
    "POLICY_REGISTRY",
    "ORCHESTRATION_POLICIES",
    "make_policy",
    "current_assignment",
    "Orchestrator",
    "EpochStats",
    "ClusterScenarioConfig",
    "build_cluster",
    "make_population",
    "run_cluster_scenario",
]
