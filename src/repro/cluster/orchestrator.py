"""The epoch-driven datacenter orchestrator.

Each epoch the :class:`Orchestrator` samples every VM's demand once and
reads the live placement once, then (1) asks its policy for an
:class:`~repro.cluster.policies.EpochPlan`, (2) executes the plan's
migrations — charging the configured
:class:`~repro.cluster.migration.MigrationModel` costs: dirty-page copy CPU
to the source *and* destination hosts, a service blackout to the migrating
VM — (3) serves every machine's demand at its (DVFS-chosen, policy-clamped)
P-state, integrating energy, and (4) records fleet **and** per-host
telemetry: :class:`EpochStats` per epoch, one utilisation/frequency/power
record per host per epoch, and one record per migration event.  The record
lists flow straight through :func:`repro.telemetry.export.records_to_csv`,
so a fleet run exports per-epoch series exactly like a single-host run
exports time series.

Every policy, the §2.3 placement baselines (``spread``,
``consolidate-ffd``) included, goes through this one loop: the
orchestrator executes only the diff between the plan's assignment and the
live one, and powers off the machines the plan leaves empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Mapping, Sequence

from ..errors import ConfigurationError
from ..obs import hooks as _obs
from ..units import check_positive
from .machine import Machine, MachineSpec
from .migration import MigrationEvent, MigrationModel
from .policies import current_assignment, EpochPlan, make_policy, OrchestrationPolicy
from .vm import ClusterVM

#: Served shortfalls below this (absolute percent) are float noise, not
#: SLA violations.
_SLA_EPSILON = 1e-9

#: Column order of :meth:`Orchestrator.epoch_records` (CSV header source).
EPOCH_RECORD_FIELDS = (
    "epoch_s",
    "time",
    "machines_on",
    "demand_percent",
    "served_percent",
    "sla_fraction",
    "energy_joules",
    "power_w",
    "migrations",
)

#: Column order of :meth:`Orchestrator.host_records`.
HOST_RECORD_FIELDS = (
    "time",
    "machine",
    "powered_on",
    "vms",
    "freq_mhz",
    "util",
    "power_w",
)

#: Column order of :meth:`Orchestrator.migration_records`.
MIGRATION_RECORD_FIELDS = ("time", "vm", "source", "dest")


def epoch_count(duration: float, epoch_s: float) -> int:
    """The number of epochs in *duration*: a positive whole number, or an error.

    A fleet advances in whole epochs, so a duration that is not a positive
    whole multiple of *epoch_s* (to a 1e-9 relative tolerance, which
    absorbs decimal steps such as ``0.3 / 0.1``) raises a
    :class:`ConfigurationError` naming both values rather than silently
    simulating a rounded span.
    """
    check_positive(duration, "duration")
    check_positive(epoch_s, "epoch_s")
    epochs = round(duration / epoch_s)
    if epochs < 1 or not math.isclose(epochs * epoch_s, duration, rel_tol=1e-9):
        raise ConfigurationError(
            f"duration {duration} s is not a whole number of "
            f"{epoch_s} s epochs (epoch_s); use a positive multiple of it"
        )
    return epochs


@dataclass(frozen=True)
class EpochStats:
    """Fleet statistics for one epoch."""

    time: float
    machines_on: int
    demand_percent: float
    served_percent: float
    energy_joules: float
    migrations: int
    power_w: float = 0.0

    @property
    def sla_fraction(self) -> float:
        """Served / demanded (1.0 when the fleet kept every promise)."""
        if self.demand_percent <= 0.0:
            return 1.0
        return self.served_percent / self.demand_percent

    @property
    def sla_violated(self) -> bool:
        """True when some demanded capacity went unserved this epoch."""
        return self.demand_percent - self.served_percent > _SLA_EPSILON


class Orchestrator:
    """A fleet of machines + a VM population + an orchestration policy.

    Parameters
    ----------
    machine_specs:
        The fleet as machine groups: each
        :class:`~repro.cluster.machine.MachineSpec` contributes ``count``
        machines, in group order (``m000``, ``m001``, ...).  A homogeneous
        fleet, like the paper's Grid'5000 clusters, is one group.
    vms:
        The VM population.
    policy:
        An :class:`~repro.cluster.policies.OrchestrationPolicy` or a
        :data:`~repro.cluster.policies.POLICY_REGISTRY` name.
    dvfs:
        Whether machines scale frequency to their load (Listing 1.1) or pin
        the maximum.
    epoch_s:
        Seconds per epoch (placement + frequency decisions cadence).
    migration:
        Cost model priced per executed migration; ``None`` = free moves
        (the pre-orchestration behaviour).
    power_budget_w:
        Cluster watt cap, handed to the ``"power-budget"`` policy when the
        policy is given by name.
    placement:
        Heterogeneity placement preference (``"efficiency"`` /
        ``"performance"``) handed to by-name policies; ``None`` keeps
        each policy's own default.
    qos:
        Fleet QoS controller kind (``"none"`` / ``"naive"`` / ``"ladder"``,
        :class:`~repro.qos.fleet.FleetQos`): throttles best-effort VM demand
        on machines whose latency-critical VMs are short-served.
    """

    def __init__(
        self,
        *,
        machine_specs: Sequence[MachineSpec],
        vms: Sequence[ClusterVM],
        policy: OrchestrationPolicy | str,
        dvfs: bool,
        epoch_s: float = 10.0,
        migration: MigrationModel | None = None,
        power_budget_w: float | None = None,
        placement: str | None = None,
        qos: str = "none",
    ) -> None:
        names = {vm.name for vm in vms}
        if len(names) != len(vms):
            raise ConfigurationError("duplicate VM names in the population")
        if isinstance(policy, str):
            policy = make_policy(
                policy, power_budget_w=power_budget_w, placement=placement
            )
        if not isinstance(policy, OrchestrationPolicy):
            raise ConfigurationError(
                f"policy must be an OrchestrationPolicy or a registry name, "
                f"got {type(policy).__name__}"
            )
        expanded = [spec for spec in machine_specs for _ in range(spec.count)]
        if not expanded:
            raise ConfigurationError("machine_specs expands to an empty fleet")
        self.machines = [
            Machine(f"m{i:03d}", spec) for i, spec in enumerate(expanded)
        ]
        self._machines_by_name = {machine.name: machine for machine in self.machines}
        self.vms = list(vms)
        self.policy = policy
        self.dvfs = dvfs
        self.epoch_s = check_positive(epoch_s, "epoch_s")
        self.migration_model = migration
        self.power_budget_w = power_budget_w
        if qos != "none":
            from ..qos.fleet import FleetQos

            self.fleet_qos: "FleetQos | None" = FleetQos(qos, epoch_s=self.epoch_s)
        else:
            self.fleet_qos = None
        self.stats: list[EpochStats] = []
        self.events: list[MigrationEvent] = []
        #: One row per (epoch, host), in :data:`HOST_RECORD_FIELDS` order.
        self._host_stats: list[tuple] = []
        self._domain_stats: list[dict[str, Any]] = []
        self._time = 0.0
        self._epoch_index = 0
        self.total_migrations = 0

    # ------------------------------------------------------------------ run

    def run(self, duration: float) -> list[EpochStats]:
        """Advance the fleet *duration* seconds; returns the epoch stats.

        *duration* must be a positive whole number of epochs
        (:func:`epoch_count`).
        """
        for _ in range(epoch_count(duration, self.epoch_s)):
            self._run_one_epoch()
        return self.stats

    def _plan_epoch(
        self, demands: Mapping[str, float]
    ) -> tuple[EpochPlan, list[MigrationEvent], set[str]]:
        """Consult the policy and execute its placement decision.

        Returns the plan, the executed migrations and the hosts party to
        them (kept powered through this epoch).
        """
        current = current_assignment(self.machines)
        plan = self.policy.plan(
            self.machines,
            self.vms,
            demands,
            current,
            time=self._time,
            epoch_index=self._epoch_index,
            epoch_s=self.epoch_s,
            dvfs=self.dvfs,
        )
        events = (
            []
            if plan.assignment is None
            else self._apply_assignment(plan.assignment, current)
        )
        # Machines the plan leaves empty power down *before* serving: an
        # orchestration decision takes effect this epoch, not after one
        # epoch of idle burn.  Hosts party to one of this epoch's
        # migrations stay on through it — a drained source still burns CPU
        # sending dirty pages — and power off after serving it.
        migrating = {event.source for event in events} | {
            event.dest for event in events
        }
        for machine in self.machines:
            if machine.name not in migrating:
                machine.power_off_if_empty()
        return plan, events, migrating

    def _apply_assignment(
        self, desired: Mapping[str, str], current: Mapping[str, str]
    ) -> list[MigrationEvent]:
        """Move the fleet from *current* to *desired*; returns the migrations.

        Placements of brand-new VMs are not migrations (nothing moved), nor
        are evictions of VMs gone from the population; only
        previously-placed VMs changing hosts are counted and priced.
        """
        machines = self._machines_by_name
        vms = {vm.name: vm for vm in self.vms}
        if desired.keys() != vms.keys():
            unknown_vms = sorted(desired.keys() - vms.keys())
            if unknown_vms:
                raise ConfigurationError(
                    f"policy assigned unknown VM(s): {', '.join(unknown_vms)}"
                )
            missing = sorted(vms.keys() - desired.keys())
            raise ConfigurationError(
                f"policy assignment leaves VM(s) unplaced: {', '.join(missing)}"
            )
        moves = sorted(
            (name, dest) for name, dest in desired.items() if current.get(name) != dest
        )
        # A VM that stays put stays on a known machine: only movers can name
        # an unknown one.
        unknown_machines = sorted({dest for _, dest in moves} - machines.keys())
        if unknown_machines:
            raise ConfigurationError(
                f"policy assigned unknown machine(s): {', '.join(unknown_machines)}"
            )
        for name in sorted(current.keys() - vms.keys()):
            host = machines[current[name]]
            host.evict(next(vm for vm in host.vms if vm.name == name))
        # Evict every mover first so swaps never transiently overflow memory.
        for name, _ in moves:
            source = current.get(name)
            if source is not None:
                machines[source].evict(vms[name])
        for name, dest in moves:
            machines[dest].place(vms[name])
        return [
            MigrationEvent(time=self._time, vm=name, source=current[name], dest=dest)
            for name, dest in moves
            if name in current
        ]

    def _run_one_epoch(self) -> None:
        epoch_start = self._time
        # Every VM is sampled once per epoch; planning and serving share it.
        demands = {vm.name: vm.demand_at(epoch_start) for vm in self.vms}
        plan, events, migrating = self._plan_epoch(demands)
        self.events.extend(events)
        self.total_migrations += len(events)
        trace = _obs.TRACER
        if trace is not None:
            for event in events:
                trace.migration(event.time, event.vm, event.source, event.dest)
        extra: dict[str, float] = {}
        downtime_loss = 0.0
        if self.migration_model is not None and events:
            overhead = self.migration_model.host_overhead_percent(self.epoch_s)
            blackout = self.migration_model.downtime_fraction(self.epoch_s)
            for event in events:
                extra[event.source] = extra.get(event.source, 0.0) + overhead
                extra[event.dest] = extra.get(event.dest, 0.0) + overhead
                downtime_loss += demands[event.vm] * blackout
        energy_before = self.fleet_energy_joules
        demand_total = 0.0
        served_total = 0.0
        epoch_s, dvfs = self.epoch_s, self.dvfs
        floors, ceilings = plan.freq_floors, plan.freq_ceilings
        for machine in self.machines:
            name = machine.name
            demand, served = machine.run_epoch(
                demands,
                epoch_s,
                dvfs=dvfs,
                extra_demand_percent=extra.get(name, 0.0),
                freq_floor_mhz=floors.get(name),
                freq_ceiling_mhz=ceilings.get(name),
            )
            demand_total += demand
            served_total += served
            if self.fleet_qos is not None:
                lc_present = any(vm.service_class == "lc" for vm in machine.vms)
                fraction = self.fleet_qos.observe(
                    self._time, machine.name, demand, served, lc_present
                )
                if fraction != machine.be_quota_fraction and trace is not None:
                    shortfall = (demand - served) / demand if demand > 0.0 else 0.0
                    trace.qos_decision(
                        self._time,
                        self.fleet_qos.kind,
                        "throttle" if fraction < machine.be_quota_fraction else "restore",
                        machine.name,
                        self.fleet_qos.stats.quota_level,
                        fraction,
                        shortfall,
                    )
                machine.be_quota_fraction = fraction
        # Planning powered off every other empty host; a migration source
        # drained this epoch has now sent its pages and powers off too.
        if migrating:
            for machine in self.machines:
                if machine.name in migrating:
                    machine.power_off_if_empty()
        served_total = max(0.0, served_total - downtime_loss)
        epoch_energy = self.fleet_energy_joules - energy_before
        self._time += self.epoch_s
        self._epoch_index += 1
        now = self._time
        record_host = self._host_stats.append
        for machine in self.machines:
            record_host(
                (
                    now,
                    machine.name,
                    machine.powered_on,
                    machine.vm_count,
                    machine.freq_mhz,
                    machine.last_util,
                    machine.last_power_w,
                )
            )
            if machine.domains:
                if trace is not None:
                    for record in machine.domain_records():
                        trace.domain_freq(
                            epoch_start,
                            machine.name,
                            record["domain"],
                            record["freq_mhz"],
                            record["power_w"],
                        )
                for record in machine.domain_records():
                    self._domain_stats.append(
                        {"time": self._time, "machine": machine.name, **record}
                    )
        stat = EpochStats(
            time=self._time,
            machines_on=sum(1 for machine in self.machines if machine.powered_on),
            demand_percent=demand_total,
            served_percent=served_total,
            energy_joules=epoch_energy,
            migrations=len(events),
            power_w=epoch_energy / self.epoch_s,
        )
        self.stats.append(stat)
        if trace is not None:
            trace.epoch(
                epoch_start,
                self.epoch_s,
                self._epoch_index - 1,
                {
                    "machines_on": stat.machines_on,
                    "power_w": stat.power_w,
                    "migrations": stat.migrations,
                    "sla_fraction": stat.sla_fraction,
                },
            )
        metrics = _obs.METRICS
        if metrics is not None:
            metrics.inc("cluster.epochs_run")
            metrics.inc("cluster.migrations_executed", len(events))
            metrics.record_max("cluster.peak_power_w", stat.power_w)

    # -------------------------------------------------------------- queries

    @property
    def fleet_energy_joules(self) -> float:
        """Total energy across the fleet so far."""
        return sum(map(attrgetter("energy_joules"), self.machines))

    @property
    def energy_kwh(self) -> float:
        """Total fleet energy in kWh (the datacenter-scale unit)."""
        return self.fleet_energy_joules / 3.6e6

    @property
    def mean_sla_fraction(self) -> float:
        """Mean per-epoch SLA delivery over the run."""
        self._require_run()
        return sum(stat.sla_fraction for stat in self.stats) / len(self.stats)

    @property
    def mean_machines_on(self) -> float:
        """Mean number of powered-on machines over the run."""
        self._require_run()
        return sum(stat.machines_on for stat in self.stats) / len(self.stats)

    @property
    def sla_violations(self) -> int:
        """Epochs in which some demanded capacity went unserved."""
        return sum(1 for stat in self.stats if stat.sla_violated)

    @property
    def peak_power_w(self) -> float:
        """The highest per-epoch mean fleet power of the run."""
        self._require_run()
        return max(stat.power_w for stat in self.stats)

    def _require_run(self) -> None:
        if not self.stats:
            raise ConfigurationError("run() the simulation first")

    # ---------------------------------------------------------- telemetry

    def epoch_records(self) -> list[dict[str, Any]]:
        """One flat dict per epoch, for ``records_to_csv`` / JSON export."""
        return [
            {
                "epoch": index,
                "time": stat.time,
                "machines_on": stat.machines_on,
                "demand_percent": stat.demand_percent,
                "served_percent": stat.served_percent,
                "sla_fraction": stat.sla_fraction,
                "energy_joules": stat.energy_joules,
                "power_w": stat.power_w,
                "migrations": stat.migrations,
            }
            for index, stat in enumerate(self.stats)
        ]

    def host_records(self) -> list[dict[str, Any]]:
        """One flat dict per (epoch, host): utilisation, frequency, power."""
        return [dict(zip(HOST_RECORD_FIELDS, row)) for row in self._host_stats]

    def migration_records(self) -> list[dict[str, Any]]:
        """One flat dict per executed migration, in execution order."""
        return [event.record() for event in self.events]

    def domain_records(self) -> list[dict[str, Any]]:
        """One flat dict per (epoch, host, frequency domain).

        Empty for homogeneous fleets: single-domain machines report through
        :meth:`host_records` alone, keeping legacy exports unchanged.
        """
        return [dict(record) for record in self._domain_stats]

    def cstate_residency(self) -> dict[str, float]:
        """Fleet-wide idle-state residency seconds, keyed by C-state name.

        Empty for fleets without C-state ladders (every legacy catalog
        part), so homogeneous metrics snapshots gain no keys.
        """
        totals: dict[str, float] = {}
        for machine in self.machines:
            for name, seconds in machine.cstate_residency().items():
                totals[name] = totals.get(name, 0.0) + seconds
        return totals
