"""Cluster-level machine: a processor plus finite memory.

Per epoch, a powered-on machine serves the demand of its placed VMs up to
its capacity at the chosen P-state; frequency selection is Listing 1.1 on
the aggregate demand (plus a fixed hypervisor overhead), identical to the
single-host PAS rule.  A powered-off machine consumes nothing and hosts
nothing — the consolidation pay-off the paper describes.

Heterogeneous parts (a :class:`~repro.cpu.processor.ProcessorSpec` with
frequency ``domains``) serve through their clusters instead of one table:
load fills domains cheapest-first (full-load watts per unit capacity),
each domain picks its own Listing 1.1 P-state for its share — all cores of
a cluster move together — and idle domains drop into C-states through the
residency-aware selection rule.  Capacity, power prediction and frequency
stepping are exposed uniformly (:attr:`Machine.capacity_percent`,
:meth:`Machine.predict_power`, :meth:`Machine.plan_frequency`, ...) so the
orchestration policies steer homogeneous and heterogeneous hosts through
one interface; on homogeneous machines every helper reproduces the
pre-domain arithmetic bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping

from ..core import laws
from ..cpu import catalog
from ..cpu.domains import FrequencyDomain
from ..cpu.processor import ProcessorSpec
from ..errors import ConfigurationError
from ..units import check_field_types, check_known_fields, check_non_negative, check_positive
from .vm import ClusterVM


@dataclass(frozen=True)
class MachineSpec:
    """Hardware of one hosting-center machine (or a group of *count* alike).

    The ``machines`` list of a
    :class:`~repro.cluster.scenario.ClusterScenarioConfig` is a tuple of
    these; ``count`` makes one entry describe a whole homogeneous group, so
    a mixed fleet is e.g. ``(MachineSpec(count=6), MachineSpec(count=2,
    processor=BIG_LITTLE_44))``.  Serialisation is omit-when-default (only
    ``processor`` — by catalog name — and ``memory_mb`` always appear), so
    pre-heterogeneity dictionaries and their sha256 store keys stay
    byte-identical.  The constructor takes the processor by catalog name
    too, as :meth:`from_dict` hands it over.
    """

    processor: ProcessorSpec = field(default_factory=lambda: catalog.CORE_I7_3770)
    memory_mb: int = 16384
    #: Hypervisor/Dom0 overhead in percent of max-frequency capacity.
    overhead_percent: float = 5.0
    #: Machines of this kind (fleet-group expansion; inert on a single
    #: runtime :class:`Machine`).
    count: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "processor", catalog.as_processor(self.processor))
        check_positive(self.memory_mb, "memory_mb")
        check_non_negative(self.overhead_percent, "overhead_percent")
        if self.count < 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")

    def describe(self) -> str:
        """Compact human-readable label (grid cell labelling)."""
        return f"{self.count}x{self.processor.name}/{self.memory_mb}MB"

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form: ``processor`` by catalog name, defaults omitted.

        ``memory_mb`` is always emitted; ``overhead_percent`` and ``count``
        only off their defaults — the omit-when-default contract that keeps
        store keys stable as fields accrete.
        """
        out: dict[str, Any] = {
            "processor": self.processor.name,
            "memory_mb": self.memory_mb,
        }
        if self.overhead_percent != 5.0:
            out["overhead_percent"] = self.overhead_percent
        if self.count != 1:
            out["count"] = self.count
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MachineSpec":
        """Rebuild a spec from :meth:`to_dict` output or a scenario file.

        Unknown keys raise a :class:`ConfigurationError` naming the valid
        fields; the constructor looks the processor up by catalog name.
        """
        check_known_fields(cls, data, "machine spec")
        check_field_types(cls, data, "machine spec")
        return cls(**data)


class Machine:
    """Runtime machine state: placed VMs, power state, energy integrator."""

    def __init__(self, name: str, spec: MachineSpec) -> None:
        self.name = name
        self.spec = spec
        self._table = spec.processor.table()
        self._vms: dict[str, ClusterVM] = {}
        self.powered_on = True
        self.energy_joules = 0.0
        self.freq_mhz = self._table.max_state.freq_mhz
        self.last_util = 0.0
        self.last_power_w = 0.0
        #: BE demand multiplier set by fleet QoS for the next epoch
        #: (1.0 = unthrottled; only best-effort VMs are scaled).
        self.be_quota_fraction = 1.0
        #: Runtime frequency domains (empty for homogeneous parts), served
        #: cheapest-first: ascending full-load watts per unit capacity.
        self.domains: list[FrequencyDomain] = [
            FrequencyDomain(domain_spec) for domain_spec in spec.processor.domains
        ]
        self._fill_order = sorted(
            range(len(self.domains)),
            key=lambda i: (
                self.domains[i].spec.power.power(
                    self.domains[i].table.max_state, self.domains[i].table, 1.0
                )
                / self.domains[i].max_capacity_percent,
                i,
            ),
        )
        if self.domains:
            self._freq_choices = tuple(
                sorted({f for domain in self.domains for f in domain.table.frequencies})
            )
        else:
            self._freq_choices = self._table.frequencies
        #: Homogeneous serving capacity per frequency, in percent of the
        #: top state: the per-epoch arithmetic, done once.
        top_mhz = self._table.max_state.freq_mhz
        self._capacity_at = {
            state.freq_mhz: state.capacity_fraction(top_mhz) * 100.0
            for state in self._table.states
        }

    @property
    def table(self):
        """The processor's P-state table (policies steer against it)."""
        return self._table

    # ------------------------------------------------------- hardware shape

    @property
    def is_heterogeneous(self) -> bool:
        """True when the processor has per-cluster frequency domains."""
        return bool(self.domains)

    @cached_property
    def capacity_percent(self) -> float:
        """Max-frequency capacity in percent of the reference host.

        Homogeneous machines are the reference (exactly 100.0, the
        historical convention every packing threshold is expressed in);
        heterogeneous ones sum their domains' top-state capacities.
        Computed once: the domains' top states are fixed.
        """
        if self.domains:
            return sum(domain.max_capacity_percent for domain in self.domains)
        return 100.0

    @property
    def full_power_w(self) -> float:
        """Package draw at top frequency, fully utilised."""
        if self.domains:
            return sum(
                domain.spec.power.power(domain.table.max_state, domain.table, 1.0)
                for domain in self.domains
            )
        return self.spec.processor.power.power(
            self._table.max_state, self._table, 1.0
        )

    @cached_property
    def efficiency_w_per_percent(self) -> float:
        """Full-load watts per unit capacity — the packing-preference key.

        Computed once: the spec and its P-state tables are immutable.
        """
        return self.full_power_w / self.capacity_percent

    @property
    def max_freq_mhz(self) -> int:
        """Highest frequency on the machine (fastest domain's top state)."""
        return self._freq_choices[-1]

    @property
    def min_freq_mhz(self) -> int:
        """Lowest frequency on the machine."""
        return self._freq_choices[0]

    @property
    def freq_choices(self) -> tuple[int, ...]:
        """The machine-level frequency ladder policies step along.

        Homogeneous: the table's frequencies.  Heterogeneous: the sorted
        union of the domains' frequencies — a ceiling from this ladder
        clamps each domain down into its own table.
        """
        return self._freq_choices

    def step_down_choice(self, freq_mhz: int) -> int:
        """One ladder step below *freq_mhz* (saturates at the bottom)."""
        index = self._freq_choices.index(freq_mhz)
        return self._freq_choices[max(index - 1, 0)]

    def capacity_at_ceiling(self, freq_ceiling_mhz: int) -> float:
        """Machine capacity with every domain clamped down to a ceiling."""
        if not self.domains:
            state = self._table.clamp_down(freq_ceiling_mhz)
            return state.capacity_fraction(self._table.max_state.freq_mhz) * 100.0
        return sum(
            domain.capacity_percent_at(domain.table.clamp_down(freq_ceiling_mhz))
            for domain in self.domains
        )

    def plan_frequency(self, total_percent: float) -> int:
        """Listing 1.1 at machine level: lowest ladder rung absorbing a load.

        Homogeneous machines delegate to the paper's own rule; for
        heterogeneous ones the rung is a common ceiling — each domain
        clamps down into its own table, so the capacity at a rung sums the
        per-domain clamped states.
        """
        if not self.domains:
            return laws.compute_new_frequency(self._table, total_percent)
        for freq_mhz in self._freq_choices:
            if self.capacity_at_ceiling(freq_mhz) > total_percent:
                return freq_mhz
        return self._freq_choices[-1]

    # ------------------------------------------------------------ placement

    @property
    def vms(self) -> list[ClusterVM]:
        """VMs currently placed here."""
        return list(self._vms.values())

    @property
    def vm_count(self) -> int:
        """How many VMs are placed here (``len(vms)`` without the list)."""
        return len(self._vms)

    @property
    def memory_used_mb(self) -> int:
        """Memory claimed by placed VMs."""
        return sum(vm.memory_mb for vm in self._vms.values())

    @property
    def memory_free_mb(self) -> int:
        """Remaining memory."""
        return self.spec.memory_mb - self.memory_used_mb

    def fits(self, vm: ClusterVM) -> bool:
        """True when *vm*'s memory footprint fits (the §2.3 constraint)."""
        return vm.memory_mb <= self.memory_free_mb

    def place(self, vm: ClusterVM) -> None:
        """Place *vm* here; raises when memory does not fit."""
        if vm.name in self._vms:
            raise ConfigurationError(f"VM {vm.name!r} already on {self.name!r}")
        if not self.fits(vm):
            raise ConfigurationError(
                f"VM {vm.name!r} ({vm.memory_mb} MB) does not fit on {self.name!r} "
                f"({self.memory_free_mb} MB free)"
            )
        self._vms[vm.name] = vm
        self.powered_on = True

    def evict(self, vm: ClusterVM) -> None:
        """Remove *vm* from this machine."""
        if vm.name not in self._vms:
            raise ConfigurationError(f"VM {vm.name!r} is not on {self.name!r}")
        del self._vms[vm.name]

    def clear(self) -> list[ClusterVM]:
        """Remove and return all VMs (used when re-packing)."""
        vms = list(self._vms.values())
        self._vms.clear()
        return vms

    # ----------------------------------------------------------------- epoch

    def run_epoch(
        self,
        demands: Mapping[str, float],
        dt: float,
        *,
        dvfs: bool,
        extra_demand_percent: float = 0.0,
        freq_floor_mhz: int | None = None,
        freq_ceiling_mhz: int | None = None,
    ) -> tuple[float, float]:
        """Serve one epoch; returns ``(demand, served)`` in absolute percent.

        *demands* maps VM names to this epoch's demand samples (the
        orchestrator samples every VM once per epoch); the machine serves
        the entries of the VMs placed on it.  With *dvfs* the machine picks
        the lowest absorbing P-state for the aggregate demand (Listing
        1.1); without, it stays at maximum.  An empty, powered-off machine
        consumes no energy.

        ``extra_demand_percent`` is non-VM work charged to the host this
        epoch (migration dirty-page copies); it joins the frequency choice
        and the utilisation integral but competes with — rather than counts
        as — served VM demand.  ``freq_floor_mhz``/``freq_ceiling_mhz``
        clamp the chosen frequency to the orchestration policy's bounds
        (snapped to table states; the ceiling wins when they conflict).
        """
        if not 0.0 <= dt < math.inf:
            check_non_negative(dt, "dt")
        if not self.powered_on:
            if self._vms:
                raise ConfigurationError(
                    f"machine {self.name!r} is off but hosts {len(self._vms)} VMs"
                )
            self.freq_mhz = self.min_freq_mhz
            for domain in self.domains:
                domain.set_frequency(domain.table.min_state.freq_mhz)
            self.last_util = 0.0
            self.last_power_w = 0.0
            return 0.0, 0.0
        if not 0.0 <= extra_demand_percent < math.inf:
            check_non_negative(extra_demand_percent, "extra_demand_percent")
        fraction = self.be_quota_fraction
        try:
            if fraction < 1.0:
                # Fleet QoS throttle: best-effort VMs admit only a fraction
                # of their demand this epoch; latency-critical VMs are
                # untouched.
                demand = sum(
                    demands[name] * (fraction if vm.service_class == "be" else 1.0)
                    for name, vm in self._vms.items()
                )
            else:
                demand = sum(map(demands.__getitem__, self._vms))
        except KeyError as missing:
            raise ConfigurationError(
                f"machine {self.name!r} hosts VM {missing} but no demand "
                f"sample was given for it"
            ) from None
        overhead = self.spec.overhead_percent if self._vms else 0.0
        total = demand + overhead + extra_demand_percent
        if self.domains:
            return self._run_epoch_domains(
                dt,
                demand,
                total,
                dvfs=dvfs,
                extra_demand_percent=extra_demand_percent,
                freq_floor_mhz=freq_floor_mhz,
                freq_ceiling_mhz=freq_ceiling_mhz,
            )
        table = self._table
        if dvfs:
            freq_mhz = laws.compute_new_frequency(table, total)
        else:
            freq_mhz = self._freq_choices[-1]
        if freq_floor_mhz is not None and freq_mhz < freq_floor_mhz:
            freq_mhz = table.clamp(freq_floor_mhz).freq_mhz
        if freq_ceiling_mhz is not None and freq_mhz > freq_ceiling_mhz:
            freq_mhz = table.clamp_down(freq_ceiling_mhz).freq_mhz
        self.freq_mhz = freq_mhz
        state = table.state_for(freq_mhz)
        capacity = self._capacity_at[freq_mhz]
        served = min(
            demand,
            max(0.0, capacity - self.spec.overhead_percent - extra_demand_percent),
        )
        utilization = (
            min(1.0, (served + overhead + extra_demand_percent) / capacity)
            if capacity > 0
            else 0.0
        )
        power = self.spec.processor.power.power(state, table, utilization)
        self.energy_joules += power * dt
        self.last_util = utilization
        self.last_power_w = power
        return demand, served

    def _run_epoch_domains(
        self,
        dt: float,
        demand: float,
        total: float,
        *,
        dvfs: bool,
        extra_demand_percent: float,
        freq_floor_mhz: int | None,
        freq_ceiling_mhz: int | None,
    ) -> tuple[float, float]:
        """The heterogeneous serving path: per-domain P-states and C-states.

        The machine-level ladder rung Listing 1.1 picks (or the max without
        DVFS) is clamped by the policy's floor/ceiling, then every domain
        snaps it down into its own table — the whole-cluster frequency
        coupling.  The executed work (served demand + overhead + migration
        copies) fills domains cheapest-first; each domain integrates energy
        through its C-state ladder for the idle remainder.
        """
        overhead = self.spec.overhead_percent if self._vms else 0.0
        if dvfs:
            ceiling = self.plan_frequency(total)
        else:
            ceiling = self.max_freq_mhz
        if freq_floor_mhz is not None and ceiling < freq_floor_mhz:
            nearest = [f for f in self._freq_choices if f >= freq_floor_mhz]
            ceiling = nearest[0] if nearest else self.max_freq_mhz
        if freq_ceiling_mhz is not None and ceiling > freq_ceiling_mhz:
            nearest = [f for f in self._freq_choices if f <= freq_ceiling_mhz]
            ceiling = nearest[-1] if nearest else self.min_freq_mhz
        capacities = []
        for domain in self.domains:
            domain.set_frequency(domain.table.clamp_down(ceiling).freq_mhz)
            capacities.append(domain.capacity_percent)
        capacity = sum(capacities)
        served = min(
            demand,
            max(0.0, capacity - self.spec.overhead_percent - extra_demand_percent),
        )
        executed = min(total, capacity)
        energy = 0.0
        remaining = executed
        for index in self._fill_order:
            domain = self.domains[index]
            share = min(remaining, capacities[index])
            remaining -= share
            utilization = (
                min(1.0, share / capacities[index]) if capacities[index] > 0 else 0.0
            )
            energy += domain.account_epoch(dt, utilization)
        self.freq_mhz = max(domain.freq_mhz for domain in self.domains)
        self.energy_joules += energy
        self.last_util = (
            min(1.0, (served + overhead + extra_demand_percent) / capacity)
            if capacity > 0
            else 0.0
        )
        self.last_power_w = energy / dt if dt > 0 else 0.0
        return demand, served

    def predict_power(
        self, total_percent: float, freq_mhz: int, *, full_util: bool = False
    ) -> float:
        """Package watts serving *total_percent* with the clock at *freq_mhz*.

        The power-budget policy's admission arithmetic: on homogeneous
        machines this reproduces its historical per-host prediction bit for
        bit; heterogeneous machines distribute the load over their domains
        exactly like :meth:`run_epoch` will, but C-state savings are
        ignored (the prediction must upper-bound delivery).  *full_util*
        prices the host fully busy — migration-touched hosts whose
        dirty-page copies the demand numbers do not show.
        """
        if not self.domains:
            table = self._table
            state = table.state_for(freq_mhz)
            capacity = self._capacity_at[freq_mhz]
            utilization = min(1.0, total_percent / capacity) if capacity > 0 else 0.0
            if full_util:
                utilization = 1.0
            return self.spec.processor.power.power(state, table, utilization)
        watts = 0.0
        capacities = [
            domain.capacity_percent_at(domain.table.clamp_down(freq_mhz))
            for domain in self.domains
        ]
        remaining = min(total_percent, sum(capacities))
        shares = [0.0] * len(self.domains)
        for index in self._fill_order:
            shares[index] = min(remaining, capacities[index])
            remaining -= shares[index]
        for index, domain in enumerate(self.domains):
            state = domain.table.clamp_down(freq_mhz)
            utilization = (
                min(1.0, shares[index] / capacities[index])
                if capacities[index] > 0
                else 0.0
            )
            if full_util:
                utilization = 1.0
            watts += domain.spec.power.power(state, domain.table, utilization)
        return watts

    def cstate_residency(self) -> dict[str, float]:
        """Idle seconds per C-state summed over this machine's domains."""
        residency: dict[str, float] = {}
        for domain in self.domains:
            for state_name, seconds in domain.residency_s.items():
                residency[state_name] = residency.get(state_name, 0.0) + seconds
        return residency

    def domain_records(self) -> list[dict[str, Any]]:
        """One flat dict per domain: the per-cluster telemetry snapshot."""
        return [
            {
                "domain": domain.spec.name,
                "freq_mhz": domain.freq_mhz,
                "util": domain.last_util_fraction,
                "power_w": domain.last_power_w,
                "cstate": domain.last_cstate,
            }
            for domain in self.domains
        ]

    def power_off_if_empty(self) -> bool:
        """Power down when no VMs remain; True if a shutdown happened."""
        if not self._vms and self.powered_on:
            self.powered_on = False
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.powered_on else "off"
        return f"Machine({self.name!r}, {state}, vms={len(self._vms)}, mem={self.memory_used_mb}MB)"
