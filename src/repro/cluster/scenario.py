"""Declarative configuration for fleet-scale cluster runs.

The §2.3 consolidation ablation originally hand-built its fleet inline.
This module turns that setup into a frozen, picklable config —
:class:`ClusterScenarioConfig` — so cluster runs can be enumerated by the
sweep subsystem (:mod:`repro.sweep`) exactly like single-host
:class:`~repro.experiments.scenario.ScenarioConfig` runs: every field is an
axis a grid can vary, and :func:`run_cluster_scenario` is the one-shot
executor a worker process can call.

Since the orchestration subsystem landed, a config also names its policy
(any :data:`~repro.cluster.policies.POLICY_REGISTRY` name, the §2.3
``"spread"``/``"consolidate-ffd"`` placement baselines included), prices live
migration through a :class:`~repro.cluster.migration.MigrationModel`,
optionally caps the fleet under a cluster-wide watt budget
(``power_budget_w``, the ``power-budget`` policy's input), and can draw its
VM demand from the day-shape catalog
(:mod:`repro.workloads.dayshapes`) — ``dayshapes=("diurnal-office",
"flash-crowd", ...)`` deals shapes round-robin across the population for
heterogeneous fleets.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from ..cpu import catalog
from ..cpu.processor import ProcessorSpec
from ..errors import ConfigurationError
from ..sim import RngStreams
from ..units import check_field_types, check_known_fields, check_positive
from ..workloads import SyntheticTrace, TraceLoad
from ..workloads.dayshapes import dayshape_series, require_dayshape
from .machine import MachineSpec
from .migration import DEFAULT_MIGRATION, MigrationModel
from .orchestrator import epoch_count, Orchestrator
from .policies import make_policy, POLICY_REGISTRY
from .vm import ClusterVM


@dataclass(frozen=True)
class ClusterScenarioConfig:
    """Parameters of a fleet run (machine groups, synthetic traces).

    ``policy`` is a :data:`~repro.cluster.policies.POLICY_REGISTRY` name
    (checked on construction) so configs stay picklable and
    JSON-describable.  The trace fields parameterize the per-VM
    :class:`~repro.workloads.trace.SyntheticTrace` demand; ``dayshapes``
    replaces them with named catalog shapes dealt round-robin across VMs.

    The fleet's hardware is declared through ``machines`` — a tuple of
    :class:`~repro.cluster.machine.MachineSpec` groups (count + processor +
    memory each), so fleets can mix host kinds (``dc-hetero``).  When
    ``machines`` is empty, the legacy homogeneous triple (``n_machines`` +
    ``processor`` + ``machine_memory_mb``) is expanded by
    :meth:`effective_machines` into the equivalent one-group form — the
    same compatibility pattern as the scenario-spec ``effective_guests`` —
    and ``to_dict`` omits the empty field, so pre-heterogeneity specs and
    their store keys serialise byte-identically.  When ``machines`` is
    set, the legacy triple must keep its defaults: a fleet has one size.

    The constructor is the one place where a JSON-shaped value becomes a
    field value: the processor by catalog name, ``machines`` as a list of
    JSON objects, ``migration`` as a JSON object, ``dayshapes`` as a list.
    So ``with_changes``, ``dataclasses.replace``, :meth:`from_dict`, sweep
    grids and the CLI all take them alike.
    """

    n_machines: int = 8
    n_vms: int = 12
    policy: str = "consolidate"
    dvfs: bool = True
    duration: float = 600.0
    seed: int = 7
    processor: ProcessorSpec = field(default=catalog.CORE_I7_3770)
    machine_memory_mb: int = 16384
    vm_credit: float = 30.0
    vm_memory_mb: int = 5120
    epoch_s: float = 10.0
    base_percent: float = 14.0
    swing_percent: float = 8.0
    noise_percent: float = 2.0
    burst_percent: float = 10.0
    bursts: int = 1
    day_length: float = 600.0
    trace_step: float = 10.0
    dayshapes: tuple[str, ...] = ()
    dayshape_scale: float = 1.0
    migration: MigrationModel = field(default=DEFAULT_MIGRATION)
    power_budget_w: float | None = None
    #: Fleet QoS controller kind (``none`` installs no controller).
    qos: str = "none"
    #: The first ``lc_vms`` VMs of the population are latency-critical.
    lc_vms: int = 0
    #: Machine groups; empty = the legacy homogeneous triple above.
    machines: tuple[MachineSpec, ...] = ()
    #: Heterogeneity placement preference (``"efficiency"`` packs cheap
    #: machines first, ``"performance"`` books big ones first); ``""``
    #: keeps each policy's own default.  A sweepable axis on mixed fleets.
    placement: str = ""

    def __post_init__(self) -> None:
        epoch_count(self.duration, self.epoch_s)
        if self.power_budget_w is not None:
            check_positive(self.power_budget_w, "power_budget_w")
        object.__setattr__(self, "processor", catalog.as_processor(self.processor))
        if isinstance(self.migration, Mapping):
            object.__setattr__(
                self, "migration", MigrationModel.from_dict(self.migration)
            )
        if not isinstance(self.migration, MigrationModel):
            raise ConfigurationError(
                f"migration takes a migration model (a JSON object), got {self.migration!r}"
            )
        if not isinstance(self.dayshapes, tuple):
            object.__setattr__(self, "dayshapes", tuple(self.dayshapes))
        if not isinstance(self.machines, tuple) or any(
            isinstance(group, Mapping) for group in self.machines
        ):
            object.__setattr__(
                self,
                "machines",
                tuple(
                    MachineSpec.from_dict(group) if isinstance(group, Mapping) else group
                    for group in self.machines
                ),
            )
        for group in self.machines:
            if not isinstance(group, MachineSpec):
                raise ConfigurationError(
                    f"machines must hold machine specs (JSON objects), got {group!r}"
                )
        if self.machines:
            for name, default in _LEGACY_FLEET.items():
                if getattr(self, name) != default:
                    raise ConfigurationError(
                        f"{name} does not apply to a fleet declared by machine "
                        f"groups; change the groups' count/processor/memory_mb "
                        f"in machines instead"
                    )
        for shape in self.dayshapes:
            require_dayshape(shape)
        if self.policy not in POLICY_REGISTRY:
            raise ConfigurationError(
                f"unknown cluster policy {self.policy!r}; "
                f"use one of: {', '.join(POLICY_REGISTRY)}"
            )
        if self.placement not in ("", "efficiency", "performance"):
            raise ConfigurationError(
                f"unknown placement preference {self.placement!r}; "
                f"use efficiency/performance (or '' for the policy default)"
            )
        if self.qos not in ("none", "naive", "ladder"):
            raise ConfigurationError(
                f"unknown fleet QoS kind {self.qos!r}; use none/naive/ladder"
            )
        if not 0 <= self.lc_vms <= self.n_vms:
            raise ConfigurationError(
                f"lc_vms must be in [0, n_vms={self.n_vms}], got {self.lc_vms}"
            )

    def with_changes(self, **changes) -> "ClusterScenarioConfig":
        """A copy with the given fields replaced.

        Unknown field names raise a :class:`ConfigurationError` naming the
        valid choices, as :meth:`ScenarioConfig.with_changes
        <repro.experiments.scenario.ScenarioConfig.with_changes>` does.
        """
        check_known_fields(type(self), changes, "cluster scenario")
        return replace(self, **changes)

    def effective_machines(self) -> tuple[MachineSpec, ...]:
        """The machine groups this config describes.

        ``machines`` when declared; otherwise the legacy homogeneous
        triple expanded to one group — the ``effective_guests`` pattern,
        so every consumer reasons over one declarative surface.
        """
        if self.machines:
            return self.machines
        return (
            MachineSpec(
                processor=self.processor,
                memory_mb=self.machine_memory_mb,
                count=self.n_machines,
            ),
        )

    @property
    def total_machines(self) -> int:
        """Fleet size after group expansion."""
        return sum(group.count for group in self.effective_machines())

    def describe(self) -> str:
        """Compact human-readable label (grid cell labelling)."""
        dvfs = "+dvfs" if self.dvfs else ""
        budget = (
            f"@{self.power_budget_w:g}W" if self.power_budget_w is not None else ""
        )
        kinds = f"x{len(self.machines)}kinds" if self.machines else ""
        return (
            f"fleet({self.n_vms}vm/{self.total_machines}m{kinds}:"
            f"{self.policy}{dvfs}{budget})"
        )

    # ------------------------------------------------------------- serialise

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form of the whole config (processor by catalog name).

        Carries ``"kind": "cluster"`` so scenario files and the store can
        tell fleet specs from single-host
        :class:`~repro.experiments.scenario.ScenarioConfig` ones.
        """
        out: dict[str, Any] = {"kind": "cluster"}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name == "processor":
                value = value.name
            elif spec_field.name == "migration":
                value = value.to_dict()
            elif spec_field.name == "dayshapes":
                value = list(value)
            elif spec_field.name == "qos" and self.qos == "none":
                # Omit-when-default: pre-QoS specs (and their store keys)
                # serialise byte-identically.
                continue
            elif spec_field.name == "lc_vms" and self.lc_vms == 0:
                continue
            elif spec_field.name == "machines":
                if not self.machines:
                    # Omit-when-default: pre-heterogeneity specs (and their
                    # store keys) serialise byte-identically.
                    continue
                value = [group.to_dict() for group in self.machines]
            elif spec_field.name == "placement" and self.placement == "":
                continue
            out[spec_field.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClusterScenarioConfig":
        """Rebuild a config from :meth:`to_dict` output or a scenario file.

        Unknown keys, and values of the wrong JSON type for their field,
        raise a :class:`ConfigurationError`; the constructor turns the
        JSON values into field values.
        """
        kwargs = dict(data)
        kind = kwargs.pop("kind", "cluster")
        if kind != "cluster":
            raise ConfigurationError(
                f"not a cluster scenario spec: kind={kind!r} (expected 'cluster')"
            )
        check_known_fields(cls, kwargs, "cluster scenario")
        check_field_types(cls, kwargs, "cluster scenario")
        return cls(**kwargs)


#: The homogeneous fleet triple that ``machines`` groups replace, at its defaults.
_LEGACY_FLEET = {
    spec_field.name: spec_field.default
    for spec_field in dataclasses.fields(ClusterScenarioConfig)
    if spec_field.name in ("n_machines", "processor", "machine_memory_mb")
}


def make_population(config: ClusterScenarioConfig) -> list[ClusterVM]:
    """The VM population: diurnal CPU traces, memory-bound footprints.

    With ``dayshapes`` set, VM *i* draws the shape ``dayshapes[i % len]``
    from the catalog (a heterogeneous fleet); otherwise every VM replays
    the config's :class:`~repro.workloads.trace.SyntheticTrace` parameters.
    Either way each VM has its own named RNG stream, so populations are
    deterministic per seed and adding VMs never perturbs existing ones.
    Each VM's day is generated as a ``(starts, percents)`` series and
    replayed by :meth:`~repro.workloads.trace.TraceLoad.from_series` — the
    same validation as trace points, without a point object per sample.
    The VMs of one day shape share its grid of starts, validated once when
    the grid is built, so each VM's trace checks only its own percents; a
    day's Gaussian noise is drawn in one pass, bit for bit the values of
    one ``rng.gauss`` call per sample.
    """
    streams = RngStreams(config.seed)
    synthetic = None
    if not config.dayshapes:
        synthetic = SyntheticTrace(
            base_percent=config.base_percent,
            swing_percent=config.swing_percent,
            noise_percent=config.noise_percent,
            burst_percent=config.burst_percent,
            bursts=config.bursts,
            day_length=config.day_length,
            step=config.trace_step,
        )
    vms = []
    for index in range(config.n_vms):
        rng = streams.stream(f"vm{index}")
        if synthetic is None:
            shape = config.dayshapes[index % len(config.dayshapes)]
            starts, percents = dayshape_series(
                shape,
                rng,
                day_length=config.day_length,
                step=config.trace_step,
                scale=config.dayshape_scale,
            )
        else:
            starts, percents = synthetic.series(rng)
        trace = TraceLoad.from_series(starts, percents, repeat=True)
        vms.append(
            ClusterVM(
                f"vm{index:02d}",
                credit=config.vm_credit,
                memory_mb=config.vm_memory_mb,
                demand=trace.demand_at,
                service_class="lc" if index < config.lc_vms else "be",
            )
        )
    return vms


def build_cluster(config: ClusterScenarioConfig) -> Orchestrator:
    """Construct (but do not run) the fleet described by *config*."""
    return Orchestrator(
        machine_specs=config.effective_machines(),
        vms=make_population(config),
        policy=make_policy(
            config.policy,
            power_budget_w=config.power_budget_w,
            placement=config.placement or None,
        ),
        dvfs=config.dvfs,
        epoch_s=config.epoch_s,
        migration=config.migration,
        power_budget_w=config.power_budget_w,
        qos=config.qos,
    )


def run_cluster_scenario(config: ClusterScenarioConfig) -> Orchestrator:
    """Build and run the fleet to its configured duration."""
    sim = build_cluster(config)
    sim.run(config.duration)
    return sim
