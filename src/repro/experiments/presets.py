"""Named scenario presets: the scenario zoo behind ``--preset``.

A :class:`Preset` bundles a fully-specified :class:`ScenarioConfig` with
optional sweep ``axes`` (making it a named *grid*, not just a named config)
and the metric set that makes sense for its workloads.  The registry is the
one config language shared by the CLI (``python -m repro sweep --preset
<name>``, ``python -m repro run --preset <name>``), the experiment runners
and tests; every preset round-trips through
:meth:`ScenarioConfig.to_dict` / :meth:`ScenarioConfig.from_dict`.

Registry
--------

``paper-5.3``
    The paper's evaluation profile exactly as published: V20 (20 %) active
    over [50, 750), V70 (70 %) over [250, 550) on the Optiplex 755 —
    byte-identical to a default ``ScenarioConfig()``.  No axes.
``governors``
    The §5 evaluation plane on a compressed three-phase timeline:
    scheduler (credit, pas) x governor (performance, ondemand,
    conservative, stable) — 8 cells.  The 4 credit cells show the SLA hole
    under each governor.  PAS drives the frequency itself, so
    :func:`~repro.experiments.scenario.build_scenario` runs it under
    ``userspace`` whatever the governor axis says: the 4 PAS cells are one
    simulation run 4 times, with identical metrics (9544.698928979307 J
    each at seed 1).  The grid is kept as is so its exports stay stable.
``diurnal-web``
    Two guests replaying seeded diurnal utilisation traces (the
    hosting-center shape of the paper's motivation: base + day/night swing
    + noise + bursts), swept over three governors.
``pi-batch``
    Staggered fixed-work batch jobs (§5.1 pi-app) under performance vs
    stable, with ``stop_when_batch_done`` — the Table 2 execution-time
    pattern as a reusable scenario.
``mixed-guests``
    A web guest, a batch guest and a diurnal-trace guest sharing one host,
    swept over credit/sedf/pas — the consolidation case no single-workload
    scenario covers.
``stress-fleet``
    An 8-guest packing stress: small-credit web guests with staggered
    active windows, credit vs pas — the N-guest scalability check.
``qos-noisy-neighbor``
    One latency-critical web guest beside two best-effort
    ``noisy-neighbor`` batch guests on an overbooked host, swept over the
    QoS controller axis (``none`` / ``naive`` / ``ladder``) — the
    closed-loop control-plane demonstration (``docs/qos.md``).

Calibration preset (the base every §5.2 claim cell derives from, so
``run --preset all`` exercises the paper's measurement setup):

``calib``
    One uncapped pi batch on the Optiplex 755 under ``performance``, run to
    completion with Dom0 idle.  The Fig. 1, Eq. 1-3 and Table 1 claims
    (:mod:`.claims`) change its processor, pinned frequency
    (``cpufreq_max_mhz``), cap, work or workload; a frequency ladder is
    ``sweep --preset calib --grid '{"cpufreq_max_mhz": [...]}'``.

Cluster presets (``kind: cluster`` — fleet specs for ``python -m repro
run`` and ``sweep``; ``dc-diurnal`` is also the ``orchestration`` claim's
fleet, and ``dc-hetero`` the ``placement`` claim's):

``dc-diurnal``
    The flagship datacenter scenario: 24 VMs mixing all five day shapes
    on 10 machines, swept over every orchestration policy, with a 200 W
    fleet budget for ``power-budget``.
``dc-diurnal-small``
    The same mix shrunk to 4 machines / 8 VMs on a short timeline — the
    CI smoke fleet.
``dc-fleet-medium`` / ``dc-fleet-large``
    Fleet-size scaling points (16 machines / 40 VMs and 32 machines /
    96 VMs) of the same day-shape mix.
``dc-hetero``
    The heterogeneous fleet: 2 i7 hosts beside 2 big.LITTLE 4+4 blades,
    swept over policy x placement preference (efficiency-packing vs
    performance-bursting) — the hardware-tier trade-off demonstration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, TYPE_CHECKING

from ..cpu import catalog
from ..errors import ConfigurationError
from .scenario import GuestSpec, ScenarioConfig, WorkloadSpec

if TYPE_CHECKING:
    from ..cluster import ClusterScenarioConfig


@dataclass(frozen=True)
class Preset:
    """A named scenario (or scenario grid) with its preferred metrics."""

    name: str
    description: str
    config: ScenarioConfig | ClusterScenarioConfig
    #: Sweep axes (field name -> values); empty = a single-cell preset.
    axes: Mapping[str, tuple] = field(default_factory=dict)
    #: Metric-set names for :func:`repro.sweep.run_sweep` (None = defaults).
    metrics: tuple[str, ...] | None = None

    @property
    def cells(self) -> int:
        """Number of grid cells the preset expands to (before replicates)."""
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    @property
    def kind(self) -> str:
        """``"cluster"`` for fleet specs, ``"scenario"`` for single-host."""
        return "scenario" if isinstance(self.config, ScenarioConfig) else "cluster"


def _paper_53() -> Preset:
    return Preset(
        name="paper-5.3",
        description="the paper's V20/V70 execution profile on the Optiplex 755",
        config=ScenarioConfig(),
    )


def _governors() -> Preset:
    return Preset(
        name="governors",
        description="scheduler x governor evaluation plane (compressed timeline)",
        config=ScenarioConfig(
            duration=200.0, v20_active=(20.0, 180.0), v70_active=(60.0, 140.0)
        ),
        axes={
            "scheduler": ("credit", "pas"),
            "governor": ("performance", "ondemand", "conservative", "stable"),
        },
    )


def _diurnal_web() -> Preset:
    guests = (
        GuestSpec(
            name="D40",
            credit=40.0,
            workloads=(
                WorkloadSpec(
                    kind="trace",
                    diurnal={
                        "base_percent": 22.0,
                        "swing_percent": 14.0,
                        "noise_percent": 3.0,
                        "burst_percent": 25.0,
                        "bursts": 2,
                        "day_length": 400.0,
                        "step": 5.0,
                    },
                ),
            ),
        ),
        GuestSpec(
            name="D30",
            credit=30.0,
            workloads=(
                WorkloadSpec(
                    kind="trace",
                    diurnal={
                        "base_percent": 15.0,
                        "swing_percent": 10.0,
                        "noise_percent": 2.0,
                        "burst_percent": 0.0,
                        "bursts": 0,
                        "day_length": 400.0,
                        "step": 5.0,
                    },
                ),
            ),
        ),
    )
    return Preset(
        name="diurnal-web",
        description="two guests replaying seeded diurnal hosting-center traces",
        config=ScenarioConfig(guests=guests, duration=400.0),
        axes={"governor": ("performance", "ondemand", "stable")},
        metrics=("guest_loads", "frequency", "energy"),
    )


def _pi_batch() -> Preset:
    guests = (
        GuestSpec(
            name="B25",
            credit=25.0,
            workloads=(WorkloadSpec(kind="pi", work=30.0),),
        ),
        GuestSpec(
            name="B45",
            credit=45.0,
            workloads=(WorkloadSpec(kind="pi", work=60.0, start_at=50.0),),
        ),
    )
    return Preset(
        name="pi-batch",
        description="staggered fixed-work batch jobs, run-to-completion",
        config=ScenarioConfig(
            guests=guests, duration=1500.0, stop_when_batch_done=True
        ),
        axes={"governor": ("performance", "stable")},
        metrics=("batch", "frequency", "energy"),
    )


def _mixed_guests() -> Preset:
    guests = (
        GuestSpec(
            name="W20",
            credit=20.0,
            workloads=(
                WorkloadSpec(kind="web", load="exact", active=((50.0, 350.0),)),
            ),
        ),
        GuestSpec(
            name="B30",
            credit=30.0,
            workloads=(WorkloadSpec(kind="pi", work=40.0, start_at=100.0),),
        ),
        GuestSpec(
            name="T25",
            credit=25.0,
            workloads=(
                WorkloadSpec(
                    kind="trace",
                    diurnal={
                        "base_percent": 12.0,
                        "swing_percent": 8.0,
                        "noise_percent": 2.0,
                        "burst_percent": 20.0,
                        "bursts": 1,
                        "day_length": 400.0,
                        "step": 5.0,
                    },
                ),
            ),
        ),
    )
    return Preset(
        name="mixed-guests",
        description="web + batch + diurnal-trace guests sharing one host",
        config=ScenarioConfig(guests=guests, duration=400.0),
        axes={"scheduler": ("credit", "sedf", "pas")},
        metrics=("guest_loads", "batch", "frequency", "energy"),
    )


def _stress_fleet() -> Preset:
    # Eight 10%-credit web guests with staggered on/off windows: together
    # with Dom0 they book 90% of the machine, but never all at once.
    guests = tuple(
        GuestSpec(
            name=f"S{index:02d}",
            credit=10.0,
            workloads=(
                WorkloadSpec(
                    kind="web",
                    load="exact",
                    active=((10.0 + 20.0 * index, 130.0 + 20.0 * index),),
                ),
            ),
        )
        for index in range(8)
    )
    return Preset(
        name="stress-fleet",
        description="8-guest staggered web fleet (N-guest scheduler stress)",
        config=ScenarioConfig(guests=guests, duration=300.0),
        axes={"scheduler": ("credit", "pas")},
        metrics=("guest_loads", "frequency", "energy"),
    )


def _qos_noisy_neighbor() -> Preset:
    # 30 + 35 + 35 + 10 (Dom0) books 110% of the machine: whenever the
    # neighbors' day shape peaks while the governor sits at a reduced
    # P-state, the LC guest's fixed cap starves its request queue — the
    # contention episode the controllers exist to catch.  The base config
    # runs the ladder; the `qos` axis compares it against none/naive.
    guests = (
        GuestSpec(
            name="web",
            credit=30.0,
            service_class="lc",
            workloads=(WorkloadSpec(kind="web", load="near_exact"),),
        ),
        GuestSpec(
            name="batch1",
            credit=35.0,
            workloads=(
                WorkloadSpec(kind="trace", dayshape="noisy-neighbor", repeat=True),
            ),
        ),
        GuestSpec(
            name="batch2",
            credit=35.0,
            workloads=(
                WorkloadSpec(kind="trace", dayshape="noisy-neighbor", repeat=True),
            ),
        ),
    )
    return Preset(
        name="qos-noisy-neighbor",
        description="LC web guest vs BE noisy neighbors under the QoS controllers",
        config=ScenarioConfig(
            guests=guests, duration=300.0, seed=20, qos="ladder"
        ),
        axes={"qos": ("none", "naive", "ladder")},
        metrics=("qos", "qos_control", "guest_loads", "energy"),
    )


# ------------------------------------------------------ calibration preset


def _calib() -> Preset:
    # ``governor="performance"`` always requests the maximum and the policy
    # ceiling (``cpufreq_max_mhz``) clamps it, so each cell executes its
    # whole batch at exactly one P-state — the paper's measurement setup.
    # A cell with no batch (the §5.2 load measurement) runs its ``duration``.
    pi = GuestSpec(
        name="pi",
        credit=100.0,
        cap=100.0,
        workloads=(WorkloadSpec(kind="pi", work=20.0),),
    )
    return Preset(
        name="calib",
        description="§5.2 calibration base: one uncapped pi batch at one P-state",
        config=ScenarioConfig(
            governor="performance",
            processor=catalog.OPTIPLEX_755,
            guests=(pi,),
            duration=4000.0,
            stop_when_batch_done=True,
            dom0_demand_percent=0.0,
            seed=3,
        ),
        metrics=("batch", "frequency", "energy"),
    )


# ------------------------------------------------------ datacenter presets

#: The heterogeneous day mix every datacenter preset deals across its VMs.
_DC_DAYSHAPES = (
    "diurnal-office",
    "flash-crowd",
    "batch-overnight",
    "noisy-neighbor",
    "weekend",
)


def _dc_config(**changes) -> ClusterScenarioConfig:
    """The common datacenter base: day-shape mix, CPU-bound packing.

    ``vm_memory_mb`` is small enough (8 VMs per 16 GB host) that *CPU
    demand*, not memory, binds the packing — the regime where orchestration
    policies actually differ.  ``dayshape_scale=0.45`` puts mean host
    demand in the paper's "below 30 %" hosting-center band.
    """
    from ..cluster import ClusterScenarioConfig

    base = ClusterScenarioConfig(
        policy="consolidate",
        duration=400.0,
        seed=11,
        vm_credit=30.0,
        vm_memory_mb=2048,
        epoch_s=10.0,
        day_length=400.0,
        trace_step=5.0,
        dayshapes=_DC_DAYSHAPES,
        dayshape_scale=0.45,
    )
    return base.with_changes(**changes)


def _dc_policy_sweep(name: str, description: str, **changes) -> Preset:
    """A datacenter preset swept over every orchestration policy."""
    from ..cluster import ORCHESTRATION_POLICIES

    return Preset(
        name=name,
        description=description,
        config=_dc_config(**changes),
        axes={"policy": ORCHESTRATION_POLICIES},
        metrics=("fleet", "cluster"),
    )


def _dc_diurnal() -> Preset:
    return _dc_policy_sweep(
        "dc-diurnal",
        "24-VM day-shape mix on 10 machines, all policies, 200W cap",
        n_machines=10,
        n_vms=24,
        power_budget_w=200.0,
    )


def _dc_diurnal_small() -> Preset:
    return _dc_policy_sweep(
        "dc-diurnal-small",
        "CI smoke fleet: the day-shape mix on 4 machines / 8 VMs",
        n_machines=4,
        n_vms=8,
        duration=200.0,
        day_length=200.0,
        power_budget_w=80.0,
    )


def _dc_fleet_medium() -> Preset:
    return _dc_policy_sweep(
        "dc-fleet-medium",
        "fleet-size point: 16 machines / 40 VMs, day-shape mix",
        n_machines=16,
        n_vms=40,
        duration=300.0,
        day_length=300.0,
        power_budget_w=330.0,
    )


def _dc_fleet_large() -> Preset:
    return _dc_policy_sweep(
        "dc-fleet-large",
        "fleet-size point: 32 machines / 96 VMs, day-shape mix",
        n_machines=32,
        n_vms=96,
        duration=200.0,
        day_length=200.0,
        power_budget_w=800.0,
    )


def _dc_hetero() -> Preset:
    from ..cluster.machine import MachineSpec

    # Two reference i7 hosts next to two big.LITTLE blades: the blades
    # hold 90 % of an i7's capacity at half its full-load draw, so
    # efficiency-packing and performance-bursting genuinely disagree —
    # the placement axis measures the trade.
    machines = (
        MachineSpec(processor=catalog.CORE_I7_3770, memory_mb=16384, count=2),
        MachineSpec(processor=catalog.BIG_LITTLE_44, memory_mb=16384, count=2),
    )
    return Preset(
        name="dc-hetero",
        description="mixed fleet: 2 i7 + 2 big.LITTLE blades, policy x placement",
        config=_dc_config(
            machines=machines,
            n_vms=8,
            duration=200.0,
            day_length=200.0,
            power_budget_w=120.0,
        ),
        axes={
            "policy": ("static", "consolidate", "power-budget"),
            "placement": ("efficiency", "performance"),
        },
        metrics=("fleet", "cluster"),
    )


class _PresetRegistry(Mapping[str, Preset]):
    """Preset name -> :class:`Preset`, each built on its first lookup.

    Names and their order are fixed up front; a preset's config is built
    only when someone asks for it, so a single-host run never loads the
    fleet tier that the ``dc-*`` presets are made of.
    """

    def __init__(self, factories: Mapping[str, Callable[[], Preset]]) -> None:
        self._factories = dict(factories)
        self._built: dict[str, Preset] = {}

    def __getitem__(self, name: str) -> Preset:
        preset = self._built.get(name)
        if preset is None:
            preset = self._built[name] = self._factories[name]()
        return preset

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self._factories)

    def __len__(self) -> int:
        return len(self._factories)


#: All presets, keyed by name, in documentation order.
PRESETS: Mapping[str, Preset] = _PresetRegistry(
    {
        "paper-5.3": _paper_53,
        "governors": _governors,
        "diurnal-web": _diurnal_web,
        "pi-batch": _pi_batch,
        "mixed-guests": _mixed_guests,
        "stress-fleet": _stress_fleet,
        "qos-noisy-neighbor": _qos_noisy_neighbor,
        "calib": _calib,
        "dc-diurnal": _dc_diurnal,
        "dc-diurnal-small": _dc_diurnal_small,
        "dc-fleet-medium": _dc_fleet_medium,
        "dc-fleet-large": _dc_fleet_large,
        "dc-hetero": _dc_hetero,
    }
)


def get_preset(name: str) -> Preset:
    """The preset called *name*; unknown names list the valid choices."""
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ConfigurationError(f"unknown preset {name!r}; presets: {known}") from None


def preset_config(name: str) -> ScenarioConfig:
    """The base config of preset *name* (shorthand for experiment runners)."""
    return get_preset(name).config


def preset_grid(
    name: str,
    *,
    overrides: Mapping[str, Any] | None = None,
    axes: Mapping[str, Any] | None = None,
    replicates: int = 1,
    vary_seed: bool = True,
):
    """A ready-to-run :class:`~repro.sweep.grid.SweepGrid` for preset *name*.

    *overrides* patch the base config first (unknown fields raise a
    :class:`ConfigurationError`); *axes*, when given, replace the preset's
    own.  A grid without axes is a single variant named after the preset
    (so the sweep CLI and runner treat every preset uniformly).
    """
    from ..sweep import SweepGrid

    preset = get_preset(name)
    config = preset.config.with_changes(**(overrides or {}))
    axes = preset.axes if axes is None else axes
    if not axes:
        return SweepGrid.from_variants({preset.name: config}, replicates=replicates)
    return SweepGrid(axes, base=config, vary_seed=vary_seed, replicates=replicates)
