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

Calibration presets (the paper's measurement micro-scenarios as named
grids, so ``run --preset all`` exercises every law the model rests on):

``calib-eq1``
    Eq. 1 proportionality: one uncapped pi batch on the Optiplex 755
    (``cf = 1``), pinned at each catalog frequency — execution time must
    scale as ``1/ratio``.
``calib-eq2``
    Eq. 2 correction factor: the same ladder on the i7-3770
    (``cf_min = 0.86``) — the memory-bound deviation from pure
    proportionality.
``calib-eq3``
    Eq. 3 capacity: a credit-cap ladder at the pinned maximum frequency —
    execution time must scale as ``100/cap``.
``calib-compensation``
    Eq. 4 / Fig. 1: the same ladder re-run at 2133 MHz with each cap
    replaced by its compensated value — times should coincide with
    ``calib-eq3`` until compensation saturates past 100 %.

Cluster presets (``kind: cluster`` — fleet specs for ``python -m repro
run``, ``sweep`` and ``cluster compare``):

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
from typing import Any, Mapping

from ..cluster import ClusterScenarioConfig, ORCHESTRATION_POLICIES
from ..cluster.machine import MachineSpec
from ..core import laws
from ..cpu import catalog
from ..errors import ConfigurationError
from .scenario import GuestSpec, ScenarioConfig, WorkloadSpec


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
        return (
            "cluster" if isinstance(self.config, ClusterScenarioConfig) else "scenario"
        )


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


# ----------------------------------------------------- calibration presets

#: The credit-cap ladder the Eq. 3 / Eq. 4 calibrations sweep.
_CALIB_CAPS = (20.0, 40.0, 60.0, 80.0)

#: The reduced frequency of the Fig. 1 compensation run (Optiplex 755).
_CALIB_REDUCED_MHZ = 2133


def _pi_guest(cap: float, work: float = 20.0) -> tuple[GuestSpec, ...]:
    """One capped pi batch guest (the paper's measurement configuration)."""
    return (
        GuestSpec(
            name="pi",
            credit=min(cap, 100.0),
            cap=cap,
            workloads=(WorkloadSpec(kind="pi", work=work),),
        ),
    )


def _calib_config(**changes) -> ScenarioConfig:
    """Common calibration base: one pinned host, run-to-completion.

    ``governor="performance"`` always requests the maximum and the policy
    ceiling (``cpufreq_max_mhz``) clamps it, so each cell executes its
    whole batch at exactly one P-state — the paper's measurement setup.
    """
    base = ScenarioConfig(
        governor="performance",
        processor=catalog.OPTIPLEX_755,
        guests=_pi_guest(100.0),
        duration=4000.0,
        stop_when_batch_done=True,
        dom0_demand_percent=0.0,
        seed=3,
    )
    return base.with_changes(**changes)


def _calib_eq1() -> Preset:
    return Preset(
        name="calib-eq1",
        description="Eq. 1 proportionality: pi time vs pinned frequency (cf = 1)",
        config=_calib_config(),
        axes={
            "cpufreq_max_mhz": tuple(
                state.freq_mhz for state in catalog.OPTIPLEX_755.states
            )
        },
        metrics=("batch", "frequency", "energy"),
    )


def _calib_eq2() -> Preset:
    return Preset(
        name="calib-eq2",
        description="Eq. 2 correction factor: the frequency ladder on the i7-3770",
        config=_calib_config(processor=catalog.CORE_I7_3770),
        axes={
            "cpufreq_max_mhz": tuple(
                state.freq_mhz for state in catalog.CORE_I7_3770.states
            )
        },
        metrics=("batch", "frequency", "energy"),
    )


def _calib_eq3() -> Preset:
    return Preset(
        name="calib-eq3",
        description="Eq. 3 capacity: pi time vs credit cap at the max frequency",
        config=_calib_config(guests=_pi_guest(_CALIB_CAPS[0])),
        axes={"guests": tuple(_pi_guest(cap) for cap in _CALIB_CAPS)},
        metrics=("batch", "frequency", "energy"),
    )


def _calib_compensation() -> Preset:
    table = catalog.OPTIPLEX_755.table()
    reduced = table.state_for(_CALIB_REDUCED_MHZ)
    ratio = reduced.freq_mhz / table.max_state.freq_mhz
    compensated = tuple(
        laws.compensated_credit(cap, ratio, reduced.cf) for cap in _CALIB_CAPS
    )
    return Preset(
        name="calib-compensation",
        description="Eq. 4 / Fig. 1: the Eq. 3 ladder at 2133 MHz, caps compensated",
        config=_calib_config(
            guests=_pi_guest(compensated[0]),
            cpufreq_max_mhz=_CALIB_REDUCED_MHZ,
        ),
        axes={"guests": tuple(_pi_guest(cap) for cap in compensated)},
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


def _dc_diurnal() -> Preset:
    return Preset(
        name="dc-diurnal",
        description="24-VM day-shape mix on 10 machines, all policies, 200W cap",
        config=_dc_config(n_machines=10, n_vms=24, power_budget_w=200.0),
        axes={"policy": ORCHESTRATION_POLICIES},
        metrics=("fleet", "cluster"),
    )


def _dc_diurnal_small() -> Preset:
    return Preset(
        name="dc-diurnal-small",
        description="CI smoke fleet: the day-shape mix on 4 machines / 8 VMs",
        config=_dc_config(
            n_machines=4,
            n_vms=8,
            duration=200.0,
            day_length=200.0,
            power_budget_w=80.0,
        ),
        axes={"policy": ORCHESTRATION_POLICIES},
        metrics=("fleet", "cluster"),
    )


def _dc_fleet_medium() -> Preset:
    return Preset(
        name="dc-fleet-medium",
        description="fleet-size point: 16 machines / 40 VMs, day-shape mix",
        config=_dc_config(
            n_machines=16, n_vms=40, duration=300.0, day_length=300.0,
            power_budget_w=330.0,
        ),
        axes={"policy": ORCHESTRATION_POLICIES},
        metrics=("fleet", "cluster"),
    )


def _dc_hetero() -> Preset:
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


def _dc_fleet_large() -> Preset:
    return Preset(
        name="dc-fleet-large",
        description="fleet-size point: 32 machines / 96 VMs, day-shape mix",
        config=_dc_config(
            n_machines=32, n_vms=96, duration=200.0, day_length=200.0,
            power_budget_w=800.0,
        ),
        axes={"policy": ORCHESTRATION_POLICIES},
        metrics=("fleet", "cluster"),
    )


#: All presets, keyed by name, in documentation order.
PRESETS: dict[str, Preset] = {
    preset.name: preset
    for preset in (
        _paper_53(),
        _governors(),
        _diurnal_web(),
        _pi_batch(),
        _mixed_guests(),
        _stress_fleet(),
        _qos_noisy_neighbor(),
        _calib_eq1(),
        _calib_eq2(),
        _calib_eq3(),
        _calib_compensation(),
        _dc_diurnal(),
        _dc_diurnal_small(),
        _dc_fleet_medium(),
        _dc_fleet_large(),
        _dc_hetero(),
    )
}


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
    replicates: int = 1,
    vary_seed: bool = True,
):
    """A ready-to-run :class:`~repro.sweep.grid.SweepGrid` for preset *name*.

    Presets without axes become a single-variant grid (so the sweep CLI and
    runner treat every preset uniformly); *overrides* patch the base config
    first (unknown fields raise a :class:`ConfigurationError`).
    """
    from ..sweep import SweepGrid

    preset = get_preset(name)
    config = preset.config.with_changes(**(overrides or {}))
    if not preset.axes:
        return SweepGrid.from_variants({preset.name: config}, replicates=replicates)
    return SweepGrid(
        preset.axes, base=config, vary_seed=vary_seed, replicates=replicates
    )
