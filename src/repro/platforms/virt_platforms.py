"""The seven virtualization platforms of Table 2 (§5.8).

The paper's own analysis reduces each platform to two axes:

* **credit discipline** — fix credit (Hyper-V 2012, VMware ESXi 5, Xen with
  the Credit scheduler, Xen with PAS) versus variable credit (Xen SEDF,
  KVM, VirtualBox);
* **governor behaviour under its OnDemand-equivalent mode** — how deep the
  platform's power management clocks the CPU down when the host looks idle.

We model exactly those axes on the Table 2 testbed (HP Elite 8300,
i7-3770).  The vendor governors are the stable (averaged) policy with a
platform-specific ``scaling_min_freq`` floor chosen so the *relative*
degradation ordering of Table 2 reproduces: Hyper-V clocks to the physical
floor (largest penalty), stock Xen ondemand nearly so, ESXi is markedly more
conservative, PAS compensates fully, and the variable-credit platforms never
let the frequency drop while a VM is hungry (fast, but no energy saving).
KVM and VirtualBox are modelled as weight-fair work-conserving schedulers
(their CFS-based schedulers have no cap), here the credit2 policy.

Every platform/mode pair is an ordinary
:class:`~repro.experiments.scenario.ScenarioConfig`
(:func:`platform_config`): V20 (20 % credit) runs a pi batch spec while V70
(70 % credit) runs the three-phase Web-app spec, with
``stop_when_batch_done`` ending the run once pi finishes — so Table 2 rows
ride the same spec interpreter (and the same sweep grids) as every other
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cpu import catalog
from ..cpu.processor import ProcessorSpec
from ..errors import ConfigurationError

#: pi-app size in absolute seconds for the Table 2 scenario.  At 20 % credit
#: and maximum frequency this takes 1400 s — the same order as the paper's
#: 1550-1600 s column (their machine, their pi precision).
PI_WORK = 280.0

#: V70's active window in the Table 2 scenario (three-phase profile).
V70_ACTIVE = (200.0, 800.0)

#: Dom0 housekeeping demand (absolute percent) — Dom0 fronts guest I/O.
DOM0_DEMAND = 8.0

#: Simulation horizon; generous upper bound for the slowest platform.
HORIZON = 4000.0


@dataclass(frozen=True)
class VirtPlatform:
    """One Table 2 column: a scheduler discipline plus governor behaviour.

    Parameters
    ----------
    name:
        The paper's column header.
    discipline:
        ``"fix"`` or ``"variable"`` — which §3.1 scheduler family.
    scheduler:
        Registry name of the platform's scheduler model.
    ondemand_floor_mhz:
        The lowest frequency the platform's OnDemand-mode governor uses
        (None = the physical minimum).  This is the modelled vendor
        aggressiveness; see the module docstring.
    uses_pas:
        True for the Xen/PAS column (frequency driven by the scheduler).
    paper_performance / paper_ondemand:
        The execution times Table 2 reports, for side-by-side output.
    """

    name: str
    discipline: str
    scheduler: str
    ondemand_floor_mhz: int | None
    uses_pas: bool
    paper_performance: float
    paper_ondemand: float

    @property
    def paper_degradation(self) -> float:
        """Table 2's Degradation row: ``(1 - T_perf / T_ondemand) * 100``."""
        return (1.0 - self.paper_performance / self.paper_ondemand) * 100.0


@dataclass(frozen=True)
class Table2Row:
    """Measured execution times for one platform."""

    platform: str
    discipline: str
    time_performance: float
    time_ondemand: float
    paper_performance: float
    paper_ondemand: float
    paper_degradation: float

    @property
    def degradation(self) -> float:
        """``(1 - T_perf / T_ondemand) * 100`` — Table 2's bottom row."""
        return (1.0 - self.time_performance / self.time_ondemand) * 100.0


#: Table 2's platforms in the paper's column order.
PLATFORMS: tuple[VirtPlatform, ...] = (
    VirtPlatform(
        name="Hyper-V",
        discipline="fix",
        scheduler="credit",
        ondemand_floor_mhz=1600,  # clocks to the physical floor
        uses_pas=False,
        paper_performance=1601.0,
        paper_ondemand=3212.0,
    ),
    VirtPlatform(
        name="VMware",
        discipline="fix",
        scheduler="credit",
        ondemand_floor_mhz=2400,  # conservative power management
        uses_pas=False,
        paper_performance=1550.0,
        paper_ondemand=2132.0,
    ),
    VirtPlatform(
        name="Xen/credit",
        discipline="fix",
        scheduler="credit",
        ondemand_floor_mhz=2000,  # stock Xen ondemand
        uses_pas=False,
        paper_performance=1559.0,
        paper_ondemand=2599.0,
    ),
    VirtPlatform(
        name="Xen/PAS",
        discipline="fix",
        scheduler="pas",
        ondemand_floor_mhz=None,
        uses_pas=True,
        paper_performance=1559.0,
        paper_ondemand=1560.0,
    ),
    VirtPlatform(
        name="Xen/SEDF",
        discipline="variable",
        scheduler="sedf",
        ondemand_floor_mhz=None,
        uses_pas=False,
        paper_performance=616.0,
        paper_ondemand=616.0,
    ),
    VirtPlatform(
        name="KVM",
        discipline="variable",
        scheduler="credit2",
        ondemand_floor_mhz=None,
        uses_pas=False,
        paper_performance=599.0,
        paper_ondemand=599.0,
    ),
    VirtPlatform(
        name="Vbox",
        discipline="variable",
        scheduler="credit2",
        ondemand_floor_mhz=None,
        uses_pas=False,
        paper_performance=625.0,
        paper_ondemand=625.0,
    ),
)


def platform_config(
    platform: VirtPlatform,
    mode: str,
    *,
    processor: ProcessorSpec = catalog.CORE_I7_3770,
    horizon: float = HORIZON,
):
    """The §5.8 scenario on *platform* under *mode*, as a declarative spec.

    ``mode`` is ``"performance"`` or ``"ondemand"``.  The vendor OnDemand
    model is the stable governor floored at the platform's
    ``ondemand_floor_mhz`` (``cpufreq_min_mhz``); PAS drives the frequency
    itself through the userspace governor.
    """
    from ..experiments.scenario import GuestSpec, ScenarioConfig, WorkloadSpec

    if mode not in ("performance", "ondemand"):
        raise ConfigurationError(f"mode must be 'performance' or 'ondemand', got {mode!r}")
    if platform.uses_pas:
        governor = "userspace"
    elif mode == "performance":
        governor = "performance"
    else:
        governor = "stable"
    floor = platform.ondemand_floor_mhz if mode == "ondemand" else None
    guests = (
        GuestSpec(
            name="V20",
            credit=20.0,
            workloads=(WorkloadSpec(kind="pi", work=PI_WORK),),
        ),
        GuestSpec(
            name="V70",
            credit=70.0,
            workloads=(
                WorkloadSpec(kind="web", load="exact", active=(V70_ACTIVE,)),
            ),
        ),
    )
    return ScenarioConfig(
        scheduler=platform.scheduler,
        governor=governor,
        processor=processor,
        guests=guests,
        duration=horizon,
        dom0_demand_percent=DOM0_DEMAND,
        cpufreq_min_mhz=floor,
        stop_when_batch_done=True,
        seed=0,
    )
