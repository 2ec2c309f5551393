"""Domains (VMs and Dom0).

A :class:`Domain` bundles the SLA the customer bought (the *credit*: a
percentage of the host's maximum-frequency capacity), the scheduler
parameters derived from it, one vCPU, and an optional workload.  Dom0 is an
ordinary domain in a higher priority class (§5.3: "the Dom0 ... is configured
with the highest priority in the VM scheduler").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..errors import ConfigurationError
from ..units import check_non_negative
from .vcpu import VCpu, VCpuState, WORK_EPSILON

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workloads.base import Workload
    from .host import Host

_INF = float("inf")
_RUNNABLE = VCpuState.RUNNABLE

#: Priority class of Dom0 (picked before any guest class).
DOM0_CLASS = 0
#: Priority class of ordinary guests.
GUEST_CLASS = 1


@dataclass(frozen=True)
class DomainConfig:
    """Scheduler-facing configuration of a domain.

    Parameters
    ----------
    credit:
        The SLA in percent of maximum-frequency capacity.  ``0`` reproduces
        Xen's null-credit exception: no guaranteed share, no cap (§3.1).
    weight:
        Relative share under contention.  Defaults to the credit (so shares
        are proportional to what customers bought); null-credit domains
        default to a scavenger weight of 1 — per §3.1 they may only "use
        any CPU time slices that are not used by other VMs", so they must
        not out-weigh paying VMs.
    cap:
        Hard ceiling in nominal percent.  ``None`` derives the fix-credit
        default (cap = credit, or uncapped when credit is 0).
    priority_class:
        ``DOM0_CLASS`` or ``GUEST_CLASS``; lower runs first.
    sedf_period:
        SEDF period *p* in seconds; the slice is ``credit/100 * p``.
    sedf_extra:
        SEDF's boolean *b* flag: eligible for unused time slices
        (variable-credit behaviour).
    """

    credit: float
    weight: float | None = None
    cap: float | None = None
    priority_class: int = GUEST_CLASS
    sedf_period: float = 0.1
    sedf_extra: bool = False

    def __post_init__(self) -> None:
        check_non_negative(self.credit, "credit")
        if self.credit > 100.0:
            raise ConfigurationError(f"credit must be <= 100, got {self.credit}")
        if self.weight is not None:
            check_non_negative(self.weight, "weight")
        if self.cap is not None:
            check_non_negative(self.cap, "cap")
        if self.priority_class not in (DOM0_CLASS, GUEST_CLASS):
            raise ConfigurationError(f"unknown priority class {self.priority_class}")
        check_non_negative(self.sedf_period, "sedf_period")

    @property
    def effective_weight(self) -> float:
        """Weight used by proportional-share schedulers."""
        if self.weight is not None:
            return self.weight
        return self.credit if self.credit > 0 else 1.0

    @property
    def effective_cap(self) -> float:
        """Cap in nominal percent; 0 means *uncapped* (Xen convention)."""
        if self.cap is not None:
            return self.cap
        return self.credit  # credit 0 -> cap 0 -> uncapped, per the paper


class Domain:
    """A VM: identity + SLA + vCPU + workload attachment point."""

    def __init__(self, name: str, config: DomainConfig, host: "Host") -> None:
        if not name:
            raise ConfigurationError("domain name must be non-empty")
        self._name = name
        self._config = config
        self._host = host
        self._vcpu = VCpu(self)
        self._workloads: list["Workload"] = []
        #: Callbacks fired when the vCPU drains its queue (blocks).
        self._idle_callbacks: list[Callable[[float], None]] = []

    # ------------------------------------------------------------- identity

    @property
    def name(self) -> str:
        """Domain name (unique per host)."""
        return self._name

    @property
    def config(self) -> DomainConfig:
        """Scheduler-facing configuration."""
        return self._config

    @property
    def credit(self) -> float:
        """The initially allocated credit — the SLA (percent of max capacity)."""
        return self._config.credit

    @property
    def vcpu(self) -> VCpu:
        """This domain's (single) vCPU."""
        return self._vcpu

    @property
    def host(self) -> "Host":
        """The host this domain runs on."""
        return self._host

    @property
    def is_dom0(self) -> bool:
        """True for the control domain."""
        return self._config.priority_class == DOM0_CLASS

    # ------------------------------------------------------------- workload

    @property
    def workload(self) -> "Workload | None":
        """The first attached workload, if any (single-workload shorthand)."""
        return self._workloads[0] if self._workloads else None

    @property
    def workloads(self) -> tuple["Workload", ...]:
        """All attached workloads, in attach order."""
        return tuple(self._workloads)

    def attach_workload(self, workload: "Workload") -> None:
        """Attach *workload*; a domain may run several (demand adds up)."""
        workload.bind(self)
        self._workloads.append(workload)

    # ----------------------------------------------------------------- work

    def add_work(self, work: float) -> None:
        """Queue demand on the vCPU and wake it if it was blocked."""
        vcpu = self._vcpu
        if 0.0 <= work < _INF:
            vcpu._pending_work += work
        else:
            vcpu.add_work(work)  # negative, NaN and ±inf work raise here
        # VCpu.mark_runnable, written out: workloads inject demand at every
        # timer period, so this is a per-event path.
        if not vcpu.runnable and vcpu._pending_work > WORK_EPSILON:
            vcpu._state = _RUNNABLE
            vcpu.runnable = True
            self._host.on_vcpu_wake(vcpu)

    def on_idle(self, callback: Callable[[float], None]) -> None:
        """Register *callback(now)* for each queue-drained transition."""
        self._idle_callbacks.append(callback)

    def notify_idle(self, now: float) -> None:
        """Host: the vCPU just blocked (drained its queue)."""
        for callback in self._idle_callbacks:
            callback(now)

    # ------------------------------------------------------------ statistics

    @property
    def cpu_seconds(self) -> float:
        """Wall seconds of processor time received so far."""
        return self._vcpu.cpu_seconds

    @property
    def work_done(self) -> float:
        """Absolute seconds of work completed so far."""
        return self._vcpu.work_done

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Domain({self._name!r}, credit={self.credit}%, {self._vcpu.state.value})"
