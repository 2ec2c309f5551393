"""The scheduler interface the host dispatch loop drives.

The host owns wall-clock mechanics (slices, events, preemption); a scheduler
owns *policy*: which runnable vCPU goes next, for how long, and how consumed
time is charged.  The contract:

* the host calls :meth:`wake` / :meth:`sleep` on demand transitions;
* :meth:`pick_next` returns the vCPU to dispatch (or None to idle) — it must
  never return a vCPU the policy forbids running (e.g. cap-parked);
* :meth:`slice_for` bounds the slice so a policy budget is never overshot;
* :meth:`charge` accounts wall-time actually consumed (the host may end a
  slice early on blocking or P-state changes);
* :meth:`tick` fires every :attr:`tick_period` simulated seconds and returns
  True when its bookkeeping may have changed who should run, so the host
  re-dispatches.

Caps are mutable at runtime via :meth:`set_cap` — that is the hook the PAS
scheduler and the user-level managers (§4.1) use to enforce Eq. 4.

A scheduler keeps one account of per-vCPU state for each admitted vCPU.
Like Xen's ``sched_priv``, the account hangs off the vCPU itself (its
``sched`` slot), so the hooks the host calls with a vCPU reach it without a
lookup by name; ``_accounts`` holds the same accounts by name, in admission
order, for the passes over every vCPU.  Each account names its ``owner``,
so a vCPU admitted to another scheduler is refused, not misread.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..errors import SchedulerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hypervisor.domain import Domain
    from ..hypervisor.host import Host
    from ..hypervisor.vcpu import VCpu


@dataclass
class SchedulerStats:
    """Counters every scheduler maintains (telemetry & tests)."""

    decisions: int = 0
    preemptions: int = 0
    idle_picks: int = 0
    charged_seconds: float = 0.0
    charged_by_domain: dict[str, float] = field(default_factory=dict)

    def charge(self, name: str, dt: float) -> None:
        """Accumulate *dt* seconds against domain *name*."""
        self.charged_seconds += dt
        self.charged_by_domain[name] = self.charged_by_domain.get(name, 0.0) + dt


class Scheduler(ABC):
    """Base class for every VM scheduler."""

    #: Identifier used in experiment configs and telemetry.
    name: str = "abstract"

    #: Seconds between :meth:`tick` calls (None = no periodic bookkeeping).
    tick_period: float | None = None

    def __init__(self) -> None:
        self._host: "Host | None" = None
        self.stats = SchedulerStats()
        #: Admitted vCPUs' accounts by vCPU name, in admission order.
        self._accounts: dict[str, Any] = {}

    # ------------------------------------------------------------- plumbing

    def attach(self, host: "Host") -> None:
        """Called once by the host before any other method."""
        if self._host is not None:
            raise SchedulerError(f"scheduler {self.name!r} attached twice")
        self._host = host

    @property
    def host(self) -> "Host":
        """The owning host (raises before attachment)."""
        if self._host is None:
            raise SchedulerError(f"scheduler {self.name!r} is not attached to a host")
        return self._host

    # ------------------------------------------------------------ membership

    @abstractmethod
    def add_vcpu(self, vcpu: "VCpu") -> None:
        """Admit a vCPU (its domain config carries the parameters)."""

    @abstractmethod
    def remove_vcpu(self, vcpu: "VCpu") -> None:
        """Forget a vCPU."""

    def _check_new(self, vcpu: "VCpu") -> None:
        """Raise unless *vcpu* may be admitted (no scheduler holds it)."""
        if vcpu.sched is not None or vcpu.name in self._accounts:
            raise SchedulerError(f"vCPU {vcpu.name!r} already admitted")

    def _admit(self, vcpu: "VCpu", account: Any) -> None:
        """Hold *account* (whose ``owner`` is this scheduler) for *vcpu*."""
        self._accounts[vcpu.name] = account
        vcpu.sched = account

    def _account_of(self, vcpu: "VCpu") -> Any:
        """*vcpu*'s account, read from its ``sched`` slot.

        The hot hooks write this check out: an empty slot, or an account
        another scheduler owns, raises :class:`SchedulerError`.
        """
        account = vcpu.sched
        if account is None or account.owner is not self:
            raise SchedulerError(f"vCPU {vcpu.name!r} is not admitted")
        return account

    def _forget(self, vcpu: "VCpu") -> Any:
        """Drop *vcpu*'s account (raises if not admitted); returns it."""
        account = self._account_of(vcpu)
        del self._accounts[vcpu.name]
        vcpu.sched = None
        return account

    # ---------------------------------------------------------- state change

    @abstractmethod
    def wake(self, vcpu: "VCpu") -> None:
        """The vCPU acquired demand (blocked -> runnable)."""

    @abstractmethod
    def sleep(self, vcpu: "VCpu") -> None:
        """The vCPU drained its demand (runnable/running -> blocked)."""

    # --------------------------------------------------------------- policy

    @abstractmethod
    def pick_next(self, now: float) -> "VCpu | None":
        """Choose the next vCPU to dispatch; None to idle the processor."""

    @abstractmethod
    def slice_for(self, vcpu: "VCpu", now: float) -> float:
        """Maximum wall seconds *vcpu* may run in the upcoming slice (> 0)."""

    @abstractmethod
    def charge(self, vcpu: "VCpu", wall_dt: float, now: float) -> None:
        """Account *wall_dt* seconds actually consumed by *vcpu*."""

    def put_back(self, vcpu: "VCpu") -> None:
        """The slice ended and *vcpu* is still runnable; requeue it.

        Default: treat like a wake.  Schedulers with distinct wake/requeue
        paths (e.g. BOOST handling) override this.
        """
        self.wake(vcpu)

    def tick(self, now: float) -> bool:
        """Periodic bookkeeping; True if the host should re-dispatch."""
        return False

    def should_preempt(self, current: "VCpu", waking: "VCpu") -> bool:
        """True when *waking* must preempt *current* immediately."""
        return False

    # ----------------------------------------------------------- cap control

    def set_cap(self, domain: "Domain", cap_percent: float) -> None:
        """Change a domain's cap at runtime (PAS / user-level managers).

        Schedulers without a cap notion accept and ignore the call, so the
        user-level managers of §4.1 can be pointed at any scheduler.
        """

    def cap_of(self, domain: "Domain") -> float:
        """Current cap in nominal percent (0 = uncapped); default uncapped."""
        return 0.0

    def set_weight(self, domain: "Domain", weight: float) -> None:
        """Change a domain's proportional-share weight at runtime.

        The QoS controllers boost latency-critical domains through this
        knob; schedulers without a weight notion accept and ignore it.
        """

    def weight_of(self, domain: "Domain") -> float:
        """Current weight (0 = this scheduler has no weight notion)."""
        return 0.0
