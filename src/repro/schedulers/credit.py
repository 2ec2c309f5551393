"""The Xen Credit scheduler — the paper's *fix credit* baseline (§3.1).

Mechanics modelled on Xen 4.1's csched:

* every vCPU has a **weight** (share under contention) and a **cap** (hard
  ceiling in percent of one pCPU; 0 means uncapped — the paper's null-credit
  exception);
* every 30 ms accounting period, credits are distributed to *active*
  (runnable) vCPUs proportionally to weight; a vCPU with positive credits is
  UNDER, otherwise OVER, and UNDER always runs before OVER;
* cap enforcement *parks* a vCPU for the rest of the accounting period once
  it has consumed ``cap% * period`` of CPU time; the host's slice length is
  bounded by the remaining budget so the cap is never overshot;
* Dom0 sits in a higher priority class and preempts guests on wake (§5.3:
  "configured with the highest priority").

With ``weight = cap = credit`` (the defaults from
:class:`~repro.hypervisor.domain.DomainConfig`) this is exactly the paper's
fix-credit scheduler: each VM gets at most its credit, always, regardless of
the processor frequency — which is the flaw Figs. 3–5 demonstrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import SchedulerError
from ..obs import hooks as _obs
from ..units import check_positive
from .base import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hypervisor.domain import Domain
    from ..hypervisor.vcpu import VCpu

#: Remaining cap budget below which a vCPU is parked for the period.
MIN_BUDGET = 1e-6


@dataclass(slots=True)
class _Account:
    """Per-vCPU scheduler state (the vCPU's ``sched`` slot)."""

    vcpu: "VCpu"
    owner: "CreditScheduler"
    weight: float
    cap: float  # nominal percent; 0 = uncapped
    priority_class: int
    credit_s: float = 0.0  # seconds of owed CPU time
    usage_in_period: float = 0.0
    parked: bool = False
    queued: bool = False
    initial_cap: float = field(init=False)

    def __post_init__(self) -> None:
        self.initial_cap = self.cap

    @property
    def under(self) -> bool:
        """Xen's UNDER priority: positive credit balance."""
        return self.credit_s > 0.0

    def cap_budget(self, period: float) -> float:
        """Remaining CPU seconds allowed in the current accounting period.

        Canonical definition of the cap rule.  ``pick_next`` / ``slice_for``
        / ``charge`` inline this exact expression (uncapped test included)
        to stay call-free on the dispatch hot path — change it here and in
        those three copies together.
        """
        if self.cap <= 0.0:
            return float("inf")
        return self.cap / 100.0 * period - self.usage_in_period


class CreditScheduler(Scheduler):
    """Xen's default scheduler (weights + caps + UNDER/OVER priorities).

    Parameters
    ----------
    quantum:
        Maximum slice length (Xen: 30 ms).
    tick_interval:
        Scheduler tick (Xen: 10 ms); one accounting pass runs every
        *ticks_per_accounting* ticks.
    ticks_per_accounting:
        Ticks per credit-accounting pass (Xen: 3 -> 30 ms).
    credit_clamp_periods:
        Upper bound on hoarded credits, in accounting periods.  Keeps long-
        blocked vCPUs from starving everyone after wake (Xen clamps too).
    """

    name = "credit"

    def __init__(
        self,
        *,
        quantum: float = 0.03,
        tick_interval: float = 0.01,
        ticks_per_accounting: int = 3,
        credit_clamp_periods: float = 2.0,
    ) -> None:
        super().__init__()
        self.quantum = check_positive(quantum, "quantum")
        self.tick_period = check_positive(tick_interval, "tick_interval")
        if ticks_per_accounting < 1:
            raise SchedulerError(f"ticks_per_accounting must be >= 1, got {ticks_per_accounting}")
        self.ticks_per_accounting = ticks_per_accounting
        self.accounting_period = tick_interval * ticks_per_accounting
        self.credit_clamp = credit_clamp_periods * self.accounting_period
        self._queues: dict[int, list[_Account]] = {}
        #: Queues in ascending priority-class order (rebuilt on membership
        #: changes) so pick_next never re-sorts the class keys.
        self._queue_scan: list[list[_Account]] = []
        self._tick_count = 0

    # ------------------------------------------------------------ membership

    def add_vcpu(self, vcpu: "VCpu") -> None:
        self._check_new(vcpu)
        config = vcpu.domain.config
        account = _Account(
            vcpu=vcpu,
            owner=self,
            weight=config.effective_weight,
            cap=config.effective_cap,
            priority_class=config.priority_class,
        )
        self._admit(vcpu, account)
        self._queues.setdefault(account.priority_class, [])
        self._queue_scan = [self._queues[cls] for cls in sorted(self._queues)]

    def remove_vcpu(self, vcpu: "VCpu") -> None:
        account = self._forget(vcpu)
        if account.queued:
            self._queues[account.priority_class].remove(account)

    # ---------------------------------------------------------- state change

    # The per-vCPU hooks below write out ``Scheduler._account_of``'s slot
    # read and ownership check, and call it to raise on a miss.

    def wake(self, vcpu: "VCpu") -> None:
        account = vcpu.sched
        if account is None or account.owner is not self:
            account = self._account_of(vcpu)
        if not account.queued:
            self._queues[account.priority_class].append(account)
            account.queued = True

    #: A requeue after a slice is a wake here (no separate BOOST path), so
    #: ``put_back`` is ``wake`` itself rather than the base class's
    #: forwarding default, one call frame per requeued slice cheaper.
    put_back = wake

    def sleep(self, vcpu: "VCpu") -> None:
        account = vcpu.sched
        if account is None or account.owner is not self:
            account = self._account_of(vcpu)
        if account.queued:
            self._queues[account.priority_class].remove(account)
            account.queued = False

    # --------------------------------------------------------------- policy

    def pick_next(self, now: float) -> "VCpu | None":
        # Allocation-free scan: one pass per class queue finds the first
        # UNDER account (which wins outright) and the first merely-eligible
        # fallback, while collecting stale entries — vCPUs that blocked
        # without a sleep() (defensive; the host always calls sleep, but
        # stale entries must not run).  Semantics are identical to the
        # build-three-lists original, including dropping stale entries in
        # every class scanned before the pick.
        self.stats.decisions += 1
        period = self.accounting_period
        for queue in self._queue_scan:
            under = None
            fallback = None
            stale = None
            for account in queue:
                if not account.vcpu.runnable:
                    if stale is None:
                        stale = [account]
                    else:
                        stale.append(account)
                    continue
                if under is None and not account.parked:
                    # Inline of _Account.cap_budget (keep in sync with it).
                    cap = account.cap
                    if cap <= 0.0 or cap / 100.0 * period - account.usage_in_period > MIN_BUDGET:
                        if account.credit_s > 0.0:
                            under = account
                        elif fallback is None:
                            fallback = account
            if stale is not None:
                for account in stale:
                    queue.remove(account)
                    account.queued = False
            chosen = under if under is not None else fallback
            if chosen is None:
                continue
            queue.remove(chosen)
            chosen.queued = False
            return chosen.vcpu
        self.stats.idle_picks += 1
        return None

    def slice_for(self, vcpu: "VCpu", now: float) -> float:
        account = vcpu.sched
        if account is None or account.owner is not self:
            account = self._account_of(vcpu)
        cap = account.cap
        if cap <= 0.0:
            return self.quantum
        # Inline of _Account.cap_budget (keep in sync with it).
        budget = cap / 100.0 * self.accounting_period - account.usage_in_period
        return budget if budget < self.quantum else self.quantum

    def charge(self, vcpu: "VCpu", wall_dt: float, now: float) -> None:
        account = vcpu.sched
        if account is None or account.owner is not self:
            account = self._account_of(vcpu)
        account.credit_s -= wall_dt
        account.usage_in_period += wall_dt
        # Inline of _Account.cap_budget (keep in sync with it).
        cap = account.cap
        if cap > 0.0 and cap / 100.0 * self.accounting_period - account.usage_in_period <= MIN_BUDGET:
            if not account.parked:
                trace = _obs.TRACER
                if trace is not None:
                    trace.credit_event(now, "park", vcpu.name)
            account.parked = True
        self.stats.charged_seconds += wall_dt

    def should_preempt(self, current: "VCpu", waking: "VCpu") -> bool:
        current_account = current.sched
        if current_account is None or current_account.owner is not self:
            current_account = self._account_of(current)
        waking_account = waking.sched
        if waking_account is None or waking_account.owner is not self:
            waking_account = self._account_of(waking)
        if waking_account.parked:
            return False
        if waking_account.priority_class < current_account.priority_class:
            return True  # Dom0 boost over guests.
        # Xen's BOOST: a waking vCPU with credit left preempts an OVER one.
        return (
            waking_account.priority_class == current_account.priority_class
            and waking_account.under
            and not current_account.under
        )

    # ----------------------------------------------------------- accounting

    def tick(self, now: float) -> bool:
        self._tick_count += 1
        if self._tick_count % self.ticks_per_accounting != 0:
            return False
        trace = _obs.TRACER
        if trace is not None:
            trace.credit_event(now, "reset", "all")
        self._run_accounting()
        for account in self._accounts.values():
            if account.queued:
                return True
        return False

    def _run_accounting(self) -> None:
        # One pass opens the new period and collects the runnable accounts
        # (the refill reads no field the reset writes).  Summing a list is
        # the same sum, in the same order, without a generator.
        active = []
        for account in self._accounts.values():
            account.usage_in_period = 0.0
            account.parked = False
            if account.vcpu.runnable:
                active.append(account)
        total_weight = sum([account.weight for account in active])
        if total_weight > 0:
            period = self.accounting_period
            clamp = self.credit_clamp
            for account in active:
                share = account.weight / total_weight
                credit_s = account.credit_s + share * period
                account.credit_s = clamp if credit_s > clamp else credit_s

    # ----------------------------------------------------------- cap control

    def set_cap(self, domain: "Domain", cap_percent: float) -> None:
        """Change *domain*'s cap; unparks it if new budget opened up.

        This is the knob PAS turns (Listing 1.2's ``setCredit``): credits in
        the paper's vocabulary are enforced as caps here, because a cap is
        what bounds consumption under fix-credit semantics.
        """
        if cap_percent < 0:
            raise SchedulerError(f"cap must be >= 0, got {cap_percent}")
        account = self._account_of(domain.vcpu)
        account.cap = cap_percent
        if account.parked and account.cap_budget(self.accounting_period) > MIN_BUDGET:
            account.parked = False

    def cap_of(self, domain: "Domain") -> float:
        return self._account_of(domain.vcpu).cap

    def credits_of(self, domain: "Domain") -> float:
        """Current credit balance in seconds (tests/telemetry)."""
        return self._account_of(domain.vcpu).credit_s

    def set_weight(self, domain: "Domain", weight: float) -> None:
        """Change *domain*'s weight; takes effect at the next refill."""
        if weight <= 0:
            raise SchedulerError(f"weight must be > 0, got {weight}")
        self._account_of(domain.vcpu).weight = weight

    def weight_of(self, domain: "Domain") -> float:
        return self._account_of(domain.vcpu).weight
