"""The Xen SEDF scheduler — the paper's *variable credit* baseline (§3.1).

Each vCPU is configured with the triplet ``(s, p, b)``: it is guaranteed the
lowest slice *s* of CPU time during each period of length *p*, and the
boolean flag *b* marks it eligible for *extra* CPU time slices that other
vCPUs leave unused.  Guaranteed slices are dispatched Earliest-Deadline-First;
extra time is handed out round-robin in small quanta.

Credits map onto the triplet as ``s = credit/100 * p`` (DESIGN §6), and the
paper's usage is ``b = True`` — the work-conserving mode whose two faces the
evaluation shows: it masks the DVFS/credit conflict under exact load
(Figs. 6–7) but lets a 20 %-credit VM eat 85 % of the machine under thrashing
load, pinning the frequency at maximum (Fig. 8).

Admission control enforces the EDF bound ``sum(s_i / p_i) <= 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING

from ..errors import AdmissionError, SchedulerError
from ..units import check_positive
from .base import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hypervisor.domain import Domain
    from ..hypervisor.vcpu import VCpu

#: Remaining guaranteed budget below which a vCPU leaves EDF mode.
MIN_BUDGET = 1e-6
#: Slack accepted on the admission bound (pure float fuzz).
ADMISSION_SLACK = 1e-9


@dataclass
class _SedfAccount:
    """Per-vCPU SEDF state (the vCPU's ``sched`` slot)."""

    vcpu: "VCpu"
    owner: "SedfScheduler"
    slice_s: float
    period_p: float
    extra: bool
    #: Proportional-share weight (QoS boost knob); the admitted slice is
    #: ``base_slice_s * weight / base_weight``, clamped to EDF feasibility.
    weight: float = 1.0
    base_weight: float = 1.0
    base_slice_s: float = 0.0
    deadline: float = 0.0
    remaining: float = 0.0
    #: Mode of the most recent dispatch ("edf" or "extra"): extra time is
    #: not charged against the guaranteed slice.
    last_mode: str = "edf"

    @property
    def utilization(self) -> float:
        return self.slice_s / self.period_p if self.period_p > 0 else 0.0

    def refresh(self, now: float) -> bool:
        """Roll the period forward; True when a new period granted budget."""
        rolled = False
        while now >= self.deadline - 1e-12:
            self.deadline += self.period_p
            self.remaining = self.slice_s
            rolled = True
        return rolled

    @property
    def has_budget(self) -> bool:
        return self.remaining > MIN_BUDGET


class SedfScheduler(Scheduler):
    """Simple Earliest Deadline First with optional extra time (§3.1).

    Parameters
    ----------
    extra_quantum:
        Slice length for extra-time dispatches (round-robin granularity).
    tick_interval:
        Period-rollover granularity; vCPUs whose new period starts while the
        processor idles are picked up at the next tick.
    """

    name = "sedf"

    def __init__(self, *, extra_quantum: float = 0.01, tick_interval: float = 0.01) -> None:
        super().__init__()
        self.extra_quantum = check_positive(extra_quantum, "extra_quantum")
        self.tick_period = check_positive(tick_interval, "tick_interval")
        #: Round-robin order for extra-time dispatch.
        self._extra_ring: list[_SedfAccount] = []

    # ------------------------------------------------------------ membership

    def add_vcpu(self, vcpu: "VCpu") -> None:
        self._check_new(vcpu)
        config = vcpu.domain.config
        if config.sedf_period <= 0:
            raise AdmissionError(f"vCPU {vcpu.name!r}: SEDF period must be positive")
        slice_s = config.credit / 100.0 * config.sedf_period
        utilization = sum(account.utilization for account in self._accounts.values())
        if utilization + (slice_s / config.sedf_period) > 1.0 + ADMISSION_SLACK:
            raise AdmissionError(
                f"vCPU {vcpu.name!r} rejected: total utilization "
                f"{utilization + slice_s / config.sedf_period:.4f} exceeds 1.0"
            )
        account = _SedfAccount(
            vcpu=vcpu,
            owner=self,
            slice_s=slice_s,
            period_p=config.sedf_period,
            extra=config.sedf_extra,
            weight=config.effective_weight,
            base_weight=config.effective_weight,
            base_slice_s=slice_s,
        )
        self._admit(vcpu, account)

    def remove_vcpu(self, vcpu: "VCpu") -> None:
        account = self._forget(vcpu)
        if account in self._extra_ring:
            self._extra_ring.remove(account)

    # ---------------------------------------------------------- state change

    def wake(self, vcpu: "VCpu") -> None:
        account = self._account_of(vcpu)
        now = self.host.engine.now
        if now >= account.deadline - 1e-12:
            # Fresh period from the wake instant (no back-credit for sleep).
            account.deadline = now + account.period_p
            account.remaining = account.slice_s

    def sleep(self, vcpu: "VCpu") -> None:
        # Budget and deadline stay; refresh happens on the next wake.
        self._account_of(vcpu)

    # --------------------------------------------------------------- policy

    def pick_next(self, now: float) -> "VCpu | None":
        self.stats.decisions += 1
        runnable = [
            account for account in self._accounts.values() if account.vcpu.runnable
        ]
        for account in runnable:
            account.refresh(now)
        # Guaranteed slices first, earliest deadline wins; FIFO on ties via
        # stable sort over admission order.
        edf_ready = [account for account in runnable if account.has_budget]
        if edf_ready:
            chosen = min(edf_ready, key=lambda account: account.deadline)
            chosen.last_mode = "edf"
            return chosen.vcpu
        # Extra time: round-robin over willing runnable vCPUs.
        ring_candidates = [account for account in runnable if account.extra]
        if ring_candidates:
            chosen = self._rotate_extra(ring_candidates)
            chosen.last_mode = "extra"
            return chosen.vcpu
        self.stats.idle_picks += 1
        return None

    def _rotate_extra(self, candidates: list[_SedfAccount]) -> _SedfAccount:
        # Keep a persistent ring so turns interleave fairly across picks.
        for account in candidates:
            if account not in self._extra_ring:
                self._extra_ring.append(account)
        while True:
            head = self._extra_ring.pop(0)
            self._extra_ring.append(head)
            if head in candidates:
                return head

    def slice_for(self, vcpu: "VCpu", now: float) -> float:
        account = self._account_of(vcpu)
        if account.last_mode == "edf":
            until_deadline = max(account.deadline - now, MIN_BUDGET)
            return min(account.remaining, until_deadline)
        return self.extra_quantum

    def charge(self, vcpu: "VCpu", wall_dt: float, now: float) -> None:
        account = self._account_of(vcpu)
        if account.last_mode == "edf":
            account.remaining = max(0.0, account.remaining - wall_dt)
        self.stats.charged_seconds += wall_dt

    def should_preempt(self, current: "VCpu", waking: "VCpu") -> bool:
        waking_account = self._account_of(waking)
        current_account = self._account_of(current)
        if not waking_account.has_budget:
            return False
        if current_account.last_mode == "extra":
            return True  # Guaranteed time always beats extra time.
        return waking_account.deadline < current_account.deadline

    # ----------------------------------------------------------- accounting

    def tick(self, now: float) -> bool:
        # Pick up period rollovers for runnable-but-unserved vCPUs; the host
        # re-dispatches when new guaranteed budget appeared.
        rolled = False
        for account in self._accounts.values():
            if account.vcpu.runnable and account.refresh(now):
                rolled = True
        return rolled

    # -------------------------------------------------------------- queries

    def remaining_of(self, vcpu: "VCpu") -> float:
        """Remaining guaranteed budget this period (tests/telemetry)."""
        return self._account_of(vcpu).remaining

    def deadline_of(self, vcpu: "VCpu") -> float:
        """Current period deadline (tests/telemetry)."""
        return self._account_of(vcpu).deadline

    def set_weight(self, domain: "Domain", weight: float) -> None:
        """Rescale *domain*'s guaranteed slice by ``weight / base_weight``.

        SEDF has no native weight; the paper's triplet fixes the slice at
        admission.  The QoS controllers still need a proportional boost
        knob that works against every scheduler, so a weight change maps
        onto the one SEDF parameter with that meaning: the slice grows (or
        shrinks) in proportion, clamped so the fleet stays EDF-admissible
        (``sum(s_i / p_i) <= 1``) — a boost can never over-commit the
        processor, it just takes all the remaining bandwidth.  Takes
        effect at the next period refresh.
        """
        if weight <= 0:
            raise SchedulerError(f"weight must be > 0, got {weight}")
        account = self._account_of(domain.vcpu)
        others = sum(
            other.utilization
            for other in self._accounts.values()
            if other is not account
        )
        feasible_slice = max(0.0, (1.0 + ADMISSION_SLACK - others)) * account.period_p
        account.weight = weight
        account.slice_s = min(
            account.base_slice_s * (weight / account.base_weight), feasible_slice
        )

    def weight_of(self, domain: "Domain") -> float:
        return self._account_of(domain.vcpu).weight
