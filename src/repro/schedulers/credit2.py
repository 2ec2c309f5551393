"""The Credit2 scheduler — the "beta" Xen scheduler the paper mentions.

§3.1: "Credit2 scheduler is an updated version of Credit scheduler, with the
intention of solving some of its weaknesses.  This scheduler is currently
available in a beta version."  The paper excludes it from the evaluation; we
include a faithful-in-spirit simplification as an extension baseline so the
benchmarks can show it inherits the *variable credit* incompatibility
(Credit2 had no cap support in the Xen 4.1 era, so it cannot enforce a fixed
credit at all).

Mechanics: one global runqueue ordered by credit balance; the running vCPU
burns credits at a rate inversely proportional to its weight; when the
candidate with the most credits is at or below zero, everyone's balance is
reset upward.  Work-conserving by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..units import check_positive
from .base import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hypervisor.domain import Domain
    from ..hypervisor.vcpu import VCpu

#: Credit balance granted at every reset, in seconds.
CREDIT_INIT = 0.5


@dataclass
class _Credit2Account:
    """Per-vCPU Credit2 state (the vCPU's ``sched`` slot)."""

    vcpu: "VCpu"
    owner: "Credit2Scheduler"
    weight: float
    credit_s: float = CREDIT_INIT


class Credit2Scheduler(Scheduler):
    """Simplified Xen Credit2: weighted fair sharing, no caps.

    Parameters
    ----------
    quantum:
        Slice length (Credit2 makes finer-grained decisions than Credit;
        10 ms keeps interleaving smooth).
    """

    name = "credit2"

    def __init__(self, *, quantum: float = 0.01) -> None:
        super().__init__()
        self.quantum = check_positive(quantum, "quantum")
        self.tick_period = None  # No periodic accounting; resets are lazy.
        self._resets = 0

    # ------------------------------------------------------------ membership

    def add_vcpu(self, vcpu: "VCpu") -> None:
        self._check_new(vcpu)
        weight = vcpu.domain.config.effective_weight
        self._admit(vcpu, _Credit2Account(vcpu=vcpu, owner=self, weight=weight))

    def remove_vcpu(self, vcpu: "VCpu") -> None:
        self._forget(vcpu)

    # ---------------------------------------------------------- state change

    def wake(self, vcpu: "VCpu") -> None:
        # Runnability is read straight off the vCPU; nothing to queue.
        self._account_of(vcpu)

    def sleep(self, vcpu: "VCpu") -> None:
        self._account_of(vcpu)

    # --------------------------------------------------------------- policy

    def pick_next(self, now: float) -> "VCpu | None":
        self.stats.decisions += 1
        runnable = [
            account for account in self._accounts.values() if account.vcpu.runnable
        ]
        if not runnable:
            self.stats.idle_picks += 1
            return None
        best = max(runnable, key=lambda account: account.credit_s)
        if best.credit_s <= 0.0:
            self._reset_credits()
            best = max(runnable, key=lambda account: account.credit_s)
        return best.vcpu

    def _reset_credits(self) -> None:
        self._resets += 1
        for account in self._accounts.values():
            account.credit_s = min(account.credit_s + CREDIT_INIT, CREDIT_INIT)

    def slice_for(self, vcpu: "VCpu", now: float) -> float:
        self._account_of(vcpu)
        return self.quantum

    def charge(self, vcpu: "VCpu", wall_dt: float, now: float) -> None:
        account = self._account_of(vcpu)
        # Higher weight burns slower -> receives a proportionally larger
        # share of the processor under contention.
        reference = max(entry.weight for entry in self._accounts.values())
        account.credit_s -= wall_dt * reference / account.weight
        self.stats.charge(vcpu.name, wall_dt)

    def should_preempt(self, current: "VCpu", waking: "VCpu") -> bool:
        return self._account_of(waking).credit_s > self._account_of(current).credit_s

    # ----------------------------------------------------------- cap control

    def set_cap(self, domain: "Domain", cap_percent: float) -> None:
        """Credit2 (4.1-era) has no cap support; accepted and ignored.

        Kept silent rather than raising so the user-level managers of §4.1
        can be pointed at any scheduler — with Credit2 they simply have no
        enforcement lever, which is itself a result the ablation shows.
        """

    @property
    def resets(self) -> int:
        """Number of global credit resets (tests/telemetry)."""
        return self._resets

    def credits_of(self, vcpu: "VCpu") -> float:
        """Current balance (tests/telemetry)."""
        return self._account_of(vcpu).credit_s
