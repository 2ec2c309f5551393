"""Virtual CPUs.

A :class:`VCpu` carries the demand of one domain: a queue of *pending work*
in absolute seconds (max-frequency CPU-seconds).  Workloads push work in;
the host drains it while the vCPU is dispatched, at the processor's current
``ratio * cf`` rate.  A vCPU with no pending work is *blocked* — exactly the
distinction the paper draws between active and lazy VMs.

The class is slotted and keeps its hot fields as plain attributes: the
dispatch loop touches every one of them on every slice boundary, so
property indirection here is pure overhead.  They are the state
(``_state`` and ``runnable``), pending work, the owning domain's name, the
work, CPU-time and energy books (``_work_done``, ``_cpu_seconds``,
``_energy``), the host's slice-event label (``slice_label``) and the
scheduler's per-vCPU account (``sched``, Xen's ``sched_priv``), which
spares every scheduler hook a lookup by name.  The public read API is
unchanged.

The hot paths also skip the mutators: the host's slice close, its
``sync_accounting`` and dispatch, and ``Domain.add_work`` write the
fields directly with the exact bodies of :meth:`VCpu.consume`,
:meth:`VCpu.add_work` and the ``mark_*`` transitions (the "cannot
dispatch blocked vCPU" check included).  A change to any of those methods
must be made at those sites too.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from ..errors import SchedulerError
from ..units import check_non_negative

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .domain import Domain

#: Pending work below this threshold counts as drained (guards float fuzz
#: from repeated consume() subtractions; 1e-9 absolute seconds ~ one
#: nanosecond of max-frequency CPU, far below any slice length).
WORK_EPSILON = 1e-9


class VCpuState(enum.Enum):
    """Lifecycle of a vCPU from the scheduler's point of view."""

    BLOCKED = "blocked"
    RUNNABLE = "runnable"
    RUNNING = "running"


class VCpu:
    """One virtual CPU belonging to one domain.

    The host mutates state through :meth:`mark_running` /
    :meth:`mark_runnable` / :meth:`mark_blocked` (or their bodies, written
    out on its hot paths); schedulers only read it.
    """

    __slots__ = (
        "_domain",
        "name",
        "_state",
        "runnable",
        "_pending_work",
        "_cpu_seconds",
        "_work_done",
        "_dispatch_count",
        "_energy",
        "slice_label",
        "sched",
    )

    def __init__(self, domain: "Domain") -> None:
        self._domain = domain
        #: The owning domain's name (vCPUs are 1:1 with domains here).
        self.name: str = domain.name
        self._state = VCpuState.BLOCKED
        #: True when the vCPU could be dispatched (RUNNABLE or RUNNING).
        self.runnable: bool = False
        self._pending_work = 0.0
        self._cpu_seconds = 0.0
        self._work_done = 0.0
        self._dispatch_count = 0
        #: Joules the host billed while this vCPU was dispatched.
        self._energy = 0.0
        #: Label of the host's end-of-slice events for this vCPU (a
        #: constant, so dispatch formats no string).
        self.slice_label = f"slice.{domain.name}"
        #: The admitting scheduler's account for this vCPU, or None when no
        #: scheduler holds it.  Set by ``Scheduler.add_vcpu``, cleared by
        #: ``remove_vcpu``; only that scheduler reads it.
        self.sched: object | None = None

    # ------------------------------------------------------------- identity

    @property
    def domain(self) -> "Domain":
        """The owning domain."""
        return self._domain

    # ---------------------------------------------------------------- state

    @property
    def state(self) -> VCpuState:
        """Current lifecycle state."""
        return self._state

    def mark_running(self) -> None:
        """Host: the vCPU was just dispatched."""
        if self._state is VCpuState.BLOCKED:
            raise SchedulerError(f"cannot dispatch blocked vCPU {self.name!r}")
        self._state = VCpuState.RUNNING
        self._dispatch_count += 1

    def mark_runnable(self) -> None:
        """Host: the vCPU has demand and waits for the processor."""
        self._state = VCpuState.RUNNABLE
        self.runnable = True

    def mark_blocked(self) -> None:
        """Host: the vCPU drained its demand queue."""
        self._state = VCpuState.BLOCKED
        self.runnable = False

    # ----------------------------------------------------------------- work

    @property
    def pending_work(self) -> float:
        """Queued demand in absolute seconds."""
        return self._pending_work

    @property
    def has_work(self) -> bool:
        """True when meaningful demand remains (beyond float fuzz)."""
        return self._pending_work > WORK_EPSILON

    def add_work(self, work: float) -> None:
        """Queue *work* absolute seconds of demand (workload-facing)."""
        check_non_negative(work, "work")
        self._pending_work += work

    def consume(self, work: float, wall_dt: float) -> None:
        """Host: account *work* done over *wall_dt* seconds of dispatch.

        Clamps the residual at zero — the host computes slice lengths from
        pending work, so any negative residual is float fuzz by construction.
        """
        if work < 0.0:
            check_non_negative(work, "work")
        if wall_dt < 0.0:
            check_non_negative(wall_dt, "wall_dt")
        pending = self._pending_work - work
        self._pending_work = pending if pending >= WORK_EPSILON else 0.0
        self._work_done += work
        self._cpu_seconds += wall_dt

    # ------------------------------------------------------------ statistics

    @property
    def cpu_seconds(self) -> float:
        """Cumulative wall seconds this vCPU has been dispatched."""
        return self._cpu_seconds

    @property
    def work_done(self) -> float:
        """Cumulative absolute seconds of work completed."""
        return self._work_done

    @property
    def dispatch_count(self) -> int:
        """Number of times the vCPU has been put on the processor."""
        return self._dispatch_count

    @property
    def energy_joules(self) -> float:
        """Energy billed while this vCPU was dispatched (charge-back)."""
        return self._energy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VCpu({self.name!r}, {self._state.value}, "
            f"pending={self._pending_work:.4f}, done={self._work_done:.2f})"
        )
