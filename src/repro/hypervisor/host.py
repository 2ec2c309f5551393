"""The simulated physical machine.

A :class:`Host` wires together the engine, one processor, the cpufreq
subsystem with its governor, one VM scheduler, the domains and telemetry —
the same composition as a Xen box (§2).  It runs a slice-based dispatch loop:

* the scheduler picks a vCPU; the host runs it for
  ``min(policy slice, time to drain its demand)`` wall seconds;
* wall time converts to work at the processor's current ``ratio * cf`` —
  the paper's Eq. 1/2 is the substrate's definition of DVFS;
* P-state changes, wake-time preemptions and scheduler ticks all end the
  in-flight slice early (work accrual assumes constant capacity per slice);
* accounting is lazy: counters are brought up to date at slice boundaries
  and on :meth:`sync_accounting` (the load monitor forces this each sample).

Every slice boundary and accounting poll runs the host's hot path, so
its fold sites — :meth:`_close_slice` (shared by natural slice ends and
preemptions) and :meth:`sync_accounting` — write the bodies of
:meth:`VCpu.consume` and the ``mark_runnable`` / ``mark_blocked``
transitions out in place, as :meth:`_begin_dispatch` does for
``mark_running``.  They bill the processor through its busy and idle
paths (``Processor._bill_busy`` / ``_bill_idle``), the same two that
:meth:`Processor.account` delegates to.  Every float operation is the one
the method would have done, in the same order.  The books the host keeps
per vCPU (its energy, its slice-event label) live on the vCPU itself, so a
fold never looks a domain up by name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..cpu import CpuFreq, Processor, ProcessorSpec, catalog
from ..errors import ConfigurationError, SchedulerError
from ..governors import Governor, make_governor
from ..obs import hooks as _obs
from ..sim import Engine, EventHandle, PeriodicTimer, RngStreams
from ..telemetry import Recorder
from .domain import DOM0_CLASS, Domain, DomainConfig, GUEST_CLASS
from .load_monitor import LoadMonitor
from .vcpu import VCpu, VCpuState, WORK_EPSILON

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..schedulers.base import Scheduler

_BLOCKED = VCpuState.BLOCKED
_RUNNABLE = VCpuState.RUNNABLE
_RUNNING = VCpuState.RUNNING


class Host:
    """A single-pCPU virtualized host.

    Parameters
    ----------
    processor:
        A :class:`ProcessorSpec` from :mod:`repro.cpu.catalog` (default: the
        paper's Optiplex 755 testbed).
    scheduler:
        A :class:`~repro.schedulers.base.Scheduler` instance or a registry
        name (``"credit"``, ``"sedf"``, ``"credit2"``, ``"pas"``).
    governor:
        A :class:`~repro.governors.base.Governor` instance or a registry name
        (``"performance"``, ``"powersave"``, ``"userspace"``, ``"ondemand"``,
        ``"conservative"``, ``"stable"``).
    monitor_period:
        Load-monitor sampling period in seconds (paper-scale: 1 s).
    seed:
        Root seed for every random stream in the run.
    """

    def __init__(
        self,
        *,
        processor: ProcessorSpec = catalog.OPTIPLEX_755,
        scheduler: "Scheduler | str" = "credit",
        governor: Governor | str = "performance",
        monitor_period: float = 1.0,
        seed: int = 0,
    ) -> None:
        self.engine = Engine()
        self.processor = Processor(processor)
        self.cpufreq = CpuFreq(self.engine, self.processor)
        self.recorder = Recorder()
        self.rng = RngStreams(seed)

        if isinstance(scheduler, str):
            from ..schedulers.registry import make_scheduler

            scheduler = make_scheduler(scheduler)
        self.scheduler: "Scheduler" = scheduler
        self.scheduler.attach(self)

        if isinstance(governor, str):
            governor = make_governor(governor)
        self.governor: Governor = governor

        self._domains: dict[str, Domain] = {}
        self._monitor = LoadMonitor(self, self.recorder, period=monitor_period)

        # Dispatch-loop state: exactly one of (_current, _idle_from) is set.
        self._current: VCpu | None = None
        self._slice_start = 0.0
        self._slice_capacity = 1.0
        self._slice_end_event: EventHandle | None = None
        #: ``self._on_slice_end`` bound once: every dispatch schedules it.
        self._slice_callback = self._on_slice_end
        self._idle_from: float | None = 0.0
        self._tick_timer: PeriodicTimer | None = None
        self._started = False
        self._preemptions = 0
        self._idle_energy = 0.0

        self.cpufreq.add_pre_observer(self._before_frequency_change)
        self.cpufreq.add_observer(self._on_frequency_change)

    # -------------------------------------------------------------- domains

    @property
    def domains(self) -> list[Domain]:
        """All domains in creation order."""
        return list(self._domains.values())

    def domain(self, name: str) -> Domain:
        """The domain called *name*."""
        try:
            return self._domains[name]
        except KeyError:
            known = ", ".join(self._domains) or "<none>"
            raise ConfigurationError(f"no domain {name!r}; have: {known}") from None

    def create_domain(
        self,
        name: str,
        credit: float,
        *,
        weight: float | None = None,
        cap: float | None = None,
        dom0: bool = False,
        sedf_period: float = 0.1,
        sedf_extra: bool = False,
    ) -> Domain:
        """Create a domain with *credit* percent of max-frequency capacity.

        The fix-credit defaults apply (weight = credit, cap = credit, null
        credit uncapped); keyword arguments override them.  ``dom0=True``
        puts the domain in the highest priority class (§5.3).
        """
        if name in self._domains:
            raise ConfigurationError(f"duplicate domain name {name!r}")
        if self._started:
            raise ConfigurationError("cannot add domains after the host has started")
        config = DomainConfig(
            credit=credit,
            weight=weight,
            cap=cap,
            priority_class=DOM0_CLASS if dom0 else GUEST_CLASS,
            sedf_period=sedf_period,
            sedf_extra=sedf_extra,
        )
        domain = Domain(name, config, self)
        self._domains[name] = domain
        self.scheduler.add_vcpu(domain.vcpu)
        return domain

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Install the governor, start timers and attached workloads."""
        if self._started:
            raise ConfigurationError("host already started")
        self._started = True
        self.cpufreq.set_governor(self.governor)
        if self.scheduler.tick_period is not None:
            self._tick_timer = PeriodicTimer(
                self.engine,
                self.scheduler.tick_period,
                self._on_scheduler_tick,
                label=f"sched.{self.scheduler.name}",
            )
            self._tick_timer.start()
        self._monitor.start()
        for domain in self._domains.values():
            for workload in domain.workloads:
                workload.start()

    def run(self, until: float) -> None:
        """Advance the simulation to absolute time *until* (auto-starts)."""
        if not self._started:
            self.start()
        self.engine.run_until(until)
        self.sync_accounting()

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.engine.now

    @property
    def preemptions(self) -> int:
        """Number of slices ended early by wake/DVFS/tick preemption."""
        return self._preemptions

    # -------------------------------------------------- dispatch-loop inputs

    def on_vcpu_wake(self, vcpu: VCpu) -> None:
        """A blocked vCPU acquired demand (called by its domain)."""
        self.scheduler.wake(vcpu)
        if self._current is None:
            self._begin_dispatch()
        elif self.scheduler.should_preempt(self._current, vcpu):
            self._preemptions += 1
            trace = _obs.TRACER
            if trace is not None:
                trace.sched_preempt(self.engine.now, self._current.name, "wake")
            self._end_current_slice()
            self._begin_dispatch()

    def _on_scheduler_tick(self, now: float) -> None:
        # Fold the in-flight slice into the books *before* the scheduler's
        # bookkeeping: Xen debits the running vCPU at every tick, and a
        # credit-accounting reset must see usage accrued in the period it
        # closes, not have a whole slice charged into the fresh period.
        self.sync_accounting()
        if self.scheduler.tick(now):
            if self._current is not None:
                self._preemptions += 1
                trace = _obs.TRACER
                if trace is not None:
                    trace.sched_preempt(now, self._current.name, "tick")
                self._end_current_slice()
            self._begin_dispatch()

    def _before_frequency_change(self, freq_mhz: int) -> None:
        # Fold the in-flight slice prefix (or idle gap) into the books while
        # the outgoing P-state is still current: the prefix ran at the old
        # state's capacity *and* the old state's wattage, so billing it
        # after the flip would charge it at the wrong power and log it in
        # the wrong time-in-state bucket.
        self.sync_accounting()

    def _on_frequency_change(self, freq_mhz: int) -> None:
        # Work accrues at a constant capacity per slice; a P-state change
        # invalidates that, so end the slice and re-dispatch at the new rate.
        # A change that lands on the same effective capacity (two states with
        # equal ratio * cf) leaves the in-flight slice's accounting valid, so
        # it is not a preemption.
        if self._current is not None and self.processor.capacity_fraction != self._slice_capacity:
            self._preemptions += 1
            trace = _obs.TRACER
            if trace is not None:
                trace.sched_preempt(self.engine.now, self._current.name, "dvfs")
            self._end_current_slice()
            self._begin_dispatch()

    # ---------------------------------------------------- dispatch machinery

    def _begin_dispatch(self) -> None:
        if self._current is not None:
            raise SchedulerError("dispatch while a vCPU is running")
        engine = self.engine
        now = engine._now
        idle_from = self._idle_from
        if idle_from is not None:
            gap = now - idle_from
            if gap > 0:
                self._idle_energy += self.processor._bill_idle(gap)
            self._idle_from = None
        scheduler = self.scheduler
        vcpu = scheduler.pick_next(now)
        trace = _obs.TRACER
        if vcpu is None:
            if trace is not None:
                trace.sched_pick(now, None, 0.0)
            self._idle_from = now
            return
        slice_len = scheduler.slice_for(vcpu, now)
        if slice_len <= 0:
            raise SchedulerError(
                f"scheduler {scheduler.name!r} returned a non-positive slice "
                f"({slice_len}) for {vcpu.name!r}"
            )
        capacity = self.processor._capacity
        drain = vcpu._pending_work / capacity
        run_for = drain if drain < slice_len else slice_len
        if trace is not None:
            trace.sched_pick(now, vcpu.name, run_for)
        # VCpu.mark_running, written out.
        if vcpu._state is _BLOCKED:
            raise SchedulerError(f"cannot dispatch blocked vCPU {vcpu.name!r}")
        vcpu._state = _RUNNING
        vcpu._dispatch_count += 1
        self._current = vcpu
        self._slice_start = now
        self._slice_capacity = capacity
        self._slice_end_event = engine.schedule(
            run_for, self._slice_callback, label=vcpu.slice_label
        )

    def _on_slice_end(self) -> None:
        # Natural slice end: the engine popped and fired this handle and
        # only the host still references it, so it goes back to the pool
        # for the next slice (one dispatch per slice makes it the hottest
        # allocation in a run).  Engine.release, written out: a fired
        # handle's callback is None and it was never cancelled (a cancelled
        # one does not fire), so the check and the reset both hold.
        engine = self.engine
        engine._free.append(self._slice_end_event)
        self._slice_end_event = None
        self._close_slice(engine._now)
        self._begin_dispatch()

    def _end_current_slice(self) -> None:
        """Preempt the in-flight slice and fold it into the books."""
        if self._current is None:
            raise SchedulerError("ending a slice while idle")
        event = self._slice_end_event
        if event is not None:
            # Still in the heap, so it can only be tombstoned: the pop
            # loop discards it.
            event._cancelled = True
            self._slice_end_event = None
        self._close_slice(self.engine._now)

    def _close_slice(self, now: float) -> None:
        """Fold the in-flight slice up to *now* and requeue or block its vCPU.

        The one slice-close body behind both natural ends and preemptions.
        """
        vcpu = self._current
        self._current = None
        slice_start = self._slice_start
        elapsed = now - slice_start
        scheduler = self.scheduler
        if elapsed > 0:
            trace = _obs.TRACER
            if trace is not None:
                trace.sched_slice(vcpu.name, slice_start, elapsed)
            # VCpu.consume, written out (elapsed > 0, so both its argument
            # checks hold by construction).
            work = elapsed * self._slice_capacity
            pending = vcpu._pending_work - work
            vcpu._pending_work = pending if pending >= WORK_EPSILON else 0.0
            vcpu._work_done += work
            vcpu._cpu_seconds += elapsed
            vcpu._energy += self.processor._bill_busy(elapsed)
            scheduler.charge(vcpu, elapsed, now)
        # VCpu.mark_runnable / mark_blocked, written out.
        if vcpu._pending_work > WORK_EPSILON:
            vcpu._state = _RUNNABLE
            vcpu.runnable = True
            scheduler.put_back(vcpu)
        else:
            vcpu._state = _BLOCKED
            vcpu.runnable = False
            scheduler.sleep(vcpu)
            vcpu._domain.notify_idle(now)

    def kick(self) -> None:
        """Re-evaluate scheduling if the processor is idle.

        External policy changes (a user-level manager raising a cap, say) can
        make a parked vCPU runnable while nothing else would trigger a
        dispatch; this forces one.  A no-op while a slice is in flight — the
        next tick rebalances.
        """
        if self._current is None and self._started:
            self._begin_dispatch()

    # ------------------------------------------------------------ accounting

    def sync_accounting(self) -> None:
        """Bring work/energy/charge counters up to the current instant.

        Accounting is lazy (slice-boundary); samplers call this first so the
        books reflect any in-flight slice or idle gap.  The in-flight slice
        keeps running — only its consumed prefix is folded in.
        """
        current = self._current
        if current is not None:
            now = self.engine._now
            elapsed = now - self._slice_start
            if elapsed > 0:
                # VCpu.consume, written out as in _close_slice.
                work = elapsed * self._slice_capacity
                pending = current._pending_work - work
                current._pending_work = pending if pending >= WORK_EPSILON else 0.0
                current._work_done += work
                current._cpu_seconds += elapsed
                current._energy += self.processor._bill_busy(elapsed)
                self.scheduler.charge(current, elapsed, now)
                self._slice_start = now
        else:
            idle_from = self._idle_from
            if idle_from is not None:
                now = self.engine._now
                gap = now - idle_from
                if gap > 0:
                    self._idle_energy += self.processor._bill_idle(gap)
                self._idle_from = now

    # -------------------------------------------------- energy attribution

    def domain_energy_joules(self, name: str) -> float:
        """Energy charged to domain *name* while dispatched (charge-back).

        Attribution is at-the-meter: each slice's package energy (at the
        P-state and utilisation it ran under) goes to the domain that was
        running.  Idle-time energy is the provider's overhead
        (:attr:`idle_energy_joules`); the three always sum to the
        processor's total.
        """
        return self.domain(name).vcpu.energy_joules

    @property
    def idle_energy_joules(self) -> float:
        """Energy burnt while no vCPU was dispatched (provider overhead)."""
        return self._idle_energy

    # ------------------------------------------------------------ shorthand

    @property
    def absolute_load_scale(self) -> float:
        """Current ``ratio * cf`` — multiply a nominal load to get absolute."""
        return self.processor.ratio * self.processor.cf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running = self._current.name if self._current else "idle"
        return (
            f"Host({self.processor.spec.name!r}, sched={self.scheduler.name}, "
            f"gov={self.governor.name}, t={self.engine.now:.2f}, running={running})"
        )
