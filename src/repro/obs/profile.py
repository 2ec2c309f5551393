"""Opt-in wall-clock phase profiling (the one sanctioned wall-clock module).

Everything else under ``src/repro/`` is banned from reading a wall clock
(RPL101, and transitively from the hot loop by RPL801).  This module is the
single sanctioned exception — ``WALL_CLOCK_SANCTIONED`` in
:mod:`repro.lint.rules` names it — because a profiler's whole job is to
read wall time, and it must never influence simulation results:

* nothing in the library imports this module; only ``repro profile`` and
  the bench harness reach for it;
* it attaches by **rebinding instance attributes** (``setattr`` on the
  scheduler/governor/host, reassigning ``PeriodicTimer._callback`` slots),
  which the static RPL8xx call-graph walk cannot see — the determinism
  net stays intact for every un-profiled run;
* wrapped calls return their wrapped function's value untouched, so a
  profiled run computes the same results as a plain one (the profiled run
  is slower; that is the only difference).

Self-time accounting uses an explicit phase stack: each wrapper measures
its own elapsed wall time, subtracts the time its callees (also wrapped)
accumulated, and credits the remainder to its phase — so "scheduler" time
excludes the "accounting" work the scheduler triggered, and the table
``repro profile`` prints sums to (roughly) the run's wall clock.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.orchestrator import Orchestrator
    from ..hypervisor.host import Host


def wall_now() -> float:
    """The wall clock (``time.perf_counter``), for rate displays and benches.

    Call sites outside this module must go through this function: RPL101
    bans the textual ``time.perf_counter`` everywhere else in the library,
    and keeping every wall-clock read behind one name keeps the sanction
    auditable.
    """
    return time.perf_counter()


class PhaseProfiler:
    """Accumulates self-time per named phase via attach-time wrappers."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: One frame per in-flight wrapped call: [phase, child_elapsed_s].
        self._stack: list[list[Any]] = []
        self._run_wall_s = 0.0

    # ------------------------------------------------------------- wrapping

    def wrap_phase(self, phase: str, func: Callable[..., Any]) -> Callable[..., Any]:
        """A wrapper around *func* crediting its self-time to *phase*."""
        stack = self._stack
        perf = time.perf_counter

        def _timed(*args: Any, **kwargs: Any) -> Any:
            frame = [phase, 0.0]
            stack.append(frame)
            began = perf()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = perf() - began
                stack.pop()
                self.self_s[phase] = (
                    self.self_s.get(phase, 0.0) + elapsed - frame[1]
                )
                self.calls[phase] = self.calls.get(phase, 0) + 1
                if stack:
                    stack[-1][1] += elapsed

        return _timed

    def _wrap_timer(self, timer: Any, phase: str) -> None:
        """Reassign a :class:`~repro.sim.timers.PeriodicTimer` callback."""
        if timer is not None:
            timer._callback = self.wrap_phase(phase, timer._callback)

    # ------------------------------------------------------------ attaching

    def attach_host(self, host: "Host") -> None:
        """Instrument a started :class:`~repro.hypervisor.host.Host`.

        Phases: ``scheduler`` (every scheduler entry point), ``governor``
        (policy decisions), ``cpufreq`` (sampling + P-state application),
        ``accounting`` (lazy book folding), ``dispatch`` (the host's slice
        machinery), ``telemetry`` (load-monitor sampling), ``workload``
        (demand generation timers).  Call after ``host.start()`` so the
        workload timers exist; the engine looks timer callbacks and bound
        methods up at fire time, so rebinding here takes effect for the
        whole subsequent run.
        """
        scheduler = host.scheduler
        for name in (
            "pick_next",
            "slice_for",
            "charge",
            "wake",
            "sleep",
            "put_back",
            "tick",
            "should_preempt",
            "set_cap",
        ):
            setattr(scheduler, name, self.wrap_phase("scheduler", getattr(scheduler, name)))
        governor = host.cpufreq.governor
        if governor is not None:
            governor.decide = self.wrap_phase("governor", governor.decide)
        cpufreq = host.cpufreq
        cpufreq.set_speed = self.wrap_phase("cpufreq", cpufreq.set_speed)
        self._wrap_timer(cpufreq._timer, "cpufreq")
        host.sync_accounting = self.wrap_phase("accounting", host.sync_accounting)
        host._begin_dispatch = self.wrap_phase("dispatch", host._begin_dispatch)
        host._close_slice = self.wrap_phase("dispatch", host._close_slice)
        self._wrap_timer(host._monitor._timer, "telemetry")
        for domain in host.domains:
            for workload in domain.workloads:
                for attr in ("_timer", "_progress_timer"):
                    self._wrap_timer(getattr(workload, attr, None), "workload")
                injector = getattr(workload, "_injector", None)
                if injector is not None:
                    self._wrap_timer(injector._timer, "workload")

    def attach_orchestrator(self, sim: "Orchestrator") -> None:
        """Instrument an :class:`~repro.cluster.orchestrator.Orchestrator`.

        Phases: ``planning`` (policy consultation), ``migration``
        (assignment application), ``serving`` (per-machine epoch serving),
        ``epoch`` (the remaining per-epoch bookkeeping).
        """
        sim.policy.plan = self.wrap_phase("planning", sim.policy.plan)
        sim._apply_assignment = self.wrap_phase("migration", sim._apply_assignment)
        for machine in sim.machines:
            machine.run_epoch = self.wrap_phase("serving", machine.run_epoch)
        sim._run_one_epoch = self.wrap_phase("epoch", sim._run_one_epoch)

    # -------------------------------------------------------------- results

    def note_run_wall(self, wall_s: float) -> None:
        """Record the whole run's wall time (the table's ``other`` row)."""
        self._run_wall_s = wall_s

    def phase_rows(self) -> list[dict[str, Any]]:
        """Per-phase rows sorted by self-time (descending).

        Each row: ``{"phase", "self_s", "calls", "share"}`` where ``share``
        is the fraction of accounted self-time.  When a whole-run wall time
        was noted, an ``other`` row holds the unattributed remainder (engine
        heap machinery, event plumbing, interpreter overhead).
        """
        accounted = sum(self.self_s.values())
        rows = [
            {"phase": phase, "self_s": spent, "calls": self.calls.get(phase, 0)}
            for phase, spent in self.self_s.items()
        ]
        if self._run_wall_s > accounted:
            rows.append(
                {
                    "phase": "other",
                    "self_s": self._run_wall_s - accounted,
                    "calls": 0,
                }
            )
        total = max(self._run_wall_s, accounted)
        for row in rows:
            row["share"] = row["self_s"] / total if total > 0 else 0.0
        rows.sort(key=lambda row: (-row["self_s"], row["phase"]))
        return rows

    def render_table(self) -> str:
        """The sorted self-time table ``repro profile`` prints."""
        rows = self.phase_rows()
        lines = [f"{'phase':<12} {'self_s':>9} {'share':>7} {'calls':>10}"]
        lines.append("-" * len(lines[0]))
        for row in rows:
            lines.append(
                f"{row['phase']:<12} {row['self_s']:>9.3f} "
                f"{row['share']:>6.1%} {row['calls']:>10}"
            )
        if self._run_wall_s > 0:
            lines.append("-" * len(lines[0]))
            lines.append(f"{'run wall':<12} {self._run_wall_s:>9.3f}")
        return "\n".join(lines)


# ----------------------------------------------------------------- drivers


def profile_scenario(config: Any) -> tuple[Any, PhaseProfiler]:
    """Run a scenario with the profiler attached; (result, profiler).

    Mirrors :func:`repro.experiments.scenario.run_scenario` exactly —
    build, start, apply policy limits, run to the configured duration
    (stepping when ``stop_when_batch_done``) — with the profiler attached
    between start and run.
    """
    from ..experiments.scenario import (
        ScenarioResult,
        _batch_workloads,
        build_scenario,
    )

    profiler = PhaseProfiler()
    host = build_scenario(config)
    host.start()
    if config.cpufreq_min_mhz is not None or config.cpufreq_max_mhz is not None:
        host.cpufreq.set_policy_limits(
            min_mhz=config.cpufreq_min_mhz, max_mhz=config.cpufreq_max_mhz
        )
        if config.cpufreq_max_mhz is not None:
            host.cpufreq.set_speed(host.processor.state.freq_mhz)
    profiler.attach_host(host)
    began = wall_now()
    batch = _batch_workloads(host) if config.stop_when_batch_done else []
    if batch:
        step = min(200.0, config.duration)
        while host.now < config.duration and not all(pi.done for pi in batch):
            host.run(until=min(config.duration, host.now + step))
    else:
        host.run(until=config.duration)
    profiler.note_run_wall(wall_now() - began)
    return ScenarioResult(config=config, host=host), profiler


def profile_cluster(config: Any) -> tuple["Orchestrator", PhaseProfiler]:
    """Run a cluster scenario with the profiler attached; (sim, profiler)."""
    from ..cluster.scenario import build_cluster

    profiler = PhaseProfiler()
    sim = build_cluster(config)
    profiler.attach_orchestrator(sim)
    began = wall_now()
    sim.run(config.duration)
    profiler.note_run_wall(wall_now() - began)
    return sim, profiler
