"""Layer spans for the traced run, recorded from outside the program.

:class:`Tracer` wraps the public entry points of each ``src/repro/<module>``
layer, plus the callbacks handed to ``Engine.schedule`` / ``schedule_at``
and to ``PeriodicTimer(...)`` (keyed by event-label prefix), so the program
itself carries no instrumentation.  Timer callbacks are wrapped when the
timer is constructed: ``PeriodicTimer._fire`` re-arms inline without going
through ``Engine.schedule``, so wrapping ``schedule`` alone would see only
the first firing.

Each call records one span ``(kind, parent, start, end)`` into typed arrays
that stay in memory until :meth:`Tracer.dump` writes them out.  A span kind
is ``"<layer>:<entry>"``; a layer's self time is the time its spans cover
minus the time their direct child spans cover.  A handful of exact counters
ride on the same wrappers (events fired, P-state transitions, store hits).

The wrappers are transparent: they pass arguments and results through
unchanged, so a traced sweep exports the same bytes as an untraced one.
Every patch is undone by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
from array import array
from typing import Any, Callable

#: Event-label prefix -> span kind of the callback it labels.
CALLBACK_KINDS: tuple[tuple[str, str], ...] = (
    ("slice.", "hypervisor:slice"),
    ("sched.", "schedulers:tick-timer"),
    ("cpufreq.", "cpu:sample"),
    ("httperf", "workloads:httperf"),
    ("webapp-latency.", "workloads:webapp-latency"),
    ("trace.", "workloads:trace"),
    ("pi-app.", "workloads:pi-app"),
    ("constant-load.", "workloads:constant-load"),
    ("load-monitor", "telemetry:load-monitor"),
    ("qos-monitor", "qos:qos-monitor"),
)

#: The scheduler interface every ``Scheduler`` subclass implements.
SCHEDULER_METHODS = (
    "pick_next",
    "slice_for",
    "charge",
    "wake",
    "sleep",
    "put_back",
    "tick",
    "should_preempt",
)

#: Per-layer metric -> unit, in report order.  ``calls`` counts calls into
#: a layer from outside it (a subclass calling its base is one call).
LAYER_METRICS: dict[str, str] = {
    "sim.events": "count",
    "sim.self_s": "s",
    "hypervisor.sync_calls": "count",
    "hypervisor.self_s": "s",
    "schedulers.calls": "count",
    "schedulers.self_s": "s",
    "governors.self_s": "s",
    "cpu.set_speed_calls": "count",
    "cpu.transitions": "count",
    "cpu.transition_ratio": "ratio",
    "cpu.self_s": "s",
    "workloads.calls": "count",
    "workloads.self_s": "s",
    "telemetry.self_s": "s",
    "qos.self_s": "s",
    "cluster.plan_s": "s",
    "cluster.predict_power_calls": "count",
    "cluster.serve_s": "s",
    "cluster.migrations": "count",
    "cluster.cap_overshoot_epochs": "count",
    "experiments.build_s": "s",
    "sweep.reduce_s": "s",
    "sweep.export_s": "s",
    "store.key_s": "s",
    "store.put_calls": "count",
    "store.put_s": "s",
    "store.lookup_calls": "count",
    "store.hits": "count",
    "store.hit_ratio": "ratio",
    "store.lookup_s": "s",
    "store.query_s": "s",
}


def _subclasses(cls: type) -> list[type]:
    """*cls* and every subclass of it, depth first."""
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Span recorder plus the patches that feed it.

    With ``spans=False`` only the event counter on ``Engine.run_until`` is
    installed: one wrapper call per simulation window, cheap enough to stay
    on in the timed runs, whose fingerprint needs the count.
    """

    def __init__(self, *, spans: bool = True) -> None:
        self.spans = spans
        self.kinds: list[str] = []
        self._kind_ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {
            "sim.events": 0,
            "hypervisor.sync_calls": 0,
            "cpu.set_speed_calls": 0,
            "cpu.transitions": 0,
            "cluster.predict_power_calls": 0,
            "cluster.migrations": 0,
            "cluster.cap_overshoot_epochs": 0,
            "store.put_calls": 0,
            "store.lookup_calls": 0,
            "store.hits": 0,
        }
        self._label_kinds: dict[str, str | None] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def _kind_id(self, kind: str) -> int:
        kid = self._kind_ids.get(kind)
        if kid is None:
            kid = self._kind_ids[kind] = len(self.kinds)
            self.kinds.append(kind)
        return kid

    def span(
        self, kind: str, fn: Callable, after: Callable[[Any], None] | None = None
    ) -> Callable:
        """*fn* wrapped to record one *kind* span per call.

        *after*, when given, sees each call's return value (for counters
        that depend on the outcome, such as store hits).
        """
        kid = self._kind_id(kind)
        kinds, parents, starts, ends = self.kind, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            kinds.append(kid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _callback_kind(self, label: str) -> str | None:
        """The span kind for callbacks labelled *label* (None = not wrapped)."""
        try:
            return self._label_kinds[label]
        except KeyError:
            kind = next((k for prefix, k in CALLBACK_KINDS if label.startswith(prefix)), None)
            self._label_kinds[label] = kind
            return kind

    # ------------------------------------------------------------- patching

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _patch_methods(self, base: type, name: str, wrap: Callable) -> None:
        """Wrap *name* on every class in *base*'s hierarchy that defines it."""
        for cls in _subclasses(base):
            if name in cls.__dict__:
                self._patch(cls, name, wrap(cls.__dict__[name]))

    def _patch_function(self, module: Any, name: str, wrap: Callable) -> None:
        """Wrap a module-level function in every ``repro`` module holding it."""
        original = getattr(module, name)
        replacement = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and getattr(mod, name, None) is original:
                self._patch(mod, name, replacement)

    def install(self) -> "Tracer":
        """Apply every patch; returns self."""
        import repro  # noqa: F401  (registers every scheduler and governor)
        from repro.sim import Engine

        counts = self.counts
        run_until = Engine.__dict__["run_until"]
        timed_run_until = (
            self.span("sim:run_until", run_until) if self.spans else run_until
        )

        def counting_run_until(engine, until):
            before = engine.events_fired
            try:
                return timed_run_until(engine, until)
            finally:
                counts["sim.events"] += engine.events_fired - before

        self._patch(Engine, "run_until", counting_run_until)
        if self.spans:
            self._install_spans()
        return self

    def _install_spans(self) -> None:
        import repro.cluster.scenario
        import repro.experiments.scenario
        import repro.store.keys
        import repro.sweep.metrics
        from repro.cluster import ClusterVM, Machine, Orchestrator
        from repro.cluster.policies import OrchestrationPolicy
        from repro.cpu import CpuFreq
        from repro.governors import Governor
        from repro.hypervisor import Host
        from repro.schedulers import Scheduler
        from repro.sim import Engine, PeriodicTimer
        from repro.store import ExperimentStore
        from repro.sweep import SweepResults

        counts = self.counts
        span = self.span

        # Event and timer callbacks, by label prefix.
        timer_fire = PeriodicTimer.__dict__["_fire"]
        for name in ("schedule", "schedule_at"):
            original = Engine.__dict__[name]

            def schedule(engine, when, callback, *, label="", _original=original):
                kind = self._callback_kind(label)
                if kind is not None and getattr(callback, "__func__", None) is not timer_fire:
                    callback = span(kind, callback)
                return _original(engine, when, callback, label=label)

            self._patch(Engine, name, schedule)
        timer_init = PeriodicTimer.__dict__["__init__"]

        def timer_init_traced(timer, engine, period, callback, *, label="timer", **kw):
            kind = self._callback_kind(label)
            if kind is not None:
                callback = span(kind, callback)
            timer_init(timer, engine, period, callback, label=label, **kw)

        self._patch(PeriodicTimer, "__init__", timer_init_traced)

        # Hypervisor entry points.
        def sync(fn):
            return self._count("hypervisor.sync_calls", span("hypervisor:sync_accounting", fn))

        self._patch_methods(Host, "sync_accounting", sync)
        for name in ("kick", "on_vcpu_wake"):
            self._patch_methods(Host, name, lambda fn, n=name: span(f"hypervisor:{n}", fn))

        # Schedulers, governors, cpufreq.
        for name in SCHEDULER_METHODS:
            self._patch_methods(Scheduler, name, lambda fn, n=name: span(f"schedulers:{n}", fn))
        self._patch_methods(Governor, "decide", lambda fn: span("governors:decide", fn))

        def transition(changed: bool) -> None:
            counts["cpu.transitions"] += bool(changed)

        self._patch_methods(
            CpuFreq,
            "set_speed",
            lambda fn: self._count("cpu.set_speed_calls", span("cpu:set_speed", fn, transition)),
        )

        # Cluster tier.
        self._patch_methods(OrchestrationPolicy, "plan", lambda fn: span("cluster:plan", fn))
        self._patch_methods(Machine, "run_epoch", lambda fn: span("cluster:serve", fn))
        self._patch_methods(
            Machine, "predict_power", lambda fn: self._count("cluster.predict_power_calls", fn)
        )
        self._patch_methods(ClusterVM, "demand_at", lambda fn: span("workloads:demand_at", fn))
        orchestrator_run = Orchestrator.__dict__["run"]

        def run_fleet(sim, duration):
            before = len(sim.stats)
            stats = orchestrator_run(sim, duration)
            new = stats[before:]
            counts["cluster.migrations"] += sum(stat.migrations for stat in new)
            if sim.power_budget_w is not None:
                counts["cluster.cap_overshoot_epochs"] += sum(
                    1 for stat in new if stat.power_w > sim.power_budget_w
                )
            return stats

        self._patch(Orchestrator, "run", run_fleet)

        # Experiments and sweep.
        for module, name in (
            (repro.experiments.scenario, "build_scenario"),
            (repro.cluster.scenario, "build_cluster"),
        ):
            self._patch_function(module, name, lambda fn: span("experiments:build", fn))
        self._patch_function(
            repro.sweep.metrics, "reduce_outcome", lambda fn: span("sweep:reduce", fn)
        )
        self._patch_methods(SweepResults, "to_json", lambda fn: span("sweep:export", fn))

        # Store.
        def hit(payload: Any) -> None:
            counts["store.hits"] += payload is not None

        self._patch_function(repro.store.keys, "cell_key", lambda fn: span("store:key", fn))
        self._patch_methods(
            ExperimentStore,
            "put",
            lambda fn: self._count("store.put_calls", span("store:put", fn)),
        )
        self._patch_methods(
            ExperimentStore,
            "lookup",
            lambda fn: self._count("store.lookup_calls", span("store:lookup", fn, hit)),
        )
        for name in ("payloads", "to_results"):
            self._patch_methods(ExperimentStore, name, lambda fn: span("store:query", fn))

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------- reducing

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """``(self seconds per kind, calls into each layer from outside it)``."""
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        n = len(start)
        child = [0.0] * n
        for index in range(n):
            up = parent[index]
            if up >= 0:
                child[up] += end[index] - start[index]
        layer_of = [name.split(":")[0] for name in self.kinds]
        self_s = [0.0] * len(self.kinds)
        entries = dict.fromkeys(layer_of, 0)
        for index in range(n):
            kid = kind[index]
            self_s[kid] += end[index] - start[index] - child[index]
            up = parent[index]
            if up < 0 or layer_of[kind[up]] != layer_of[kid]:
                entries[layer_of[kid]] += 1
        return dict(zip(self.kinds, self_s)), entries

    def layer_metrics(self) -> dict[str, float]:
        """Every :data:`LAYER_METRICS` value (zero where a layer never ran)."""
        by_kind, entries = self.self_times()
        counts = self.counts

        def layer_s(layer: str) -> float:
            return sum(s for kind, s in by_kind.items() if kind.split(":")[0] == layer)

        values: dict[str, float] = dict(counts)
        for layer in (
            "sim",
            "hypervisor",
            "schedulers",
            "governors",
            "cpu",
            "workloads",
            "telemetry",
            "qos",
        ):
            values[f"{layer}.self_s"] = layer_s(layer)
        values["schedulers.calls"] = entries.get("schedulers", 0)
        values["workloads.calls"] = entries.get("workloads", 0)
        values["cpu.transition_ratio"] = _ratio(
            counts["cpu.transitions"], counts["cpu.set_speed_calls"]
        )
        values["store.hit_ratio"] = _ratio(counts["store.hits"], counts["store.lookup_calls"])
        for metric, kind in (
            ("cluster.plan_s", "cluster:plan"),
            ("cluster.serve_s", "cluster:serve"),
            ("experiments.build_s", "experiments:build"),
            ("sweep.reduce_s", "sweep:reduce"),
            ("sweep.export_s", "sweep:export"),
            ("store.key_s", "store:key"),
            ("store.put_s", "store:put"),
            ("store.lookup_s", "store:lookup"),
            ("store.query_s", "store:query"),
        ):
            values[metric] = by_kind.get(kind, 0.0)
        return {name: values[name] for name in LAYER_METRICS}

    # ------------------------------------------------------------ persisting

    def dump(self, path: pathlib.Path) -> None:
        """Write the spans: a JSON header line, then the four raw arrays."""
        header = {"kinds": self.kinds, "spans": len(self.start), "arrays": "kind,parent,start,end"}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.kind, self.parent, self.start, self.end):
                column.tofile(handle)


def load_spans(path: pathlib.Path) -> tuple[list[str], array, array, array, array]:
    """Read a :meth:`Tracer.dump` file: ``(kinds, kind, parent, start, end)``."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        n = header["spans"]
        columns = []
        for code in "iidd":
            column = array(code)
            column.fromfile(handle, n)
            columns.append(column)
    return (header["kinds"], *columns)
