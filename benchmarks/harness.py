"""The unified benchmark harness behind ``python -m repro bench``.

It times the hot paths the ROADMAP tracks (the slice-dispatch engine,
the §5.3 scenario, the cold ``stress-fleet`` sweep, the store's warm
path, a 256-machine fleet sweep) with no dependency beyond perfbench's
clock; CI gates every bench against ``benchmarks/baseline.json``.

Every time is read in reference seconds from perfbench's
:class:`~perfbench.clock.RefClock`: the wall time of a span rescaled by
the core speed that probes taken *during* the span measured, so a core
that switches speed mid-run does not move the number.  Each bench runs
:data:`RUNS` times in-process and its median run is the gated time.

Results are written as machine-readable ``BENCH_<rev>.json``::

    {
      "schema": "repro-bench/2",
      "rev": "<git short rev or 'unknown'>",
      "python": "3.11.7", "platform": "...",
      "peak_rss_kb": 123456,
      "benches": {
        "stress-fleet-cold": {
          "ok": true, "ref_s": 0.738, "ref_runs": [0.742, 0.731, ...],
          "peak_rss_kb": 120000,
          "metrics": {"cells": 2, "cells_per_s": 2.71}
        }, ...
      }
    }

(``metrics`` come from the median run; ``peak_rss_kb`` is the process
high-water mark *as of* that bench — monotone across the run, not an
isolated per-bench peak.)

``compare_reports`` implements the regression gate: each bench's median
``ref_s`` must stay within ``--max-regress`` of the baseline's.
"""

from __future__ import annotations

import json
import pathlib
import platform
import subprocess
import sys
from typing import Callable

try:
    from perfbench.clock import RefClock
except ImportError:  # loaded by file path from outside the checkout
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    from perfbench.clock import RefClock

SCHEMA = "repro-bench/2"

#: Runs of each bench; odd, so the median is one run's time.
RUNS = 5


# --------------------------------------------------------------- plumbing


def git_rev(root: pathlib.Path | None = None) -> str:
    """Short git revision of *root* (``"unknown"`` outside a checkout)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root or pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def peak_rss_kb() -> int | None:
    """Process high-water RSS in KiB (None where rusage is unavailable).

    This is the *cumulative* process peak: per-bench report entries record
    the high-water mark as of that bench's completion, so the series is
    monotone across a run and attributes a peak to the first bench that
    reached it — it is a capacity trace, not an isolated per-bench peak.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return usage // 1024 if sys.platform == "darwin" else usage


# ------------------------------------------------------------------ benches


def _timed(clock: RefClock, work: Callable[[], object]) -> tuple[object, float]:
    """``work()``'s result and the reference seconds it took."""
    first = clock.mark()
    result = work()
    return result, clock.ref_seconds(first, clock.mark())


def _bench_engine_events(clock: RefClock) -> dict:
    """Raw event-loop throughput: dense periodic timers, no hypervisor."""
    from repro.sim import Engine, PeriodicTimer

    engine = Engine()
    counts = [0]

    def tick(now: float) -> None:
        counts[0] += 1

    timers = [
        PeriodicTimer(engine, 0.001 * (i + 1), tick, label=f"bench.{i}")
        for i in range(8)
    ]
    for timer in timers:
        timer.start()
    _, elapsed = _timed(clock, lambda: engine.run_until(200.0))
    return {
        "events": engine.events_fired,
        "events_per_s": engine.events_fired / elapsed if elapsed > 0 else 0.0,
    }


def _bench_paper_scenario(clock: RefClock) -> dict:
    """The paper's §5.3 default scenario end to end (800 simulated s)."""
    from repro.experiments import ScenarioConfig, run_scenario

    from repro.obs import collect_outcome, MetricsRegistry

    result = run_scenario(ScenarioConfig())
    registry = MetricsRegistry()
    collect_outcome(registry, result)
    return {
        "sim_seconds": result.host.now,
        "events": result.host.engine.events_fired,
        "energy_joules": result.energy_joules,
        "counters": registry.snapshot(),
    }


def _bench_stress_fleet_cold(clock: RefClock) -> dict:
    """Cold serial stress-fleet sweep — the ROADMAP's perf benchmark."""
    from repro.experiments import preset_grid
    from repro.sweep import run_sweep

    grid = preset_grid("stress-fleet")
    results, elapsed = _timed(clock, lambda: run_sweep(grid, workers=1))
    return {
        "cells": len(results),
        "cells_per_s": len(results) / elapsed if elapsed > 0 else 0.0,
    }


def _bench_store_warm(clock: RefClock) -> dict:
    """Cold-vs-warm sweep through a throwaway store.

    Every run also checks the store's contract: the cold pass computes
    every cell, the warm pass is all cache hits with a byte-identical
    export, and it is at least 5x faster than the cold pass.
    """
    import tempfile

    from repro.experiments import preset_grid
    from repro.store import ExperimentStore
    from repro.sweep import SweepRunner

    grid = preset_grid("stress-fleet")
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as root:
        store = ExperimentStore(root)
        timings = {}
        runners = {}
        exports = {}
        for phase in ("cold", "warm"):
            runners[phase] = SweepRunner(grid, workers=1, store=store)
            results, timings[phase] = _timed(clock, runners[phase].run)
            exports[phase] = results.to_json()
    cells = len(results)
    cold, warm = runners["cold"], runners["warm"]
    if cold.computed != cells:
        raise AssertionError(f"cold pass computed {cold.computed} of {cells} cells")
    if warm.cache_hits != cells or warm.computed:
        raise AssertionError(
            f"warm pass hit {warm.cache_hits} of {cells} cells and computed {warm.computed}"
        )
    if exports["cold"] != exports["warm"]:
        raise AssertionError("warm store export diverged from cold export")
    speedup = timings["cold"] / timings["warm"] if timings["warm"] > 0 else float("inf")
    if speedup < 5.0:
        raise AssertionError(f"warm re-run is x{speedup:.1f} faster than cold, needs x5")
    return {"cold_s": timings["cold"], "warm_s": timings["warm"], "warm_speedup": speedup}


def _bench_tracing_off(clock: RefClock) -> dict:
    """Hook-overhead guard: disabled observability must cost nothing.

    Runs the stress-fleet grid plain and then traced+metered, asserts the
    two exports are byte-identical, and reports the overhead ratio.  The
    bench's whole time rides the same ``--compare`` envelope as every
    other bench, so a hook that sneaks per-event cost into the disabled
    hot path fails CI even though tracing is opt-in.
    """
    from repro.experiments import preset_grid
    from repro.obs import MetricsRegistry, observed, Tracer
    from repro.sweep import run_sweep

    grid = preset_grid("stress-fleet")
    plain, off_s = _timed(clock, lambda: run_sweep(grid, workers=1))

    tracer = Tracer(categories=("sched", "cpufreq"))
    registry = MetricsRegistry()

    def traced_sweep():
        with observed(tracer=tracer, metrics=registry):
            return run_sweep(grid, workers=1)

    traced, on_s = _timed(clock, traced_sweep)
    if plain.to_json() != traced.to_json():
        raise AssertionError("traced sweep export diverged from untraced export")
    return {
        "cells": len(plain.cells),
        "tracing_off_s": off_s,
        "tracing_on_s": on_s,
        "overhead_ratio": on_s / off_s if off_s > 0 else float("inf"),
        "trace_events": len(tracer.events),
        "counters": registry.snapshot(),
    }


def _bench_fleet_256(clock: RefClock) -> dict:
    """A serial policy sweep of the ``dc-fleet-large`` mix at 256 machines."""
    from repro.experiments import preset_grid
    from repro.sweep import run_sweep

    fleet = {"n_machines": 256, "n_vms": 768, "power_budget_w": 5120.0}
    results = run_sweep(preset_grid("dc-fleet-large", overrides=fleet), workers=1)
    return {"cells": len(results), "machines": fleet["n_machines"], "vms": fleet["n_vms"]}


#: Benches in run order: name -> callable returning a metrics dict.
#: Each takes the run's clock, from which it reads any in-bench rate.
NATIVE_BENCHES: dict[str, Callable[[RefClock], dict]] = {
    "engine-events": _bench_engine_events,
    "paper-5.3": _bench_paper_scenario,
    "stress-fleet-cold": _bench_stress_fleet_cold,
    "tracing-off": _bench_tracing_off,
    "store-warm": _bench_store_warm,
    "fleet-256": _bench_fleet_256,
}


# ----------------------------------------------------------------- running


def run_benches(
    names: list[str],
    *,
    progress: Callable[[str], None] = lambda line: None,
) -> dict:
    """Execute *names* and assemble the report dict (see module docstring)."""
    unknown = [name for name in names if name not in NATIVE_BENCHES]
    if unknown:
        raise KeyError(
            f"unknown bench(es) {', '.join(unknown)}; "
            f"choose from: {', '.join(NATIVE_BENCHES)}"
        )
    benches: dict[str, dict] = {}
    clock = RefClock().start()
    try:
        for name in names:
            progress(f"bench {name} ...")
            entry: dict = {"ok": True}
            runs: list[tuple[float, dict]] = []  # (ref seconds, metrics) per run
            for _ in range(RUNS):
                first = clock.mark()
                try:
                    metrics = NATIVE_BENCHES[name](clock)
                except Exception as error:  # a failing bench is a result
                    entry["ok"] = False
                    entry["error"] = f"{type(error).__name__}: {error}"
                    metrics = {}
                runs.append((clock.ref_seconds(first, clock.mark()), metrics))
                if not entry["ok"]:
                    break
            median_s, entry["metrics"] = sorted(runs, key=lambda run: run[0])[len(runs) // 2]
            entry["ref_s"] = round(median_s, 6)
            entry["ref_runs"] = [round(seconds, 6) for seconds, _ in runs]
            entry["peak_rss_kb"] = peak_rss_kb()
            benches[name] = entry
            status = "ok" if entry["ok"] else "FAILED"
            progress(
                f"bench {name}: {status}, median {entry['ref_s']:.3f} ref s "
                f"of {len(runs)} run(s)"
            )
    finally:
        clock.stop()
    return {
        "schema": SCHEMA,
        "rev": git_rev(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "peak_rss_kb": peak_rss_kb(),
        "benches": benches,
    }


def default_report_path(report: dict) -> pathlib.Path:
    """``BENCH_<rev>.json`` in the current working directory."""
    return pathlib.Path(f"BENCH_{report['rev']}.json")


def write_report(report: dict, path: pathlib.Path) -> pathlib.Path:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------- compare


def parse_regress(text: str) -> float:
    """``"25%"`` / ``"25"`` -> 0.25; ``"0.25"`` -> 0.25; ``"1%"`` -> 0.01.

    An explicit ``%`` suffix always means percent; bare numbers above 1
    are taken as percent too (nobody means a 2500% allowance by ``25``).
    """
    explicit_percent = text.endswith("%")
    value = float(text.rstrip("%"))
    if value < 0:
        raise ValueError(f"--max-regress must be >= 0, got {text!r}")
    if explicit_percent or value > 1.0:
        return value / 100.0
    return value


def compare_reports(
    current: dict,
    baseline: dict,
    *,
    max_regress: float,
) -> tuple[list[str], list[str]]:
    """Gate *current* against *baseline* on each bench's median ``ref_s``.

    Returns ``(lines, regressed)``: a human-readable comparison line for
    every baseline bench, and the names of benches whose median exceeds
    the baseline's by more than *max_regress* (or that failed or went
    missing outright).
    """
    cur_benches = current.get("benches", {})
    lines: list[str] = []
    regressed: list[str] = []
    for name, base in sorted(baseline.get("benches", {}).items()):
        cur = cur_benches.get(name)
        if cur is None:
            lines.append(f"{name}: MISSING from current run (baseline {base['ref_s']:.3f}s)")
            regressed.append(name)
            continue
        if not cur.get("ok", False):
            lines.append(f"{name}: FAILED ({cur.get('error', 'see report')})")
            regressed.append(name)
            continue
        allowed = base["ref_s"] * (1.0 + max_regress)
        ratio = cur["ref_s"] / base["ref_s"] if base["ref_s"] else 1.0
        verdict = "ok"
        if cur["ref_s"] > allowed:
            verdict = "REGRESSED"
            regressed.append(name)
        lines.append(
            f"{name}: {cur['ref_s']:.3f}s vs baseline {base['ref_s']:.3f}s "
            f"(x{ratio:.2f}, limit {allowed:.3f}s) {verdict}"
        )
    return lines, regressed


def load_report(path: pathlib.Path) -> dict:
    data = json.loads(path.read_text())
    schema = data.get("schema") if isinstance(data, dict) else "?"
    if schema == "repro-bench/1":
        raise ValueError(
            f"{path} is a repro-bench/1 report (best-of-two wall seconds), "
            f"which {SCHEMA} medians cannot be compared with; regenerate it "
            f"with: python -m repro bench --out {path}"
        )
    if schema != SCHEMA:
        raise ValueError(f"{path} is not a {SCHEMA} report (schema: {schema})")
    return data
