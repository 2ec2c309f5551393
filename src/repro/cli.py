"""Command-line interface: regenerate any experiment from a terminal.

Examples::

    python -m repro list
    python -m repro reproduce
    python -m repro reproduce fig9 table2 --workers 2
    python -m repro reproduce energy --store results-store
    python -m repro calibrate "Intel Xeon E5-2620"
    python -m repro run --preset paper-5.3 --set scheduler=pas --set v20_load=thrashing
    python -m repro run --preset mixed-guests
    python -m repro run --scenario myfleet.json
    python -m repro run --preset dc-diurnal-small --set policy=static --out-series epochs.csv
    python -m repro sweep --workers 4 --out results.json
    python -m repro sweep --grid '{"scheduler": ["credit", "pas"], "governor": ["stable"]}'
    python -m repro sweep --preset governors --replicates 3 --out-aggregated agg.csv
    python -m repro sweep --preset governors --set duration=20 --set poisson=true
    python -m repro sweep --preset stress-fleet --store results-store
    python -m repro store ls --store results-store
    python -m repro store ls --store results-store --where scheduler=pas
    python -m repro store export --store results-store --out corpus.csv --where governor=stable
    python -m repro sweep --preset dc-diurnal --store results-store
    python -m repro sweep --preset dc-diurnal --replicates 5 --out-aggregated dc.csv
    python -m repro sweep --preset calib --grid '{"cpufreq_max_mhz": [1600, 2667]}'
    python -m repro reproduce orchestration placement

``reproduce`` prints every claim's paper-vs-measured report and exits
non-zero when a shape criterion fails — so the CLI doubles as the
reproduction check in CI.  Sweeps and every claim
accept ``--store DIR``: finished cells persist as they complete and
re-runs only compute what is missing, so repeated builds are warm-cache and
interrupted grids resume where they died.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import Callable, Sequence

from .cpu import catalog
from .errors import ConfigurationError, StoreError
from .experiments import get_preset, PRESETS, preset_grid, ScenarioConfig, run_scenario
from .telemetry import render_chart, table_to_text
from .units import check_field_types

def _observation_for(trace_out: str | None, metrics_out: str | None) -> tuple:
    """``(tracer, registry)`` per ``--trace``/``--metrics-out`` (None = off)."""
    tracer = None
    registry = None
    if trace_out:
        from .obs import Tracer

        tracer = Tracer()
    if metrics_out:
        from .obs import MetricsRegistry

        registry = MetricsRegistry()
    return tracer, registry


def _write_observations(
    trace_out: str | None, metrics_out: str | None, tracer, registry, outcome=None
) -> None:
    """Save the side files the observation flags asked for."""
    if tracer is not None:
        path = tracer.save(trace_out)
        print(f"wrote {len(tracer.events)} trace events to {path}")
    if registry is not None:
        if outcome is not None:
            from .obs import collect_outcome

            collect_outcome(registry, outcome)
        path = registry.save(metrics_out)
        print(f"wrote {len(registry)} metrics to {path}")


class _SweepReporter:
    """Live cells/s + cache-hit progress for the sweep commands.

    Fed by :class:`~repro.sweep.runner.SweepRunner`'s ``progress`` callback;
    writes to stderr so piped stdout stays machine-readable.  Verbosity 0
    (``--quiet``) is silent, 1 (default) keeps one live line rewritten in
    place, 2 (``-v``) prints one line per finished cell.
    """

    def __init__(self, total: int, verbosity: int) -> None:
        from .obs.profile import wall_now

        self.total = total
        self.verbosity = verbosity
        self.done = 0
        self.hits = 0
        self._wall_now = wall_now
        self._began = wall_now()
        self._live = False

    def __call__(self, result, from_cache: bool) -> None:
        self.done += 1
        if from_cache:
            self.hits += 1
        if self.verbosity <= 0:
            return
        elapsed = self._wall_now() - self._began
        rate = self.done / elapsed if elapsed > 0 else 0.0
        if self.verbosity >= 2:
            source = "warm" if from_cache else "computed"
            print(
                f"[{self.done}/{self.total}] {result.label} "
                f"({source}, {rate:.1f} cells/s)",
                file=sys.stderr,
            )
        else:
            self._live = True
            print(
                f"cells {self.done}/{self.total} "
                f"({self.hits} warm, {rate:.1f} cells/s)",
                file=sys.stderr,
                end="\r",
            )

    def finish(self) -> None:
        """Terminate the live line so the summary table starts clean."""
        if self._live:
            print(file=sys.stderr)
            self._live = False


def _verbosity_of(args) -> int:
    """0 for --quiet, 1 by default, 2+ per repeated -v."""
    if getattr(args, "quiet", False):
        return 0
    return 1 + getattr(args, "verbose", 0)


def _cmd_list(args: argparse.Namespace) -> int:
    from .experiments.claims import CLAIMS

    print("claims    :", ", ".join(CLAIMS))
    print("processors:", ", ".join(sorted(catalog.ALL_PROCESSORS)))
    print()
    rows = [
        [
            preset.name,
            f"kind:{preset.kind}",
            str(preset.cells),
            ",".join(preset.axes) or "-",
            preset.description,
        ]
        for preset in PRESETS.values()
    ]
    print(
        table_to_text(
            ["preset", "kind", "cells", "axes", "description"],
            rows,
            title="scenario presets",
        )
    )
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .experiments.claims import CLAIMS, run_claims

    names = args.names or list(CLAIMS)
    unknown = [name for name in names if name not in CLAIMS]
    if unknown:
        print(
            f"unknown claim(s) {', '.join(unknown)}; choose from: {', '.join(CLAIMS)}",
            file=sys.stderr,
        )
        return 2
    counts = {"warm": 0, "computed": 0}

    def progress(result, from_cache: bool) -> None:
        counts["warm" if from_cache else "computed"] += 1

    outcomes = run_claims(names, workers=args.workers, store=args.store, progress=progress)
    reports = [report for _, report in outcomes.values()]
    print("\n\n".join(report.render() for report in reports))
    if args.store is not None:
        print(f"{counts['warm']} cells warm, {counts['computed']} computed", file=sys.stderr)
    return 0 if all(report.all_passed for report in reports) else 1


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .experiments.claims import measured_cfs, run_claim

    try:
        spec = catalog.as_processor(args.processor)
    except ConfigurationError as error:
        print(f"calibrate: {error}", file=sys.stderr)
        return 2
    # The eq1 cells at one demand: 15 % fits every catalog machine's
    # minimum frequency, so the load never saturates.
    cells, _ = run_claim("eq1", processor=spec, demands=(15.0,))
    top = spec.table().max_state
    rows = []
    for (_, state), cf in measured_cfs(cells).items():
        if state != top:
            rows.append(
                [
                    f"{state.freq_mhz} MHz",
                    f"{state.freq_mhz / top.freq_mhz:.4f}",
                    f"{cf:.5f}",
                    f"{state.cf:.5f}",
                    f"{abs(cf - state.cf) / state.cf * 100:.3f}%",
                ]
            )
    print(
        table_to_text(
            ["frequency", "ratio", "cf measured", "cf substrate", "error"],
            rows,
            title=f"cf calibration (§5.2 procedure) on {spec.name}",
        )
    )
    return 0


def _write_records_csv(records: list, path: str, what: str, fields: Sequence[str]) -> None:
    """Write flat records as CSV (a bare header when there are none)."""
    from .telemetry.export import records_to_csv

    target = pathlib.Path(path)
    target.write_text(
        records_to_csv(records) if records else ",".join(fields) + "\n"
    )
    print(f"wrote {len(records)} {what} records to {target}")


def _print_fleet_report(config, title: str, sim, args: argparse.Namespace) -> None:
    """Print a fleet run's placement + per-epoch summary, write its CSVs."""
    from .cluster.orchestrator import (
        EPOCH_RECORD_FIELDS,
        HOST_RECORD_FIELDS,
        MIGRATION_RECORD_FIELDS,
    )
    from .sweep.metrics import cluster_metrics
    from .telemetry.series import TimeSeries

    rows = [
        [
            machine.name,
            "on" if machine.powered_on else "off",
            str(len(machine.vms)),
            f"{machine.memory_used_mb} MB",
            ", ".join(vm.name for vm in machine.vms) or "-",
        ]
        for machine in sim.machines
    ]
    print(
        table_to_text(
            ["machine", "power", "vms", "memory used", "placed"],
            rows,
            title=(
                f"{title}: {config.n_vms} VMs on {config.total_machines} machines "
                f"(policy={config.policy}, dvfs={'on' if config.dvfs else 'off'}, "
                f"{config.duration:.0f}s)"
            ),
        )
    )
    metrics = cluster_metrics(sim)
    budget = (
        f"   cap: {config.power_budget_w:.0f} W "
        f"({'respected' if sim.peak_power_w <= config.power_budget_w else 'VIOLATED'})"
        if config.power_budget_w is not None
        else ""
    )
    print()
    print(
        f"fleet energy: {metrics['energy_kwh'] * 1000:.2f} Wh   "
        f"hosts on (mean): {metrics['hosts_on_mean']:.1f}   "
        f"SLA: {metrics['sla_mean'] * 100:.1f}% "
        f"({metrics['sla_violations']} violation epochs)   "
        f"migrations: {metrics['migrations']}   "
        f"peak power: {metrics['power_peak_w']:.0f} W{budget}"
    )
    peak = sim.peak_power_w or 1.0  # an all-idle fleet charts as flat zero
    power = TimeSeries(
        "fleet power (% of peak)",
        [(stat.time, 100.0 * stat.power_w / peak) for stat in sim.stats],
    )
    hosts = TimeSeries(
        "hosts on (% of fleet)",
        [(stat.time, 100.0 * stat.machines_on / config.total_machines) for stat in sim.stats],
    )
    print()
    print(
        render_chart(
            [power, hosts],
            title="fleet power + hosts over the day",
            y_max=100.0,
            labels=["power %", "hosts %"],
        )
    )
    if args.out_series:
        _write_records_csv(
            sim.epoch_records(), args.out_series, "per-epoch", EPOCH_RECORD_FIELDS
        )
    if args.out_hosts:
        _write_records_csv(
            sim.host_records(), args.out_hosts, "per-host", HOST_RECORD_FIELDS
        )
    if args.out_migrations:
        _write_records_csv(
            sim.migration_records(),
            args.out_migrations,
            "migration",
            MIGRATION_RECORD_FIELDS,
        )


def _load_bench_harness():
    """Import :mod:`benchmarks.harness`, tolerating CLI runs from anywhere.

    The benchmarks live beside ``src`` rather than inside the package (they
    are repo tooling, not library code), so a ``python -m repro bench`` run
    from outside the repo root needs the root put on ``sys.path`` first.
    """
    try:
        from benchmarks import harness
        if hasattr(harness, "NATIVE_BENCHES"):
            return harness
    except ImportError:
        pass
    # Either no 'benchmarks' on sys.path or a foreign package shadows ours:
    # load the module straight from its file, bypassing the import cache.
    path = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "harness.py"
    if not path.exists():
        return None
    import importlib.util

    spec = importlib.util.spec_from_file_location("repro_bench_harness", path)
    if spec is None or spec.loader is None:  # pragma: no cover - loader quirk
        return None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cmd_bench(args: argparse.Namespace) -> int:
    harness = _load_bench_harness()
    if harness is None:
        print(
            "bench: cannot import benchmarks/harness.py — run from a repo "
            "checkout (the harness is repo tooling, not packaged code)",
            file=sys.stderr,
        )
        return 2
    if args.list:
        for name in harness.NATIVE_BENCHES:
            print(name)
        return 0
    try:
        max_regress = harness.parse_regress(args.max_regress)
    except ValueError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    try:
        report = harness.run_benches(
            args.bench or list(harness.NATIVE_BENCHES),
            progress=lambda line: print(line, file=sys.stderr),
        )
    except KeyError as error:
        print(f"bench: {error.args[0]}", file=sys.stderr)
        return 2
    rows = []
    for name, entry in report["benches"].items():
        metrics = entry.get("metrics", {})
        highlights = ", ".join(
            f"{key}={value:.2f}" if isinstance(value, float) else f"{key}={value}"
            for key, value in metrics.items()
            if isinstance(value, (int, float))
        )
        rows.append(
            [
                name,
                "ok" if entry["ok"] else "FAILED",
                f"{entry['ref_s']:.3f}",
                f"{min(entry['ref_runs']):.3f}-{max(entry['ref_runs']):.3f}",
                str(entry.get("peak_rss_kb") or "-"),
                highlights or entry.get("error", "-"),
            ]
        )
    print(
        table_to_text(
            ["bench", "status", "ref s", "runs", "peak RSS KiB", "metrics"],
            rows,
            title=f"repro bench: rev={report['rev']}",
        )
    )
    out = pathlib.Path(args.out) if args.out else harness.default_report_path(report)
    code = 0 if all(entry["ok"] for entry in report["benches"].values()) else 1
    if args.compare:
        try:
            baseline = harness.load_report(pathlib.Path(args.compare))
        except (OSError, ValueError, json.JSONDecodeError) as error:
            # The benches already ran: keep the measurement (and the CI
            # artifact) even though the gate itself cannot be evaluated.
            harness.write_report(report, out)
            print(f"\nwrote {out}")
            print(f"bench: cannot load baseline: {error}", file=sys.stderr)
            return 2
        if args.bench:
            # A run narrowed by --bench gates only the benches it ran.
            baseline["benches"] = {
                name: entry
                for name, entry in baseline.get("benches", {}).items()
                if name in report["benches"]
            }
        lines, regressed = harness.compare_reports(
            report, baseline, max_regress=max_regress
        )
        print(f"\ncompare vs {args.compare} (max regress {max_regress:.0%}):")
        for line in lines:
            print(f"  {line}")
        if regressed:
            print(f"\n{len(regressed)} bench(es) regressed")
            code = 1
        else:
            print("\nno regressions")
    harness.write_report(report, out)
    print(f"\nwrote {out}")
    return code


def _cmd_lint(args: argparse.Namespace) -> int:
    from .errors import ConfigurationError
    from .lint import (
        lint_paths,
        render_github,
        render_json,
        render_text,
        rule_catalog,
    )

    if args.list_rules:
        for entry in rule_catalog():
            print(f"{entry['code']}  {entry['name']}: {entry['summary']}")
        return 0
    try:
        findings = lint_paths(
            args.paths or ["src", "tests", "benchmarks"],
            select=args.select,
            ignore=args.ignore,
        )
    except ConfigurationError as error:
        print(f"lint: {error}", file=sys.stderr)
        return 2
    render = {"json": render_json, "github": render_github}.get(
        args.format, render_text
    )
    print(render(findings))
    return 1 if findings else 0


#: Presets too big for a smoke pass (skipped by ``run --preset all``).
_XLARGE_PRESETS = ("dc-fleet-large",)

#: Per-run duration cap of the ``--preset all`` smoke pass, in sim seconds.
_SMOKE_DURATION_S = 60.0

#: ``run`` options that only make sense for one run (rejected by ``--preset all``).
_SINGLE_RUN_OPTIONS = (
    "out",
    "trace",
    "metrics_out",
    "out_series",
    "out_hosts",
    "out_migrations",
    "duration",
    "seed",
    "set",
)


def _run_all_presets(args: argparse.Namespace) -> int:
    """``run --preset all``: a short smoke run of every (non-xlarge) preset.

    Each preset's base config runs with its duration capped at
    :data:`_SMOKE_DURATION_S`; ``kind: cluster`` presets are skipped unless
    ``--include-cluster``.  One status line per preset; exit 1 when any
    preset failed.
    """
    single = [
        "--" + name.replace("_", "-")
        for name in _SINGLE_RUN_OPTIONS
        if getattr(args, name) not in (None, [])
    ]
    if single:
        print(
            f"run: --preset all takes none of the single-run options {', '.join(single)}",
            file=sys.stderr,
        )
        return 2
    from .cluster import run_cluster_scenario

    failed = []
    skipped = 0
    for preset in PRESETS.values():
        if preset.name in _XLARGE_PRESETS:
            print(f"  skip  {preset.name} (xlarge)")
            skipped += 1
            continue
        if preset.kind == "cluster" and not args.include_cluster:
            print(f"  skip  {preset.name} (cluster; use --include-cluster)")
            skipped += 1
            continue
        config = preset.config.with_changes(
            duration=min(preset.config.duration, _SMOKE_DURATION_S)
        )
        try:
            if preset.kind == "cluster":
                sim = run_cluster_scenario(config)
                detail = f"{len(sim.stats)} epochs"
            else:
                result = run_scenario(config)
                detail = f"{len(result.guest_names)} guests, {result.host.now:.0f}s"
            print(f"  ok    {preset.name} ({detail})")
        except Exception as error:
            failed.append(preset.name)
            print(f"  FAIL  {preset.name}: {error}")
    ran = len(PRESETS) - skipped
    print(
        f"preset smoke: {ran - len(failed)}/{ran} passed, {skipped} skipped"
        + (f"; failed: {', '.join(failed)}" if failed else "")
    )
    return 1 if failed else 0


def _parse_set(config, assignment: str) -> tuple[str, object]:
    """One ``--set FIELD=VALUE`` as ``(field, value)``, checked for *config*."""
    name, sep, text = assignment.partition("=")
    name = name.strip()
    if not sep or not name:
        raise ConfigurationError(
            f"--set takes FIELD=VALUE (e.g. --set scheduler=pas), got {assignment!r}"
        )
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    check_field_types(type(config), {name: value}, f"--set {assignment}")
    return name, value


def _grid_axes(base, text: str) -> dict[str, list]:
    """``--grid JSON`` as sweep axes over *base*, every value checked as
    ``--set`` checks it.  Each axis must be a non-empty JSON list."""
    try:
        axes = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"--grid is not valid JSON: {error}") from None
    if not isinstance(axes, dict):
        raise ConfigurationError(f"--grid must be a JSON object of axes, got: {text!r}")
    if not axes:
        raise ConfigurationError("--grid needs at least one axis")
    for name, values in axes.items():
        if not isinstance(values, list) or not values:
            raise ConfigurationError(
                f"--grid axis {name!r} takes a non-empty JSON list of values, "
                f"got {values!r}"
            )
        for value in values:
            check_field_types(type(base), {name: value}, "--grid")
    return axes


def _config_overrides(config, args: argparse.Namespace) -> dict:
    """The overrides of *config* the command line asks for, in order.

    Each ``--set FIELD=VALUE`` (VALUE parsed as JSON when it parses, kept
    as a string otherwise, then type-checked against the field), then
    ``--duration`` and ``--seed``.  An unknown field or a bad value
    raises :class:`ConfigurationError`.
    """
    overrides = dict(_parse_set(config, assignment) for assignment in args.set)
    for name in ("duration", "seed"):
        if getattr(args, name) is not None:
            overrides[name] = getattr(args, name)
    return overrides


def _config_from_args(args: argparse.Namespace) -> tuple:
    """Resolve ``(config, title, slug)`` from ``--preset``/``--scenario``.

    A scenario file holds a single-host spec, or a fleet spec when it says
    ``"kind": "cluster"``.  The :func:`_config_overrides` apply in one
    ``with_changes``.  Every failure is a :class:`ConfigurationError`;
    each command prints it under its own prefix.
    """
    from .cluster import ClusterScenarioConfig

    if args.scenario:
        path = pathlib.Path(args.scenario)
        try:
            data = json.loads(path.read_text())
        except OSError as error:
            raise ConfigurationError(f"cannot read {path}: {error}") from None
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"{path} is not valid JSON: {error}") from None
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"{path} must hold a JSON object (a scenario spec)"
            )
        spec = ClusterScenarioConfig if data.get("kind") == "cluster" else ScenarioConfig
        config = spec.from_dict(data)
        title, slug = f"scenario {path.name}", path.stem
    else:
        config = get_preset(args.preset).config
        title, slug = f"preset {args.preset}", args.preset
    overrides = _config_overrides(config, args)
    if overrides:
        config = config.with_changes(**overrides)
    return config, title, slug


def _print_host_report(config, title: str, result) -> None:
    """Print a single-host run's per-guest summary and load chart."""
    rows = []
    for name in result.guest_names:
        domain = result.host.domain(name)
        try:
            window = result.guest_window(name)
            global_mean = f"{result.guest_mean(name, 'global', window):8.2f}"
            absolute_mean = f"{result.guest_mean(name, 'absolute', window):8.2f}"
            window_text = f"[{window[0]:.0f}, {window[1]:.0f})"
        except Exception:  # idle guest or empty window: report dashes
            global_mean = absolute_mean = window_text = "-"
        rows.append([name, f"{domain.credit:.0f}%", window_text, global_mean, absolute_mean])
    print(
        table_to_text(
            ["guest", "credit", "window", "global %", "absolute %"],
            rows,
            title=(
                f"{title}: scheduler={config.scheduler} governor={config.governor} "
                f"({len(result.guest_names)} guests, {result.host.now:.0f}s)"
            ),
        )
    )
    charted = list(result.guest_names)[:4]
    freq_percent = result.series("host.freq_mhz").map(
        lambda mhz: 100.0 * mhz / result.host.processor.max_frequency_mhz
    )
    print()
    print(
        render_chart(
            [result.guest_series(name) for name in charted] + [freq_percent],
            title="global loads + frequency",
            y_max=100.0,
            labels=[f"{name} %" for name in charted] + ["freq (% max)"],
        )
    )
    print()
    print(
        f"energy: {result.energy_joules:.0f} J   "
        f"DVFS transitions: {result.frequency_transitions}"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    if args.preset == "all":
        return _run_all_presets(args)
    from .cluster import ClusterScenarioConfig, run_cluster_scenario
    from .obs import observed

    try:
        config, title, _ = _config_from_args(args)
        fleet = isinstance(config, ClusterScenarioConfig)
        if not fleet and (args.out_series or args.out_hosts or args.out_migrations):
            raise ConfigurationError(
                "--out-series/--out-hosts/--out-migrations export fleet "
                f"telemetry; {title} is a single-host scenario"
            )
        tracer, registry = _observation_for(args.trace, args.metrics_out)
        with observed(tracer=tracer, metrics=registry):
            outcome = (run_cluster_scenario if fleet else run_scenario)(config)
    except ConfigurationError as error:
        print(f"run: {error}", file=sys.stderr)
        return 2
    if fleet:
        _print_fleet_report(config, title, outcome, args)
    else:
        _print_host_report(config, title, outcome)
    _write_observations(args.trace, args.metrics_out, tracer, registry, outcome=outcome)
    if args.out:
        path = pathlib.Path(args.out)
        path.write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"wrote scenario spec to {path}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs.profile import SamplingProfiler

    profiler = SamplingProfiler()
    try:
        config, title, _ = _config_from_args(args)
        configs = [config]
        preset = get_preset(args.preset) if args.preset else None
        if preset is not None and preset.axes:
            # A grid preset: every cell, each with the overrides, under the
            # one sampler.
            overrides = _config_overrides(preset.config, args)
            configs = [cell.config for cell in preset_grid(args.preset, overrides=overrides)]
            title = f"{title} ({len(configs)} cells)"
        for cell_config in configs:
            profiler.run(cell_config)
    except ConfigurationError as error:
        print(f"profile: {error}", file=sys.stderr)
        return 2
    print(f"sampling profile — {title}")
    print()
    print(profiler.render_table())
    return 0


#: Default sweep axes: the full scheduler x governor x load evaluation
#: plane of §5 (4 x 3 x 2 = 24 cells).
_SWEEP_DEFAULTS = {
    "scheduler": ("credit", "credit2", "sedf", "pas"),
    "governor": ("performance", "ondemand", "stable"),
    "v20_load": ("exact", "thrashing"),
}

#: Terminal summary per preset kind: the compact per-cell columns, then the
#: energy metric of the mean-energy-by-axis block with its unit, its scale
#: to that unit and its decimals.
_SWEEP_SUMMARY = {
    "scenario": (
        (
            "v20_absolute_solo_early",
            "v20_global_both",
            "freq_mhz_solo_early",
            "dvfs_transitions",
            "energy_joules",
        ),
        ("energy_joules", "J", 1.0, 0),
    ),
    "cluster": (
        (
            "energy_kwh",
            "hosts_on_mean",
            "migrations",
            "sla_violations",
            "power_peak_w",
            "sla_mean",
        ),
        ("energy_kwh", "Wh", 1000.0, 2),
    ),
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweep import SweepRunner

    if args.force and not args.store:
        print("sweep: --force only makes sense with --store DIR", file=sys.stderr)
        return 2
    try:
        preset = get_preset(args.preset or "paper-5.3")
        metrics, kind = preset.metrics, preset.kind
        overrides = _config_overrides(preset.config, args)
        if args.grid:
            axes = _grid_axes(preset.config.with_changes(**overrides), args.grid)
        else:
            axes = None if args.preset else _SWEEP_DEFAULTS
        grid = preset_grid(
            preset.name,
            overrides=overrides,
            axes=axes,
            replicates=args.replicates,
            vary_seed=not args.fixed_seed,
        )
        from .obs import observed

        _, registry = _observation_for(None, args.metrics_out)
        reporter = _SweepReporter(len(grid), _verbosity_of(args))
        runner = SweepRunner(
            grid,
            metrics=metrics,
            workers=args.workers,
            store=args.store,
            resume=not args.force,
            progress=reporter,
        )
        try:
            with observed(metrics=registry):
                results = runner.run()
        finally:
            reporter.finish()
    except ConfigurationError as error:
        print(f"sweep: {error}", file=sys.stderr)
        return 2
    columns, (energy, unit, scale, digits) = _SWEEP_SUMMARY[kind]
    print(
        results.summary_table(
            [m for m in columns if m in results.cells[0].metrics] or None,
            title=f"sweep: {len(results)} cells, axes {', '.join(grid.axes)}",
        )
    )
    for axis in grid.axes:
        if len(grid.axes[axis]) < 2 or energy not in results.cells[0].metrics:
            continue
        print()
        print(f"mean energy by {axis}:")
        for value, summary in results.aggregate(energy, by=axis).items():
            ci = (
                f" ± {summary['ci95'] * scale:.{digits}f}"
                if summary["count"] > 1
                else ""
            )
            print(
                f"  {str(value):<14} {summary['mean'] * scale:10.{digits}f}{ci} "
                f"{unit} over {summary['count']} cells"
            )
    if args.store and not args.quiet:
        print(
            f"\nstore: {runner.cache_hits} cells warm, {runner.computed} computed "
            f"({pathlib.Path(args.store)})"
        )
    if registry is not None:
        path = registry.save(args.metrics_out)
        print(f"\nwrote {len(registry)} metrics to {path}")
    if args.out:
        path = results.save(args.out)
        print(f"\nwrote {len(results)} cells to {path}")
    if args.out_aggregated:
        path = results.export_aggregated(args.out_aggregated)
        print(f"wrote {len(results.aggregated_records())} aggregated rows to {path}")
    return 0


def _parse_where(clauses: Sequence[str]) -> dict[str, str | tuple[str, str]]:
    """``KEY=VALUE`` / ``KEY>=VALUE`` / ``KEY<=VALUE`` clauses -> a filter map.

    Equality clauses map to plain strings; inequality clauses map to
    ``(op, value)`` tuples with a validated numeric bound (raises
    ValueError on junk).
    """
    where: dict[str, str | tuple[str, str]] = {}
    for clause in clauses:
        for op in (">=", "<="):
            key, sep, value = clause.partition(op)
            if sep and key.strip():
                value = value.strip()
                try:
                    float(value)
                except ValueError:
                    raise ValueError(
                        f"--where {clause!r}: {op} needs a numeric bound, "
                        f"got {value!r}"
                    ) from None
                where[key.strip()] = (op, value)
                break
        else:
            key, sep, value = clause.partition("=")
            if not sep or not key.strip():
                raise ValueError(
                    f"--where takes KEY=VALUE, KEY>=VALUE or KEY<=VALUE "
                    f"(e.g. scheduler=pas, seed>=5), got {clause!r}"
                )
            where[key.strip()] = value.strip()
    return where


def _where_clause_text(key: str, value: str | tuple[str, str]) -> str:
    """Render a parsed filter clause back to its CLI spelling."""
    if isinstance(value, tuple):
        return f"{key}{value[0]}{value[1]}"
    return f"{key}={value}"


def _cmd_store(args: argparse.Namespace) -> int:
    from .store import ExperimentStore

    root = pathlib.Path(args.store)
    if not (root / "index.jsonl").exists():
        print(f"store: {root} is not an experiment store (no index.jsonl)", file=sys.stderr)
        return 2
    store = ExperimentStore(root)
    try:
        where = _parse_where(getattr(args, "where", None) or [])
    except ValueError as error:
        print(f"store: {error}", file=sys.stderr)
        return 2
    if args.action == "ls":
        rows = store.select(
            lambda payload: [
                payload["key"][:12],
                payload["label"],
                (payload.get("config") or {}).get("type", "?"),
                str(len(payload.get("metrics", {}))),
            ],
            where=where,
        )
        if not rows:
            suffix = (
                " matching "
                + ", ".join(_where_clause_text(k, v) for k, v in where.items())
                if where
                else ""
            )
            print(f"store {root}: no cells{suffix}")
            return 0
        print(
            table_to_text(
                ["key", "label", "config", "metrics"],
                rows,
                title=f"store {root}: {len(rows)} cells",
            )
        )
        return 0
    if args.action == "show":
        try:
            payload = store.find(args.cell)
        except StoreError as error:
            print(f"store: {error}", file=sys.stderr)
            return 2
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    if args.action == "gc":
        stats = store.gc()
        print(
            f"store {root}: kept {stats['kept']} cells "
            f"(removed {stats['corrupt']} corrupt, "
            f"{stats['version_mismatch']} version-mismatched, "
            f"{stats.get('temp_files', 0)} leftover temp files; "
            f"dropped {stats['stale_index']} stale index lines, "
            f"re-indexed {stats['reindexed']} blobs)"
        )
        return 0
    if args.action == "export":
        results = store.to_results(where=where)
        if not len(results):
            print(
                f"store: {root} holds no valid cells to export"
                + (" matching the --where filter" if where else ""),
                file=sys.stderr,
            )
            return 2
        if args.aggregated:
            path = results.export_aggregated(args.out)
            print(f"wrote {len(results.aggregated_records())} aggregated rows to {path}")
        else:
            path = results.save(args.out)
            print(f"wrote {len(results)} cells to {path}")
        return 0
    raise AssertionError(f"unhandled store action {args.action!r}")  # pragma: no cover


def _add_config_source(parser: argparse.ArgumentParser, preset_help: str) -> None:
    """``--preset``/``--scenario`` plus the overrides of :func:`_config_from_args`."""
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", help=preset_help)
    source.add_argument("--scenario", help="path to a scenario-spec JSON file")
    parser.add_argument(
        "--duration", type=float, default=None, help="override the duration (sim s)"
    )
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="override config field FIELD (repeatable): VALUE is parsed as "
        "JSON when it parses and kept as a string otherwise, then checked "
        "against the field; an unknown field or a bad value exits 2; "
        "--duration/--seed apply after it.  E.g. --set scheduler=pas "
        "--set v20_active=[20,180] --set power_budget_w=60",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'DVFS Aware CPU Credit Enforcement in a Virtualized System' (Middleware 2013).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "list", help="list the claims, catalog processors and scenario presets"
    ).set_defaults(fn=_cmd_list)

    reproduce = commands.add_parser(
        "reproduce",
        help="rebuild the paper's figures, tables and validations and our ablations",
        description=(
            "Run the named claims (all of them by default, see 'list') and "
            "print each paper-vs-measured report.  Exits 1 when a shape check "
            "fails and 2 on an unknown name."
        ),
    )
    reproduce.add_argument("names", nargs="*", metavar="NAME", help="claim names (default: all)")
    reproduce.add_argument(
        "--workers", type=int, default=1, help="process-pool size the claims' cells run on"
    )
    reproduce.add_argument(
        "--store",
        default=None,
        help="experiment-store DIR: reuse stored cells, persist new ones",
    )
    reproduce.set_defaults(fn=_cmd_reproduce)

    calibrate = commands.add_parser("calibrate", help="measure cf on a catalog processor")
    calibrate.add_argument("processor", nargs="?", default=catalog.OPTIPLEX_755.name)
    calibrate.set_defaults(fn=_cmd_calibrate)

    run = commands.add_parser(
        "run",
        help="run a named preset or a scenario-spec JSON file",
        description=(
            "Run one declarative scenario end-to-end and print its summary: "
            "per guest for a single host, placement and per-epoch power for "
            "a fleet.  The scenario comes from --preset (see 'repro "
            "list') or from --scenario, a JSON file in the "
            "ScenarioConfig.to_dict() format (\"kind\": \"cluster\" for a "
            "fleet).  --set, --duration and --seed override the config."
        ),
    )
    _add_config_source(
        run,
        "preset name (see 'repro list'), or 'all' for a smoke "
        "pass over every non-xlarge preset",
    )
    run.add_argument(
        "--include-cluster",
        action="store_true",
        help="with --preset all: include the kind:cluster presets too",
    )
    run.add_argument("--out", default=None, help="also write the resolved spec to PATH")
    run.add_argument(
        "--out-series", default=None, help="fleet: write the per-epoch series CSV to PATH"
    )
    run.add_argument(
        "--out-hosts", default=None, help="fleet: write the per-host per-epoch CSV to PATH"
    )
    run.add_argument(
        "--out-migrations", default=None, help="fleet: write the migration-event CSV to PATH"
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a sim-time Chrome trace-event JSON (Perfetto-loadable) to PATH",
    )
    run.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the runtime-metrics snapshot JSON to PATH",
    )
    run.set_defaults(fn=_cmd_run)

    profile = commands.add_parser(
        "profile",
        help="sampling wall-clock profile of a scenario or a preset's grid",
        description=(
            "Run a scenario spec, or every cell of a preset's grid, under the "
            "opt-in sampling profiler and print where host time went, summed "
            "over the cells: the share of samples "
            "per layer (sim, hypervisor, schedulers, governors, cluster, "
            "...) and the busiest functions.  Wall-clock samples vary run "
            "to run by nature; the simulation itself is unaffected."
        ),
    )
    _add_config_source(profile, "preset name (see 'repro list')")
    profile.set_defaults(fn=_cmd_profile)

    sweep = commands.add_parser(
        "sweep",
        help="run a scenario grid (scheduler x governor x load by default)",
        description=(
            "Expand a parameter grid over a preset (the §5.3 scenario by default) "
            "and run every cell, optionally across a process pool.  Axes come "
            "from the preset (--preset, see 'repro list') or from --grid as a "
            "JSON object mapping its config fields to value lists (see the "
            "repro.sweep module docs)."
        ),
    )
    sweep.add_argument(
        "--preset",
        default=None,
        help="sweep this preset's config over its own axes, or over --grid's",
    )
    sweep.add_argument(
        "--replicates",
        type=int,
        default=1,
        help="statistical replicates per cell (per-replicate derived seeds)",
    )
    sweep.add_argument(
        "--grid",
        default=None,
        help="JSON object mapping config fields to non-empty value lists, each "
        "value checked as --set checks it; replaces the preset's axes "
        "(default: scheduler x governor x v20_load, 24 cells)",
    )
    sweep.add_argument(
        "--duration",
        type=float,
        default=None,
        help="override the base config's duration (default: the preset's own)",
    )
    sweep.add_argument(
        "--seed", type=int, default=None, help="root seed for per-cell seeds"
    )
    sweep.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="override base-config field FIELD (repeatable), as for 'run': "
        "VALUE is parsed as JSON when it parses; an unknown field or a bad "
        "value exits 2; --duration/--seed apply after it",
    )
    sweep.add_argument(
        "--fixed-seed",
        action="store_true",
        help="give every cell the root seed instead of derived per-cell seeds",
    )
    sweep.add_argument("--workers", type=int, default=1, help="process-pool size")
    sweep.add_argument("--out", default=None, help="write results to PATH (.json or .csv)")
    sweep.add_argument(
        "--out-aggregated",
        default=None,
        help="also write one row per logical cell with mean/std/ci95 columns "
        "(replicates collapsed) to PATH (.json or .csv)",
    )
    sweep.add_argument(
        "--store",
        default=None,
        help="experiment-store DIR: stream finished cells to disk and skip "
        "already-computed ones on re-run",
    )
    sweep.add_argument(
        "--force",
        action="store_true",
        help="with --store: recompute every cell and overwrite its stored copy",
    )
    sweep.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the runtime-metrics snapshot JSON (cache hits, cells, "
        "workers) to PATH",
    )
    sweep.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="per-cell progress lines on stderr (default: one live line)",
    )
    sweep.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress progress and store-status output",
    )
    sweep.set_defaults(fn=_cmd_sweep)

    store = commands.add_parser(
        "store",
        help="inspect or maintain an experiment store",
        description=(
            "Query and maintain a content-addressed experiment store written "
            "by 'sweep --store DIR' (and by the sweep-backed ablations/tables): "
            "list cells, show one blob, garbage-collect damaged entries, or "
            "export the whole corpus as sweep results."
        ),
    )
    store_actions = store.add_subparsers(dest="action", required=True)
    store_ls = store_actions.add_parser("ls", help="list stored cells")
    store_show = store_actions.add_parser("show", help="print one cell blob as JSON")
    store_show.add_argument("cell", help="cell key (full) or cell label")
    store_gc = store_actions.add_parser(
        "gc", help="drop damaged/version-mismatched blobs, rebuild the index"
    )
    store_export = store_actions.add_parser(
        "export", help="export all stored cells to a results file"
    )
    store_export.add_argument("--out", required=True, help="output PATH (.json or .csv)")
    store_export.add_argument(
        "--aggregated",
        action="store_true",
        help="emit the per-logical-cell mean/std/ci95 aggregate instead of raw cells",
    )
    for sub in (store_ls, store_export):
        sub.add_argument(
            "--where",
            action="append",
            default=[],
            metavar="KEY[=|>=|<=]VALUE",
            help="only cells whose param/config field KEY equals VALUE, or "
            "satisfies a numeric KEY>=VALUE / KEY<=VALUE bound "
            "(repeatable; clauses AND together), e.g. --where scheduler=pas "
            "--where seed>=5",
        )
    for sub in (store_ls, store_show, store_gc, store_export):
        sub.add_argument("--store", required=True, help="experiment-store DIR")
        sub.set_defaults(fn=_cmd_store)

    bench = commands.add_parser(
        "bench",
        help="run the benchmark harness and emit a BENCH_<rev>.json report",
        description=(
            "Run the benchmark harness: timings of the hot paths, the CI "
            "gate. Times are reference seconds (perfbench's RefClock, which "
            "probes the core speed during the run); each bench runs 5 times "
            "and its median is recorded. Emits machine-readable "
            "BENCH_<rev>.json; with --compare the command exits non-zero "
            "when any bench's median exceeds the baseline's by more than "
            "--max-regress."
        ),
    )
    bench.add_argument(
        "--bench",
        action="append",
        default=None,
        metavar="NAME",
        help="run only NAME (repeatable; see --list); --compare then gates only these",
    )
    bench.add_argument("--list", action="store_true", help="list bench names and exit")
    bench.add_argument(
        "--out", default=None, help="report path (default: ./BENCH_<rev>.json)"
    )
    bench.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE.json",
        help="gate against a baseline report; non-zero exit on regression",
    )
    bench.add_argument(
        "--max-regress",
        default="15%",
        help="allowed per-bench regression of the median for --compare (default: %(default)s)",
    )
    bench.set_defaults(fn=_cmd_bench)

    lint = commands.add_parser(
        "lint",
        help="run the RPL invariant checker (exits non-zero on findings)",
        description=(
            "Statically check the determinism, spec round-trip, registry, "
            "slots, error-hygiene, and float-purity invariants the golden "
            "fixtures and store keys depend on (docs/invariants.md is the "
            "rule catalogue). Suppress a single line with "
            "'# repro-lint: disable=RPL###'; unused suppressions are "
            "themselves findings."
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: src tests benchmarks)",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json", "github"],
        default="text",
        help=(
            "report format: text, json, or github (Actions ::error "
            "annotations) (default: %(default)s)"
        ),
    )
    lint.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="CODE[,CODE]",
        help=(
            "run only these rule codes or family prefixes, e.g. RPL104 or "
            "RPL7 (repeatable, comma-separable)"
        ),
    )
    lint.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="CODE[,CODE]",
        help=(
            "skip these rule codes or family prefixes (repeatable, "
            "comma-separable)"
        ),
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    lint.set_defaults(fn=_cmd_lint)

    return parser


def run_piped(entry: Callable[[], int | None]) -> int:
    """Run *entry* and return its exit code (``None`` counts as 0).

    When the reader closes stdout early (``repro sweep ... | head``), what
    is still buffered goes to devnull, so the exit-time flush cannot fail
    again, and the run stops quietly with 0.  The examples exit through it
    too.
    """
    try:
        code = entry()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    return code or 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return run_piped(lambda: args.fn(args))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
