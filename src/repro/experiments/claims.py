"""The paper's results as data: one ordered registry of every reproduced claim.

Each :class:`Claim` names the cells it runs and the reducer that turns them
into the :class:`~repro.experiments.report.ExperimentReport` it prints:

* the §5.3 figures (Figs. 2–10) and the ablations are the ``paper-5.3``
  preset plus changes, one cell per compared variant;
* Fig. 1 and Eqs. 2–3 run pi batches on the calibration base (one pinned
  P-state, run to completion — :func:`.presets._calib_config`);
* Eq. 1 and Table 1 replay the §5.2 load measurement
  (:mod:`repro.platforms.calibration`) — a cell there is a zero-argument
  measurement rather than a config.

A claim with ``metrics`` reduces through :func:`~repro.sweep.run_sweep`, so
its cells fan out over ``workers`` and persist in a ``store``; the others
keep each cell's full outcome (series for the charts).  Within one
:func:`run_claims` call a config is simulated once however many claims
name it, so Figs. 4/5, 6/7 and 9/10 (and Fig. 1's maximum-frequency pi
runs, which are Eq. 3's ladder) share their runs.

Every cell builder takes keyword overrides: config fields for the §5.3
claims and the ablations (``duration``, ``seed``, ``processor``, ...), and
the measurement's own knobs for the §5.2 claims (``credits``, ``work``,
``demands``, ...) — how the unit suite runs each claim on a compressed
scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Mapping

from ..cluster import ClusterScenarioConfig
from ..core import laws
from ..cpu import catalog
from ..cpu.processor import ProcessorSpec
from ..errors import ConfigurationError, TelemetryError, WorkloadError
from ..platforms.calibration import calibrate_cf_min, measure_load
from ..platforms.virt_platforms import build_row, PLATFORMS, platform_config, Table2Row
from ..sweep import run_sweep, SweepGrid
from ..sweep.metrics import fleet_metrics
from ..sweep.runner import execute_config
from ..telemetry import render_chart
from .presets import _calib_config, _pi_guest, preset_config
from .report import ExperimentReport
from .scenario import analysis_windows, ScenarioResult


@dataclass(frozen=True)
class Claim:
    """One reproduced result: the cells it runs and how they reduce."""

    name: str
    #: What the result shows, quoting the paper where it speaks.
    about: str
    #: ``(**overrides) -> {label: cell}``; a cell is a config or a
    #: zero-argument measurement.
    cells: Callable[..., Mapping[Any, Any]]
    #: The cells' outcome -> the report: ``{label: raw outcome}``, or the
    #: :class:`~repro.sweep.SweepResults` when ``metrics`` is set.
    reduce: Callable[[Any], ExperimentReport]
    #: Metric sets the cells reduce to; non-empty means the cells run as a
    #: sweep (``workers``-parallel, ``store``-cacheable).
    metrics: tuple[str, ...] = ()


def _grid(base, variants: Mapping[str, Mapping] | None = None, **changes):
    """Cells: *base* (a preset name or config) with *changes*, the caller's
    overrides, then each variant's own changes (one ``run`` cell if none)."""

    def cells(**overrides) -> dict[str, Any]:
        config = preset_config(base) if isinstance(base, str) else base
        config = config.with_changes(**changes).with_changes(**overrides)
        return {
            label: config.with_changes(**variant)
            for label, variant in (variants or {"run": {}}).items()
        }

    return cells


def _within(value: float, target: float, tolerance: float) -> bool:
    return abs(value - target) <= tolerance


# --------------------------------------------------------- Figs. 2-10 (§5.3)

_PHASES = ("solo", "both", "late")


class _Plateaus:
    """The plateau values one §5.3 figure reads off its run."""

    def __init__(self, runs: Mapping[str, ScenarioResult]) -> None:
        self.runs = runs
        self.result = runs["run"]
        self.phases = dict(zip(_PHASES, analysis_windows(self.result.config)))
        self.max_mhz = self.result.host.processor.max_frequency_mhz

    def load(self, guest: str, phase: str, kind: str = "global") -> float:
        return self.result.phase_mean(f"{guest}.{kind}_load", self.phases[phase])

    def mhz(self, phase: str) -> float:
        return self.result.phase_mean("host.freq_mhz", self.phases[phase], smooth=False)

    @property
    def min_mhz(self) -> float:
        return self.result.series("host.freq_mhz", smooth=False).min()

    @property
    def transitions(self) -> int:
        return self.result.frequency_transitions


def _load(guest: str, phase: str, kind: str = "global"):
    """Row value: the guest's mean load over *phase*, to 2 decimals."""
    return lambda p: round(p.load(guest, phase, kind), 2)


def _mhz(phase: str):
    """Row value: the mean frequency over *phase*, in whole MHz."""
    return lambda p: int(p.mhz(phase))


def _near(guest: str, phases, target: float, tolerance: float, kind: str = "global"):
    """Check: the guest's load is within *tolerance* of *target* in every phase."""
    return lambda p: all(_within(p.load(guest, ph, kind), target, tolerance) for ph in phases)


def _figure(number: int, title: str, kind: str, chart_title: str, rows, checks):
    """A §5.3 figure as data: its chart, its rows and its shape checks.

    *kind* picks the plotted loads (``global`` or ``absolute``); each row is
    ``(metric, paper value, measured(plateaus))`` and each check
    ``(description, holds(plateaus))``.
    """

    def reduce(runs: Mapping[str, ScenarioResult]) -> ExperimentReport:
        p = _Plateaus(runs)
        freq_percent = p.result.series("host.freq_mhz").map(lambda mhz: 100.0 * mhz / p.max_mhz)
        report = ExperimentReport(
            experiment=f"Figure {number}",
            title=title,
            chart=render_chart(
                [p.result.series(f"V20.{kind}_load"), p.result.series(f"V70.{kind}_load"), freq_percent],
                title=chart_title,
                y_max=100.0,
                labels=[f"V20 {kind} load %", f"V70 {kind} load %", "frequency (% of max)"],
            ),
        )
        for metric, paper, measured in rows:
            report.add_row(metric, paper, measured(p))
        for description, holds in checks:
            report.check(description, holds(p))
        return report

    return reduce


_FIG2 = _figure(
    2,
    "load profile at the maximum frequency (credit scheduler)",
    "global",
    "V20/V70 global loads, performance governor",
    rows=(
        ("V20 global load (solo)", 20.0, _load("V20", "solo")),
        ("V20 global load (both)", 20.0, _load("V20", "both")),
        ("V70 global load (both)", 70.0, _load("V70", "both")),
        ("frequency (whole run)", 2667, lambda p: int(p.min_mhz)),
    ),
    checks=(
        ("V20 holds its 20% credit in both phases", _near("V20", ("solo", "both"), 20, 1.5)),
        ("V70 holds its 70% credit when active", _near("V70", ("both",), 70, 2.0)),
        ("frequency pinned at the maximum", lambda p: p.min_mhz == p.max_mhz),
    ),
)

_FIG3 = _figure(
    3,
    "global loads with the stock Ondemand governor (aggressive, unstable)",
    "global",
    "V20/V70 global loads, stock ondemand governor",
    rows=(
        (
            "governor behaviour",
            "aggressive and unstable",
            lambda p: f"{p.transitions} DVFS transitions",
        ),
        (
            "(Fig. 4 comparison)",
            "stable",
            lambda p: f"{p.runs['stable'].frequency_transitions} DVFS transitions",
        ),
        ("V20 global load (both)", 20.0, _load("V20", "both")),
    ),
    checks=(
        (
            "ondemand makes at least 50x more transitions than the stable governor",
            lambda p: p.transitions >= 50 * max(p.runs["stable"].frequency_transitions, 1),
        ),
        ("credit cap still enforced under oscillation", lambda p: p.load("V20", "both") <= 21.5),
    ),
)

_FIG4 = _figure(
    4,
    "global loads with the authors' governor (credit scheduler, exact load)",
    "global",
    "V20/V70 global loads, stable governor",
    rows=(
        ("V20 global load (solo)", 20.0, _load("V20", "solo")),
        ("V70 global load (both)", 70.0, _load("V70", "both")),
        ("frequency (solo)", 1600, _mhz("solo")),
        ("frequency (both)", 2667, _mhz("both")),
        ("DVFS transitions", "few (stable)", lambda p: p.transitions),
    ),
    checks=(
        ("V20 nominal load capped at its 20% credit", _near("V20", ("solo", "both"), 20, 1.5)),
        ("governor clocks down while the host is underloaded", lambda p: p.mhz("solo") == 1600),
        ("governor reaches the maximum under combined load", lambda p: p.mhz("both") == 2667),
        ("stable: fewer than 20 transitions over the run", lambda p: p.transitions < 20),
    ),
)

_FIG5 = _figure(
    5,
    "absolute loads with the credit scheduler: V20 loses capacity when solo",
    "absolute",
    "V20/V70 absolute loads, credit + stable governor",
    rows=(
        ("V20 absolute load (solo)", "~10 (penalized)", _load("V20", "solo", "absolute")),
        ("V20 absolute load (both)", 20.0, _load("V20", "both", "absolute")),
        ("V20 absolute load (solo, late)", "~10 (penalized)", _load("V20", "late", "absolute")),
    ),
    checks=(
        (
            "V20's absolute load collapses well below its 20% SLA while solo",
            lambda p: p.load("V20", "solo", "absolute") < 15.0
            and p.load("V20", "late", "absolute") < 15.0,
        ),
        (
            "V20 only gets its booked 20% when the host load forces max frequency",
            _near("V20", ("both",), 20, 1.5, "absolute"),
        ),
    ),
)

_FIG6 = _figure(
    6,
    "global loads with SEDF (exact load): extra slices raise V20's share",
    "global",
    "V20/V70 global loads, SEDF + stable governor",
    rows=(
        ("V20 global load (solo)", "~35 (extra slices)", _load("V20", "solo")),
        ("V20 global load (both)", 20.0, _load("V20", "both")),
        ("frequency (solo)", 1600, _mhz("solo")),
    ),
    checks=(
        (
            "V20 receives extra slices beyond its credit while solo",
            lambda p: 30.0 <= p.load("V20", "solo") <= 40.0,
        ),
        ("credits respected again once V70 is active", _near("V20", ("both",), 20, 2.0)),
        ("frequency stays low while solo (demand fits)", lambda p: p.mhz("solo") == 1600),
    ),
)

_FIG7 = _figure(
    7,
    "absolute loads with SEDF (exact load): V20 keeps 20% throughout",
    "absolute",
    "V20/V70 absolute loads, SEDF + stable governor",
    rows=(
        ("V20 absolute load (solo)", 20.0, _load("V20", "solo", "absolute")),
        ("V20 absolute load (both)", 20.0, _load("V20", "both", "absolute")),
        ("V20 absolute load (solo, late)", 20.0, _load("V20", "late", "absolute")),
    ),
    checks=(
        (
            "V20's absolute load holds at ~20% during the entire experiment",
            _near("V20", _PHASES, 20, 2.0, "absolute"),
        ),
    ),
)

_FIG8 = _figure(
    8,
    "SEDF under thrashing load: V20 consumes far beyond its credit",
    "global",
    "V20/V70 global loads, SEDF, thrashing V20",
    rows=(
        ("V20 global load (solo)", "~85 (paper)", _load("V20", "solo")),
        ("V20 global load (both)", "~20", _load("V20", "both")),
        ("frequency (solo)", 2667, _mhz("solo")),
    ),
    checks=(
        (
            "V20 consumes several times its 20% credit while solo",
            lambda p: p.load("V20", "solo") >= 80.0,
        ),
        (
            "the frequency is pinned at the maximum (no energy saving possible)",
            lambda p: p.mhz("solo") == p.max_mhz,
        ),
        (
            "V70's guaranteed credit still respected when active",
            lambda p: p.load("V70", "both") >= 67.0,
        ),
    ),
)

_FIG9 = _figure(
    9,
    "global loads with the PAS scheduler (thrashing V20)",
    "global",
    "V20/V70 global loads, PAS scheduler",
    rows=(
        ("V20 global load (solo)", "33 (compensated credit)", _load("V20", "solo")),
        ("V20 global load (both)", 20.0, _load("V20", "both")),
        ("frequency (solo)", 1600, _mhz("solo")),
        ("frequency (both)", 2667, _mhz("both")),
    ),
    checks=(
        ("PAS grants V20 ~33% nominal credit at 1600 MHz", _near("V20", ("solo",), 33.3, 1.5)),
        (
            "V20 back to 20% when the frequency reaches the maximum",
            _near("V20", ("both",), 20, 1.5),
        ),
        ("frequency stays low while the host is underloaded", lambda p: p.mhz("solo") == 1600),
        ("frequency reaches the maximum under combined load", lambda p: p.mhz("both") == 2667),
    ),
)

_FIG10 = _figure(
    10,
    "absolute loads with the PAS scheduler: SLA held at every frequency",
    "absolute",
    "V20/V70 absolute loads, PAS scheduler",
    rows=(
        ("V20 absolute load (solo)", 20.0, _load("V20", "solo", "absolute")),
        ("V20 absolute load (both)", 20.0, _load("V20", "both", "absolute")),
        ("V20 absolute load (solo, late)", 20.0, _load("V20", "late", "absolute")),
        ("V70 absolute load (both)", 70.0, _load("V70", "both", "absolute")),
    ),
    checks=(
        (
            "V20's absolute load is ~20% through all three phases",
            _near("V20", _PHASES, 20, 1.5, "absolute"),
        ),
        ("V70 receives its booked 70% when active", _near("V70", ("both",), 70, 2.5, "absolute")),
        (
            "V20 never exceeds its booked absolute capacity (enables DVFS saving)",
            lambda p: p.result.series("V20.absolute_load").max() <= 23.0,
        ),
    ),
)


# ------------------------------------------------- Fig. 1 and Eqs. 1-3 (§5.2)


def _pi_cell(processor: ProcessorSpec, freq_mhz: int, cap: float, work: float):
    """One capped pi batch pinned at *freq_mhz*, run to completion."""
    return _calib_config(
        processor=processor, guests=_pi_guest(cap, work=work), cpufreq_max_mhz=freq_mhz
    )


def _pi_time(result: ScenarioResult) -> float:
    """The pi batch's execution time (raises if it never finished)."""
    (app,) = result.host.domain("pi").workloads
    return app.execution_time


def _pi_cap(result: ScenarioResult) -> float:
    return result.config.guests[0].cap


def _compensation_cells(
    *,
    processor: ProcessorSpec = catalog.OPTIPLEX_755,
    reduced_freq_mhz: int = 2133,
    credits: Iterable[float] = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100),
    work: float = 30.0,
) -> dict[tuple[float, str], Any]:
    table = processor.table()
    top = table.max_state.freq_mhz
    reduced = table.state_for(reduced_freq_mhz)
    ratio = reduced.freq_mhz / top
    cells = {}
    for credit in credits:
        compensated = laws.compensated_credit(credit, ratio, reduced.cf)
        cells[(credit, "max")] = _pi_cell(processor, top, credit, work)
        cells[(credit, "reduced")] = _pi_cell(processor, reduced.freq_mhz, compensated, work)
    return cells


def _compensation(runs: Mapping[tuple[float, str], ScenarioResult]) -> ExperimentReport:
    credits = list(dict.fromkeys(credit for credit, _ in runs))
    first_max, first_reduced = runs[(credits[0], "max")], runs[(credits[0], "reduced")]
    report = ExperimentReport(
        experiment="Figure 1",
        title=(
            "compensation of frequency reduction "
            f"({first_max.config.cpufreq_max_mhz} -> {first_reduced.config.cpufreq_max_mhz} MHz)"
        ),
    )
    for credit in credits:
        time_max = _pi_time(runs[(credit, "max")])
        reduced = runs[(credit, "reduced")]
        compensated = _pi_cap(reduced)
        time_reduced = _pi_time(reduced)
        gap = 100.0 * abs(time_reduced - time_max) / time_max
        # The compensated credit saturates once it needs more than the
        # whole processor: beyond that the gap is expected (the figure's
        # top-axis credits 113 and 125).
        compensable = compensated <= 100.0 + 1e-6
        report.add_row(
            f"credit {credit:.0f}% -> {compensated:.1f}%",
            "T identical (Eq. 4)" if compensable else "saturated (credit > 100)",
            f"Tmax={time_max:.1f}s Tnew={time_reduced:.1f}s (gap {gap:.1f}%)",
        )
        if compensable:
            report.check(f"credit {credit:.0f}%: compensated time within 5%", gap < 5.0)
        else:
            # Only `min(credit, 100)` can be delivered, so the run at the
            # reduced frequency must be `credit/100` times slower.
            expected = compensated / 100.0
            measured = time_reduced / time_max
            report.check(
                f"credit {credit:.0f}%: saturation slows by ~{expected:.2f}x",
                abs(measured - expected) / expected < 0.05,
            )
    return report


def _frequency_load_cells(
    *,
    processor: ProcessorSpec = catalog.OPTIPLEX_755,
    demands: Iterable[float] = (5.0, 10.0, 15.0, 20.0),
    settle: float = 5.0,
    window: float = 30.0,
) -> dict[tuple[float, Any], Any]:
    return {
        (demand, state): partial(
            measure_load, processor, state.freq_mhz, demand, settle=settle, window=window
        )
        for demand in demands
        for state in processor.table()
    }


def _frequency_load(loads: Mapping[tuple[float, Any], float]) -> ExperimentReport:
    top = max((state for _, state in loads), key=lambda state: state.freq_mhz)
    cfs: dict[Any, list[float]] = {}
    for (demand, state), load in loads.items():
        load_max = loads[(demand, top)]
        ratio = state.freq_mhz / top.freq_mhz
        # Eq. 1: L_max / L_i = ratio * cf  =>  cf = L_max / (L_i * ratio).
        cfs.setdefault(state, []).append(load_max / (load * ratio) if load > 0 else math.nan)
    report = ExperimentReport(
        experiment="Validation (Eq. 1)",
        title="proportionality of frequency and load; cf constant across workloads",
    )
    for state, measured in cfs.items():
        spread = max(measured) - min(measured)
        mean = sum(measured) / len(measured)
        report.add_row(
            f"cf @ {state.freq_mhz} MHz", f"{state.cf:.5f}", f"{mean:.5f} (spread {spread:.5f})"
        )
        report.check(
            f"cf at {state.freq_mhz} MHz constant across {len(measured)} workloads (spread < 0.02)",
            spread < 0.02,
        )
        report.check(
            f"cf at {state.freq_mhz} MHz within 2% of the substrate value",
            abs(mean - state.cf) / state.cf < 0.02,
        )
    return report


def _frequency_time_cells(
    *,
    processor: ProcessorSpec = catalog.OPTIPLEX_755,
    work: float = 30.0,
    credit: float = 50.0,
) -> dict[int, Any]:
    return {
        state.freq_mhz: _pi_cell(processor, state.freq_mhz, credit, work)
        for state in processor.table()
    }


def _frequency_time(runs: Mapping[int, ScenarioResult]) -> ExperimentReport:
    table = next(iter(runs.values())).config.processor.table()
    top = table.max_state.freq_mhz
    time_max = _pi_time(runs[top])
    report = ExperimentReport(
        experiment="Validation (Eq. 2)",
        title="proportionality of frequency and execution time (pi-app)",
    )
    for state in table:
        time_i = _pi_time(runs[state.freq_mhz])
        expected = time_max / (state.freq_mhz / top * state.cf)
        report.add_row(f"T @ {state.freq_mhz} MHz", f"{expected:.1f}s (Eq. 2)", f"{time_i:.1f}s")
        report.check(
            f"T({state.freq_mhz}) within 3% of Eq. 2 prediction",
            abs(time_i - expected) / expected < 0.03,
        )
    return report


def _credit_time_cells(
    *,
    processor: ProcessorSpec = catalog.OPTIPLEX_755,
    work: float = 30.0,
    credits: Iterable[float] = (10.0, 20.0, 30.0, 50.0, 70.0, 100.0),
) -> dict[float, Any]:
    top = processor.table().max_state.freq_mhz
    return {credit: _pi_cell(processor, top, credit, work) for credit in credits}


def _credit_time(runs: Mapping[float, ScenarioResult]) -> ExperimentReport:
    report = ExperimentReport(
        experiment="Validation (Eq. 3)",
        title="proportionality of credit and execution time (pi-app, max frequency)",
    )
    baseline = next(iter(runs))
    time_baseline = _pi_time(runs[baseline])
    for credit, result in runs.items():
        measured = _pi_time(result)
        # Eq. 3: T_init / T_j = C_j / C_init.
        expected = time_baseline * baseline / credit
        report.add_row(f"T @ credit {credit:.0f}%", f"{expected:.1f}s (Eq. 3)", f"{measured:.1f}s")
        report.check(
            f"T(credit {credit:.0f}) within 3% of Eq. 3 prediction",
            abs(measured - expected) / expected < 0.03,
        )
    return report


# ------------------------------------------------------ Tables 1-2 (§5.8)

#: Table 1's published cf_min values, by the paper's column headers.
PAPER_TABLE1: dict[str, float] = {
    "Intel Xeon X3440": 0.94867,
    "Intel Xeon L5420": 0.99903,
    "Intel Xeon E5-2620": 0.80338,
    "AMD Opteron 6164 HE": 0.99508,
    "Intel Core i7-3770": 0.86206,
}


def _table1_cells() -> dict[str, Any]:
    return {
        name: partial(calibrate_cf_min, catalog.TABLE1_PROCESSORS[name]) for name in PAPER_TABLE1
    }


def _table1(results: Mapping[str, Any]) -> ExperimentReport:
    report = ExperimentReport(
        experiment="Table 1",
        title="cf_min on different processors (§5.8, Grid'5000 machines)",
    )
    for name, result in results.items():
        paper_cf = PAPER_TABLE1[name]
        report.add_row(f"cf_min {name}", f"{paper_cf:.5f}", f"{result.cf_measured:.5f}")
        report.check(
            f"{name}: measured cf_min within 1% of the paper's value",
            abs(result.cf_measured - paper_cf) / paper_cf < 0.01,
        )
    ordered = sorted(results.values(), key=lambda r: r.cf_measured)
    report.check(
        "E5-2620 is the strongly non-proportional outlier (smallest cf)",
        ordered[0].processor == "Intel Xeon E5-2620",
    )
    return report


_MODES = ("performance", "ondemand")


def _table2_cells(*, quick: bool = False) -> dict[str, Any]:
    """Every platform x governor mode; *quick* keeps one platform per
    discipline plus PAS."""
    platforms = PLATFORMS
    if quick:
        platforms = tuple(p for p in PLATFORMS if p.name in ("Hyper-V", "Xen/PAS", "Xen/SEDF"))
    return {
        f"{platform.name}/{mode}": platform_config(platform, mode)
        for platform in platforms
        for mode in _MODES
    }


def table2_rows(results) -> list[Table2Row]:
    """Table 2's platform rows from the claim's sweep results."""
    labels = set(results.labels)
    return [
        build_row(
            platform,
            {mode: results.metric(f"{platform.name}/{mode}", "v20_batch_time_s") for mode in _MODES},
        )
        for platform in PLATFORMS
        if f"{platform.name}/performance" in labels
    ]


def _table2(results) -> ExperimentReport:
    report = ExperimentReport(
        experiment="Table 2",
        title="execution times on different virtualization platforms (§5.8)",
    )
    rows = table2_rows(results)
    for row in rows:
        report.add_row(
            f"{row.platform} (performance)",
            f"{row.paper_performance:.0f}s",
            f"{row.time_performance:.0f}s",
        )
        report.add_row(
            f"{row.platform} (ondemand)", f"{row.paper_ondemand:.0f}s", f"{row.time_ondemand:.0f}s"
        )
        report.add_row(
            f"{row.platform} degradation",
            f"{row.paper_degradation:.0f}%",
            f"{row.degradation:.0f}%",
        )
    by_name = {row.platform: row for row in rows}
    fix_rows = [row for row in rows if row.discipline == "fix" and row.platform != "Xen/PAS"]
    var_rows = [row for row in rows if row.discipline == "variable"]
    report.check(
        "every fix-credit platform (except PAS) degrades by more than 15% under ondemand",
        all(row.degradation > 15.0 for row in fix_rows),
    )
    if "Xen/PAS" in by_name:
        report.check(
            "PAS cancels the degradation (< 2%)", abs(by_name["Xen/PAS"].degradation) < 2.0
        )
    report.check(
        "variable-credit platforms do not degrade (< 2%)",
        all(abs(row.degradation) < 2.0 for row in var_rows),
    )
    if var_rows and fix_rows:
        speedup = min(row.time_performance for row in fix_rows) / max(
            row.time_performance for row in var_rows
        )
        report.add_row("variable vs fix speedup (performance governor)", "~2.5x", f"{speedup:.2f}x")
        report.check(
            "variable-credit platforms run ~2-3x faster under the performance governor",
            1.8 <= speedup <= 3.2,
        )
    if {"Hyper-V", "VMware", "Xen/credit"} <= set(by_name):
        report.check(
            "degradation ordering matches the paper: Hyper-V > Xen/credit > VMware",
            by_name["Hyper-V"].degradation
            > by_name["Xen/credit"].degradation
            > by_name["VMware"].degradation,
        )
    return report


# ------------------------------------------------------------- ablations


def _energy(results) -> ExperimentReport:
    report = ExperimentReport(
        experiment="Ablation A (energy)",
        title="energy vs SLA on the thrashing profile: PAS saves energy AND holds the SLA",
    )
    energies: dict[str, float] = {}
    slas: dict[str, float] = {}
    for label in results.labels:
        energies[label] = results.metric(label, "energy_joules")
        slas[label] = results.metric(label, "v20_absolute_solo_early")
        report.add_row(
            label,
            "energy J / V20 absolute % (solo)",
            f"{energies[label]:.0f} J / {slas[label]:.1f}%",
        )
    report.check(
        "PAS uses less energy than SEDF under thrashing (frequency can drop)",
        energies["pas"] < energies["sedf + stable"] * 0.9,
    )
    report.check(
        "PAS uses less energy than the performance governor",
        energies["pas"] < energies["credit + performance"] * 0.9,
    )
    report.check("PAS holds V20's 20% SLA while solo", abs(slas["pas"] - 20.0) <= 1.5)
    report.check(
        "credit + stable saves energy but breaks the SLA (the paper's problem)",
        energies["credit + stable"] < energies["credit + performance"]
        and slas["credit + stable"] < 15.0,
    )
    report.check(
        "SEDF holds throughput while solo but cannot save energy",
        slas["sedf + stable"] > 20.0 and energies["sedf + stable"] > energies["pas"],
    )
    return report


def _designs(results) -> ExperimentReport:
    report = ExperimentReport(
        experiment="Ablation B (§4.1 designs)",
        title="in-scheduler PAS vs the two user-level manager designs",
    )
    mean_error: dict[str, float] = {}
    for design in results.labels:
        mean_error[design] = results.metric(design, "v20_sla_mean_error")
        max_error = results.metric(design, "v20_sla_max_error")
        report.add_row(
            design, "mean / max SLA error (pp)", f"{mean_error[design]:.2f} / {max_error:.2f}"
        )
    report.check(
        "every design keeps the mean SLA error under 3pp",
        all(error < 3.0 for error in mean_error.values()),
    )
    report.check(
        "the in-scheduler design ties or beats both user-level designs (paper's choice)",
        mean_error["in-scheduler"] <= min(mean_error.values()) + 0.1,
    )
    report.check(
        "chasing the stock ondemand governor from user level tracks worst",
        mean_error["user-credit"] >= max(mean_error.values()) - 1e-9,
    )
    return report


def _cf(runs: Mapping[str, ScenarioResult]) -> ExperimentReport:
    report = ExperimentReport(
        experiment="Ablation C (cf-awareness)",
        title="ignoring Table 1's correction factor under-compensates on low-cf machines",
    )
    with_cf, without_cf = runs["with cf"], runs["without cf"]
    solo, _, _ = analysis_windows(with_cf.config)
    sla_with = with_cf.phase_mean("V20.absolute_load", solo)
    sla_without = without_cf.phase_mean("V20.absolute_load", solo)
    report.add_row("V20 absolute load, PAS with cf", 20.0, round(sla_with, 2))
    report.add_row(
        "V20 absolute load, PAS without cf", "< 20 (under-compensated)", round(sla_without, 2)
    )
    report.add_row(
        "frequency while solo (with cf)",
        "low",
        int(with_cf.phase_mean("host.freq_mhz", solo, smooth=False)),
    )
    report.add_row(
        "frequency while solo (without cf)",
        "low",
        int(without_cf.phase_mean("host.freq_mhz", solo, smooth=False)),
    )
    report.check("cf-aware PAS holds the 20% SLA on the E5-2620", abs(sla_with - 20.0) <= 1.5)
    report.check("cf-blind PAS under-delivers V20's booked capacity", sla_without < sla_with - 1.0)
    return report


def _qos(results) -> ExperimentReport:
    report = ExperimentReport(
        experiment="Ablation D (QoS)",
        title="client-visible response times behind the same 20% SLA (90% loaded)",
    )
    stats: dict[str, tuple[float, float, float]] = {}
    for label in results.labels:
        p50 = results.metric(label, "v20_latency_p50_s")
        p99 = results.metric(label, "v20_latency_p99_s")
        drops = results.metric(label, "v20_drop_percent")
        if p50 is None or p99 is None:
            raise WorkloadError(
                f"cell {label!r}: V20 completed no requests — timeline too "
                "short to measure response times"
            )
        stats[label] = (p50, p99, drops)
        report.add_row(
            label, "p50 / p99 response (s), drops %", f"{p50:7.3f} / {p99:7.3f}, {drops:4.1f}%"
        )
    report.check(
        "credit + DVFS governor pushes p50 response beyond 5 seconds",
        stats["credit + stable"][0] > 5.0,
    )
    report.check(
        "credit + DVFS governor drops a substantial share of V20's requests",
        stats["credit + stable"][2] > 10.0,
    )
    report.check(
        "PAS keeps p50 response at injection granularity (< 0.2s)", stats["pas"][0] < 0.2
    )
    report.check(
        "PAS p99 stays within the ladder transient (< 3s, vs ~17s for credit+stable)",
        stats["pas"][1] < 3.0,
    )
    report.check("PAS drops (almost) nothing", stats["pas"][2] < 2.0)
    report.check(
        "PAS matches the performance governor's QoS (p50 within 0.5s)",
        abs(stats["pas"][0] - stats["credit + performance"][0]) < 0.5,
    )
    report.check(
        "SEDF also rescues QoS under non-thrashing load (the Fig. 6-7 result)",
        stats["sedf + stable"][1] < 1.0,
    )
    return report


def _consolidation(sims: Mapping[str, Any]) -> ExperimentReport:
    report = ExperimentReport(
        experiment="Ablation E (consolidation)",
        title="memory-bound consolidation leaves CPU idle - DVFS is complementary (§2.3)",
    )
    energy: dict[str, float] = {}
    for label, sim in sims.items():
        metrics = fleet_metrics(sim)
        energy[label] = metrics["fleet_energy_joules"]
        report.add_row(
            label,
            "energy kJ / machines on / SLA",
            f"{metrics['fleet_energy_joules'] / 1000:8.1f} / {metrics['mean_machines_on']:4.1f} "
            f"/ {metrics['mean_sla_fraction'] * 100:5.1f}%",
        )
    packed_hosts = [m for m in sims["consolidation + DVFS"].machines if m.vms]
    cpu_loads = [sum(vm.demand_at(0.0) for vm in m.vms) for m in packed_hosts]
    report.add_row(
        "packed-host CPU demand (t=0)",
        "well under 100% (memory-bound)",
        " / ".join(f"{load:.0f}%" for load in cpu_loads),
    )
    report.check(
        "consolidation alone saves energy vs spread",
        energy["consolidation, no DVFS"] < energy["spread, no DVFS"] * 0.8,
    )
    report.check(
        "DVFS still saves >= 10% on top of consolidation (the §2.3 claim)",
        energy["consolidation + DVFS"] < energy["consolidation, no DVFS"] * 0.9,
    )
    report.check(
        "combining both is the cheapest strategy",
        energy["consolidation + DVFS"] == min(energy.values()),
    )
    report.check(
        "memory binds before CPU: packed hosts stay below 80% CPU demand",
        all(load < 80.0 for load in cpu_loads),
    )
    report.check(
        "every strategy delivers the full SLA",
        all(sim.mean_sla_fraction > 0.999 for sim in sims.values()),
    )
    return report


#: PAS (sample period s, averaging window) pairs; (1.0, 3) is the paper's.
_SENSITIVITY = ((0.5, 1), (0.5, 3), (1.0, 1), (1.0, 3), (1.0, 5), (2.0, 3))


def _sensitivity(results) -> ExperimentReport:
    report = ExperimentReport(
        experiment="Ablation F (PAS sensitivity)",
        title="sample period x averaging window: reactivity vs stability vs accuracy",
    )
    measured: dict[tuple[float, int], tuple[float, int, float]] = {}
    for sample_period, window in _SENSITIVITY:
        label = f"{sample_period}x{window}"
        reaction = results.metric(label, "freq_reaction_s")
        reaction = float("inf") if reaction is None else reaction
        transitions = results.metric(label, "dvfs_transitions")
        errors = []
        for phase in ("solo_early", "both", "solo_late"):
            value = results.metric(label, f"v20_absolute_{phase}")
            if value is None:
                raise TelemetryError(
                    f"cell {label!r} has no samples for 'v20_absolute_{phase}' — is the "
                    "timeline too short for the analysis windows?"
                )
            errors.append(abs(value - 20.0))
        measured[(sample_period, window)] = (reaction, transitions, max(errors))
        marker = "  <- paper" if (sample_period, window) == (1.0, 3) else ""
        report.add_row(
            f"period {sample_period}s x window {window}{marker}",
            "reaction s / transitions / SLA err pp",
            f"{reaction:6.1f} / {transitions:3d} / {max(errors):.2f}",
        )
    paper, fastest, slowest = measured[(1.0, 3)], measured[(0.5, 1)], measured[(2.0, 3)]
    report.check(
        "every configuration holds the steady-state SLA within 2pp",
        all(sla < 2.0 for _, _, sla in measured.values()),
    )
    report.check(
        "shorter period + smaller window reacts fastest",
        fastest[0] <= min(r[0] for r in measured.values()) + 1e-9,
    )
    report.check(
        "longer averaging reacts slower (2.0s x 3 vs 0.5s x 1)", slowest[0] > fastest[0]
    )
    report.check(
        "the paper's 1s x 3 reaches max frequency within 20s of activation", paper[0] < 20.0
    )
    report.check(
        "no configuration is transition-unstable (< 50 transitions per run)",
        all(transitions < 50 for _, transitions, _ in measured.values()),
    )
    return report


# -------------------------------------------------------------- registry

_CREDIT_STABLE = dict(scheduler="credit", governor="stable")
_SEDF_STABLE = dict(scheduler="sedf", governor="stable")
_PAS_THRASHING = dict(scheduler="pas", v20_load="thrashing")

_CLAIMS = (
    Claim(
        "fig1",
        "Fig. 1: compensation of a frequency reduction with a credit allocation. "
        "pi-app at 2667 MHz with credits 10..100, then at 2133 MHz with the Eq. 4 "
        "credits (the figure's top axis: 13 25 38 50 63 75 88 100 113 125).  The two "
        "execution-time curves coincide until the compensated credit saturates at 100%.",
        _compensation_cells,
        _compensation,
    ),
    Claim(
        "fig2",
        "Fig. 2: the execution profile at the maximum frequency.  Credit scheduler + "
        "performance governor, exact loads: V20 plateaus at 20% and V70 at 70% global "
        "load with the frequency pinned at 2667 MHz.",
        _grid("paper-5.3", scheduler="credit", governor="performance"),
        _FIG2,
    ),
    Claim(
        "fig3",
        "Fig. 3: the stock Ondemand governor is aggressive and unstable.  Credit "
        "scheduler + stock ondemand, exact loads: the frequency oscillates wildly, "
        "orders of magnitude more DVFS transitions than the stabilised governor of Fig. 4.",
        _grid(
            "paper-5.3",
            {"run": {}, "stable": {"governor": "stable"}},
            scheduler="credit",
            governor="ondemand",
        ),
        _FIG3,
    ),
    Claim(
        "fig4",
        "Fig. 4: the authors' stabilised governor (credit scheduler, exact load).  "
        "1600 MHz while only V20 is active, 2667 MHz when V70 joins, and a handful of "
        "DVFS transitions overall.",
        _grid("paper-5.3", **_CREDIT_STABLE),
        _FIG4,
    ),
    Claim(
        "fig5",
        "Fig. 5: absolute loads expose the credit scheduler's SLA violation.  While V20 "
        "is alone its absolute load sits near 10-12%, far below the 20% the customer "
        "bought, because the fix-credit scheduler caps the nominal share regardless of "
        "the lowered frequency.  Only when V70 forces the maximum frequency does V20 get "
        "its booked 20%.",
        _grid("paper-5.3", **_CREDIT_STABLE),
        _FIG5,
    ),
    Claim(
        "fig6",
        "Fig. 6: SEDF hands V70's unused slices to V20, whose global load rises to ~35% "
        "while solo (its 20% absolute demand needs 33% nominal at 1600 MHz); once V70 "
        "activates, credits are respected and V20 returns to 20%.",
        _grid("paper-5.3", **_SEDF_STABLE),
        _FIG6,
    ),
    Claim(
        "fig7",
        "Fig. 7: the extra slices exactly compensate the lowered frequency: V20's "
        'absolute load holds at 20% through the whole experiment, SEDF "brings a '
        'solution" (§5.5) for exact loads.',
        _grid("paper-5.3", **_SEDF_STABLE),
        _FIG7,
    ),
    Claim(
        "fig8",
        "Fig. 8: SEDF under thrashing load.  Unused-slice redistribution lets a "
        "20%-credit VM consume ~85-95% of the machine, which pins the frequency at the "
        'maximum: "the provider does not benefit from a frequency reduction due to V70 '
        'inactivity" (§5.6).',
        _grid("paper-5.3", v20_load="thrashing", **_SEDF_STABLE),
        _FIG8,
    ),
    Claim(
        "fig9",
        'Fig. 9: PAS under thrashing load.  "The PAS scheduler computes that in the '
        "first phase, V20 should be granted 33% of credit in order to compensate the low "
        "processor frequency (1600 MHz).  In the second phase, V20 is granted 20% of "
        'credit as the processor frequency reaches the maximum value." (§5.7)',
        _grid("paper-5.3", **_PAS_THRASHING),
        _FIG9,
    ),
    Claim(
        "fig10",
        'Fig. 10: PAS absolute loads.  "With this strategy, the absolute loads of each '
        'VM is consistent with credit allocations" (§5.7): V20 receives exactly its '
        "booked 20% in every phase, at whatever frequency PAS selected, and never more, "
        "which is what keeps the frequency (and energy) down.",
        _grid("paper-5.3", **_PAS_THRASHING),
        _FIG10,
    ),
    Claim(
        "table1",
        "Table 1: cf_min on different processors (§5.8).  The §5.2 calibration "
        "procedure on every Grid'5000 machine model recovers the paper's measurements: "
        "X3440 0.94867, L5420 0.99903, E5-2620 0.80338, Opteron 6164 HE 0.99508, "
        "i7-3770 0.86206.",
        _table1_cells,
        _table1,
    ),
    Claim(
        "table2",
        "Table 2: execution times on different virtualization platforms (§5.8).  V20 "
        "(20% credit) runs pi-app while V70 runs the three-phase Web-app on the i7-3770. "
        "Every fix-credit platform (Hyper-V, ESXi, Xen/credit) degrades 20-50% under its "
        "OnDemand-mode governor with the paper's vendor ordering; Xen/PAS cancels the "
        "degradation; the variable-credit platforms (SEDF, KVM, VirtualBox) are ~2-3x "
        "faster and never degrade (but, per Fig. 8, cannot save energy).",
        _table2_cells,
        _table2,
        metrics=("batch",),
    ),
    Claim(
        "eq1",
        'Eq. 1 (§5.2): "We ran different Web-app workloads at the different processor '
        "frequencies ... in order to compute the cf values for each frequency and to "
        'verify that they were constant under various workloads."',
        _frequency_load_cells,
        _frequency_load,
    ),
    Claim(
        "eq2",
        'Eq. 2 (§5.2): "We also ran different pi-app workloads at different processor '
        'frequencies and measured the execution times": time ratios track '
        "1 / (ratio * cf).",
        _frequency_time_cells,
        _frequency_time,
    ),
    Claim(
        "eq3",
        'Eq. 3 (§5.2): "We ran different pi-app workloads on VMs configured with '
        "different credits (with the Xen credit scheduler) ... in order to verify "
        'equation 3": T * credit is constant at the maximum frequency.',
        _credit_time_cells,
        _credit_time,
    ),
    Claim(
        "energy",
        "Ablation A (ours): energy vs SLA across schedulers.  The paper motivates PAS "
        "with energy saving but reports loads and times; integrating the power model "
        "over the thrashing profile makes §3.2 measurable: variable credit \"prevents "
        'frequency scaling, thus wasting energy", the fix-credit scheduler saves energy '
        "but breaks the SLA, and only PAS does both.",
        _grid(
            "paper-5.3",
            {
                "credit + performance": dict(scheduler="credit", governor="performance"),
                "credit + stable": _CREDIT_STABLE,
                "sedf + stable": _SEDF_STABLE,
                "pas": dict(scheduler="pas"),
            },
            v20_load="thrashing",
        ),
        _energy,
        metrics=("loads", "energy"),
    ),
    Claim(
        "designs",
        "Ablation B (ours): the three PAS designs of §4.1, which reports design 3 "
        'because "a user level implementation can be quite intrusive because of system '
        'calls and it may lack reactivity".  In-scheduler PAS vs a user-level manager '
        "chasing the stock ondemand governor (design 1) and one owning both frequency and "
        "credits (design 2), scored by the mean and max deviation of V20's delivered "
        "capacity from its booked 20% over its active window.",
        _grid(
            "paper-5.3",
            {
                "in-scheduler": dict(scheduler="pas"),
                "user-credit": dict(scheduler="credit", governor="ondemand", manager="user-credit"),
                "user-full": dict(scheduler="credit", governor="userspace", manager="user-full"),
            },
            v20_load="thrashing",
        ),
        _designs,
        metrics=("sla",),
    ),
    Claim(
        "cf",
        "Ablation C (ours): cf-awareness on non-proportional machines.  Table 1 exists "
        "because some machines (Xeon E5-2620, cf_min 0.803) are far from "
        "frequency-proportional: PAS without the correction factor under-compensates "
        "credits by ~20%, shrinking the very capacity PAS is supposed to protect.",
        _grid(
            "paper-5.3",
            {"with cf": {}, "without cf": {"scheduler_kwargs": {"use_cf": False}}},
            processor=catalog.XEON_E5_2620,
            **_PAS_THRASHING,
        ),
        _cf,
    ),
    Claim(
        "qos",
        "Ablation D (ours): client-visible response times behind the same SLA.  V20 at "
        "90% of its booked capacity, latency-tracked: under credit + a DVFS governor the "
        "starved VM's bounded queue sits full (multi-second p50, double-digit drop "
        "rates) while PAS, and SEDF under non-thrashing load, serve the same demand at "
        "injection granularity.",
        _grid(
            "paper-5.3",
            {
                "credit + stable": _CREDIT_STABLE,
                "credit + performance": dict(scheduler="credit", governor="performance"),
                "sedf + stable": _SEDF_STABLE,
                "pas": dict(scheduler="pas"),
            },
            v20_load="near_exact",
        ),
        _qos,
        metrics=("qos",),
    ),
    Claim(
        "consolidation",
        'Ablation E (ours): §2.3 says "even if consolidation can reduce the number of '
        "active machines in a hosting center, it cannot optimally guarantee full usage of "
        "CPU on active machines as it is memory bound.  Consequently, DVFS is "
        'complementary to consolidation."  On a memory-bound fleet consolidation packs 3 '
        "VMs per 16 GB host and powers half the fleet off, yet packed hosts still idle "
        "at 50-80% CPU, so per-host DVFS saves a further ~30%.",
        _grid(
            ClusterScenarioConfig(n_machines=8, n_vms=12, duration=600.0, seed=7),
            {
                "spread, no DVFS": dict(policy="spread", dvfs=False),
                "spread + DVFS": dict(policy="spread", dvfs=True),
                "consolidation, no DVFS": dict(policy="consolidate", dvfs=False),
                "consolidation + DVFS": dict(policy="consolidate", dvfs=True),
            },
        ),
        _consolidation,
    ),
    Claim(
        "sensitivity",
        "Ablation F (ours): PAS control-loop sensitivity.  Sweeping the utilisation "
        "sample period and averaging window around the paper's implicit 1 s x 3: "
        "reaction to a load surge scales with period x window while steady-state SLA "
        "accuracy and DVFS stability stay flat; the paper's choice reacts within ~12 s "
        "and is already transition-minimal.",
        _grid(
            "paper-5.3",
            {
                f"{period}x{window}": {
                    "scheduler_kwargs": {"sample_period": period, "window": window}
                }
                for period, window in _SENSITIVITY
            },
            **_PAS_THRASHING,
        ),
        _sensitivity,
        metrics=("loads", "frequency", "reaction"),
    ),
)

#: Every reproduced result, in the paper's order, by CLI name.
CLAIMS: dict[str, Claim] = {claim.name: claim for claim in _CLAIMS}


def _execute(cell: Any) -> Any:
    return cell() if callable(cell) else execute_config(cell)


def run_claims(
    names: Iterable[str] | None = None,
    *,
    params: Mapping[str, Mapping[str, Any]] | None = None,
    workers: int = 1,
    store=None,
    progress=None,
) -> dict[str, tuple[Any, ExperimentReport]]:
    """Run the named claims (all of them by default): ``{name: (outcome, report)}``.

    *params* maps a claim name to the overrides its cells take.  Sweep
    claims fan out over *workers*, read and persist through *store*, and
    report each finished cell to *progress* (see
    :class:`~repro.sweep.SweepRunner`); the other claims' cells run
    serially, and a config named twice in one call is simulated once.
    """
    names = list(CLAIMS) if names is None else list(names)
    unknown = [name for name in names if name not in CLAIMS]
    if unknown:
        raise ConfigurationError(
            f"unknown claim(s) {', '.join(unknown)}; choose from: {', '.join(CLAIMS)}"
        )
    finished: list[tuple[Any, Any]] = []

    def outcome_of(cell: Any) -> Any:
        for done, outcome in finished:
            if done == cell:
                return outcome
        outcome = _execute(cell)
        finished.append((cell, outcome))
        return outcome

    out: dict[str, tuple[Any, ExperimentReport]] = {}
    for name in names:
        claim = CLAIMS[name]
        cells = claim.cells(**(params or {}).get(name, {}))
        if claim.metrics:
            outcome = run_sweep(
                SweepGrid.from_variants(cells),
                metrics=claim.metrics,
                workers=workers,
                store=store,
                progress=progress,
            )
        else:
            outcome = {label: outcome_of(cell) for label, cell in cells.items()}
        out[name] = (outcome, claim.reduce(outcome))
    return out


def run_claim(name: str, **overrides) -> tuple[Any, ExperimentReport]:
    """Run one claim with *overrides* for its cells: ``(outcome, report)``."""
    return run_claims([name], params={name: overrides})[name]
