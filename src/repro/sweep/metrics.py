"""Per-cell metric reducers: a finished run -> a flat dict of values.

Every reducer is a module-level function (picklable by reference, so pool
workers can apply them in-process) taking the cell's outcome — a
:class:`~repro.experiments.scenario.ScenarioResult` for single-host cells,
an :class:`~repro.cluster.orchestrator.Orchestrator` for fleet cells — and
returning JSON-safe ``{name: value}`` pairs: scalars, or lists of them (a
chart's resampled columns, one value per packed host).  Metrics that
cannot be computed (a phase window with no samples on a compressed
timeline, a latency query with no completed requests) come back as
``None`` rather than raising, so one odd cell never sinks a whole sweep.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from ..errors import ConfigurationError, TelemetryError, WorkloadError

#: The three analysis phases of the §5.3 profile, in timeline order.
PHASE_NAMES = ("solo_early", "both", "solo_late")


def _windows(result) -> dict[str, tuple[float, float]]:
    from ..experiments.scenario import analysis_windows

    return dict(zip(PHASE_NAMES, analysis_windows(result.config)))


def _safe_phase_mean(result, series: str, window, *, smooth: bool = True):
    try:
        return result.phase_mean(series, window, smooth=smooth)
    except TelemetryError:
        return None


def load_metrics(result) -> dict:
    """Global/absolute loads of every guest per analysis phase.

    Keys are ``<guest>_<kind>_<phase>`` with the guest name lower-cased —
    ``v20_absolute_solo_early`` on the paper's profile, one set per guest on
    arbitrary fleets.
    """
    out: dict[str, float | None] = {}
    guests = [d.name for d in result.host.domains if not d.is_dom0]
    for phase, window in _windows(result).items():
        for domain in guests:
            for kind in ("global", "absolute"):
                series = f"{domain}.{kind}_load"
                out[f"{domain.lower()}_{kind}_{phase}"] = _safe_phase_mean(
                    result, series, window
                )
    return out


def guest_load_metrics(result) -> dict:
    """Mean global/absolute load of every guest over its *own* trimmed window.

    The per-guest reduction for fleets whose guests follow unrelated
    timelines (diurnal traces, staggered batches), where the three shared
    §5.3 phases are meaningless.
    """
    out: dict[str, float | None] = {}
    for name in result.guest_names:
        try:
            window = result.guest_window(name)
        except ConfigurationError:
            continue
        for kind in ("global", "absolute"):
            out[f"{name.lower()}_{kind}_mean"] = _safe_phase_mean(
                result, f"{name}.{kind}_load", window
            )
    return out


def batch_metrics(result) -> dict:
    """Per-guest batch (pi) makespan: first start to last finish.

    For a single pi workload this is its execution time; for several on one
    domain it is the span covering all of them.  ``None`` while any of the
    domain's batch jobs is unfinished.
    """
    from ..workloads import PiApp

    out: dict[str, float | None] = {}
    for domain in result.host.domains:
        batch = [w for w in domain.workloads if isinstance(w, PiApp)]
        if not batch:
            continue
        key = f"{domain.name.lower()}_batch_time_s"
        if all(w.done for w in batch):
            out[key] = max(w.finished_at for w in batch) - min(
                w.started_at for w in batch
            )
        else:
            out[key] = None
    return out


def frequency_metrics(result) -> dict:
    """Frequency per phase plus whole-run DVFS statistics."""
    out: dict[str, float | int | None] = {}
    for phase, window in _windows(result).items():
        out[f"freq_mhz_{phase}"] = _safe_phase_mean(
            result, "host.freq_mhz", window, smooth=False
        )
    raw = result.series("host.freq_mhz", smooth=False)
    out["freq_mhz_min"] = raw.min()
    out["freq_mhz_max"] = raw.max()
    out["dvfs_transitions"] = result.frequency_transitions
    out["preemptions"] = result.host.preemptions
    return out


def energy_metrics(result) -> dict:
    """Whole-run package energy and its per-domain attribution."""
    host = result.host
    out: dict[str, float] = {"energy_joules": result.energy_joules}
    for domain in host.domains:
        key = f"energy_{domain.name.lower()}_joules"
        out[key] = host.domain_energy_joules(domain.name)
    out["energy_idle_joules"] = host.idle_energy_joules
    return out


def qos_metrics(result) -> dict:
    """Client-visible response times and drops per latency-tracked guest.

    With several workloads on one domain, the first latency-tracked one is
    reported (the QoS experiments attach exactly one per guest).
    """
    out: dict[str, float | None] = {}
    for domain in result.host.domains:
        workload = next(
            (w for w in domain.workloads if getattr(w, "latency", None) is not None),
            None,
        )
        tracker = getattr(workload, "latency", None)
        if tracker is None:
            continue
        prefix = domain.name.lower()
        try:
            out[f"{prefix}_latency_p50_s"] = tracker.percentile(50)
            out[f"{prefix}_latency_p95_s"] = tracker.percentile(95)
            out[f"{prefix}_latency_p99_s"] = tracker.percentile(99)
            out[f"{prefix}_latency_mean_s"] = tracker.mean_response_time
        except WorkloadError:
            out[f"{prefix}_latency_p50_s"] = None
            out[f"{prefix}_latency_p95_s"] = None
            out[f"{prefix}_latency_p99_s"] = None
            out[f"{prefix}_latency_mean_s"] = None
        out[f"{prefix}_completed_requests"] = tracker.completed_requests
        drop = getattr(workload, "drop_fraction", None)
        out[f"{prefix}_drop_percent"] = None if drop is None else 100.0 * drop
    return out


def qos_control_metrics(result) -> dict:
    """The QoS controller's decision ledger as flat cell scalars.

    All-``None`` on ``qos="none"`` cells (no controller installed), so a
    sweep over the ``qos`` axis yields one uniform column set.
    """
    controller = getattr(result.host, "qos_controller", None)
    if controller is None:
        return {
            "qos_steps_down": None,
            "qos_steps_up": None,
            "qos_lc_sla_saves": None,
            "qos_time_throttled_s": None,
            "qos_contention_peak": None,
            "qos_final_level": None,
        }
    stats = controller.stats
    return {
        "qos_steps_down": stats.steps_down,
        "qos_steps_up": stats.steps_up,
        "qos_lc_sla_saves": stats.lc_sla_saves,
        "qos_time_throttled_s": stats.time_throttled_s,
        "qos_contention_peak": stats.contention_peak,
        "qos_final_level": stats.quota_level,
    }


def reaction_metrics(result) -> dict:
    """Seconds from the second guest's activation until the frequency hits max.

    The reactivity measure of the PAS sensitivity ablation (V70's wake on
    the paper's profile); ``None`` when there is no activation edge or the
    maximum is never reached after it.
    """
    from ..experiments.scenario import secondary_activation

    activation = secondary_activation(result.config)
    if activation is None:
        return {"freq_reaction_s": None}
    freq = result.series("host.freq_mhz", smooth=False)
    maximum = result.host.processor.max_frequency_mhz
    for t, value in freq:
        if t >= activation and value == maximum:
            return {"freq_reaction_s": t - activation}
    return {"freq_reaction_s": None}


def sla_error_metrics(result) -> dict:
    """How far each guest's delivered capacity strays from its booked credit.

    Per guest with bounded activity: mean and max of
    ``|absolute load - credit|`` (percentage points) over the guest's active
    span trimmed by 10 s on each side — the §4.1 design-comparison error
    signal, as flat cacheable scalars.  Guests without activity, or whose
    trimmed span holds no samples, are skipped.
    """
    from ..experiments.scenario import effective_guests, guest_active_span

    out: dict[str, float] = {}
    for guest in effective_guests(result.config):
        span = guest_active_span(result.config, guest.name)
        if span is None:
            continue
        window = (span[0] + 10.0, min(span[1], result.config.duration) - 10.0)
        if window[1] <= window[0]:
            continue
        try:
            trace = result.series(f"{guest.name}.absolute_load").window(*window)
        except TelemetryError:
            continue
        errors = [abs(value - guest.credit) for _, value in trace]
        if not errors:
            continue
        out[f"{guest.name.lower()}_sla_mean_error"] = sum(errors) / len(errors)
        out[f"{guest.name.lower()}_sla_max_error"] = max(errors)
    return out


def chart_metrics(result) -> dict:
    """What a §5.3 figure draws: its series resampled onto the chart's columns.

    Every guest's global and absolute load (``chart_<guest>_<kind>``) and
    the host frequency (``chart_host_freq_mhz``), smoothed as the figures
    plot them, at the :data:`~repro.telemetry.ascii_chart.CHART_WIDTH`
    column times spanning ``chart_start_s``..``chart_end_s``; plus each
    guest's peak absolute load (``<guest>_absolute_max``).
    """
    from ..telemetry.ascii_chart import chart_columns, chart_span

    series = {"host_freq_mhz": result.series("host.freq_mhz")}
    for domain in result.guest_names:
        for kind in ("global", "absolute"):
            series[f"{domain.lower()}_{kind}"] = result.series(f"{domain}.{kind}_load")
    start_s, end_s = chart_span(list(series.values()))
    out: dict = {"chart_start_s": start_s, "chart_end_s": end_s}
    for name, values in series.items():
        out[f"chart_{name}"] = chart_columns(values, start_s, end_s)
    for domain in result.guest_names:
        out[f"{domain.lower()}_absolute_max"] = series[f"{domain.lower()}_absolute"].max()
    return out


#: Seconds a §5.2 load measurement runs before its window opens.
SETTLE_S = 5.0


def settled_load_metrics(result) -> dict:
    """The host's mean (unsmoothed) load from :data:`SETTLE_S` to the end.

    The §5.2 load measurement Eq. 1 solves for ``cf``; ``None`` when the
    run ends before it settles.
    """
    window = (SETTLE_S, result.config.duration)
    return {
        "host_load_settled": _safe_phase_mean(
            result, "host.global_load", window, smooth=False
        )
    }


def cstate_metrics(sim) -> dict:
    """Fleet-wide idle-state residency, summed over C-states (cluster cells)."""
    return {"cstate_residency_s": sum(sim.cstate_residency().values())}


def packing_metrics(sim) -> dict:
    """The t=0 CPU demand (%) of each host that holds VMs at the end (cluster cells)."""
    return {
        "packed_cpu_demand_t0": [
            sum(vm.demand_at(0.0) for vm in machine.vms)
            for machine in sim.machines
            if machine.vms
        ]
    }


def fleet_metrics(sim) -> dict:
    """Fleet-level energy, packing and SLA statistics (cluster cells)."""
    return {
        "fleet_energy_joules": sim.fleet_energy_joules,
        "mean_machines_on": sim.mean_machines_on,
        "mean_sla_fraction": sim.mean_sla_fraction,
        "total_migrations": sim.total_migrations,
    }


def cluster_metrics(sim) -> dict:
    """Datacenter-scale orchestration statistics (cluster cells).

    The policy-comparison vocabulary: kWh instead of joules, migration
    churn, the count of epochs with unserved demand, mean powered-on host
    count, and the peak per-epoch fleet power (the number a
    ``power_budget_w`` cap is judged against).
    """
    return {
        "energy_kwh": sim.energy_kwh,
        "migrations": sim.total_migrations,
        "sla_violations": sim.sla_violations,
        "hosts_on_mean": sim.mean_machines_on,
        "power_peak_w": sim.peak_power_w,
        "sla_mean": sim.mean_sla_fraction,
    }


#: Named reducers addressable from a grid spec / the CLI.
METRICS: dict[str, Callable] = {
    "loads": load_metrics,
    "guest_loads": guest_load_metrics,
    "batch": batch_metrics,
    "frequency": frequency_metrics,
    "energy": energy_metrics,
    "qos": qos_metrics,
    "qos_control": qos_control_metrics,
    "reaction": reaction_metrics,
    "sla": sla_error_metrics,
    "fleet": fleet_metrics,
    "cluster": cluster_metrics,
    "chart": chart_metrics,
    "settled": settled_load_metrics,
    "cstates": cstate_metrics,
    "packing": packing_metrics,
}

#: Defaults per cell kind (see :func:`repro.sweep.runner.execute_config`).
DEFAULT_SCENARIO_METRICS: tuple[str, ...] = ("loads", "frequency", "energy")
DEFAULT_CLUSTER_METRICS: tuple[str, ...] = ("fleet", "cluster")


def resolve_metrics(metrics: Sequence[str | Callable]) -> tuple[Callable, ...]:
    """Map metric names through :data:`METRICS`; pass callables through."""
    resolved = []
    for metric in metrics:
        if callable(metric):
            resolved.append(metric)
        elif metric in METRICS:
            resolved.append(METRICS[metric])
        else:
            raise ConfigurationError(
                f"unknown metric {metric!r}; use one of: {', '.join(sorted(METRICS))}"
            )
    return tuple(resolved)


def reduce_outcome(outcome, metrics: Sequence[str | Callable]) -> dict:
    """Apply every reducer to *outcome* and merge the resulting dicts."""
    merged: dict = {}
    for fn in resolve_metrics(metrics):
        values: Mapping = fn(outcome)
        merged.update(values)
    return merged
