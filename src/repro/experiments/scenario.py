"""Declarative scenario specs: arbitrary guest fleets behind one config.

A scenario is described, not hand-built: a :class:`ScenarioConfig` carries a
tuple of :class:`GuestSpec` entries (name, credit, scheduler parameters),
each of which carries :class:`WorkloadSpec` entries (what the guest runs).
:func:`build_scenario` is a single generic interpreter over those specs, and
:func:`run_scenario` executes the result.  Everything is JSON-round-trippable
(:meth:`ScenarioConfig.to_dict` / :meth:`ScenarioConfig.from_dict`), which is
what lets sweep grids vary whole guest fleets and lets the CLI load scenario
files (``python -m repro run --scenario file.json``).

Workload kinds
--------------

``web``
    The paper's Joomla/httperf service (§5.1): an open-loop injector driving
    a rate derived from the guest's credit.  ``load`` selects the intensity
    (``exact`` / ``near_exact`` / ``thrashing`` / ``idle``), or ``rate_rps``
    fixes an explicit rate; ``active`` lists (start, end) windows (the
    three-phase profile of §5.3 is one window).
``pi``
    The fixed-work batch job (§5.1): ``work`` absolute seconds queued at
    ``start_at``; pairs with ``ScenarioConfig.stop_when_batch_done``.
``constant``
    A duty-cycle source of ``demand_percent`` (Dom0 housekeeping, filler
    guests); optionally windowed by the first ``active`` entry.
``trace``
    Replays explicit ``trace`` points, or a seeded diurnal
    :class:`~repro.workloads.trace.SyntheticTrace` when ``diurnal``
    parameters are given — the hosting-center shape of the paper's
    motivation.

The default (§5.3) scenario
---------------------------

The paper's evaluation profile — **V20** (20 % credit) active over
``[50, 750)``, **V70** (70 % credit) active over ``[250, 550)``, Dom0 at the
highest priority with the remaining 10 % — is the *legacy surface* of
:class:`ScenarioConfig`: when ``guests`` is empty, the two-guest fields
(``v20_load`` / ``v70_load`` / ``v20_active`` / ``v70_active``) are expanded
by :func:`effective_guests` into the equivalent spec, so
``ScenarioConfig()`` still reproduces Figs. 2-10 exactly.  Named scenarios
(including ``paper-5.3`` itself) live in :mod:`repro.experiments.presets`.
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from ..cpu import catalog
from ..cpu.processor import ProcessorSpec
from ..errors import ConfigurationError
from ..hypervisor.host import Host
from ..telemetry import TimeSeries, rolling_mean
from ..units import check_field_types, check_keywords, check_known_fields, check_positive
from ..workloads import (
    ConstantLoad,
    LoadProfile,
    PiApp,
    SyntheticTrace,
    TraceLoad,
    TracePoint,
    WebApp,
    exact_rate,
    load_trace_csv,
    thrashing_rate,
)

#: Analysis windows (start, end) for the *default* timeline: V20 alone,
#: both active, V20 alone again.  For custom timelines use
#: :func:`analysis_windows`, which derives them from the config.
PHASE_SOLO_EARLY = (100.0, 240.0)
PHASE_BOTH = (300.0, 540.0)
PHASE_SOLO_LATE = (600.0, 740.0)

#: Workload kinds a :class:`WorkloadSpec` can describe.
WORKLOAD_KINDS = ("web", "pi", "constant", "trace")

#: The :class:`WorkloadSpec` fields each kind reads (``active`` aside); the
#: rest must keep their defaults, which is what ``to_dict`` assumes.
_KIND_FIELDS = {
    "web": ("load", "rate_rps", "request_cost", "poisson"),
    "pi": ("work", "start_at"),
    "constant": ("demand_percent",),
    "trace": ("trace", "diurnal", "trace_file", "dayshape", "repeat"),
}

#: The :class:`ScenarioConfig` fields of the paper's two-guest profile,
#: which a non-empty ``guests`` overrides entirely.
_LEGACY_FIELDS = ("v20_load", "v70_load", "v20_active", "v70_active")

#: Web-app intensity kinds (the paper's §5.3 vocabulary plus helpers).
LOAD_KINDS = ("exact", "near_exact", "thrashing", "idle")

#: User-level manager designs of §4.1 (None = no manager).
MANAGER_KINDS = ("user-credit", "user-full")

#: Guest service classes for the QoS control plane (:mod:`repro.qos`):
#: latency-critical guests are protected, best-effort guests are throttled.
SERVICE_CLASSES = ("lc", "be")


def _number_pair(value: Any, what: str) -> tuple[float, float]:
    """*value* (a 2-list or 2-tuple of finite numbers) as a float pair."""
    if isinstance(value, (tuple, list)) and len(value) == 2:
        first, second = value
        if type(first) in (int, float) and type(second) in (int, float):
            try:
                first, second = float(first), float(second)
            except OverflowError:  # an integer beyond the float range
                first = math.inf
            if math.isfinite(first) and math.isfinite(second):
                return (first, second)
    raise ConfigurationError(f"{what} must be a pair of finite numbers, got {value!r}")


def _window_tuple(value: Any, what: str) -> tuple[float, float]:
    start, end = _number_pair(value, f"{what} (start, end)")
    if end <= start:
        raise ConfigurationError(f"{what} end ({end}) must follow start ({start})")
    return (start, end)


def _as_spec(value: Any, spec: type) -> Any:
    """*value* as a *spec*: a spec passes as is, a JSON object is parsed.

    Anything else passes too, for the caller's type check to reject.  The
    spec test comes first because it is cheap and the ``Mapping`` ABC test
    is not, and every ``replace`` of a config re-validates each guest.
    """
    if isinstance(value, spec) or not isinstance(value, Mapping):
        return value
    return spec.from_dict(value)


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload a guest runs — declarative, JSON-round-trippable.

    Only the fields relevant to ``kind`` are read; the rest keep their
    defaults so any spec serialises the same way.  See the module docstring
    for the per-kind semantics.
    """

    kind: str = "web"
    #: web: intensity relative to the guest's credit (or ``idle``).
    load: str = "exact"
    #: web/constant: (start, end) active windows; empty = always on.
    active: tuple[tuple[float, float], ...] = ()
    #: web: explicit request rate overriding the credit-derived one.
    rate_rps: float | None = None
    #: web: per-request CPU cost override (None = config default).
    request_cost: float | None = None
    #: web: Poisson arrivals override (None = config default).
    poisson: bool | None = None
    #: pi: absolute seconds of work and its queue time.
    work: float = 280.0
    start_at: float = 0.0
    #: constant: duty-cycle demand in percent of max capacity.
    demand_percent: float = 8.0
    #: trace: explicit (time, percent) points.
    trace: tuple[tuple[float, float], ...] = ()
    #: trace: :class:`SyntheticTrace` keyword parameters (diurnal shape).
    diurnal: Mapping[str, float] | None = None
    #: trace: path to a real utilisation time-series CSV
    #: (:func:`~repro.workloads.trace.load_trace_csv` format).
    trace_file: str | None = None
    #: trace: a named day from the catalog
    #: (:data:`repro.workloads.dayshapes.DAYSHAPES`), generated on the
    #: guest's seeded stream.
    dayshape: str | None = None
    #: trace: loop the trace past its last point.
    repeat: bool = False

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ConfigurationError(
                f"unknown workload kind {self.kind!r}; "
                f"use one of: {', '.join(WORKLOAD_KINDS)}"
            )
        if self.load not in LOAD_KINDS:
            raise ConfigurationError(
                f"unknown load kind {self.load!r}; use one of: {', '.join(LOAD_KINDS)}"
            )
        object.__setattr__(
            self,
            "active",
            tuple(_window_tuple(w, "active window") for w in self.active),
        )
        for kind, names in _KIND_FIELDS.items():
            for name in names:
                default = self.__dataclass_fields__[name].default
                if kind != self.kind and getattr(self, name) != default:
                    raise ConfigurationError(
                        f"{name!r} applies to {kind} workloads, not {self.kind!r}"
                    )
        object.__setattr__(
            self,
            "trace",
            tuple(_number_pair(point, "a trace (time, percent) point") for point in self.trace),
        )
        if self.diurnal is not None:
            if not isinstance(self.diurnal, Mapping):
                raise ConfigurationError(
                    f"diurnal takes a JSON object of SyntheticTrace parameters, "
                    f"got {self.diurnal!r}"
                )
            check_keywords(SyntheticTrace, self.diurnal, "diurnal")
            object.__setattr__(self, "diurnal", dict(self.diurnal))
        if (
            self.kind == "trace"
            and not self.trace
            and self.diurnal is None
            and self.trace_file is None
            and self.dayshape is None
        ):
            raise ConfigurationError(
                "a trace workload needs explicit 'trace' points, 'diurnal' "
                "parameters, a 'trace_file' CSV path, or a catalog 'dayshape'"
            )
        if self.dayshape is not None:
            from ..workloads.dayshapes import require_dayshape

            require_dayshape(self.dayshape)
        if self.active and self.kind not in ("web", "constant"):
            raise ConfigurationError(
                f"'active' windows apply to web/constant workloads, not {self.kind!r} "
                "(pi uses start_at; traces carry their own timeline)"
            )
        if self.kind == "constant" and len(self.active) > 1:
            raise ConfigurationError(
                "a constant workload takes at most one 'active' window"
            )

    def describe(self) -> str:
        """Compact human-readable label (grid cell labelling)."""
        if self.kind == "web":
            rate = f"@{self.rate_rps:g}rps" if self.rate_rps is not None else f":{self.load}"
            return f"web{rate}"
        if self.kind == "pi":
            return f"pi:{self.work:g}s"
        if self.kind == "constant":
            return f"const:{self.demand_percent:g}%"
        if self.diurnal is not None:
            return "trace:diurnal"
        if self.trace_file is not None:
            return f"trace:{pathlib.PurePath(self.trace_file).name}"
        if self.dayshape is not None:
            return f"trace:{self.dayshape}"
        return f"trace:{len(self.trace)}pt"

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form; :meth:`from_dict` round-trips it exactly."""
        out: dict[str, Any] = {"kind": self.kind}
        if self.kind == "web":
            out["load"] = self.load
            if self.rate_rps is not None:
                out["rate_rps"] = self.rate_rps
            if self.request_cost is not None:
                out["request_cost"] = self.request_cost
            if self.poisson is not None:
                out["poisson"] = self.poisson
        if self.active:
            out["active"] = [list(w) for w in self.active]
        if self.kind == "pi":
            out["work"] = self.work
            if self.start_at:
                out["start_at"] = self.start_at
        if self.kind == "constant":
            out["demand_percent"] = self.demand_percent
        if self.kind == "trace":
            if self.trace:
                out["trace"] = [list(p) for p in self.trace]
            if self.diurnal is not None:
                out["diurnal"] = dict(self.diurnal)
            if self.trace_file is not None:
                out["trace_file"] = self.trace_file
            if self.dayshape is not None:
                out["dayshape"] = self.dayshape
            if self.repeat:
                out["repeat"] = self.repeat
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written JSON)."""
        check_known_fields(cls, data, "workload spec")
        check_field_types(cls, data, "workload spec")
        return cls(**data)


@dataclass(frozen=True)
class GuestSpec:
    """One guest VM: identity, SLA, scheduler parameters and workloads."""

    name: str
    credit: float
    sedf_extra: bool = True
    weight: float | None = None
    cap: float | None = None
    sedf_period: float = 0.1
    workloads: tuple[WorkloadSpec, ...] = ()
    #: QoS service class: ``lc`` (latency-critical, protected) or ``be``
    #: (best-effort, throttled under contention).  Inert unless the
    #: scenario's ``qos`` controller is enabled.
    service_class: str = "be"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("guest name must be non-empty")
        if self.service_class not in SERVICE_CLASSES:
            raise ConfigurationError(
                f"unknown service class {self.service_class!r}; "
                f"use one of: {', '.join(SERVICE_CLASSES)}"
            )
        object.__setattr__(
            self,
            "workloads",
            tuple(_as_spec(w, WorkloadSpec) for w in self.workloads),
        )
        for workload in self.workloads:
            if not isinstance(workload, WorkloadSpec):
                raise ConfigurationError(
                    f"workloads must hold workload specs (JSON objects), got {workload!r}"
                )

    def describe(self) -> str:
        """Compact human-readable label (grid cell labelling)."""
        loads = "+".join(w.describe() for w in self.workloads) or "idle"
        marker = "!lc" if self.service_class == "lc" else ""
        return f"{self.name}({self.credit:g}%{marker}:{loads})"

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form; :meth:`from_dict` round-trips it exactly."""
        out: dict[str, Any] = {"name": self.name, "credit": self.credit}
        if not self.sedf_extra:
            out["sedf_extra"] = self.sedf_extra
        if self.weight is not None:
            out["weight"] = self.weight
        if self.cap is not None:
            out["cap"] = self.cap
        if self.sedf_period != 0.1:
            out["sedf_period"] = self.sedf_period
        if self.service_class != "be":
            out["service_class"] = self.service_class
        out["workloads"] = [w.to_dict() for w in self.workloads]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GuestSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written JSON)."""
        check_known_fields(cls, data, "guest spec")
        check_field_types(cls, data, "guest spec")
        missing = [name for name in ("name", "credit") if name not in data]
        if missing:
            raise ConfigurationError(
                f"guest spec: missing required field(s) {', '.join(map(repr, missing))}"
            )
        return cls(**data)


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of a single-host scenario.

    Two surfaces share this dataclass:

    * the **legacy two-guest fields** (``v20_load`` / ``v70_load`` /
      ``v20_active`` / ``v70_active``) describe the paper's §5.3 profile and
      apply when ``guests`` is empty — the compatibility preset;
    * the **declarative surface**: a non-empty ``guests`` tuple of
      :class:`GuestSpec` overrides them entirely and may describe any fleet.

    ``manager`` optionally runs one of §4.1's user-level designs beside the
    scheduler (not beside ``pas``, which is §4.1's design 3 itself);
    ``cpufreq_min_mhz`` floors the governor (the Table 2 vendor models);
    ``stop_when_batch_done`` ends the run early once every batch (pi)
    workload finished — ``duration`` is then the horizon.

    The constructor is the one place where a JSON-shaped value becomes a
    field value: the processor by catalog name, ``guests`` (and their
    workloads) as JSON objects, windows as 2-lists.  So ``with_changes``,
    ``dataclasses.replace``, :meth:`from_dict`, sweep grids and the CLI all
    take them alike.
    """

    scheduler: str = "credit"
    governor: str = "stable"
    processor: ProcessorSpec = field(default=catalog.OPTIPLEX_755)
    v20_load: str = "exact"
    v70_load: str = "exact"
    v20_active: tuple[float, float] = (50.0, 750.0)
    v70_active: tuple[float, float] = (250.0, 550.0)
    duration: float = 800.0
    request_cost: float = 0.005
    thrashing_factor: float = 5.0
    dom0_demand_percent: float = 8.0
    poisson: bool = False
    seed: int = 1
    scheduler_kwargs: dict = field(default_factory=dict)
    governor_kwargs: dict = field(default_factory=dict)
    guests: tuple[GuestSpec, ...] = ()
    manager: str | None = None
    manager_kwargs: dict = field(default_factory=dict)
    cpufreq_min_mhz: int | None = None
    #: Ceiling on the governor (``scaling_max_freq``); with the
    #: ``performance`` governor this *pins* the frequency, which is how the
    #: calibration cells hold each Eq. 1–3 measurement at one P-state.
    cpufreq_max_mhz: int | None = None
    stop_when_batch_done: bool = False
    #: QoS controller name (:data:`repro.qos.controllers.CONTROLLER_REGISTRY`);
    #: ``"none"`` installs no contention monitor at all.
    qos: str = "none"
    qos_kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive(self.duration, "duration")
        object.__setattr__(self, "processor", catalog.as_processor(self.processor))
        object.__setattr__(self, "v20_active", _window_tuple(self.v20_active, "v20_active"))
        object.__setattr__(self, "v70_active", _window_tuple(self.v70_active, "v70_active"))
        object.__setattr__(
            self,
            "guests",
            tuple(_as_spec(g, GuestSpec) for g in self.guests),
        )
        for guest in self.guests:
            if not isinstance(guest, GuestSpec):
                raise ConfigurationError(
                    f"guests must hold guest specs (JSON objects), got {guest!r}"
                )
        # Case-insensitive: metric keys lower-case guest names, so names
        # differing only in case would silently overwrite each other.
        names = [g.name.casefold() for g in self.guests]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate guest names (case-insensitive): {[g.name for g in self.guests]}"
            )
        if "dom0" in names:
            raise ConfigurationError(
                "'Dom0' is reserved; its demand is set by dom0_demand_percent"
            )
        # Fields the config ignores keep their defaults, so two configs that
        # run alike compare equal, as their to_dict (and store key) already do.
        if self.guests:
            for name in _LEGACY_FIELDS:
                object.__setattr__(self, name, self.__dataclass_fields__[name].default)
        if self.manager is None and self.manager_kwargs:
            object.__setattr__(self, "manager_kwargs", {})
        if self.qos == "none" and self.qos_kwargs:
            object.__setattr__(self, "qos_kwargs", {})
        if self.manager is not None and self.manager not in MANAGER_KINDS:
            raise ConfigurationError(
                f"unknown manager {self.manager!r}; "
                f"use one of: {', '.join(MANAGER_KINDS)} (or None)"
            )
        if self.manager is not None and self.scheduler == "pas":
            # PAS is §4.1's design 3: a manager beside it would run a second
            # cap or frequency controller against the scheduler's own.
            raise ConfigurationError(
                f"manager {self.manager!r} cannot run beside the pas scheduler, "
                "which already adjusts credits to the frequency; "
                "drop the manager or pick another scheduler"
            )
        if self.qos != "none":
            from ..qos.controllers import CONTROLLER_REGISTRY

            if self.qos not in CONTROLLER_REGISTRY:
                raise ConfigurationError(
                    f"unknown QoS controller {self.qos!r}; "
                    f"use one of: {', '.join(CONTROLLER_REGISTRY)}"
                )

    def with_changes(self, **changes) -> "ScenarioConfig":
        """A copy with the given fields replaced.

        Unknown field names raise a :class:`ConfigurationError` naming the
        valid choices (not a bare ``TypeError``), so preset/CLI overrides
        fail with an actionable message.
        """
        check_known_fields(type(self), changes, "scenario config")
        return replace(self, **changes)

    # ------------------------------------------------------------- serialise

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form of the whole config (processor by catalog name)."""
        out: dict[str, Any] = {
            "scheduler": self.scheduler,
            "governor": self.governor,
            "processor": self.processor.name,
            "duration": self.duration,
            "request_cost": self.request_cost,
            "thrashing_factor": self.thrashing_factor,
            "dom0_demand_percent": self.dom0_demand_percent,
            "poisson": self.poisson,
            "seed": self.seed,
            "scheduler_kwargs": dict(self.scheduler_kwargs),
            "governor_kwargs": dict(self.governor_kwargs),
        }
        if self.guests:
            out["guests"] = [g.to_dict() for g in self.guests]
        else:
            out["v20_load"] = self.v20_load
            out["v70_load"] = self.v70_load
            out["v20_active"] = list(self.v20_active)
            out["v70_active"] = list(self.v70_active)
        if self.manager is not None:
            out["manager"] = self.manager
            out["manager_kwargs"] = dict(self.manager_kwargs)
        if self.cpufreq_min_mhz is not None:
            out["cpufreq_min_mhz"] = self.cpufreq_min_mhz
        if self.cpufreq_max_mhz is not None:
            out["cpufreq_max_mhz"] = self.cpufreq_max_mhz
        if self.stop_when_batch_done:
            out["stop_when_batch_done"] = self.stop_when_batch_done
        if self.qos != "none":
            out["qos"] = self.qos
            out["qos_kwargs"] = dict(self.qos_kwargs)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioConfig":
        """Rebuild a config from :meth:`to_dict` output or a scenario file.

        Unknown keys, and values of the wrong JSON type for their field,
        raise a :class:`ConfigurationError`; the constructor turns the
        JSON values into field values.
        """
        kwargs = dict(data)
        kind = kwargs.pop("kind", "scenario")
        if kind != "scenario":
            raise ConfigurationError(
                f"not a single-host scenario spec: kind={kind!r} (cluster specs "
                "load via ClusterScenarioConfig.from_dict)"
            )
        check_known_fields(cls, kwargs, "scenario config")
        check_field_types(cls, kwargs, "scenario config")
        return cls(**kwargs)


# ----------------------------------------------------------- interpretation


def effective_guests(config: ScenarioConfig) -> tuple[GuestSpec, ...]:
    """The guest fleet a config describes.

    Explicit ``guests`` win; otherwise the legacy two-guest fields expand to
    the paper's V20/V70 spec (the compatibility preset) — so every consumer
    of specs sees one surface.
    """
    if config.guests:
        return config.guests
    return (
        GuestSpec(
            name="V20",
            credit=20.0,
            sedf_extra=True,
            workloads=(
                WorkloadSpec(kind="web", load=config.v20_load, active=(config.v20_active,)),
            ),
        ),
        GuestSpec(
            name="V70",
            credit=70.0,
            sedf_extra=True,
            workloads=(
                WorkloadSpec(kind="web", load=config.v70_load, active=(config.v70_active,)),
            ),
        ),
    )


def _rate_for(load: str, credit: float, config: ScenarioConfig, spec: WorkloadSpec) -> float | None:
    request_cost = spec.request_cost if spec.request_cost is not None else config.request_cost
    if load == "idle":
        return None
    if load == "exact":
        return exact_rate(credit, request_cost)
    if load == "near_exact":
        # 90% of the booked capacity: the standard operating point for
        # response-time measurements (at exactly 100% any transient backlog
        # persists forever; queues need slack to drain).
        return 0.9 * exact_rate(credit, request_cost)
    if load == "thrashing":
        return thrashing_rate(credit, request_cost, factor=config.thrashing_factor)
    raise ConfigurationError(
        f"unknown load kind {load!r}; use exact/near_exact/thrashing/idle"
    )


def _build_workload(spec: WorkloadSpec, guest: GuestSpec, config: ScenarioConfig, host: Host):
    """Interpret one workload spec into a live workload (or None for idle)."""
    if spec.kind == "web":
        rate = spec.rate_rps
        if rate is None:
            rate = _rate_for(spec.load, guest.credit, config, spec)
        if rate is None:
            return None
        if spec.active:
            profile = LoadProfile.windows(spec.active, rate)
        else:
            profile = LoadProfile.constant(rate)
        request_cost = (
            spec.request_cost if spec.request_cost is not None else config.request_cost
        )
        poisson = config.poisson if spec.poisson is None else spec.poisson
        return WebApp(profile, request_cost=request_cost, poisson=poisson)
    if spec.kind == "pi":
        return PiApp(spec.work, start_at=spec.start_at)
    if spec.kind == "constant":
        if spec.active:
            start, stop = spec.active[0]
            return ConstantLoad(spec.demand_percent, start_at=start, stop_at=stop)
        return ConstantLoad(spec.demand_percent)
    if spec.kind == "trace":
        if spec.trace:
            points = [TracePoint(start=t, percent=p) for t, p in spec.trace]
        elif spec.trace_file is not None:
            points = load_trace_csv(spec.trace_file)
        elif spec.dayshape is not None:
            from ..workloads.dayshapes import dayshape_points

            rng = host.rng.stream(f"trace.{guest.name}")
            points = dayshape_points(spec.dayshape, rng)
        else:
            rng = host.rng.stream(f"trace.{guest.name}")
            points = SyntheticTrace(**spec.diurnal).generate(rng)
        return TraceLoad(points, repeat=spec.repeat)
    raise ConfigurationError(f"unknown workload kind {spec.kind!r}")  # pragma: no cover


def build_scenario(config: ScenarioConfig) -> Host:
    """Construct (but do not run) the host a config describes.

    One generic interpreter: Dom0 plus one domain per guest spec (created
    first, in order — scheduler admission order matters), then workloads,
    then the optional §4.1 user-level manager.
    """
    needs_userspace = config.scheduler == "pas"
    governor = "userspace" if needs_userspace else config.governor
    from ..governors import make_governor
    from ..schedulers import make_scheduler

    host = Host(
        processor=config.processor,
        scheduler=make_scheduler(config.scheduler, **config.scheduler_kwargs),
        governor=make_governor(governor, **config.governor_kwargs),
        seed=config.seed,
    )
    dom0 = host.create_domain("Dom0", credit=10, dom0=True)
    dom0.attach_workload(ConstantLoad(config.dom0_demand_percent))
    guests = effective_guests(config)
    domains = [
        host.create_domain(
            guest.name,
            credit=guest.credit,
            weight=guest.weight,
            cap=guest.cap,
            sedf_period=guest.sedf_period,
            sedf_extra=guest.sedf_extra,
        )
        for guest in guests
    ]
    for domain, guest in zip(domains, guests):
        for spec in guest.workloads:
            workload = _build_workload(spec, guest, config, host)
            if workload is not None:
                domain.attach_workload(workload)
    if config.manager is not None:
        from ..core.user_credit_manager import UserCreditManager
        from ..core.user_full_manager import UserFullManager

        manager_cls = {
            "user-credit": UserCreditManager,
            "user-full": UserFullManager,
        }[config.manager]
        check_keywords(
            manager_cls, config.manager_kwargs, f"{config.manager} manager", supplied=1
        )
        manager = manager_cls(host, **config.manager_kwargs)
        manager.start()
        host.user_manager = manager
    if config.qos != "none":
        from ..qos import ContentionMonitor, make_controller

        # The monitor's own knobs ride in qos_kwargs under "monitor";
        # everything else goes to the controller constructor.
        qos_kwargs = dict(config.qos_kwargs)
        monitor_kwargs = qos_kwargs.pop("monitor", {})
        if not isinstance(monitor_kwargs, Mapping):
            raise ConfigurationError(
                f"qos_kwargs: monitor takes a JSON object, got {monitor_kwargs!r}"
            )
        check_keywords(ContentionMonitor, monitor_kwargs, "QoS monitor", supplied=4)
        controller = make_controller(config.qos, **qos_kwargs)
        lc_domains = [
            domain
            for domain, guest in zip(domains, guests)
            if guest.service_class == "lc"
        ]
        be_domains = [
            domain
            for domain, guest in zip(domains, guests)
            if guest.service_class == "be"
        ]
        controller.bind(host, lc_domains, be_domains)
        monitor = ContentionMonitor(
            host, controller, lc_domains, host.recorder, **monitor_kwargs
        )
        monitor.start()
        host.qos_controller = controller
        host.qos_monitor = monitor
    return host


def _batch_workloads(host: Host) -> list[PiApp]:
    return [
        workload
        for domain in host.domains
        for workload in domain.workloads
        if isinstance(workload, PiApp)
    ]


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Build and run the scenario to its configured duration.

    With ``stop_when_batch_done`` the run advances in bounded steps and
    stops at the first step boundary where every pi workload has finished
    (``duration`` is the horizon) — the Table 2 execution-time pattern.
    """
    host = build_scenario(config)
    host.start()
    if config.cpufreq_min_mhz is not None or config.cpufreq_max_mhz is not None:
        host.cpufreq.set_policy_limits(
            min_mhz=config.cpufreq_min_mhz, max_mhz=config.cpufreq_max_mhz
        )
        if config.cpufreq_max_mhz is not None:
            # Unsampled governors (``performance``) picked their frequency
            # at start(), before the ceiling existed; re-request it so the
            # new limit clamps the running P-state immediately.
            host.cpufreq.set_speed(host.processor.state.freq_mhz)
    batch = _batch_workloads(host) if config.stop_when_batch_done else []
    if batch:
        step = min(200.0, config.duration)
        while host.now < config.duration and not all(pi.done for pi in batch):
            host.run(until=min(config.duration, host.now + step))
    else:
        host.run(until=config.duration)
    return ScenarioResult(config=config, host=host)


@dataclass
class ScenarioResult:
    """A finished run plus the reductions the figures need."""

    config: ScenarioConfig
    host: Host

    def series(self, name: str, *, smooth: bool = True) -> TimeSeries:
        """A recorded series, 3-sample averaged by default (footnote 5)."""
        raw = self.host.recorder.series(name)
        return rolling_mean(raw, 3) if smooth else raw

    def phase_mean(self, name: str, phase: tuple[float, float], *, smooth: bool = True) -> float:
        """Mean of *name* over the analysis window *phase*."""
        return self.series(name, smooth=smooth).window(*phase).mean()

    # ----------------------------------------------------- per-guest queries

    @property
    def guest_names(self) -> tuple[str, ...]:
        """All non-Dom0 domain names, in creation (spec) order."""
        return tuple(d.name for d in self.host.domains if not d.is_dom0)

    def guest_series(self, name: str, kind: str = "global", *, smooth: bool = True) -> TimeSeries:
        """A guest's load series: *kind* is ``global`` or ``absolute``."""
        return self.series(f"{name}.{kind}_load", smooth=smooth)

    def guest_window(self, name: str) -> tuple[float, float]:
        """The guest's trimmed analysis window (see :func:`guest_window`)."""
        return guest_window(self.config, name)

    def guest_mean(
        self,
        name: str,
        kind: str = "global",
        window: tuple[float, float] | None = None,
        *,
        smooth: bool = True,
    ) -> float:
        """Mean load of guest *name* over *window* (default: its own window)."""
        if window is None:
            window = self.guest_window(name)
        return self.phase_mean(f"{name}.{kind}_load", window, smooth=smooth)

    @property
    def frequency_transitions(self) -> int:
        """DVFS transitions over the whole run."""
        return self.host.processor.transitions

    @property
    def energy_joules(self) -> float:
        """Total energy over the whole run."""
        return self.host.processor.energy_joules


# ------------------------------------------------------------------ windows


def _trimmed(start: float, end: float) -> tuple[float, float]:
    """Trim a segment clear of governor transients (lead) and its edge (tail)."""
    lead = min(50.0, max(10.0, 0.25 * (end - start)))
    tail = min(10.0, 0.25 * (end - start))
    return (start + lead, end - tail)


def guest_active_span(config: ScenarioConfig, name: str) -> tuple[float, float] | None:
    """The raw (start, end) span a guest's workloads are active over.

    ``None`` for guests with no demand (idle web load, no workloads).
    Windowless always-on workloads span the whole run; a pi job spans from
    its queue time to the run's end (it finishes when it finishes).
    """
    for guest in effective_guests(config):
        if guest.name != name:
            continue
        spans: list[tuple[float, float]] = []
        for spec in guest.workloads:
            if spec.kind == "web" and spec.load == "idle" and spec.rate_rps is None:
                continue
            if spec.active:
                spans.append((spec.active[0][0], spec.active[-1][1]))
            elif spec.kind == "pi":
                spans.append((spec.start_at, config.duration))
            elif spec.kind == "trace" and spec.trace and not spec.repeat:
                # A final zero-demand point bounds the trace; a nonzero one
                # holds its demand for the rest of the run (TraceLoad keeps
                # the last level).
                end = spec.trace[-1][0] if spec.trace[-1][1] == 0.0 else config.duration
                spans.append((spec.trace[0][0], end))
            else:
                spans.append((0.0, config.duration))
        if not spans:
            return None
        return (min(s for s, _ in spans), max(e for _, e in spans))
    known = ", ".join(g.name for g in effective_guests(config)) or "<none>"
    raise ConfigurationError(f"no guest {name!r}; have: {known}")


def guest_window(config: ScenarioConfig, name: str) -> tuple[float, float]:
    """A guest's trimmed analysis window: its active span, clipped and trimmed."""
    span = guest_active_span(config, name)
    if span is None:
        span = (0.0, config.duration)
    start, end = span[0], min(span[1], config.duration)
    if end > start:
        trimmed = _trimmed(start, end)
        if trimmed[1] > trimmed[0]:
            return trimmed
    raise ConfigurationError(
        f"guest {name!r} has no analysable activity inside the run "
        f"(span {span}, duration {config.duration}: too short once trimmed)"
    )


def analysis_windows(
    config: ScenarioConfig,
) -> tuple[tuple[float, float], tuple[float, float], tuple[float, float]]:
    """Derive (solo-early, both, solo-late) windows from the timeline.

    The three phases are defined by the first two guests with bounded
    activity: primary alone before the secondary starts, both active, then
    primary alone again — each trimmed by :func:`_trimmed` so governor
    averaging and the PAS frequency ladder settle.  On the default §5.3
    timeline this reproduces the module-level constants.  Fleets without
    two such guests fall back to equal thirds of the run.
    """
    guests = effective_guests(config)
    spans = [guest_active_span(config, guest.name) for guest in guests]
    bounded = [span for span in spans if span is not None]
    if len(bounded) >= 2:
        (primary_start, primary_end), (secondary_start, secondary_end) = bounded[0], bounded[1]
        return (
            _trimmed(primary_start, secondary_start),
            _trimmed(secondary_start, secondary_end),
            _trimmed(secondary_end, min(primary_end, config.duration)),
        )
    third = config.duration / 3.0
    return (
        _trimmed(0.0, third),
        _trimmed(third, 2.0 * third),
        _trimmed(2.0 * third, config.duration),
    )


def secondary_activation(config: ScenarioConfig) -> float | None:
    """When the second bounded-activity guest wakes (reactivity reference)."""
    spans = [
        span
        for guest in effective_guests(config)
        if (span := guest_active_span(config, guest.name)) is not None
    ]
    if len(spans) >= 2:
        return spans[1][0]
    return None
