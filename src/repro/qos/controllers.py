"""Reactive QoS controllers: the throttle half of the monitor→detect→throttle loop.

A :class:`QosController` turns the windowed contention score a
:class:`~repro.qos.monitor.ContentionMonitor` computes into scheduler
actuations: it steps *best-effort* (BE) guests' caps down through the
existing :meth:`~repro.schedulers.base.Scheduler.set_cap` knob and lifts the
*latency-critical* (LC) guests' caps/weights while contention lasts,
restoring everything when it clears.  This is what the paper's static credit
replay lacks: under fix-credit semantics an LC guest can never exceed its
own cap, so when DVFS shrinks absolute capacity the only way to keep its
clients whole is for *something* to move the caps — the eris-style LC/BE
agent loop.

Registry
--------

``CONTROLLER_REGISTRY`` maps public names to classes, mirroring the
scheduler/governor/policy registries (and pinned by the RPL301/302 lint
rules like them):

* ``none`` — the do-nothing placebo (a ``qos="none"`` config installs *no*
  monitor at all; this class exists so the name is a first-class registry
  citizen and sweeps can address the baseline uniformly);
* ``naive`` — memoryless threshold control: every control period the BE
  quota fraction steps down while the score is above ``threshold`` and back
  up once it falls below ``threshold * release``;
* ``ladder`` — a discrete quota ladder with hysteresis (separate ``high`` /
  ``low`` thresholds) and a per-step ``cooldown_s``, the eris
  ``quota_level`` design: one rung per decision, never two reactions inside
  one cooldown, full BE restoration when contention clears.

Controllers never read wall clocks or unseeded randomness: decisions are a
pure function of (spec, seed), so controller-on sweeps stay byte-identical
across serial/parallel/resumed executions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ..errors import ConfigurationError
from ..obs import hooks as _obs
from ..units import check_keywords, check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hypervisor.domain import Domain
    from ..hypervisor.host import Host


@dataclass
class QosStats:
    """Counters every controller maintains (harvested, never hot-path).

    ``time_at_level`` maps ladder level -> simulated seconds spent there
    (level 0 = unthrottled; the naive controller buckets its continuous
    fraction into pseudo-levels of 0/1).  ``lc_sla_saves`` counts completed
    interventions: episodes in which the controller throttled BE guests and
    later restored them because contention cleared.
    """

    decisions: int = 0
    steps_down: int = 0
    steps_up: int = 0
    lc_sla_saves: int = 0
    quota_level: int = 0
    contention_peak: float = 0.0
    time_at_level: dict[int, float] = field(default_factory=dict)

    def observe_score(self, score: float) -> None:
        """Track the highest windowed contention score seen."""
        if score > self.contention_peak:
            self.contention_peak = score

    def accrue(self, level: int, dt: float) -> None:
        """Charge *dt* simulated seconds to ladder *level*'s bucket."""
        if dt > 0.0:
            self.time_at_level[level] = self.time_at_level.get(level, 0.0) + dt

    @property
    def time_throttled_s(self) -> float:
        """Simulated seconds spent at any level above 0."""
        return sum(dt for level, dt in self.time_at_level.items() if level > 0)


class QuotaLadder:
    """Discrete quota levels with hysteresis and cooldown (shared core).

    Level 0 is unthrottled; each step down the ladder multiplies the BE
    quota by the next entry of *levels*.  :meth:`step` returns the new BE
    quota fraction when the level changed, ``None`` otherwise — both the
    host-tier :class:`LadderController` and the cluster-tier
    :class:`~repro.qos.fleet.FleetQos` drive their decisions through this
    one state machine so the two tiers cannot drift semantically.
    """

    def __init__(
        self,
        *,
        levels: Sequence[float] = (1.0, 0.8, 0.6, 0.4, 0.25),
        high: float = 0.6,
        low: float = 0.2,
        cooldown_s: float = 5.0,
    ) -> None:
        # Numbers only: a config's JSON string or boolean would convert.
        numbers = isinstance(levels, (list, tuple)) and all(
            type(value) in (int, float) for value in levels
        )
        if not numbers:
            raise ConfigurationError(
                f"ladder levels must be a sequence of numbers, got {levels!r}"
            )
        self.levels = tuple(float(value) for value in levels)
        if not self.levels or self.levels[0] != 1.0:
            raise ConfigurationError(
                f"ladder levels must start at 1.0 (unthrottled), got {levels!r}"
            )
        if any(b >= a for a, b in zip(self.levels, self.levels[1:])):
            raise ConfigurationError(
                f"ladder levels must strictly decrease, got {levels!r}"
            )
        if not 0.0 <= low < high <= 1.0:
            raise ConfigurationError(
                f"need 0 <= low < high <= 1 for hysteresis, got low={low}, high={high}"
            )
        self.high = high
        self.low = low
        self.cooldown_s = check_non_negative(cooldown_s, "cooldown_s")
        self.level = 0
        self._last_step: float | None = None

    @property
    def fraction(self) -> float:
        """The BE quota multiplier at the current level."""
        return self.levels[self.level]

    def step(self, now: float, score: float) -> float | None:
        """Advance the state machine; new fraction if the level moved."""
        if self._last_step is not None and now - self._last_step < self.cooldown_s:
            return None
        if score >= self.high and self.level < len(self.levels) - 1:
            self.level += 1
            self._last_step = now
            return self.levels[self.level]
        if score <= self.low and self.level > 0:
            self.level -= 1
            self._last_step = now
            return self.levels[self.level]
        return None


class QosController(ABC):
    """Base class for every QoS controller.

    Lifecycle: constructed from the config's ``qos_kwargs``, then
    :meth:`bind` once with the host and the LC/BE domain split, then
    :meth:`control` on every monitor sample.  Binding snapshots the
    baseline caps and weights so restoration is exact — a controller never
    has to remember what it changed, only what level it is at.
    """

    #: Identifier used in experiment configs and telemetry.
    name: str = "abstract"

    def __init__(self) -> None:
        self.stats = QosStats()
        self._host: "Host | None" = None
        self._lc: tuple["Domain", ...] = ()
        self._be: tuple["Domain", ...] = ()
        self._be_base_cap: dict[str, float] = {}
        self._lc_base_cap: dict[str, float] = {}
        self._lc_base_weight: dict[str, float] = {}
        self._last_control: float | None = None

    # ------------------------------------------------------------- plumbing

    def bind(
        self, host: "Host", lc: Sequence["Domain"], be: Sequence["Domain"]
    ) -> None:
        """Attach to *host* and snapshot the LC/BE baselines."""
        if self._host is not None:
            raise ConfigurationError(f"QoS controller {self.name!r} bound twice")
        self._host = host
        self._lc = tuple(lc)
        self._be = tuple(be)
        scheduler = host.scheduler
        for domain in self._be:
            cap = scheduler.cap_of(domain)
            # Uncapped BE guests (cap 0, or a scheduler with no cap notion)
            # throttle against their booked credit — the SLA they bought is
            # the natural 100% point of the quota ladder.
            self._be_base_cap[domain.name] = cap if cap > 0.0 else domain.credit
        for domain in self._lc:
            self._lc_base_cap[domain.name] = scheduler.cap_of(domain)
            self._lc_base_weight[domain.name] = scheduler.weight_of(domain)

    @property
    def host(self) -> "Host":
        """The bound host (raises before :meth:`bind`)."""
        if self._host is None:
            raise ConfigurationError(
                f"QoS controller {self.name!r} is not bound to a host"
            )
        return self._host

    # --------------------------------------------------------------- policy

    @abstractmethod
    def control(self, now: float, score: float) -> None:
        """React to the windowed contention *score* at sim time *now*."""

    @abstractmethod
    def quota_fraction(self) -> float:
        """Current BE quota multiplier in (0, 1] (1.0 = unthrottled)."""

    # ------------------------------------------------------------- actuation

    def _accrue_time(self, now: float, level: int) -> None:
        last = self._last_control
        if last is not None:
            self.stats.accrue(level, now - last)
        self._last_control = now

    def _apply(self, now: float, fraction: float, *, lc_boost: float) -> None:
        """Set BE caps to ``base * fraction`` and boost/restore LC guests.

        While throttled (*fraction* < 1) every LC guest runs uncapped with
        its weight multiplied by *lc_boost*: under fix-credit semantics the
        LC cap itself is what pins its wall-time share, so freeing BE share
        helps nobody unless the LC ceiling lifts too (§3.1's null-credit
        exception, applied reactively).  At fraction 1 every baseline is
        restored exactly.
        """
        host = self.host
        scheduler = host.scheduler
        for domain in self._be:
            scheduler.set_cap(domain, self._be_base_cap[domain.name] * fraction)
        throttled = fraction < 1.0
        for domain in self._lc:
            base_weight = self._lc_base_weight[domain.name]
            if throttled:
                scheduler.set_cap(domain, 0.0)
                if base_weight > 0.0:
                    scheduler.set_weight(domain, base_weight * lc_boost)
            else:
                scheduler.set_cap(domain, self._lc_base_cap[domain.name])
                if base_weight > 0.0:
                    scheduler.set_weight(domain, base_weight)
        host.kick()

    def _emit_decision(
        self, now: float, action: str, level: int, fraction: float, score: float
    ) -> None:
        trace = _obs.TRACER
        if trace is not None:
            trace.qos_decision(
                now, self.name, action, "host", level, fraction, score
            )


class NoneController(QosController):
    """The registered baseline: observes, never actuates.

    ``qos="none"`` configs skip the monitor entirely (zero hot-path cost);
    this class is what you get when you *explicitly* instantiate the name,
    e.g. a sweep axis driving ``make_controller`` uniformly.
    """

    name = "none"

    def control(self, now: float, score: float) -> None:
        self.stats.decisions += 1
        self.stats.observe_score(score)
        self._accrue_time(now, 0)

    def quota_fraction(self) -> float:
        return 1.0


class NaiveController(QosController):
    """Memoryless threshold stepping — the obvious thing, kept honest.

    Every control period: score above *threshold* steps the BE quota
    fraction down by *step* (never below *floor*); score below
    ``threshold * release`` steps it back up.  No hysteresis band, no
    cooldown — the ladder controller exists because this one oscillates
    around the threshold under bursty contention.
    """

    name = "naive"

    def __init__(
        self,
        *,
        threshold: float = 0.5,
        release: float = 0.5,
        step: float = 0.2,
        floor: float = 0.25,
        lc_boost: float = 2.0,
    ) -> None:
        super().__init__()
        if not 0.0 < threshold <= 1.0:
            raise ConfigurationError(
                f"threshold must be in (0, 1], got {threshold}"
            )
        if not 0.0 <= release <= 1.0:
            raise ConfigurationError(f"release must be in [0, 1], got {release}")
        self.threshold = threshold
        self.release = release
        self.step = check_positive(step, "step")
        self.floor = check_positive(floor, "floor")
        self.lc_boost = check_positive(lc_boost, "lc_boost")
        self._fraction = 1.0

    def control(self, now: float, score: float) -> None:
        stats = self.stats
        stats.decisions += 1
        stats.observe_score(score)
        self._accrue_time(now, 0 if self._fraction >= 1.0 else 1)
        if score > self.threshold and self._fraction > self.floor:
            self._fraction = max(self.floor, self._fraction - self.step)
            stats.steps_down += 1
            stats.quota_level = 1
            self._apply(now, self._fraction, lc_boost=self.lc_boost)
            self._emit_decision(now, "throttle", 1, self._fraction, score)
        elif score < self.threshold * self.release and self._fraction < 1.0:
            self._fraction = min(1.0, self._fraction + self.step)
            stats.steps_up += 1
            if self._fraction >= 1.0:
                stats.quota_level = 0
                stats.lc_sla_saves += 1
            self._apply(now, self._fraction, lc_boost=self.lc_boost)
            self._emit_decision(
                now, "restore", stats.quota_level, self._fraction, score
            )

    def quota_fraction(self) -> float:
        return self._fraction


class LadderController(QosController):
    """Discrete quota-level ladder with hysteresis and cooldown (eris-style).

    One rung per decision: score at or above *high* steps BE quota one level
    down the ladder, score at or below *low* steps one level back up, and
    no two steps land inside one *cooldown_s*.  The dead band between the
    thresholds plus the cooldown is what keeps the controller from chattering
    on bursty contention, and level 0 restores every BE cap and LC
    cap/weight to its baseline exactly.
    """

    name = "ladder"

    def __init__(
        self,
        *,
        levels: Sequence[float] = (1.0, 0.8, 0.6, 0.4, 0.25),
        high: float = 0.6,
        low: float = 0.2,
        cooldown_s: float = 5.0,
        lc_boost: float = 2.0,
    ) -> None:
        super().__init__()
        self._ladder = QuotaLadder(
            levels=levels, high=high, low=low, cooldown_s=cooldown_s
        )
        self.lc_boost = check_positive(lc_boost, "lc_boost")

    @property
    def level(self) -> int:
        """Current ladder level (0 = unthrottled)."""
        return self._ladder.level

    def control(self, now: float, score: float) -> None:
        stats = self.stats
        stats.decisions += 1
        stats.observe_score(score)
        before = self._ladder.level
        self._accrue_time(now, before)
        fraction = self._ladder.step(now, score)
        if fraction is None:
            return
        level = self._ladder.level
        stats.quota_level = level
        if level > before:
            stats.steps_down += 1
            action = "throttle"
        else:
            stats.steps_up += 1
            action = "restore"
            if level == 0:
                stats.lc_sla_saves += 1
        self._apply(now, fraction, lc_boost=self.lc_boost)
        self._emit_decision(now, action, level, fraction, score)

    def quota_fraction(self) -> float:
        return self._ladder.fraction


#: Public QoS controller registry (name -> class), the ``qos=`` axis domain.
CONTROLLER_REGISTRY: dict[str, type[QosController]] = {
    NoneController.name: NoneController,
    NaiveController.name: NaiveController,
    LadderController.name: LadderController,
}


def controller_names() -> tuple[str, ...]:
    """Registered controller names, in registry order."""
    return tuple(CONTROLLER_REGISTRY)


def make_controller(name: str, **kwargs) -> QosController:
    """Instantiate the controller registered as *name*.

    Unknown names raise a :class:`~repro.errors.ConfigurationError` listing
    the valid choices, and a keyword argument the controller does not take
    raises one naming those it does (the same contract as the
    scheduler/governor/policy factories).
    """
    try:
        controller_cls = CONTROLLER_REGISTRY[name]
    except KeyError:
        known = ", ".join(CONTROLLER_REGISTRY)
        raise ConfigurationError(
            f"unknown QoS controller {name!r}; use one of: {known}"
        ) from None
    check_keywords(controller_cls, kwargs, f"{name} QoS controller")
    return controller_cls(**kwargs)
