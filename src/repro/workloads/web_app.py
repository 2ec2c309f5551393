"""Web-app: the paper's CPU-load workload (§5.1).

"When we aim at measuring a CPU load, we use a web application (a Joomla
CMS server) which receives a load generated by httperf."  The model: every
request costs *request_cost* absolute seconds of CPU; arriving requests
queue on the VM's vCPU; the server's request queue is bounded (real stacks
bound connections and time requests out), so sustained overload sheds the
excess instead of queueing forever — which is what lets the measured load
fall to zero as soon as the active phase ends, as in Figs. 2–10.

Two helper rates map the paper's §5.3 intensities onto request rates:

* :func:`exact_rate` — "100 % of the VM capacity but not more": demand equals
  ``credit`` percent of the host's max-frequency capacity;
* :func:`thrashing_rate` — "exceeds the VM capacity" by a configurable
  factor.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..sim import PeriodicTimer
from ..units import check_non_negative, check_percent, check_positive
from .base import Workload
from .injector import HttperfInjector
from .latency import LatencyTracker
from .profiles import LoadProfile


def exact_rate(credit_percent: float, request_cost: float) -> float:
    """Requests/s that demand exactly *credit_percent* of absolute capacity."""
    check_percent(credit_percent, "credit_percent")
    check_positive(request_cost, "request_cost")
    return credit_percent / 100.0 / request_cost


def thrashing_rate(
    credit_percent: float, request_cost: float, *, factor: float = 5.0
) -> float:
    """Requests/s exceeding the VM's capacity by *factor* (§5.3 thrashing).

    The default factor of 5 makes a 20 %-credit VM demand 100 % of the
    machine, reproducing Fig. 8's behaviour where SEDF lets V20 absorb every
    unused slice.
    """
    if factor <= 1.0:
        raise ConfigurationError(f"a thrashing factor must exceed 1, got {factor}")
    return exact_rate(credit_percent, request_cost) * factor


class WebApp(Workload):
    """Joomla-style CPU-bound service under an httperf-like injector.

    Parameters
    ----------
    profile:
        Request-rate schedule (requests per second over time).
    request_cost:
        Absolute seconds of CPU per request (default 5 ms at max frequency).
    max_backlog:
        Queue bound in absolute seconds of work; arrivals beyond it are
        dropped (counted in :attr:`dropped_work`).
    injection_period:
        Batch interval of the injector.
    poisson:
        Use Poisson arrivals (needs the host's RNG; deterministic otherwise).
    track_latency:
        Keep per-request response times (a :class:`LatencyTracker` on the
        :attr:`latency` attribute).  On by default; the cost is one FIFO
        walk per injection period.
    """

    def __init__(
        self,
        profile: LoadProfile,
        *,
        request_cost: float = 0.005,
        max_backlog: float = 2.0,
        injection_period: float = 0.05,
        poisson: bool = False,
        track_latency: bool = True,
    ) -> None:
        super().__init__()
        self.profile = profile
        self.request_cost = check_positive(request_cost, "request_cost")
        self.max_backlog = check_positive(max_backlog, "max_backlog")
        self.injection_period = check_positive(injection_period, "injection_period")
        self.poisson = poisson
        self.track_latency = track_latency
        self.latency = LatencyTracker() if track_latency else None
        self._injector: HttperfInjector | None = None
        self._progress_timer: PeriodicTimer | None = None
        self._last_work_done = 0.0
        self._vcpu = None
        self._sync_accounting = None
        self._add_work = None
        self.offered_work = 0.0
        self.accepted_work = 0.0
        self.dropped_work = 0.0

    def start(self) -> None:
        rng = None
        if self.poisson:
            rng = self.domain.host.rng.stream(f"webapp.{self.domain.name}")
        self._injector = HttperfInjector(
            self.engine,
            self.profile,
            self._on_batch,
            injection_period=self.injection_period,
            poisson=self.poisson,
            rng=rng,
        )
        self._injector.start()
        # Hot-path caches: every batch and every poll walks domain -> host /
        # domain -> vcpu chains otherwise.
        self._vcpu = self.domain.vcpu
        self._sync_accounting = self.domain.host.sync_accounting
        self._add_work = self.domain.add_work
        if self.track_latency:
            # Progress polling runs on its own timer so responses completed
            # after the last arrival (backlog drain) are still recorded.
            self._progress_timer = PeriodicTimer(
                self.engine,
                self.injection_period,
                self._poll_progress,
                label=f"webapp-latency.{self.domain.name}",
            )
            self._progress_timer.start()

    def stop(self) -> None:
        if self._injector is not None:
            self._injector.stop()
        if self._progress_timer is not None:
            self._progress_timer.stop()

    # ------------------------------------------------------------ statistics

    @property
    def requests_sent(self) -> float:
        """Requests injected so far."""
        return self._injector.requests_sent if self._injector else 0.0

    @property
    def backlog_work(self) -> float:
        """Absolute seconds of work currently queued on the vCPU."""
        return self.domain.vcpu.pending_work

    @property
    def requests_completed(self) -> float:
        """Requests fully served (work done / per-request cost)."""
        return self.domain.work_done / self.request_cost

    @property
    def drop_fraction(self) -> float:
        """Share of offered work shed by the bounded queue."""
        check_non_negative(self.offered_work, "offered_work")
        if self.offered_work == 0.0:
            return 0.0
        return self.dropped_work / self.offered_work

    # ------------------------------------------------------------ internals

    def _on_batch(self, n_requests: float, now: float) -> None:
        offered = n_requests * self.request_cost
        self.offered_work += offered
        room = self.max_backlog - self._vcpu._pending_work
        accepted = min(offered, max(room, 0.0))
        dropped = offered - accepted
        self.accepted_work += accepted
        self.dropped_work += dropped
        if accepted > 0:
            if self.latency is not None:
                self._poll_progress(now)
                self.latency.on_arrival(now, accepted, accepted / self.request_cost)
            self._add_work(accepted)

    def _poll_progress(self, now: float) -> None:
        if self.latency is None:  # pragma: no cover - timer only runs if tracking
            return
        self._sync_accounting()
        done = self._vcpu._work_done
        delta = done - self._last_work_done
        self._last_work_done = done
        if delta > 0:
            self.latency.on_progress(now, delta)
        # NOTE: the poll timer deliberately does NOT retire with the
        # injector.  Its sync_accounting() call is an accounting *fold
        # point*, and fold points pin the low-order bits of every exported
        # energy/time series; periodic timers accumulate their fire times
        # in floating point, so poll instants do not exactly coincide with
        # scheduler-tick instants and no other timer reproduces these folds.
