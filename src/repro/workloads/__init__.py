"""Workloads (subsystem S7): the paper's two applications and their drivers.

* :class:`PiApp` — the fixed-work batch job used "when we aim at measuring
  an execution time" (§5.1);
* :class:`WebApp` — the Joomla-style service used "when we aim at measuring
  a CPU load", driven by an httperf-like open-loop injector with the paper's
  three-phase (inactive / active / inactive) profiles and the two active
  intensities: *exact* load (100 % of the VM's capacity, no more) and
  *thrashing* load (exceeding the VM's capacity) — §5.3;
* :class:`ConstantLoad` — a duty-cycle source (Dom0 housekeeping, tests);
* :class:`LoadProfile` — piecewise-constant request-rate schedules;
* :class:`HttperfInjector` — the rate generator (deterministic fluid by
  default, optional Poisson arrivals);
* the day-shape catalog (:mod:`~repro.workloads.dayshapes`) — named,
  seeded utilisation-day generators (``diurnal-office``, ``flash-crowd``,
  ``batch-overnight``, ``noisy-neighbor``, ``weekend``) for heterogeneous
  fleets.
"""

from .base import Workload
from .constant import ConstantLoad
from .dayshapes import (
    DAYSHAPES,
    dayshape_csv,
    dayshape_names,
    dayshape_points,
    dayshape_series,
    DayShape,
)
from .latency import LatencyTracker
from .pi_app import PiApp
from .profiles import LoadProfile, Phase
from .injector import HttperfInjector
from .trace import load_trace_csv, SyntheticTrace, TraceLoad, TracePoint
from .web_app import WebApp, exact_rate, thrashing_rate

__all__ = [
    "DAYSHAPES",
    "DayShape",
    "dayshape_csv",
    "dayshape_names",
    "dayshape_points",
    "dayshape_series",
    "Workload",
    "ConstantLoad",
    "LatencyTracker",
    "PiApp",
    "LoadProfile",
    "Phase",
    "HttperfInjector",
    "SyntheticTrace",
    "TraceLoad",
    "TracePoint",
    "load_trace_csv",
    "WebApp",
    "exact_rate",
    "thrashing_rate",
]
