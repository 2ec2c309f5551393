"""Observability: sim-time tracing, runtime metrics, sampling profiling.

Three layers, strictly separated by their relationship to determinism:

* :mod:`repro.obs.trace` — Chrome trace-event output keyed on **sim time**;
  deterministic, byte-identical per seed, safe inside the RPL8xx net;
* :mod:`repro.obs.metrics` — monotonic counters/gauges, mostly harvested
  from counters the subsystems already keep; equally deterministic;
* :mod:`repro.obs.profile` — the **only** module in the library allowed to
  read a wall clock: a ``SIGPROF`` sampler that credits each sample to the
  innermost ``repro`` frame, so the static determinism walk never sees it.
  This package does not re-export it: import it as ``repro.obs.profile``,
  so a run that profiles nothing never loads it.

The hot paths consult :mod:`repro.obs.hooks` (two nullable module globals)
— with nothing installed the whole layer costs one ``is not None`` test
per instrumented site.
"""

from .hooks import (
    install_metrics,
    install_tracer,
    observed,
    uninstall_metrics,
    uninstall_tracer,
)
from .metrics import (
    MetricsRegistry,
    collect_cluster,
    collect_engine,
    collect_host,
    collect_outcome,
    collect_sweep,
)
from .trace import TRACE_SCHEMA, Tracer, validate_trace_file, validate_trace_text

__all__ = [
    "MetricsRegistry",
    "TRACE_SCHEMA",
    "Tracer",
    "collect_cluster",
    "collect_engine",
    "collect_host",
    "collect_outcome",
    "collect_sweep",
    "install_metrics",
    "install_tracer",
    "observed",
    "uninstall_metrics",
    "uninstall_tracer",
    "validate_trace_file",
    "validate_trace_text",
]
