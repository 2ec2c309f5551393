"""Opt-in wall-clock sampling profiler (the one sanctioned wall-clock module).

Everything else under ``src/repro/`` is banned from reading a wall clock
(RPL101, and transitively from the hot loop by RPL801).  This module is the
single sanctioned exception — ``WALL_CLOCK_SANCTIONED`` in
:mod:`repro.lint.rules` names it — because a profiler's whole job is to
read wall time, and it must never influence simulation results.

:class:`SamplingProfiler` runs a config through the ordinary
:func:`repro.sweep.runner.execute_config` with a ``SIGPROF`` interval timer
armed.  Each signal credits one sample to the innermost frame whose file
lies under ``src/repro/``: its **layer** is the package (``repro/<pkg>/``,
or a top-level module such as ``units.py`` on its own) and its
**function** is ``module:qualname``.  Time spent in the standard library
or in C code lands on the repro frame that called it.

The handler only reads the interrupted frame stack and bumps a counter, so
a sampled run computes and exports the same bytes as a plain one.  Only
the CLI imports this module (``repro profile``, the sweep's live rate
line), and no other module knows the sampler exists.
"""

from __future__ import annotations

import os
import signal
import time
from collections import Counter
from types import CodeType, FrameType
from typing import Any

from ..errors import ConfigurationError

#: Process CPU time between samples.  The kernel delivers ``SIGPROF`` at
#: most once per scheduler tick, so a 250 Hz kernel caps this at about
#: 250 samples per CPU second.
SAMPLE_INTERVAL_S = 0.001

#: How many of the busiest functions the table lists.
TOP_FUNCTIONS = 12

#: The ``src/repro`` directory (with a trailing separator); frames from
#: files under it are credited.
_PACKAGE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "")


def wall_now() -> float:
    """The wall clock (``time.perf_counter``), for rate displays and benches.

    Call sites outside this module must go through this function: RPL101
    bans the textual ``time.perf_counter`` everywhere else in the library,
    and keeping every wall-clock read behind one name keeps the sanction
    auditable.
    """
    return time.perf_counter()


def _label_of(code: CodeType) -> tuple[str, str] | None:
    """``(layer, "module:function")`` for a repro code object, else None."""
    path = os.path.realpath(code.co_filename)
    if not path.startswith(_PACKAGE_DIR):
        return None
    parts = path[len(_PACKAGE_DIR) :].split(os.sep)
    module = os.path.splitext(parts[-1])[0]
    if module == "__init__" and len(parts) > 1:
        module = parts[-2]
    layer = parts[0] if len(parts) > 1 else module
    # ``co_qualname`` (Class.method) exists from Python 3.11 on.
    return layer, f"{module}:{getattr(code, 'co_qualname', code.co_name)}"


class SamplingProfiler:
    """Counts ``SIGPROF`` samples per repro function over one run."""

    def __init__(self) -> None:
        #: Samples per ``(layer, "module:function")``, over every run.
        self.samples: Counter[tuple[str, str]] = Counter()
        #: Samples that found no repro frame on the stack.
        self.outside = 0
        #: Wall time of every run so far.
        self.run_wall_s = 0.0
        self._labels: dict[CodeType, tuple[str, str] | None] = {}

    def handle(self, signum: int, frame: FrameType | None) -> None:
        """The ``SIGPROF`` handler: credit the innermost repro frame."""
        labels = self._labels
        while frame is not None:
            code = frame.f_code
            if code not in labels:
                labels[code] = _label_of(code)
            label = labels[code]
            if label is not None:
                self.samples[label] += 1
                return
            frame = frame.f_back
        self.outside += 1

    def run(self, config: Any) -> Any:
        """Run *config* through ``execute_config`` under the sampler.

        Returns the run's outcome.  Samples and wall time add up over
        calls, so one profiler can cover every cell of a grid.  Raises
        :class:`ConfigurationError` on a platform without
        ``signal.setitimer``.
        """
        if not hasattr(signal, "setitimer"):
            raise ConfigurationError(
                "sampling needs signal.setitimer, which this platform lacks"
            )
        from ..sweep.runner import execute_config

        previous = signal.signal(signal.SIGPROF, self.handle)
        began = wall_now()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            return execute_config(config)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            self.run_wall_s += wall_now() - began
            signal.signal(signal.SIGPROF, previous)

    # -------------------------------------------------------------- results

    @property
    def total(self) -> int:
        """Every sample taken, inside repro frames or not."""
        return sum(self.samples.values()) + self.outside

    def layer_rows(self) -> list[tuple[str, int]]:
        """``(layer, samples)`` by samples (descending), then name.

        Samples with no repro frame on the stack form an ``(outside repro)``
        row, present only when there are any.
        """
        per_layer: Counter[str] = Counter()
        for (layer, _), count in self.samples.items():
            per_layer[layer] += count
        if self.outside:
            per_layer["(outside repro)"] = self.outside
        return sorted(per_layer.items(), key=lambda row: (-row[1], row[0]))

    def render_table(self) -> str:
        """The per-layer and top-function table ``repro profile`` prints."""
        total = self.total
        if not total:
            return (
                f"no samples: the run took {self.run_wall_s:.3f} s of wall time, "
                "too short for the sampling timer to fire"
            )
        lines = [f"{'layer':<16} {'samples':>8} {'share':>7}"]
        lines.append("-" * len(lines[0]))
        for layer, count in self.layer_rows():
            lines.append(f"{layer:<16} {count:>8} {count / total:>7.1%}")
        lines += ["", f"top {TOP_FUNCTIONS} functions"]
        header = f"{'samples':>8} {'share':>7}  {'layer':<12} function"
        lines += [header, "-" * len(header)]
        ranked = sorted(self.samples.items(), key=lambda item: (-item[1], item[0]))
        for (layer, name), count in ranked[:TOP_FUNCTIONS]:
            lines.append(f"{count:>8} {count / total:>7.1%}  {layer:<12} {name}")
        lines += ["", f"{total} samples over {self.run_wall_s:.3f} s of run wall"]
        return "\n".join(lines)
