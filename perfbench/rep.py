"""One repetition of a workload, in a process of its own.

Usage (normally spawned by ``run.py``)::

    python3 perfbench/rep.py --workload host-qos --seed 1 --trace 0 \
        --started <time.monotonic() at spawn> --workdir .perfbench

Set-up time runs from ``--started`` (taken by the parent just before the
spawn, so interpreter start and imports count) to the start of the timed
phase.  Both phases are read on a :class:`~perfbench.clock.RefClock`,
which starts before the first import of the program; interpreter start,
before the clock's first probe, is rescaled as the rest of set-up is.  The last stdout
line is one JSON object: ``setup_s``, ``timed_s``, ``wall_s`` (the timed
phase in plain seconds), ``peak_rss_mb``, ``attempted``, ``failed``,
``errors``, ``fingerprint`` and, with ``--trace 1``, ``layers`` (every
per-layer metric) after the spans were written to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.clock import RefClock  # noqa: E402

CLOCK = RefClock().start()
SPAWN_S = time.monotonic()
BOOT = CLOCK.mark()

from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    parser.add_argument("--spans", type=pathlib.Path)
    args = parser.parse_args()

    tracer = Tracer(spans=bool(args.trace)).install()
    with tempfile.TemporaryDirectory(dir=args.workdir, prefix="rep-") as workdir:
        prepared = WORKLOADS[args.workload].prepare(args.seed, pathlib.Path(workdir))
        began = CLOCK.mark()
        prepared.run()
        ended = CLOCK.mark()
        CLOCK.stop()
        tracer.uninstall()
        verdict = prepared.check(tracer.counts["sim.events"])
    report = {
        "setup_s": (SPAWN_S - args.started + CLOCK.wall_seconds(BOOT, began))
        * CLOCK.scale(BOOT, began),
        "timed_s": CLOCK.ref_seconds(began, ended),
        "wall_s": CLOCK.wall_seconds(began, ended),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "errors": verdict.errors[:5],
        "fingerprint": verdict.fingerprint,
    }
    if args.trace:
        if args.spans is not None:
            tracer.dump(args.spans)
        report["layers"] = tracer.layer_metrics()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
