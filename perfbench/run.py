"""The repo benchmark: one workload, repeated, with medians and output checks.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload host-governors --seed 1 --seconds 15 --trace 0

Workloads: ``host-governors``, ``host-qos``, ``fleet-256``, ``store-resume``
(see ``perfbench/NOTES.md`` for why each exists).  Every repetition runs in
a fresh process (set-up, then the timed phase, then the checks), serially.

``--trace 0`` repeats for about ``--seconds`` (at least :data:`MIN_REPS`
times) and reports the medians of ``timed_s``, ``setup_s``
and ``peak_rss_mb``.  Both times are seconds at a reference core speed
(``perfbench/clock.py``), which the shared host's changing core speed does
not move.  ``--trace 1`` runs one untraced and one traced repetition and
reports every per-layer metric from the traced one, plus the tracing
overhead (traced ``timed_s`` / untraced ``timed_s``); both must export the
same bytes.  Spans land in ``.perfbench/spans-<workload>.bin``.

The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The simulated-output
fingerprint (export sha256, events fired, energy, migrations) must repeat
across repetitions; it is compared with ``perfbench/fingerprints.json``
and any change is printed.  ``--update-fingerprints`` records it there.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.tracer import LAYER_METRICS  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

BENCH = ROOT / "perfbench"
WORKDIR = ROOT / ".perfbench"
FINGERPRINTS = BENCH / "fingerprints.json"

#: Repetitions per untraced run, however short ``--seconds`` is.
MIN_REPS = 3
#: A repetition that takes longer than this is stuck.
REP_TIMEOUT_S = 150


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def run_rep(workload: str, seed: int, trace: bool) -> dict:
    """Spawn one repetition and return its report."""
    command = [
        sys.executable,
        str(BENCH / "rep.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--trace={int(trace)}",
        f"--workdir={WORKDIR}",
    ]
    if trace:
        command.append(f"--spans={WORKDIR / f'spans-{workload}.bin'}")
    # A fixed hash seed keeps set and dict iteration, and so the work done,
    # identical from one repetition to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    proc = subprocess.run(
        [*command, f"--started={started!r}"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=REP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"repetition printed no report: {proc.stdout[-500:]!r}") from None


def describe(fingerprint: dict) -> str:
    return (
        f"export sha256 {fingerprint['export_sha256'][:16]}, "
        f"events {fingerprint['events']}, energy {fingerprint['energy_j']!r} J, "
        f"migrations {fingerprint['migrations']}"
    )


def compare_fingerprint(workload: str, seed: int, fingerprint: dict, update: bool) -> None:
    """Print how *fingerprint* relates to the recorded one (or record it)."""
    recorded = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    reference = recorded.get(workload, {}).get(str(seed))
    if update:
        recorded.setdefault(workload, {})[str(seed)] = fingerprint
        FINGERPRINTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
        print(f"fingerprint recorded for {workload} seed {seed}")
    elif reference is None:
        print(f"fingerprint: no reference for {workload} seed {seed}")
    elif reference == fingerprint:
        print("fingerprint: identical to the reference")
    else:
        print(f"fingerprint CHANGED from the reference: {describe(reference)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-fingerprints", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        return fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    WORKDIR.mkdir(exist_ok=True)
    # Byte-compile first so no repetition pays for it.
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=ROOT,
        capture_output=True,
    )
    if compiled.returncode != 0:
        return fail("byte-compiling the sources failed")

    reps: list[dict] = []
    try:
        if args.trace:
            reps.append(run_rep(args.workload, args.seed, trace=False))
            reps.append(run_rep(args.workload, args.seed, trace=True))
        else:
            began = time.monotonic()
            durations: list[float] = []
            # Stop before a repetition that would end over half of one past --seconds.
            while len(reps) < MIN_REPS or (
                time.monotonic() - began + statistics.median(durations) / 2 < args.seconds
            ):
                started = time.monotonic()
                reps.append(run_rep(args.workload, args.seed, trace=False))
                durations.append(time.monotonic() - started)
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        return fail(str(error))

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}")
    for index, rep in enumerate(reps, 1):
        kind = "traced" if "layers" in rep else "untraced"
        print(
            f"rep {index} ({kind}): setup {rep['setup_s']:.3f} s, timed {rep['timed_s']:.3f} s "
            f"(wall {rep['wall_s']:.3f} s), "
            f"peak rss {rep['peak_rss_mb']:.1f} MiB, "
            f"{rep['attempted']} cells, {rep['failed']} failed"
        )
        for error in rep["errors"]:
            print(f"  error: {error}")
    fingerprints = [rep["fingerprint"] for rep in reps]
    steady = all(fp == fingerprints[0] for fp in fingerprints)
    print(f"fingerprint: {describe(fingerprints[0])}")
    if not steady:
        print("fingerprint DIFFERS between repetitions")
    compare_fingerprint(args.workload, args.seed, fingerprints[0], args.update_fingerprints)

    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    if args.trace:
        untraced, traced = reps
        overhead = traced["timed_s"] / untraced["timed_s"]
        print(f"tracing overhead: {overhead:.2f}x (traced timed_s / untraced timed_s)")
        metrics = {
            name: {"value": traced["layers"][name], "unit": unit}
            for name, unit in LAYER_METRICS.items()
        }
        metrics["bench.trace_overhead"] = {"value": overhead, "unit": "ratio"}
    else:
        metrics = {
            name: {"value": statistics.median(rep[name] for rep in reps), "unit": unit}
            for name, unit in (("timed_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
        }
    result = {
        "correct": steady and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
