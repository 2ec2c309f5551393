"""The import boundary: a single-host sweep loads only the host tier.

A fresh interpreter looks up the ``governors`` preset, builds its grid at
a short duration and sweeps it serially.  None of the fleet tier, the
claims registry, the Table 2 platforms, the wall-clock profiler or
``multiprocessing`` may be loaded, and the run itself may import nothing
(a first import there would be paid inside a timed phase).
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

#: Modules (and their submodules) a single-host run must not load.
FORBIDDEN = (
    "repro.cluster",
    "repro.experiments.claims",
    "repro.obs.profile",
    "repro.platforms",
    "multiprocessing",
)

SCRIPT = """
import json, sys
from repro.experiments import preset_grid
from repro.sweep import SweepRunner

grid = preset_grid(
    "governors",
    overrides={"duration": 20.0, "v20_active": (2.0, 18.0), "v70_active": (6.0, 14.0)},
)
before = set(sys.modules)
results = SweepRunner(grid, workers=1).run()
print(json.dumps({
    "cells": len(results),
    "loaded": sorted(sys.modules),
    "imported_by_run": sorted(set(sys.modules) - before),
}))
"""


def _forbidden(name: str) -> bool:
    return any(name == root or name.startswith(root + ".") for root in FORBIDDEN)


def _run_fresh() -> dict:
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_single_host_sweep_stays_inside_the_import_boundary():
    report = _run_fresh()
    assert report["cells"] == 8
    assert [name for name in report["loaded"] if _forbidden(name)] == []
    assert report["imported_by_run"] == []
