"""Tests of the benchmark itself, on shrunken versions of its workloads.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import pytest

from perfbench.clock import REF_PROBE_S, RefClock, SPEED_EXPONENT
from perfbench.tracer import LAYER_METRICS, load_spans, Tracer
from perfbench.workloads import FleetSweep, HostSweep, StoreResume

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: The four workloads at test size: same code paths, a fraction of the work.
SMALL = {
    "host-governors": HostSweep(
        "governors", duration=40.0, v20_active=(4.0, 36.0), v70_active=(12.0, 28.0)
    ),
    "host-qos": HostSweep("qos-noisy-neighbor", duration=40.0),
    "fleet-256": FleetSweep(machines=8, vms=24, budget_w=160.0, duration=50.0),
    "store-resume": StoreResume(cells=20),
}


def execute(workload, tmp_path: pathlib.Path, *, spans: bool, seed: int = 1):
    """Prepare, run and check *workload* as ``rep.py`` does; (verdict, tracer, run)."""
    tracer = Tracer(spans=spans).install()
    try:
        prepared = workload.prepare(seed, tmp_path)
        prepared.run()
    finally:
        tracer.uninstall()
    return prepared.check(tracer.counts["sim.events"]), tracer, prepared


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Per-layer metrics of one traced run of every small workload."""
    return {
        name: execute(workload, tmp_path_factory.mktemp(name), spans=True)[1].layer_metrics()
        for name, workload in SMALL.items()
    }


def test_every_layer_metric_is_reported(traced):
    for layers in traced.values():
        assert list(layers) == list(LAYER_METRICS)


@pytest.mark.parametrize("name", ["host-governors", "host-qos"])
def test_host_tier_never_reaches_the_cluster_and_always_misses(traced, name):
    layers = traced[name]
    assert all(value == 0 for metric, value in layers.items() if metric.startswith("cluster."))
    assert layers["sim.events"] > 0
    assert layers["schedulers.calls"] > 0
    assert layers["store.lookup_calls"] > 0
    assert layers["store.hit_ratio"] == 0.0


def test_only_host_qos_runs_the_qos_monitor(traced):
    assert traced["host-qos"]["qos.self_s"] > 0
    assert traced["host-governors"]["qos.self_s"] == 0


@pytest.mark.parametrize("name", ["fleet-256", "store-resume"])
def test_fleet_and_store_fire_no_engine_events(traced, name):
    assert traced[name]["sim.events"] == 0
    assert traced[name]["hypervisor.sync_calls"] == 0


def test_fleet_plans_and_serves_without_the_store(traced):
    layers = traced["fleet-256"]
    assert layers["cluster.plan_s"] > 0
    assert layers["cluster.serve_s"] > 0
    assert layers["workloads.calls"] > 0
    assert layers["store.lookup_calls"] == 0


def test_store_resume_hits_every_lookup(traced):
    layers = traced["store-resume"]
    assert layers["store.put_calls"] == 20
    assert layers["store.lookup_calls"] > 0
    assert layers["store.hit_ratio"] == 1.0


def test_predict_power_runs_only_in_the_power_budget_cell():
    from repro.experiments import preset_grid
    from repro.sweep.runner import execute_config

    grid = preset_grid(
        "dc-fleet-large",
        overrides={"n_machines": 8, "n_vms": 24, "power_budget_w": 160.0, "duration": 50.0},
    )
    calls = {}
    for cell in grid:
        with Tracer() as tracer:
            execute_config(cell.config)
        calls[cell.params["policy"]] = tracer.counts["cluster.predict_power_calls"]
    assert calls["power-budget"] > 0
    assert calls["static"] == 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_export_and_fingerprint_match_untraced(tmp_path, name):
    plain, _, plain_run = execute(SMALL[name], tmp_path / "plain", spans=False)
    traced, _, traced_run = execute(SMALL[name], tmp_path / "traced", spans=True)
    assert plain.failed == 0 and traced.failed == 0
    assert plain.attempted == traced.attempted > 0
    assert traced_run.export == plain_run.export
    assert traced.fingerprint == plain.fingerprint


def test_seed_changes_the_inputs(tmp_path):
    one, _, _ = execute(SMALL["store-resume"], tmp_path / "one", spans=False, seed=1)
    two, _, _ = execute(SMALL["store-resume"], tmp_path / "two", spans=False, seed=2)
    assert one.fingerprint["export_sha256"] != two.fingerprint["export_sha256"]


def test_tampered_store_blob_is_one_failed_cell(tmp_path):
    tracer = Tracer(spans=False).install()
    try:
        prepared = StoreResume(cells=6).prepare(1, tmp_path)
        blob = sorted(prepared.store.cells_dir.glob("*.json"))[0]
        blob.write_text(blob.read_text().replace("energy_joules", "energy_joulez"))
        prepared.run()
    finally:
        tracer.uninstall()
    verdict = prepared.check(tracer.counts["sim.events"])
    assert verdict.attempted == 6
    assert verdict.failed == 1


def test_self_time_subtracts_child_spans(tmp_path):
    tracer = Tracer()
    inner = tracer.span("b:inner", lambda: time.sleep(0.01))

    def outer_body():
        inner()
        inner()
        time.sleep(0.01)

    outer = tracer.span("a:outer", outer_body)
    outer()
    by_kind, entries = tracer.self_times()
    total = tracer.end[0] - tracer.start[0]
    assert by_kind["a:outer"] + by_kind["b:inner"] == pytest.approx(total)
    assert by_kind["b:inner"] == pytest.approx(tracer.end[1] - tracer.start[1] + tracer.end[2] - tracer.start[2])
    assert entries == {"a": 1, "b": 2}

    path = tmp_path / "spans.bin"
    tracer.dump(path)
    kinds, kind, parent, start, end = load_spans(path)
    assert kinds == ["b:inner", "a:outer"]
    assert list(kind) == [1, 0, 0]
    assert list(parent) == [-1, 0, 0]
    assert list(start) == list(tracer.start) and list(end) == list(tracer.end)


def test_ref_clock_rescales_by_probe_speed():
    clock = RefClock()
    # Probes at 0, 1 and 2 s; the last one ran twice as slow as the reference.
    clock.at.extend([0.0, 1.0, 2.0])
    clock.took.extend([REF_PROBE_S, REF_PROBE_S, 2 * REF_PROBE_S])
    assert clock.ref_seconds(0, 1) == pytest.approx(1.0 - REF_PROBE_S)
    slow = 0.5**SPEED_EXPONENT
    assert clock.ref_seconds(0, 2) == pytest.approx((2.0 - 2 * REF_PROBE_S) * (2 + slow) / 3)


def test_ref_clock_probes_in_the_background_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = RefClock(period_s=0.01).start()
    try:
        first = clock.mark()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        last = clock.mark()
    finally:
        clock.stop()
    assert last - first >= 5
    assert 0.0 < clock.ref_seconds(first, last)
    assert signal.getsignal(signal.SIGALRM) == before


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "host-qos", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
