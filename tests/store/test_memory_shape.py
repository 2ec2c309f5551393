"""What a store read holds in memory: one decoded blob, plus what it returns.

Decoded cells share their metric-name strings, so a store's worth of
metrics dicts costs the values, not one copy of every name per cell; and
``to_results()`` keeps four fields per cell, never the config trees of
every payload at once.
"""

import random
import tracemalloc

from repro.experiments import get_preset, preset_grid
from repro.store import cell_key, config_payload, ExperimentStore
from repro.sweep.grid import describe_value


def fleet_metrics(rng: random.Random) -> dict[str, float]:
    """146 metrics in the shape of a stress-fleet cell."""
    metrics = {
        f"s{guest:02d}_{quantity}_{phase}": rng.uniform(0.0, 100.0)
        for guest in range(8)
        for quantity in ("global_load", "absolute_load", "credit_used")
        for phase in ("phase1", "phase2", "phase3", "peak", "mean", "min")
    }
    metrics["energy_joules"] = rng.uniform(2.0e4, 4.0e4)
    metrics["dvfs_transitions"] = rng.randrange(100, 5000)
    return metrics


def fill(store: ExperimentStore, cells: int, *, with_config: bool) -> None:
    grid = preset_grid("stress-fleet", overrides={"seed": 1}, replicates=cells // 2)
    names = get_preset("stress-fleet").metrics
    rng = random.Random(1)
    for cell in grid:
        store.put(
            cell_key(cell.config, names, cell.seed),
            config_payload=config_payload(cell.config) if with_config else {},
            label=cell.label,
            params={k: describe_value(v) for k, v in cell.params.items()},
            seed=cell.seed,
            metrics_list=list(names),
            metrics=fleet_metrics(rng),
        )


def to_results_peak(root) -> int:
    store = ExperimentStore(root)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        results = store.to_results()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(results) == 200
    return peak


def test_reads_of_different_blobs_share_metric_names(tmp_path):
    store = ExperimentStore(tmp_path / "st")
    fill(store, 4, with_config=False)
    first, second = store.keys()[:2]
    a = ExperimentStore(tmp_path / "st").read(first)["metrics"]
    b = store.lookup(second)["metrics"]
    assert a is not b and a != b
    assert list(a) == list(b)
    assert all(x is y for x, y in zip(a, b))


def test_every_read_returns_fresh_dicts(tmp_path):
    store = ExperimentStore(tmp_path / "st")
    fill(store, 2, with_config=False)
    key = store.keys()[0]
    first, again = store.read(key), store.read(key)
    assert first == again
    assert first is not again and first["metrics"] is not again["metrics"]
    first["metrics"].clear()
    assert store.read(key)["metrics"] == again["metrics"]


def test_to_results_peak_does_not_grow_with_config_payloads(tmp_path):
    fill(ExperimentStore(tmp_path / "real"), 200, with_config=True)
    fill(ExperimentStore(tmp_path / "bare"), 200, with_config=False)
    bare = to_results_peak(tmp_path / "bare")
    real = to_results_peak(tmp_path / "real")
    assert real <= 1.1 * bare, f"to_results peak {real / bare:.2f}x with real configs"
