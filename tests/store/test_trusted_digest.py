"""Warm reads trust a blob whose exact bytes match the digest its writer recorded.

Every other read (no digest, a wrong one, a blob rewritten since) runs the
full canonical check, so the index can make reads cheaper but never wrong.
"""

import hashlib
import json

import pytest

import repro.store.store as store_module
from repro.errors import StoreCorruptionError
from repro.experiments import ScenarioConfig
from repro.store import canonical_json, cell_key, config_payload, encode_blob, ExperimentStore
from repro.sweep import SweepGrid, SweepRunner
from repro.sweep.grid import describe_value

METRICS = ["loads", "energy"]


def put_cell(store, key, label="cell", energy=42.0):
    return store.put(
        key,
        config_payload={"type": "ScenarioConfig", "spec": {"label": label}},
        label=label,
        params={"axis": label},
        seed=1,
        metrics_list=["loads"],
        metrics={"energy_joules": energy},
    )


@pytest.fixture
def canonical_calls(monkeypatch):
    """Counts the store's own canonical_json calls (the full-check re-encode)."""
    calls = {"n": 0}
    real = store_module.canonical_json

    def counting(value):
        calls["n"] += 1
        return real(value)

    monkeypatch.setattr(store_module, "canonical_json", counting)
    return calls


def rewrite_index(store, change):
    lines = []
    for line in store.index_path.read_text().splitlines():
        entry = json.loads(line)
        change(entry)
        lines.append(canonical_json(entry) + "\n")
    store.index_path.write_text("".join(lines))


def blob_digest(store, key):
    return hashlib.sha256(store.blob_path(key).read_bytes()).hexdigest()


def test_put_records_the_digest_of_the_exact_blob_bytes(tmp_path):
    store = ExperimentStore(tmp_path / "st")
    put_cell(store, "a" * 64)
    (entry,) = store.entries()
    assert set(entry) == {"key", "label", "config_type", "blob_sha256"}
    assert entry["blob_sha256"] == blob_digest(store, "a" * 64)


def test_warm_resume_from_a_fresh_store_never_recanonicalises(tmp_path, canonical_calls):
    grid = SweepGrid(
        {"scheduler": ["credit", "pas"], "v20_load": ["exact", "thrashing"]},
        base=ScenarioConfig(duration=200.0),
        vary_seed=True,
    )
    writer = ExperimentStore(tmp_path / "st")
    for index, cell in enumerate(grid):
        writer.put(
            cell_key(cell.config, METRICS, cell.seed),
            config_payload=config_payload(cell.config),
            label=cell.label,
            params={k: describe_value(v) for k, v in cell.params.items()},
            seed=cell.seed,
            metrics_list=METRICS,
            metrics={"energy_joules": float(index)},
        )
    canonical_calls["n"] = 0
    runner = SweepRunner(grid, metrics=METRICS, store=ExperimentStore(tmp_path / "st"))
    results = runner.run()  # synthetic payloads: a recomputed cell would differ
    assert (runner.cache_hits, runner.computed) == (4, 0)
    assert [cell.metrics["energy_joules"] for cell in results] == [0.0, 1.0, 2.0, 3.0]
    assert canonical_calls["n"] == 0


def test_index_without_digests_reads_with_one_full_check_per_blob(
    tmp_path, canonical_calls
):
    writer = ExperimentStore(tmp_path / "st")
    keys = ["a" * 64, "b" * 64, "c" * 64]
    for key in keys:
        put_cell(writer, key, key[:1])
    # A store written before index lines carried blob_sha256.
    rewrite_index(writer, lambda entry: entry.pop("blob_sha256"))
    canonical_calls["n"] = 0
    store = ExperimentStore(tmp_path / "st")
    for _ in range(3):
        assert [store.read(key)["label"] for key in keys] == ["a", "b", "c"]
    assert canonical_calls["n"] == len(keys)


def test_blob_edited_after_put_is_rejected_by_the_writer_and_a_fresh_store(tmp_path):
    store = ExperimentStore(tmp_path / "st")
    key = "d" * 64
    put_cell(store, key)
    path = store.blob_path(key)
    path.write_text(path.read_text().replace("42.0", "43.0"))
    for reader in (store, ExperimentStore(tmp_path / "st")):
        with pytest.raises(StoreCorruptionError, match="digest mismatch"):
            reader.read(key)
        assert reader.lookup(key) is None


def test_wrong_index_digest_falls_back_to_the_full_check(tmp_path, canonical_calls):
    writer = ExperimentStore(tmp_path / "st")
    key = "e" * 64
    put_cell(writer, key)
    rewrite_index(writer, lambda entry: entry.update(blob_sha256="0" * 64))
    canonical_calls["n"] = 0
    store = ExperimentStore(tmp_path / "st")
    assert store.read(key)["metrics"] == {"energy_joules": 42.0}
    assert canonical_calls["n"] == 1


def test_blob_replaced_by_another_valid_blob_is_accepted_through_the_fallback(
    tmp_path, canonical_calls
):
    store = ExperimentStore(tmp_path / "st")
    key = "f" * 64
    payload = put_cell(store, key, energy=1.0)
    # Rewritten behind the store's back (say, by another library version):
    # the recorded digest no longer matches, but the blob itself is sound.
    store.blob_path(key).write_text(
        encode_blob(dict(payload, metrics={"energy_joules": 2.0}))
    )
    canonical_calls["n"] = 0
    for reader in (store, ExperimentStore(tmp_path / "st")):
        assert reader.read(key)["metrics"] == {"energy_joules": 2.0}
    assert canonical_calls["n"] == 2


def test_gc_rebuilds_an_index_that_carries_digests(tmp_path, canonical_calls):
    store = ExperimentStore(tmp_path / "st")
    keys = ["1" * 64, "2" * 64, "3" * 64]
    for key in keys:
        put_cell(store, key, key[:1])

    def drop_first_digest(entry):
        if entry["key"] == keys[0]:
            del entry["blob_sha256"]

    # One line lost its digest, one line was lost altogether.
    rewrite_index(store, drop_first_digest)
    store.index_path.write_text(
        "".join(
            line + "\n"
            for line in store.index_path.read_text().splitlines()
            if keys[1] not in line
        )
    )
    stats = ExperimentStore(tmp_path / "st").gc()
    assert (stats["kept"], stats["reindexed"]) == (3, 1)
    entries = {entry["key"]: entry for entry in store.entries()}
    assert sorted(entries) == keys
    for key in keys:
        assert entries[key]["blob_sha256"] == blob_digest(store, key)
    canonical_calls["n"] = 0
    fresh = ExperimentStore(tmp_path / "st")
    assert [fresh.read(key)["label"] for key in keys] == ["1", "2", "3"]
    assert canonical_calls["n"] == 0
