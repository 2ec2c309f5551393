"""ExperimentStore robustness: integrity, versioning, concurrency, GC."""

import hashlib
import json
import multiprocessing

import pytest

from repro.errors import (
    ConfigurationError,
    StoreCorruptionError,
    StoreError,
    StoreVersionError,
)
from repro.experiments import ScenarioConfig
from repro.store import (
    canonical_json,
    cell_key,
    config_payload,
    encode_blob,
    ExperimentStore,
    metric_names,
    STORE_SCHEMA_VERSION,
)


def put_cell(store: ExperimentStore, key: str, label: str = "cell", **metrics):
    """Store one synthetic cell (tests don't need a real simulation)."""
    return store.put(
        key,
        config_payload={"type": "ScenarioConfig", "spec": {"label": label}},
        label=label,
        params={"axis": label},
        seed=1,
        metrics_list=["loads"],
        metrics=metrics or {"energy_joules": 42.0},
    )


# ------------------------------------------------------------------ the key


def test_cell_key_is_deterministic_and_config_sensitive():
    config = ScenarioConfig(duration=100.0)
    key = cell_key(config, ["loads"], 1)
    assert key == cell_key(ScenarioConfig(duration=100.0), ["loads"], 1)
    assert key != cell_key(ScenarioConfig(duration=200.0), ["loads"], 1)
    assert key != cell_key(config, ["loads", "energy"], 1)
    assert key != cell_key(config, ["loads"], 2)
    assert len(key) == 64  # sha256 hex


def test_cell_key_rejects_unstorable_configs():
    with pytest.raises(ConfigurationError, match="to_dict"):
        cell_key(object(), ["loads"], 1)


def test_metric_names_reject_callables():
    with pytest.raises(ConfigurationError, match="named metrics"):
        metric_names(["loads", lambda result: {}])


def test_config_payload_carries_type_and_spec():
    payload = config_payload(ScenarioConfig(scheduler="pas"))
    assert payload["type"] == "ScenarioConfig"
    assert payload["spec"]["scheduler"] == "pas"


# ------------------------------------------------------------- round trips


def test_put_read_round_trip(tmp_path):
    store = ExperimentStore(tmp_path / "st")
    key = "a" * 64
    put_cell(store, key, "one", energy_joules=7.5, dvfs_transitions=3)
    payload = store.read(key)
    assert payload["metrics"] == {"energy_joules": 7.5, "dvfs_transitions": 3}
    assert payload["label"] == "one"
    assert payload["schema"] == STORE_SCHEMA_VERSION
    assert key in store
    assert len(store) == 1


def test_lookup_missing_is_none_and_read_raises(tmp_path):
    store = ExperimentStore(tmp_path / "st")
    assert store.lookup("b" * 64) is None
    with pytest.raises(StoreError, match="no stored cell"):
        store.read("b" * 64)


def test_overwrite_replaces_blob_and_dedups_index(tmp_path):
    store = ExperimentStore(tmp_path / "st")
    key = "c" * 64
    put_cell(store, key, "old", energy_joules=1.0)
    put_cell(store, key, "new", energy_joules=2.0)
    assert store.read(key)["metrics"]["energy_joules"] == 2.0
    assert len(store) == 1
    assert [e["label"] for e in store.entries()] == ["new"]


# ---------------------------------------------------- damage and versioning


def test_corrupted_blob_detected_and_degrades_to_miss(tmp_path):
    store = ExperimentStore(tmp_path / "st")
    key = "d" * 64
    put_cell(store, key)
    path = store.blob_path(key)
    path.write_text(path.read_text().replace("42.0", "43.0"))  # flip a bit
    with pytest.raises(StoreCorruptionError, match="digest mismatch"):
        store.read(key)
    assert store.lookup(key) is None  # resume sees a miss, not a crash
    path.write_text("{not json")
    with pytest.raises(StoreCorruptionError, match="not valid JSON"):
        store.read(key)


def test_blob_claiming_wrong_key_is_corruption(tmp_path):
    store = ExperimentStore(tmp_path / "st")
    put_cell(store, "e" * 64)
    # A blob renamed (or copied) to another address must not be served.
    store.blob_path("f" * 64).write_text(store.blob_path("e" * 64).read_text())
    with pytest.raises(StoreCorruptionError, match="claims key"):
        store.read("f" * 64)


def test_digest_valid_non_object_payload_is_corruption(tmp_path):
    store = ExperimentStore(tmp_path / "st")
    key = "2" * 64
    digest = hashlib.sha256(canonical_json([1]).encode("utf-8")).hexdigest()
    store.blob_path(key).write_text(json.dumps({"payload": [1], "sha256": digest}))
    with pytest.raises(StoreCorruptionError, match="not a JSON object"):
        store.read(key)
    assert store.lookup(key) is None
    assert store.gc()["corrupt"] == 1
    assert not store.blob_path(key).exists()


def test_blob_bytes_that_are_not_utf8_are_corruption(tmp_path):
    store = ExperimentStore(tmp_path / "st")
    key = "3" * 64
    put_cell(store, key)
    store.blob_path(key).write_bytes(b"\xff\xfe" + store.blob_path(key).read_bytes())
    with pytest.raises(StoreCorruptionError, match="not valid JSON"):
        store.read(key)
    assert store.lookup(key) is None


def test_schema_version_mismatch_detected(tmp_path):
    store = ExperimentStore(tmp_path / "st")
    key = "1" * 64
    payload = put_cell(store, key)
    stale = dict(payload, schema=STORE_SCHEMA_VERSION + 1)
    store.blob_path(key).write_text(encode_blob(stale))
    with pytest.raises(StoreVersionError, match="schema"):
        store.read(key)
    assert store.lookup(key) is None


# ---------------------------------------------------------------------- gc


def test_gc_removes_damage_and_rebuilds_index(tmp_path):
    store = ExperimentStore(tmp_path / "st")
    put_cell(store, "a" * 64, "keep")
    put_cell(store, "b" * 64, "corrupt")
    put_cell(store, "c" * 64, "stale")
    put_cell(store, "d" * 64, "old-schema")
    store.blob_path("b" * 64).write_text("garbage")
    store.blob_path("c" * 64).unlink()  # index line now points nowhere
    old = dict(store.read("d" * 64), schema=0)
    store.blob_path("d" * 64).write_text(encode_blob(old))
    # An unindexed blob (e.g. the index line was lost to a crash).
    orphan = put_cell(store, "e" * 64, "orphan")
    store.index_path.write_text(
        "".join(
            line + "\n"
            for line in store.index_path.read_text().splitlines()
            if "orphan" not in line
        )
        + "torn-tail-line-without-newline"
    )
    stats = store.gc()
    assert stats == {
        "kept": 2,
        "corrupt": 1,
        "version_mismatch": 1,
        # The 'corrupt', 'stale' and 'old-schema' lines all point at nothing
        # once their blobs are gone.
        "stale_index": 3,
        "reindexed": 1,
    }
    assert sorted(e["label"] for e in store.entries()) == ["keep", "orphan"]
    assert store.read("e" * 64) == orphan
    assert not store.blob_path("b" * 64).exists()
    assert not store.blob_path("d" * 64).exists()


def test_torn_index_line_is_skipped_not_fatal(tmp_path):
    store = ExperimentStore(tmp_path / "st")
    put_cell(store, "9" * 64, "good")
    with open(store.index_path, "a") as handle:
        handle.write('{"key": "trunc')  # a torn concurrent append
    assert [e["label"] for e in store.entries()] == ["good"]


# ---------------------------------------------------------------- queries


def test_find_by_label_and_ambiguity(tmp_path):
    store = ExperimentStore(tmp_path / "st")
    put_cell(store, "a" * 64, "alpha")
    put_cell(store, "b" * 64, "beta")
    assert store.find("alpha")["key"] == "a" * 64
    assert store.find("b" * 64)["label"] == "beta"
    with pytest.raises(StoreError, match="no stored cell"):
        store.find("gamma")
    put_cell(store, "c" * 64, "alpha")  # same label, different content
    with pytest.raises(StoreError, match="ambiguous"):
        store.find("alpha")


def test_to_results_orders_by_label_and_skips_damage(tmp_path):
    store = ExperimentStore(tmp_path / "st")
    put_cell(store, "a" * 64, "zz", energy_joules=1.0)
    put_cell(store, "b" * 64, "aa", energy_joules=2.0)
    put_cell(store, "c" * 64, "mm", energy_joules=3.0)
    store.blob_path("c" * 64).write_text("broken")
    results = store.to_results()
    assert results.labels == ("aa", "zz")
    assert [cell.index for cell in results] == [0, 1]
    assert results.metric("aa", "energy_joules") == 2.0


# ------------------------------------------------------------- concurrency


def _hammer(args):
    root, worker = args
    store = ExperimentStore(root)
    for index in range(25):
        key = f"{worker}{index:02d}".ljust(64, "0")
        put_cell(store, key, f"w{worker}-c{index}", energy_joules=float(index))
    return worker


def test_concurrent_writers_never_corrupt_the_store(tmp_path):
    root = tmp_path / "st"
    ExperimentStore(root)  # create layout up front
    with multiprocessing.get_context("fork").Pool(4) as pool:
        done = pool.map(_hammer, [(root, w) for w in range(4)])
    assert sorted(done) == [0, 1, 2, 3]
    store = ExperimentStore(root)
    assert len(store) == 100
    # Every blob reads back clean and every index line parses.
    for key in store.keys():
        assert store.read(key)["key"] == key
    assert len(store.entries()) == 100
    for line in store.index_path.read_text().splitlines():
        json.loads(line)
    stats = store.gc()
    assert stats["kept"] == 100
    assert stats["corrupt"] == stats["stale_index"] == 0


# ------------------------------------------------- referenced-file identity


def test_trace_file_contents_join_the_key(tmp_path):
    from repro.experiments.scenario import GuestSpec, WorkloadSpec

    csv = tmp_path / "day.csv"
    csv.write_text("time,percent\n0,10\n100,0\n")
    def config():
        return ScenarioConfig(
            duration=100.0,
            guests=(
                GuestSpec(
                    name="T",
                    credit=30.0,
                    workloads=(WorkloadSpec(kind="trace", trace_file=str(csv)),),
                ),
            ),
        )

    before = cell_key(config(), ["loads"], 1)
    assert before == cell_key(config(), ["loads"], 1)  # stable while unchanged
    csv.write_text("time,percent\n0,90\n100,0\n")  # same path, new contents
    assert cell_key(config(), ["loads"], 1) != before
    payload = config_payload(config())
    assert str(csv) in payload["files"]
    csv.unlink()
    missing = cell_key(config(), ["loads"], 1)  # unreadable: miss, don't serve
    assert missing != before


def test_unusable_store_root_is_a_clean_error(tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory")
    with pytest.raises(ConfigurationError, match="cannot open experiment store"):
        ExperimentStore(blocker)
