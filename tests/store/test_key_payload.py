"""A computed cell's blob carries the config payload its key was derived from.

The runner derives each cell's config payload once, when it keys the cell,
and the put of that cell writes the same payload.  A referenced trace file
that changes between keying and the put therefore cannot leave a blob
whose ``config.files`` disagrees with the bytes its key was hashed from.
"""

import hashlib

from repro.experiments import ScenarioConfig
from repro.experiments.scenario import GuestSpec, WorkloadSpec
from repro.store import cell_key, config_payload, ExperimentStore, STORE_SCHEMA_VERSION
from repro.store.keys import canonical_json
from repro.sweep import SweepGrid, SweepRunner

DAY = "time,percent\n0,10\n50,80\n100,0\n"
NIGHT = "time,percent\n0,90\n50,5\n100,40\n"


def trace_grid() -> SweepGrid:
    base = ScenarioConfig(
        duration=100.0,
        guests=(
            GuestSpec(
                name="T",
                credit=30.0,
                workloads=(WorkloadSpec(kind="trace", trace_file="day.csv"),),
            ),
        ),
    )
    return SweepGrid({"scheduler": ["credit", "pas"]}, base=base)


def key_of_blob(payload: dict) -> str:
    """The key :func:`cell_key` derives from what the blob says it holds."""
    identity = {
        "schema": STORE_SCHEMA_VERSION,
        "config": payload["config"],
        "metrics": payload["metrics_list"],
        "seed": payload["seed"],
    }
    return hashlib.sha256(canonical_json(identity).encode("utf-8")).hexdigest()


def test_cell_key_with_payload_returns_what_it_hashed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "day.csv").write_text(DAY)
    config = next(iter(trace_grid())).config
    key, payload = cell_key(config, ["loads"], 1, with_payload=True)
    assert key == cell_key(config, ["loads"], 1)
    assert payload == config_payload(config)
    assert payload["files"] == {"day.csv": hashlib.sha256(DAY.encode()).hexdigest()}


def test_blob_matches_its_key_when_the_trace_file_changes_mid_sweep(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    trace = tmp_path / "day.csv"
    trace.write_text(DAY)
    keyed_digest = hashlib.sha256(DAY.encode()).hexdigest()

    def edit_after_first_put(result, cached):
        trace.write_text(NIGHT)

    store = ExperimentStore(tmp_path / "st")
    runner = SweepRunner(
        trace_grid(), metrics=["loads"], store=store, progress=edit_after_first_put
    )
    runner.run()
    assert (runner.cache_hits, runner.computed) == (0, 2)
    for key in store.keys():
        payload = store.read(key)
        assert payload["config"]["files"] == {"day.csv": keyed_digest}
        assert key_of_blob(payload) == key
