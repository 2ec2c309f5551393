"""A store key names a blob in ``cells/`` and nothing else.

Keys are 64 lowercase hex digits.  ``put`` refuses anything else before it
writes a byte, strict reads raise :class:`StoreError` (a miss for
``lookup``), and ``find`` takes a non-key for a label, so no key, label or
index line can reach a file outside the store's blob directory.
"""

import json
import os

import pytest

from repro.cli import main
from repro.errors import ConfigurationError, StoreError
from repro.store import encode_blob, ExperimentStore, STORE_SCHEMA_VERSION
from repro.store.store import is_key

ESCAPE = "../../outside"


def cell(key, label="cell"):
    return {
        "schema": STORE_SCHEMA_VERSION,
        "key": key,
        "config": {"type": "ScenarioConfig", "spec": {"label": label}},
        "label": label,
        "params": {"axis": label},
        "seed": 1,
        "metrics_list": ["loads"],
        "metrics": {"energy_joules": 42.0},
    }


def put(store, key, label="cell"):
    payload = cell(key, label)
    return store.put(
        key,
        config_payload=payload["config"],
        label=label,
        params=payload["params"],
        seed=1,
        metrics_list=payload["metrics_list"],
        metrics=payload["metrics"],
    )


@pytest.fixture
def store(tmp_path):
    return ExperimentStore(tmp_path / "st")


@pytest.fixture
def outside(tmp_path):
    """A valid blob for key ``../../outside``, where that key would lead."""
    path = tmp_path / "outside.json"
    path.write_text(encode_blob(cell(ESCAPE, "outside")))
    return path


def files_under(root):
    return sorted(
        os.path.relpath(os.path.join(directory, name), root)
        for directory, _, names in os.walk(root)
        for name in names
    )


@pytest.mark.parametrize(
    "key",
    ["a" * 63, "a" * 65, "A" * 64, "g" * 64, " " + "a" * 63, "a" * 63 + "\n", "", None, 7],
)
def test_only_64_lowercase_hex_digits_are_keys(key):
    assert not is_key(key)
    assert is_key("0123456789abcdef" * 4)


@pytest.mark.parametrize("key", ["../../evil", "../evil", "<absolute>", "A" * 64, "a" * 63])
def test_put_refuses_a_non_key_and_writes_nothing(tmp_path, store, key):
    if key == "<absolute>":
        key = str(tmp_path / "evil")
    before = files_under(tmp_path)
    with pytest.raises(ConfigurationError, match="not a store key"):
        put(store, key)
    assert files_under(tmp_path) == before
    assert store.index_path.read_text() == ""
    assert len(store) == 0


def test_reads_cannot_reach_a_blob_outside_the_store(store, outside):
    assert outside.exists()
    with pytest.raises(StoreError, match="not a store key"):
        store.read(ESCAPE)
    assert store.lookup(ESCAPE) is None
    assert ESCAPE not in store


def test_find_takes_a_non_key_for_a_label(store, outside):
    with pytest.raises(StoreError, match="no stored cell with key or label"):
        store.find(ESCAPE)
    put(store, "a" * 64, ESCAPE)
    assert store.find(ESCAPE)["key"] == "a" * 64


def test_an_index_line_cannot_lead_find_outside_the_store(store, outside):
    with open(store.index_path, "a") as handle:
        handle.write(json.dumps({"key": ESCAPE, "label": "planted"}) + "\n")
    with pytest.raises(StoreError, match="not a store key"):
        store.find("planted")


def test_store_show_cannot_print_a_file_outside_the_store(store, outside, capsys):
    assert main(["store", "show", "--store", str(store.root), ESCAPE]) == 2
    captured = capsys.readouterr()
    assert "outside" not in captured.out
    assert "no stored cell" in captured.err
