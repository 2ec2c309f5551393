"""A write interrupted before its rename never shows up as a cell.

``put`` writes ``cells/.tmp-<pid>-<key>.json`` and renames it over the
blob.  A crash between the two leaves the temp file behind: it is not a
blob, so it is neither counted nor listed, and ``gc`` deletes it without
calling it corrupt.  A throwaway store lives in a temporary directory
that is gone once its run ends.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.store import ExperimentStore

KEY = "a" * 64


def put_cell(store, key=KEY):
    return store.put(
        key,
        config_payload={"type": "ScenarioConfig", "spec": {"label": "cell"}},
        label="cell",
        params={"axis": "cell"},
        seed=1,
        metrics_list=["loads"],
        metrics={"energy_joules": 42.0},
    )


def leave_temp_file(store, key=KEY, pid=999):
    path = store.cells_dir / f".tmp-{pid}-{key}.json"
    path.write_text(store.blob_path(key).read_text())
    return path


def test_leftover_temp_file_is_not_a_cell(tmp_path):
    store = ExperimentStore(tmp_path / "st")
    put_cell(store)
    leave_temp_file(store)
    assert len(store) == 1
    assert store.keys() == [KEY]
    assert [payload["key"] for payload in store.payloads()] == [KEY]


def test_len_and_keys_agree_on_what_is_a_blob(tmp_path):
    store = ExperimentStore(tmp_path / "st")
    put_cell(store)
    put_cell(store, "b" * 64)
    leave_temp_file(store)
    (store.cells_dir / ".hidden.json").write_text("{}")
    (store.cells_dir / "notes.txt").write_text("not a blob")
    assert store.keys() == [KEY, "b" * 64]
    assert len(store) == len(store.keys())


def test_gc_deletes_temp_files_without_counting_them_corrupt(tmp_path):
    store = ExperimentStore(tmp_path / "st")
    put_cell(store)
    temp = leave_temp_file(store)
    other = leave_temp_file(store, pid=1000)
    stats = store.gc()
    assert stats["corrupt"] == 0
    assert stats["temp_files"] == 2
    assert stats["kept"] == 1
    assert not temp.exists() and not other.exists()
    assert store.read(KEY)["key"] == KEY
    assert "temp_files" not in store.gc()  # nothing left to delete


def test_gc_cli_line_counts_temp_files_apart(tmp_path, capsys):
    store = ExperimentStore(tmp_path / "st")
    put_cell(store)
    leave_temp_file(store)
    assert main(["store", "gc", "--store", str(tmp_path / "st")]) == 0
    line = capsys.readouterr().out
    assert "removed 0 corrupt, 0 version-mismatched, 1 leftover temp files;" in line


def temp_files(store):
    return [name for name in os.listdir(store.cells_dir) if name.startswith(".")]


def test_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch):
    store = ExperimentStore(tmp_path / "st")

    def refuse(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk gone"):
        put_cell(store)
    assert temp_files(store) == []
    assert len(store) == 0


def test_failed_write_leaves_no_temp_file(tmp_path):
    store = ExperimentStore(tmp_path / "st")
    with pytest.raises(UnicodeEncodeError):
        store._write_atomic(store.blob_path(KEY), "\ud800 cannot be UTF-8")
    assert temp_files(store) == []
    assert not store.blob_path(KEY).exists()


def test_resumable_sweep_example_leaves_no_store_behind(tmp_path):
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    subprocess.run(
        [sys.executable, str(src.parent / "examples" / "resumable_sweep.py")],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(scratch)),
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=300,
    )
    assert list(scratch.iterdir()) == []
