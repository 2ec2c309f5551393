"""Store reads stay byte-identical to the goldens recorded before they streamed.

``payloads()``, ``to_results().to_json()`` and the ``store ls`` / ``store
export`` commands read one blob at a time and keep only what they return.
The goldens in ``fixtures/streamed_reads.json`` were written by the read
path that held every payload at once, over a store holding valid, corrupt,
version-skewed and unindexed blobs plus a leftover temp file.  Regenerate
them only when a change means to alter one of these outputs::

    PYTHONPATH=src python -m tests.store.test_streamed_reads
"""

from __future__ import annotations

import hashlib
import io
import json
import pathlib
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.store import encode_blob, ExperimentStore, STORE_SCHEMA_VERSION

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "streamed_reads.json"

#: Filter name -> (the ``where`` mapping, the same filter as CLI arguments).
FILTERS = {
    "all": (None, []),
    "scheduler=pas": ({"scheduler": "pas"}, ["--where", "scheduler=pas"]),
    "seed=7": ({"seed": "7"}, ["--where", "seed=7"]),
    "seed>=5": ({"seed": (">=", "5")}, ["--where", "seed>=5"]),
    "scheduler=pas,seed>=5": (
        {"scheduler": "pas", "seed": (">=", "5")},
        ["--where", "scheduler=pas", "--where", "seed>=5"],
    ),
    "nothing": ({"scheduler": "none"}, ["--where", "scheduler=none"]),
}


def key_of(name: str) -> str:
    return hashlib.sha256(name.encode()).hexdigest()


def cell_metrics(rng: random.Random, index: int) -> dict:
    metrics = {f"m{slot:02d}_{index % 4}": rng.uniform(-5.0, 5.0) for slot in range(6)}
    metrics["energy_joules"] = rng.uniform(1.0e3, 2.0e3)
    metrics["dvfs_transitions"] = rng.randrange(10, 500)
    metrics["zz_unused"] = None
    metrics["a_flag"] = index % 2 == 0
    if index == 4:
        metrics["nan_metric"] = float("nan")
    return metrics


def write_blob(store: ExperimentStore, key: str, payload: dict) -> None:
    """Write a blob file directly, with no index line."""
    store.blob_path(key).write_text(encode_blob(payload))


def build_store(root: pathlib.Path) -> ExperimentStore:
    store = ExperimentStore(root)
    rng = random.Random(18)
    for index in range(12):
        scheduler = ("credit", "pas", "sedf")[index % 3]
        seed = index % 9
        spec = {"scheduler": scheduler, "duration": 100.0 + index}
        # Every third cell carries its scheduler only in the config spec.
        params = {"seed": seed} if index % 3 == 2 else {"scheduler": scheduler, "seed": seed}
        # Two labels repeat, so (label, key) order decides between cells.
        label = f"{scheduler},seed={seed}" if index not in (9, 10) else "dup"
        store.put(
            key_of(f"cell-{index}"),
            config_payload={"type": "ScenarioConfig", "spec": spec},
            label=label,
            params=params,
            seed=seed,
            metrics_list=["loads", "energy"],
            metrics=cell_metrics(rng, index),
        )
    # Corrupt: a valid cell whose metric bytes were flipped after the write.
    corrupt = store.put(
        key_of("corrupt"),
        config_payload={"type": "ScenarioConfig", "spec": {"scheduler": "pas"}},
        label="corrupt",
        params={"scheduler": "pas", "seed": 7},
        seed=7,
        metrics_list=["energy"],
        metrics={"energy_joules": 123.0},
    )
    path = store.blob_path(corrupt["key"])
    path.write_text(path.read_text().replace("123.0", "124.0"))
    # Not JSON at all.
    store.blob_path(key_of("torn")).write_text('{"payload": {"schema"')
    # Version skew: a blob a future library wrote, digest intact.
    skewed = {
        "schema": STORE_SCHEMA_VERSION + 1,
        "key": key_of("skewed"),
        "config": {"type": "ScenarioConfig", "spec": {"scheduler": "pas"}},
        "label": "skewed",
        "params": {"scheduler": "pas", "seed": 7},
        "seed": 7,
        "metrics_list": ["energy"],
        "metrics": {"energy_joules": 1.0},
    }
    write_blob(store, skewed["key"], skewed)
    # Valid but unindexed: the index line was lost.
    unindexed = dict(skewed, schema=STORE_SCHEMA_VERSION, key=key_of("unindexed"))
    unindexed.update(label="pas,seed=7", metrics={"energy_joules": 9.5, "b": 1, "a": 2})
    write_blob(store, unindexed["key"], unindexed)
    # A valid blob filed under another key's name.
    moved = dict(unindexed, key=key_of("moved-from"), label="moved")
    write_blob(store, key_of("moved-to"), moved)
    # A write interrupted between the temp file and the rename.
    tmp = store.cells_dir / f".tmp-999-{key_of('cell-1')}.json"
    tmp.write_text(store.blob_path(key_of("cell-1")).read_text())
    return store


def run_cli(argv: list[str], root: pathlib.Path, capsys) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    text = f"exit {code}\n--- stdout\n{captured.out}--- stderr\n{captured.err}"
    return text.replace(str(root), "<root>")


def render(root: pathlib.Path, capsys) -> dict[str, str]:
    """Every golden output of the store under *root*, by name."""
    out: dict[str, str] = {}
    store_dir = root / "store"
    build_store(store_dir)
    for name, (where, cli_where) in FILTERS.items():
        # A fresh instance per read: trusted digests come from the index.
        payloads = ExperimentStore(store_dir).payloads(where=where)
        out[f"payloads[{name}]"] = json.dumps(payloads, indent=1)
        out[f"to_json[{name}]"] = ExperimentStore(store_dir).to_results(where=where).to_json()
        store_args = ["--store", str(store_dir), *cli_where]
        out[f"ls[{name}]"] = run_cli(["store", "ls", *store_args], root, capsys)
        for suffix, extra in ((".json", []), (".csv", []), (".agg.json", ["--aggregated"])):
            target = root / f"export{suffix}"
            argv = ["store", "export", *store_args, "--out", str(target), *extra]
            printed = run_cli(argv, root, capsys)
            written = target.read_text() if target.exists() else "<none>\n"
            target.unlink(missing_ok=True)
            out[f"export{suffix}[{name}]"] = printed + "--- file\n" + written
    return out


@pytest.fixture(scope="module")
def goldens():
    return json.loads(FIXTURE.read_text())


def test_every_streamed_read_matches_its_golden(tmp_path, capsys, goldens):
    rendered = render(tmp_path, capsys)
    assert sorted(rendered) == sorted(goldens)
    for name, text in rendered.items():
        assert text == goldens[name], name


def test_goldens_cover_every_kind_of_blob(goldens):
    everything = json.loads(goldens["payloads[all]"])
    labels = [payload["label"] for payload in everything]
    assert "pas,seed=7" in labels  # the unindexed blob is served
    assert not {"corrupt", "skewed", "moved"} & set(labels)
    assert labels == sorted(labels)
    assert len(everything) == 13
    assert "no cells matching scheduler=none" in goldens["ls[nothing]"]


class _Capture:
    """``capsys`` outside pytest: what was printed since the last read."""

    def __init__(self) -> None:
        self.out, self.err = io.StringIO(), io.StringIO()

    def readouterr(self) -> SimpleNamespace:
        captured = SimpleNamespace(out=self.out.getvalue(), err=self.err.getvalue())
        for stream in (self.out, self.err):
            stream.seek(0)
            stream.truncate()
        return captured


def record() -> int:
    capture = _Capture()
    with tempfile.TemporaryDirectory() as scratch:
        with redirect_stdout(capture.out), redirect_stderr(capture.err):
            rendered = render(pathlib.Path(scratch), capture)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(rendered, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(rendered)} goldens to {FIXTURE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(record())
