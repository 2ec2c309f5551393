"""``SweepResults.save`` streams its JSON into the file.

The file holds exactly :meth:`~repro.sweep.SweepResults.to_json`'s text
(and ``export_aggregated`` exactly ``to_aggregated_json``'s), but the text
is written piece by piece as it is encoded, so saving never holds the
whole export string.
"""

import random
import tracemalloc

import pytest

from repro.sweep.store import CellResult, SweepResults


def results(cells: int, metrics: int = 100, seed: int = 19) -> SweepResults:
    rng = random.Random(seed)
    names = [f"s{slot:03d}_load" for slot in range(metrics)]
    rows = []
    for index in range(cells):
        values = {name: rng.uniform(0.0, 100.0) for name in names}
        values.update(energy_joules=float("nan") if index == 3 else 1.5e4, peak=None)
        rows.append(
            CellResult(
                index,
                f"scheduler=pas,rep={index}",
                {"scheduler": "pas", "rep": index, "window": [10.0, 130.0]},
                index,
                values,
            )
        )
    return SweepResults(rows, meta={"grid": "test", "where": {"seed": (">=", "1")}})


@pytest.mark.parametrize("cells", [0, 1, 7])
def test_save_writes_to_json_byte_for_byte(tmp_path, cells):
    sweep = results(cells, metrics=5)
    path = sweep.save(tmp_path / "out.json")
    assert path.read_bytes() == sweep.to_json().encode("utf-8")


@pytest.mark.parametrize("cells", [0, 1, 7])
def test_export_aggregated_writes_to_aggregated_json_byte_for_byte(tmp_path, cells):
    sweep = results(cells, metrics=5)
    path = sweep.export_aggregated(tmp_path / "agg.json")
    assert path.read_bytes() == sweep.to_aggregated_json().encode("utf-8")


def test_save_does_not_hold_the_export_string(tmp_path):
    sweep = results(1000)
    size = len(sweep.to_json())
    path = tmp_path / "out.json"
    tracemalloc.start()
    try:
        sweep.save(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == size
    # Building the string first peaks above its size; streaming holds the
    # per-cell export records plus one encoded piece at a time.
    assert peak < size / 4, f"save() peaked at {peak} bytes for a {size}-byte export"
