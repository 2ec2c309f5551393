"""Store keys, blobs and exports stay byte-identical to the stdlib encodings."""

import collections
import enum
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import get_preset, preset_grid, ScenarioConfig
from repro.experiments.scenario import GuestSpec, WorkloadSpec
from repro.store import cell_key, encode_blob, indented_json
from repro.store.keys import canonical_json
from repro.sweep.store import CellResult, SweepResults


def reference(value):
    return json.dumps(value, sort_keys=True, indent=2)


def outcome(encode, value):
    """The encoding, or the type of the exception encoding raised."""
    try:
        return encode(value)
    except Exception as error:  # the exception type is what gets compared
        return type(error)


strings = st.one_of(
    st.text(),
    st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=0x1F)),
    st.text(alphabet="é€😀 \\\"/"),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324]),
    strings,
)
keys = st.one_of(strings, st.integers(), st.floats(), st.booleans(), st.none())


def containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(strings, children, max_size=6),
        # Mixed key types: sorting them raises, exactly as in the stdlib.
        st.dictionaries(keys, children, max_size=4),
    )


trees = st.recursive(scalars, containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(trees)
def test_indented_json_matches_the_stdlib_byte_for_byte(value):
    assert outcome(indented_json, value) == outcome(reference, value)


@settings(max_examples=100, deadline=None)
@given(
    st.recursive(
        st.one_of(scalars, st.builds(object), st.sets(st.integers(), max_size=2)),
        containers,
        max_leaves=20,
    )
)
def test_unencodable_values_raise_what_the_stdlib_raises(value):
    assert outcome(indented_json, value) == outcome(reference, value)


class Level(enum.IntEnum):
    LOW = 1


class Label(str):
    pass


@pytest.mark.parametrize(
    "value",
    [
        {"a": collections.OrderedDict(b=1, a=[2, {"c": 3}])},
        [Level.LOW, Label("x"), {"k": Level.LOW}],
        {"m": {f"k{i}": i / 7 for i in range(50)}, "bounds": (10.0, 130.0)},
        [[[]], [{}], {"": {"": [None]}}],
        {"x": {1: "a", "2": "b"}},
        {"x": [1, object()]},
    ],
)
def test_subclasses_and_edge_shapes_match_the_stdlib(value):
    assert outcome(indented_json, value) == outcome(reference, value)


def test_circular_references_raise_like_the_stdlib():
    loop = [1]
    loop.append({"again": loop})
    with pytest.raises(ValueError, match="Circular reference"):
        reference(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        indented_json(loop)


def test_blob_and_exports_match_their_stdlib_encodings():
    metrics = {f"s{i}_load": i * 1.25 for i in range(20)}
    metrics.update(energy_joules=float("nan"), peak=None, transitions=7)
    payload = {
        "schema": 1,
        "key": "a" * 64,
        "config": {"type": "ScenarioConfig", "spec": ScenarioConfig().to_dict()},
        "label": "scheduler=pas",
        "params": {"scheduler": "pas", "window": [10.0, 130.0]},
        "seed": 3,
        "metrics_list": ["loads"],
        "metrics": metrics,
    }
    digest = json.loads(encode_blob(payload))["sha256"]
    assert encode_blob(payload) == reference({"payload": payload, "sha256": digest}) + "\n"
    assert digest == hashlib.sha256(canonical_json(payload).encode()).hexdigest()
    cells = [
        CellResult(index, f"scheduler=pas,rep={index}", {"rep": index}, index, metrics)
        for index in range(3)
    ]
    results = SweepResults(cells, meta={"grid": "test", "where": {"seed": (">=", "1")}})
    assert results.to_json() == json.dumps(
        {
            "meta": results.meta,
            "cells": [
                {
                    "index": c.index,
                    "label": c.label,
                    "params": dict(c.params),
                    "seed": c.seed,
                    "metrics": dict(c.metrics),
                }
                for c in cells
            ],
        },
        sort_keys=True,
        indent=2,
    ) + "\n"
    aggregated = {
        "meta": {**results.meta, "aggregated": True},
        "rows": results.aggregated_records(),
    }
    assert results.to_aggregated_json() == reference(aggregated) + "\n"


#: Keys of the first cell of a few presets, as computed before warm reads
#: stopped re-encoding blobs; a change here orphans every stored cell.
PINNED_KEYS = {
    "stress-fleet": "56eb42ded52827dbec4db8f890a8e8539a5dffee5ea07374fb35474768702c06",
    "governors": "f13728a9f5cf229018e36a10a4ef3e679bf4747c859a7f28bdbaa913fd511fbf",
    "qos-noisy-neighbor": "3611abb9cab9e2ca2ee401251cab6deed394f7a910f36ca7b15ca01540d2e7d2",
    "dc-diurnal-small": "c8bfa539e4a485f4721f71f0c4cbce28a082910028471bf5ba566f52fd5ae289",
}


@pytest.mark.parametrize("name", sorted(PINNED_KEYS))
def test_preset_cell_keys_are_pinned(name):
    cell = next(iter(preset_grid(name)))
    metrics = get_preset(name).metrics or ["loads"]
    assert cell_key(cell.config, metrics, cell.seed) == PINNED_KEYS[name]


def test_trace_file_cell_key_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "day.csv").write_text("time,percent\n0,10\n50,80\n100,0\n")
    config = ScenarioConfig(
        duration=100.0,
        guests=(
            GuestSpec(
                name="T",
                credit=30.0,
                workloads=(WorkloadSpec(kind="trace", trace_file="day.csv"),),
            ),
        ),
    )
    assert cell_key(config, ["loads"], 1) == (
        "f2993271bae15c0b437ec1efea4c3329e09098eb9923b63a8369582d536ba275"
    )
