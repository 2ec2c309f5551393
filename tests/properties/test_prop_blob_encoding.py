"""Property: the one-walk blob encoder is the stdlib's two encodings.

``encode_blob(p)`` formats each value once and derives both the indented
blob and the canonical digest input from that one walk.  Whatever the
payload, the result must equal the stdlib spelling of the blob, or raise
the exception type the stdlib raises.
"""

import collections
import enum
import hashlib
import json

from hypothesis import given, settings, strategies as st

from repro.store import encode_blob
from repro.store.keys import canonical_json


def reference(payload):
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    envelope = {"payload": dict(payload), "sha256": digest}
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


def outcome(encode, payload):
    """The encoding, or the type of the exception encoding raised."""
    try:
        return encode(payload)
    except Exception as error:  # the exception type is what gets compared
        return type(error)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Ratio(float):
    pass


class Label(str):
    pass


class Record(dict):
    pass


#: Characters the encoder's markers and separators could be confused with.
TRICKY = [
    *("\x00", "\x01", "\x02", "\n", ",", ":", ": ", '"', "\\", " "),
    *("é", "€", "😀", "\ud800", "\udfff"),
]
strings = st.one_of(
    st.text(max_size=8),
    st.lists(st.sampled_from(TRICKY), max_size=6).map("".join),
    st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=0x20), max_size=4),
)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e300]),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    floats,
    strings,
    st.sampled_from([Level.LOW, Level.HIGH]),
    floats.map(Ratio),
    strings.map(Label),
)
keys = st.one_of(strings, st.integers(), st.floats(), st.booleans(), st.none())


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(strings, children, max_size=5),
        st.dictionaries(strings, children, max_size=3).map(collections.OrderedDict),
        st.dictionaries(strings, children, max_size=3).map(Record),
        # Non-str keys; mixed key types raise in sorting, as in the stdlib.
        st.dictionaries(keys, children, max_size=3),
    )


trees = st.recursive(scalars, containers, max_leaves=30)


def nested(depth, leaf):
    """*leaf* wrapped in *depth* alternating dicts and lists."""
    for level in range(depth):
        leaf = {f"k{level}": leaf} if level % 2 else [leaf, None]
    return leaf


payloads = st.one_of(
    st.dictionaries(strings, trees, max_size=6),
    st.dictionaries(keys, trees, max_size=3),
    # A cell's shape: scalar fields, an all-scalar metrics dict, a config tree.
    st.fixed_dictionaries(
        {
            "schema": st.just(1),
            "key": st.text(alphabet="0123456789abcdef", min_size=64, max_size=64),
            "label": strings,
            "seed": st.one_of(st.none(), st.integers()),
            "metrics_list": st.lists(strings, max_size=3),
            "metrics": st.dictionaries(strings, scalars, max_size=12),
            "config": st.builds(nested, st.integers(min_value=4, max_value=7), trees),
            "params": st.dictionaries(strings, st.one_of(scalars, st.just({}), st.just([]))),
        }
    ),
)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_encode_blob_is_the_stdlib_blob(payload):
    assert outcome(encode_blob, payload) == outcome(reference, payload)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        strings,
        st.recursive(
            st.one_of(scalars, st.builds(object), st.sets(st.integers(), max_size=2)),
            containers,
            max_leaves=12,
        ),
        max_size=4,
    )
)
def test_unencodable_payloads_raise_what_the_stdlib_raises(payload):
    assert outcome(encode_blob, payload) == outcome(reference, payload)


def test_circular_payload_raises_like_the_stdlib():
    loop = {"a": []}
    loop["a"].append(loop)
    assert outcome(encode_blob, loop) is ValueError
    assert outcome(reference, loop) is ValueError
