"""Content addressing: a canonical key per (config, metrics, seed) cell.

The key is what makes the store *content*-addressed rather than
label-addressed: two grids that happen to enumerate the same cell — the
same JSON-round-tripped config, the same metric list, the same seed — hit
the same entry, whatever they called it.  The hash covers a canonical JSON
encoding (sorted keys, no whitespace) of the config's ``to_dict()`` form
plus its type name, the metric names, the seed, and the store schema
version, so a schema bump naturally invalidates every old key.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import pathlib
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping, Sequence

from ..errors import ConfigurationError

#: Bump when the blob payload layout or the key derivation changes; old
#: entries then read as version mismatches and are recomputed (or GC'd).
STORE_SCHEMA_VERSION = 1


def canonical_json(value: Any) -> str:
    """The one true JSON encoding: sorted keys, compact separators."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


#: Exact types the JSON encoders write as scalars (subclasses excluded:
#: they go through :func:`json.dumps`, which decides how to write them).
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})
_STR_ONLY = frozenset({str})


@functools.cache
def _level(depth: int) -> tuple[Any, str, str]:
    """For a container at *depth*: the C-backed encode of it when all its
    members are scalars, the newline + indent before each member, and the
    newline + indent before its closing bracket."""
    inner = "\n" + "  " * (depth + 1)
    encoder = json.JSONEncoder(
        sort_keys=True, check_circular=False, separators=("," + inner, ": ")
    )
    return encoder.encode, inner, "\n" + "  " * depth


def indented_json(value: Any) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte, faster.

    The stdlib writes indented JSON with its pure-Python encoder.  Here a
    container whose members are all scalars (a cell's metrics, a pair of
    bounds) is written in one call to the C encoder, whose item separator
    carries the newline and indent; other containers are walked, scalars
    are written inline, and anything else (subclasses, non-``str`` keys,
    NaN and infinities, objects JSON cannot encode) is left to
    :func:`json.dumps`, so its output and its exceptions are the stdlib's.
    """
    out: list[str] = []
    _indent_into(value, 0, out, set())
    return "".join(out)


def _indent_into(value: Any, depth: int, out: list[str], walking: set[int]) -> None:
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is float and math.isfinite(value):
        out.append(float.__repr__(value))
    elif (kind is dict and _STR_ONLY.issuperset(map(type, value))) or (
        kind is list or kind is tuple
    ):
        is_dict = kind is dict
        opening, closing = "{}" if is_dict else "[]"
        if not value:
            out.append(opening + closing)
            return
        encode, inner, outer = _level(depth)
        if _SCALAR_TYPES.issuperset(map(type, value.values() if is_dict else value)):
            out.append(opening + inner + encode(value)[1:-1] + outer + closing)
            return
        if id(value) in walking:
            json.dumps(value)  # raises the stdlib's "Circular reference detected"
        walking.add(id(value))
        separator = opening + inner
        if is_dict:
            for key in sorted(value):
                out.append(separator + encode_basestring_ascii(key) + ": ")
                separator = "," + inner
                _indent_into(value[key], depth + 1, out, walking)
        else:
            for item in value:
                out.append(separator)
                separator = "," + inner
                _indent_into(item, depth + 1, out, walking)
        walking.discard(id(value))
        out.append(outer + closing)
    else:
        text = json.dumps(value, sort_keys=True, indent=2)
        out.append(text.replace("\n", "\n" + "  " * depth) if depth else text)


def _digest_file(path: str) -> str:
    try:
        return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
    except OSError:
        return "unreadable"


def _file_fingerprints(spec: Any, out: dict[str, str]) -> None:
    """Collect content digests of every file a spec references by path.

    Specs may point outside themselves (``trace_file`` CSVs); the path
    string alone would let an edited file serve stale cached results, so
    the referenced *bytes* join the identity.  Unreadable files hash to a
    sentinel — the cell then misses the cache and fails loudly at build
    time instead of silently reusing whatever the old file produced.
    """
    kind = type(spec)
    if kind in _SCALAR_TYPES:
        return
    is_sequence = kind is list or kind is tuple
    if kind is dict or (not is_sequence and isinstance(spec, Mapping)):
        for key, value in spec.items():
            if key == "trace_file" and isinstance(value, str):
                out[value] = _digest_file(value)
            elif type(value) not in _SCALAR_TYPES:
                _file_fingerprints(value, out)
    elif is_sequence or isinstance(spec, (list, tuple)):
        for item in spec:
            if type(item) not in _SCALAR_TYPES:
                _file_fingerprints(item, out)


def config_payload(config: Any) -> dict[str, Any]:
    """A config's hashable identity: type name, spec dict, referenced files."""
    to_dict = getattr(config, "to_dict", None)
    if not callable(to_dict):
        raise ConfigurationError(
            f"{type(config).__name__} is not storable: it has no to_dict() "
            "(the store keys cells by their JSON-round-tripped config)"
        )
    payload: dict[str, Any] = {"type": type(config).__name__, "spec": to_dict()}
    files: dict[str, str] = {}
    _file_fingerprints(payload["spec"], files)
    if files:
        payload["files"] = files
    return payload


def metric_names(metrics: Sequence[Any]) -> list[str]:
    """Validate that every metric is addressable by name (hashable)."""
    names = []
    for metric in metrics:
        if not isinstance(metric, str):
            raise ConfigurationError(
                f"the store needs named metrics to key cells; got "
                f"{getattr(metric, '__name__', metric)!r} — register the "
                "callable in repro.sweep.metrics.METRICS and pass its name"
            )
        names.append(metric)
    return names


def cell_key(config: Any, metrics: Sequence[str], seed: int | None) -> str:
    """The content address of one cell (sha256 hex digest).

    Raises :class:`~repro.errors.ConfigurationError` when the config cannot
    be serialised (no ``to_dict``, or a spec field that JSON cannot encode).
    """
    identity = {
        "schema": STORE_SCHEMA_VERSION,
        "config": config_payload(config),
        "metrics": metric_names(metrics),
        "seed": seed,
    }
    try:
        encoded = canonical_json(identity)
    except (TypeError, ValueError) as error:
        raise ConfigurationError(
            f"cell config {type(config).__name__} is not JSON-serialisable: {error}"
        ) from None
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
