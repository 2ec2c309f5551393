"""Content addressing: a canonical key per (config, metrics, seed) cell.

The key is what makes the store *content*-addressed rather than
label-addressed: two grids that happen to enumerate the same cell — the
same JSON-round-tripped config, the same metric list, the same seed — hit
the same entry, whatever they called it.  The hash covers a canonical JSON
encoding (sorted keys, no whitespace) of the config's ``to_dict()`` form
plus its type name, the metric names, the seed, and the store schema
version, so a schema bump naturally invalidates every old key.

The module also holds the one JSON walker behind blobs and exports:
:func:`indented_json` (and :func:`write_indented_json`, which streams the
same text) for exports, and :func:`indented_and_canonical`, which gives a
put both the indented blob text and its digest input from one walk.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import pathlib
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Mapping, Sequence

from ..errors import ConfigurationError

#: Bump when the blob payload layout or the key derivation changes; old
#: entries then read as version mismatches and are recomputed (or GC'd).
STORE_SCHEMA_VERSION = 1


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))`` without
#: building an encoder per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_json(value: Any) -> str:
    """The one true JSON encoding: sorted keys, compact separators."""
    return _CANONICAL(value)


#: Exact types the JSON encoders write as scalars (subclasses excluded:
#: they go through :func:`json.dumps`, which decides how to write them).
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})
_STR_ONLY = frozenset({str})

#: How the walker lays out structure: the key separator, then one level of
#: indent.  ``_PLAIN`` is ``json.dumps(indent=2)``'s layout; ``_MARKED`` is
#: the same layout with every space written as ``"\x02"``.  The ASCII-only
#: encoders escape every control character inside a string, so in marked
#: text each ``"\x02"`` and each raw newline is layout: mapping ``"\x02"``
#: to a space gives the indented text, and deleting both gives the compact.
_PLAIN = (": ", "  ")
_MARKED = (":\x02", "\x02\x02")
_MARK_TO_SPACE = bytes.maketrans(b"\x02", b" ")


@functools.cache
def _level(depth: int, style: tuple[str, str]) -> tuple[Any, str, str]:
    """For a container at *depth*, laid out in *style*: the C-backed encode
    of it when all its members are scalars, the newline + indent before each
    member, and the newline + indent before its closing bracket."""
    colon, unit = style
    inner = "\n" + unit * (depth + 1)
    encoder = json.JSONEncoder(
        sort_keys=True, check_circular=False, separators=("," + inner, colon)
    )
    return encoder.encode, inner, "\n" + unit * depth


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
    write_indented_json(value, out.append)
    return "".join(out)


def write_indented_json(value: Any, write: Callable[[str], Any]) -> None:
    """Pass :func:`indented_json` of *value* to *write*, piece by piece.

    The pieces are written as the walk produces them, so the whole text is
    never held at once: a file's ``write`` streams an export to disk.
    """
    _indent_into(value, 0, write, set(), _PLAIN)


def indented_and_canonical(value: Any, depth: int) -> tuple[bytes, bytes]:
    """*value* as indented JSON nested *depth* levels deep, and its
    :func:`canonical_json`, both as ASCII bytes, from one walk.

    The walk writes marked text (see ``_MARKED``), so each scalar and each
    all-scalar container is formatted once for both forms.  At depth 0 the
    first form is :func:`indented_json`; deeper, every line after the first
    is indented *depth* more levels, as it sits inside an enclosing object.
    """
    out: list[str] = []
    _indent_into(value, depth, out.append, set(), _MARKED)
    marked = "".join(out).encode("ascii")
    return marked.translate(_MARK_TO_SPACE), marked.translate(None, b"\n\x02")


def _indent_into(
    value: Any,
    depth: int,
    emit: Callable[[str], Any],
    walking: set[int],
    style: tuple[str, str],
) -> None:
    kind = type(value)
    if kind is str:
        emit(encode_basestring_ascii(value))
    elif value is None:
        emit("null")
    elif value is True:
        emit("true")
    elif value is False:
        emit("false")
    elif kind is int:
        emit(int.__repr__(value))
    elif kind is float and math.isfinite(value):
        emit(float.__repr__(value))
    elif (kind is dict and _STR_ONLY.issuperset(map(type, value))) or (
        kind is list or kind is tuple
    ):
        is_dict = kind is dict
        opening, closing = "{}" if is_dict else "[]"
        if not value:
            emit(opening + closing)
            return
        encode, inner, outer = _level(depth, style)
        if _SCALAR_TYPES.issuperset(map(type, value.values() if is_dict else value)):
            emit(opening + inner + encode(value)[1:-1] + outer + closing)
            return
        if id(value) in walking:
            json.dumps(value)  # raises the stdlib's "Circular reference detected"
        walking.add(id(value))
        separator = opening + inner
        if is_dict:
            colon = style[0]
            for key in sorted(value):
                emit(separator + encode_basestring_ascii(key) + colon)
                separator = "," + inner
                _indent_into(value[key], depth + 1, emit, walking, style)
        else:
            for item in value:
                emit(separator)
                separator = "," + inner
                _indent_into(item, depth + 1, emit, walking, style)
        walking.discard(id(value))
        emit(outer + closing)
    else:
        colon, unit = style
        text = json.dumps(value, sort_keys=True, indent=unit, separators=(",", colon))
        emit(text.replace("\n", "\n" + unit * depth) if depth else text)


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


def cell_key(
    config: Any, metrics: Sequence[str], seed: int | None, *, with_payload: bool = False
) -> str | tuple[str, dict[str, Any]]:
    """The content address of one cell (sha256 hex digest).

    With *with_payload*, returns ``(key, config_payload(config))``: the
    payload the key was derived from, for the blob a put of the cell
    writes, so a referenced file that changes after keying cannot make the
    blob disagree with its key.

    Raises :class:`~repro.errors.ConfigurationError` when the config cannot
    be serialised (no ``to_dict``, or a spec field that JSON cannot encode).
    """
    payload = config_payload(config)
    identity = {
        "schema": STORE_SCHEMA_VERSION,
        "config": payload,
        "metrics": metric_names(metrics),
        "seed": seed,
    }
    try:
        encoded = canonical_json(identity)
    except (TypeError, ValueError) as error:
        raise ConfigurationError(
            f"cell config {type(config).__name__} is not JSON-serialisable: {error}"
        ) from None
    key = hashlib.sha256(encoded.encode("utf-8")).hexdigest()
    return (key, payload) if with_payload else key
