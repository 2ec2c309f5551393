"""The on-disk experiment store: ``index.jsonl`` + one blob per cell.

Layout under the store root::

    index.jsonl           append-only journal, one JSON line per put
    cells/<key>.json      the cell blob, named by its content address

A key is 64 lowercase hex digits (:func:`is_key`), the sha256 a cell is
addressed by, and nothing else names a blob: :meth:`~ExperimentStore.put`
refuses any other key before writing, a strict read raises
:class:`StoreError` for it (a miss for :meth:`~ExperimentStore.lookup`),
and :meth:`~ExperimentStore.find` takes it for a label, so no key can
reach a file outside ``cells/``.

Every blob is written atomically (temp file + ``os.replace``) and carries a
sha256 digest of its payload, so torn writes and bit rot are *detected*,
never silently served: :meth:`ExperimentStore.read` raises, the forgiving
:meth:`ExperimentStore.lookup` (what resume uses) treats any damaged or
version-mismatched entry as a miss and lets the runner recompute it.
Index appends are single ``write()`` calls of one line, so concurrent
writers interleave whole lines rather than corrupting each other; the
index is only a catalog — the blobs are the truth, and :meth:`gc` rebuilds
the index from them.

A put formats its payload once: one walk of the payload yields both the
indented blob text and the canonical text its digest covers
(:func:`~repro.store.keys.indented_and_canonical`).  The blob is encoded to
bytes once; those bytes are hashed for the index and written with
``os.write`` to the temp file, and the index line is appended with one
``os.write`` to a file opened ``O_APPEND``.

Each index line also carries ``blob_sha256``, the sha256 of the exact blob
text :meth:`~ExperimentStore.put` wrote.  A read whose raw bytes hash to
that digest skips re-encoding the payload to check its own digest; any
other read (no index line, a line from before ``blob_sha256``, a stale,
torn or wrong digest, a blob rewritten since) runs the full check.  So a
missing or wrong digest costs one full verification, never a wrong result.

Queries (:meth:`~ExperimentStore.select` and everything built on it) read
and verify one blob at a time and keep only what they return, and decoded
payloads share their metric-name strings, so a query over the whole store
holds one decoded blob plus its results rather than every payload.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import sys
from operator import itemgetter
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..errors import (
    ConfigurationError,
    StoreCorruptionError,
    StoreError,
    StoreVersionError,
)
from .keys import canonical_json, indented_and_canonical, STORE_SCHEMA_VERSION

#: Index filename under the store root.
INDEX_NAME = "index.jsonl"
#: Blob directory under the store root.
CELLS_DIR = "cells"
#: Name prefix of the temp file a write goes through before its rename.
TEMP_PREFIX = ".tmp-"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def is_key(key: Any) -> bool:
    """True when *key* is a store key: 64 lowercase hex digits.

    Nothing else names a blob, so no key can point outside ``cells/``.
    """
    return type(key) is str and len(key) == 64 and not key.strip("0123456789abcdef")


def _blob_bytes(payload: dict[str, Any]) -> bytes:
    """The blob of *payload* as the ASCII bytes :func:`encode_blob` returns.

    One walk gives both the indented payload and its canonical form; the
    sha256 of the canonical form goes into the envelope beside it.
    """
    indented, canonical = indented_and_canonical(payload, 1)
    return b"".join(
        (
            b'{\n  "payload": ',
            indented,
            b',\n  "sha256": "',
            _sha256(canonical).encode("ascii"),
            b'"\n}\n',
        )
    )


def encode_blob(payload: Mapping[str, Any]) -> str:
    """Serialise a blob: the payload plus a sha256 over its canonical form.

    ``json.dumps({"payload": payload, "sha256": digest}, sort_keys=True,
    indent=2) + "\n"`` with ``digest`` the sha256 of
    ``canonical_json(payload)``, byte for byte, and the same exceptions.
    """
    return _blob_bytes(dict(payload)).decode("ascii")


def decode_blob(text: str | bytes, *, trusted: bool = False) -> dict[str, Any]:
    """Parse and integrity-check a blob; raises on damage or version skew.

    *trusted* skips re-encoding the payload to check its recorded digest;
    pass it only when the exact bytes of *text* hash to a digest recorded
    when those bytes were written or last passed this full check.

    The metric names of the returned payload are interned: ``json.loads``
    shares key strings only within one document, so without this every
    decoded cell would carry its own copy of every name.  The values and
    their order are untouched, and the dict itself is always a new one.
    """
    try:
        document = json.loads(text)
    except ValueError as error:  # JSONDecodeError, or bytes that are not UTF-8
        raise StoreCorruptionError(f"blob is not valid JSON: {error}") from None
    if not isinstance(document, dict) or "payload" not in document:
        raise StoreCorruptionError("blob has no payload envelope")
    payload = document["payload"]
    if not isinstance(payload, dict):
        raise StoreCorruptionError("blob payload is not a JSON object")
    if not trusted:
        recorded = document.get("sha256")
        actual = _sha256(canonical_json(payload).encode("utf-8"))
        if recorded != actual:
            raise StoreCorruptionError(
                f"blob digest mismatch: recorded {str(recorded)[:12]}…, "
                f"content hashes to {actual[:12]}…"
            )
    schema = payload.get("schema")
    if schema != STORE_SCHEMA_VERSION:
        raise StoreVersionError(
            f"blob written under store schema {schema!r}, "
            f"this library speaks {STORE_SCHEMA_VERSION}"
        )
    metrics = payload.get("metrics")
    if type(metrics) is dict:
        payload["metrics"] = dict(zip(map(sys.intern, metrics), metrics.values()))
    return payload


def _filter_value_text(value: Any) -> str:
    """The text a stored value is compared against in ``--where`` clauses."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return str(value)
    return canonical_json(value)


def payload_matches(
    payload: Mapping[str, Any],
    where: Mapping[str, str | tuple[str, str]] | None,
) -> bool:
    """True when *payload* satisfies every clause of *where*.

    Each clause is looked up in the payload itself, its sweep ``params``
    and its config ``spec``.  A plain string value is an equality clause
    (``key=value``): it matches when *any* scope carries the key with a
    value comparing equal to the expected text (with a numeric fallback so
    ``seed=7`` matches the integer 7).  An ``(op, value)`` tuple with op
    ``">="`` or ``"<="`` is an inequality clause: it matches when any
    scope carries the key with a *numeric* value satisfying the
    comparison (non-numeric candidates never satisfy an inequality).
    """
    for key, expected in (where or {}).items():
        scopes = (
            payload,
            payload.get("params") or {},
            (payload.get("config") or {}).get("spec") or {},
        )
        candidates = [
            scope[key]
            for scope in scopes
            if isinstance(scope, Mapping) and key in scope
        ]
        if not candidates:
            return False
        if isinstance(expected, tuple):
            op, text = expected
            if not _any_candidate_compares(candidates, op, text):
                return False
            continue
        matched = False
        for candidate in candidates:
            if _filter_value_text(candidate) == expected:
                matched = True
                break
            try:
                if float(candidate) == float(expected):
                    matched = True
                    break
            except (TypeError, ValueError):
                pass
        if not matched:
            return False
    return True


def _any_candidate_compares(candidates: list, op: str, text: str) -> bool:
    """True when some numeric candidate satisfies ``candidate <op> text``."""
    try:
        bound = float(text)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"inequality filter needs a numeric bound, got {text!r}"
        ) from None
    for candidate in candidates:
        if isinstance(candidate, bool) or not isinstance(candidate, (int, float)):
            continue
        if op == ">=" and candidate >= bound:
            return True
        if op == "<=" and candidate <= bound:
            return True
    return False


def _index_entry(key: str, payload: Mapping[str, Any], digest: str) -> dict[str, Any]:
    """The index line for the blob of *payload*, whose bytes hash to *digest*."""
    return {
        "key": key,
        "label": payload.get("label"),
        "config_type": (payload.get("config") or {}).get("type"),
        "blob_sha256": digest,
    }


class ExperimentStore:
    """A content-addressed, durable store of reduced sweep cells."""

    def __init__(self, root: str | pathlib.Path) -> None:
        self.root = pathlib.Path(root)
        self.cells_dir = self.root / CELLS_DIR
        self.index_path = self.root / INDEX_NAME
        self._cells_prefix = os.path.join(self.cells_dir, "")
        try:
            self.cells_dir.mkdir(parents=True, exist_ok=True)
            self.index_path.touch(exist_ok=True)
        except OSError as error:
            raise ConfigurationError(
                f"cannot open experiment store at {self.root}: {error}"
            ) from None
        # key -> sha256 of blob bytes known to be good: recorded by put(),
        # learned from reads that passed the full check, and (once, on
        # first use) the index's blob_sha256 fields.
        self._trusted: dict[str, str] = {}
        self._index_digests_loaded = False

    # -------------------------------------------------------------- plumbing

    def blob_path(self, key: str) -> pathlib.Path:
        """Where the blob for *key* lives (whether or not it exists)."""
        return self.cells_dir / f"{key}.json"

    def _write_atomic(self, path: str | os.PathLike[str], data: bytes | str) -> None:
        """Write *data* to *path* through a temp file and a rename."""
        if type(data) is not bytes:
            data = data.encode("utf-8")  # before the temp file exists
        directory, name = os.path.split(os.fspath(path))
        tmp = os.path.join(directory, f"{TEMP_PREFIX}{os.getpid()}-{name}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise

    def _append_index(self, entry: Mapping[str, Any]) -> None:
        line = (canonical_json(dict(entry)) + "\n").encode("utf-8")
        # One write() of one line to a file opened for appending: concurrent
        # appenders interleave whole lines, never partial ones.
        fd = os.open(self.index_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)

    # --------------------------------------------------------------- writing

    def put(
        self,
        key: str,
        *,
        config_payload: Mapping[str, Any],
        label: str,
        params: Mapping[str, Any],
        seed: int | None,
        metrics_list: Sequence[str],
        metrics: Mapping[str, Any],
    ) -> dict[str, Any]:
        """Persist one reduced cell under *key*; returns the stored payload.

        Raises :class:`~repro.errors.ConfigurationError`, writing nothing,
        when *key* is not a store key (see :func:`is_key`).
        """
        if not is_key(key):
            raise ConfigurationError(
                f"not a store key: {key!r} (a key is 64 lowercase hex digits)"
            )
        payload = {
            "schema": STORE_SCHEMA_VERSION,
            "key": key,
            "config": dict(config_payload),
            "label": label,
            "params": dict(params),
            "seed": seed,
            "metrics_list": list(metrics_list),
            "metrics": dict(metrics),
        }
        blob = _blob_bytes(payload)
        self._write_atomic(f"{self._cells_prefix}{key}.json", blob)
        digest = _sha256(blob)
        self._append_index(_index_entry(key, payload, digest))
        self._trusted[key] = digest
        return payload

    # --------------------------------------------------------------- reading

    def read(self, key: str) -> dict[str, Any]:
        """The payload stored under *key*; strict.

        Raises :class:`StoreError` when absent or when *key* is not a
        store key, :class:`StoreCorruptionError` when the blob fails its
        digest, and :class:`StoreVersionError` on schema skew.
        """
        return self._read_verified(key)[0]

    def _read_verified(self, key: str) -> tuple[dict[str, Any], str]:
        """The payload under *key* and the sha256 of the blob bytes it came from."""
        if not is_key(key):
            raise StoreError(f"not a store key: {key!r}")
        try:
            with open(f"{self._cells_prefix}{key}.json", "rb", buffering=0) as handle:
                data = handle.read()
        except OSError:
            raise StoreError(f"no stored cell {key!r} in {self.root}") from None
        digest = _sha256(data)
        payload = decode_blob(data, trusted=self._trusted_digest(key) == digest)
        if payload.get("key") != key:
            raise StoreCorruptionError(
                f"blob {key}.json claims key {str(payload.get('key'))[:12]}…"
            )
        self._trusted[key] = digest
        return payload, digest

    def _trusted_digest(self, key: str) -> str | None:
        if not self._index_digests_loaded:
            self._index_digests_loaded = True
            from_index = {
                entry["key"]: entry["blob_sha256"]
                for entry in self._index_lines()
                if isinstance(entry.get("blob_sha256"), str)
            }
            # What this instance wrote or verified is newer than the index.
            self._trusted = {**from_index, **self._trusted}
        return self._trusted.get(key)

    def lookup(self, key: str) -> dict[str, Any] | None:
        """The payload under *key*, or ``None`` when missing or unusable.

        The resume path: damage and version skew degrade to a cache miss
        (the cell is recomputed and overwritten) instead of sinking a sweep.
        """
        try:
            return self.read(key)
        except StoreError:
            return None

    def __contains__(self, key: str) -> bool:
        return self.lookup(key) is not None

    def __len__(self) -> int:
        return len(self._blob_keys())

    def keys(self) -> list[str]:
        """Keys of every blob on disk (valid or not), sorted."""
        return sorted(self._blob_keys())

    def _blob_keys(self) -> list[str]:
        """``<key>`` of every ``<key>.json`` in the blob directory.

        Dotfiles are not blobs: a write interrupted before its rename leaves
        a ``.tmp-<pid>-<key>.json`` behind, which only :meth:`gc` touches.
        """
        try:
            names = os.listdir(self.cells_dir)
        except OSError:
            return []
        return [
            name[:-5]
            for name in names
            if name.endswith(".json") and not name.startswith(".")
        ]

    # --------------------------------------------------------------- queries

    def _index_lines(self) -> Iterator[dict[str, Any]]:
        try:
            text = self.index_path.read_text()
        except OSError:
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # a torn tail line; gc() rewrites the index
            if isinstance(entry, dict) and isinstance(entry.get("key"), str):
                yield entry

    def entries(self) -> list[dict[str, Any]]:
        """The index catalog, deduplicated by key (last write wins)."""
        merged: dict[str, dict[str, Any]] = {}
        for entry in self._index_lines():
            merged[entry["key"]] = entry
        return list(merged.values())

    def find(self, label_or_key: str) -> dict[str, Any]:
        """Resolve a cell by exact key or by label; strict read.

        Anything that is not a store key (see :func:`is_key`) is a label.
        """
        if is_key(label_or_key) and self.blob_path(label_or_key).exists():
            return self.read(label_or_key)
        matches = sorted(
            {e["key"] for e in self.entries() if e.get("label") == label_or_key}
        )
        if not matches:
            raise StoreError(
                f"no stored cell with key or label {label_or_key!r} in {self.root}"
            )
        if len(matches) > 1:
            raise StoreError(
                f"label {label_or_key!r} is ambiguous ({len(matches)} cells); "
                f"use a key: {', '.join(k[:12] + '…' for k in matches)}"
            )
        return self.read(matches[0])

    def payloads(
        self, *, where: Mapping[str, str | tuple[str, str]] | None = None
    ) -> list[dict[str, Any]]:
        """Every *valid* stored payload, ordered by (label, key).

        *where* is a filter ANDed over clauses: a payload matches a plain
        ``{key: value}`` clause when its sweep param, its config-spec field,
        or a top-level payload field named *key* equals *value* (values
        compared as text, with a numeric fallback so ``seed=7`` matches the
        integer ``7``); an ``(op, value)`` tuple clause (op ``">="`` /
        ``"<="``) matches numerically.  The ``store ls --where
        scheduler=pas`` / ``--where seed>=5`` query path.
        """
        return self.select(lambda payload: payload, where=where)

    def select(
        self,
        project: Callable[[dict[str, Any]], Any],
        *,
        where: Mapping[str, str | tuple[str, str]] | None = None,
    ) -> list[Any]:
        """``project(payload)`` of every valid payload matching *where*.

        Ordered and filtered exactly as :meth:`payloads`, but blobs are read
        one at a time and each payload is dropped once *project* has kept
        what it needs, so memory holds one decoded blob plus the results.
        """
        rows = []
        for key in self.keys():
            payload = self.lookup(key)
            if payload is not None and payload_matches(payload, where):
                rows.append((payload.get("label") or "", project(payload)))
        # Keys come sorted and the sort is stable: this orders by (label, key).
        rows.sort(key=itemgetter(0))
        return [row for _, row in rows]

    def to_results(
        self, *, where: Mapping[str, str | tuple[str, str]] | None = None
    ):
        """All valid cells as a :class:`~repro.sweep.store.SweepResults`.

        Cells are ordered by (label, key) — deterministic whatever order
        sweeps streamed them in — and re-indexed sequentially.  *where*
        filters exactly as in :meth:`payloads`.
        """
        from ..sweep.store import CellResult, SweepResults

        fields = self.select(
            lambda payload: (
                payload["label"],
                payload.get("params", {}),
                payload.get("seed"),
                payload.get("metrics", {}),
            ),
            where=where,
        )
        cells = [
            CellResult(index=index, label=label, params=params, seed=seed, metrics=metrics)
            for index, (label, params, seed, metrics) in enumerate(fields)
        ]
        meta: dict[str, Any] = {"store": "export", "cells": len(cells)}
        if where:
            meta["where"] = dict(where)
        return SweepResults(cells, meta=meta)

    # ------------------------------------------------------------------- gc

    def gc(self) -> dict[str, int]:
        """Sweep the store: drop damaged blobs, rebuild the index.

        * blobs that fail their digest (or aren't JSON) are deleted;
        * blobs from another schema version are deleted (their keys could
          never be produced by this library version);
        * index lines pointing at no blob are dropped;
        * valid blobs missing from the index are re-indexed;
        * temp files left by writes interrupted before their rename are
          deleted (they were never blobs).

        Returns ``{"kept", "corrupt", "version_mismatch", "stale_index",
        "reindexed"}`` counts, plus ``"temp_files"`` when it deleted any.
        Blobs are verified one at a time; only their index lines are kept.
        """
        stats = {
            "kept": 0,
            "corrupt": 0,
            "version_mismatch": 0,
            "stale_index": 0,
            "reindexed": 0,
        }
        temp_files = 0
        for name in os.listdir(self.cells_dir):
            if name.startswith(TEMP_PREFIX):
                (self.cells_dir / name).unlink(missing_ok=True)
                temp_files += 1
        if temp_files:
            stats["temp_files"] = temp_files
        # key -> the index line a re-index would write for its valid blob.
        valid: dict[str, dict[str, Any]] = {}
        for key in self.keys():
            try:
                payload, digest = self._read_verified(key)
                valid[key] = _index_entry(key, payload, digest)
            except StoreVersionError:
                stats["version_mismatch"] += 1
                self.blob_path(key).unlink(missing_ok=True)
            except StoreError:
                stats["corrupt"] += 1
                self.blob_path(key).unlink(missing_ok=True)
        stats["kept"] = len(valid)
        indexed: set[str] = set()
        lines: list[str] = []
        for entry in self.entries():
            key = entry["key"]
            if key not in valid:
                stats["stale_index"] += 1
                continue
            indexed.add(key)
            lines.append(
                canonical_json(dict(entry, blob_sha256=valid[key]["blob_sha256"]))
            )
        for key in sorted(set(valid) - indexed):
            stats["reindexed"] += 1
            lines.append(canonical_json(valid[key]))
        self._write_atomic(
            self.index_path, "".join(line + "\n" for line in lines)
        )
        return stats
