"""Content-addressed experiment store (subsystem S12): results as a corpus.

The ROADMAP's "heavy traffic, millions of scenarios" goal treats sweep
results the way production resource managers treat measurements: a durable,
queryable corpus, not one-shot run output.  This package provides that
layer:

* :func:`cell_key` — the content address of one sweep cell: a sha256 over
  the canonical JSON of the cell's config (``to_dict()`` + type name), its
  metric list, its seed and the store schema version;
* :class:`ExperimentStore` — the on-disk store (``index.jsonl`` journal +
  one JSON blob per cell) with atomic writes, digest-checked reads,
  version-skew detection and a rebuilding :meth:`~ExperimentStore.gc`.

The sweep runner (:mod:`repro.sweep.runner`) streams finished cells into a
store and skips already-computed ones on re-run, which is what makes big
grids interruption-proof and repeated figure/table builds warm-cache::

    from repro.store import ExperimentStore
    from repro.sweep import run_sweep

    store = ExperimentStore("results-store")
    results = run_sweep(grid, workers=8, store=store)   # cold: computes
    results = run_sweep(grid, workers=8, store=store)   # warm: all hits

    python -m repro sweep --preset stress-fleet --store results-store
    python -m repro store ls --store results-store
    python -m repro store export --store results-store --out corpus.csv

Warm results are byte-identical to cold ones at any worker count: the store
holds exactly the JSON-safe reduced metrics the exports are built from, and
the runner reassembles cells in grid order regardless of where each came
from.
"""

from .keys import (
    canonical_json,
    cell_key,
    config_payload,
    indented_json,
    metric_names,
    STORE_SCHEMA_VERSION,
)
from .store import decode_blob, encode_blob, ExperimentStore, payload_matches

__all__ = [
    "ExperimentStore",
    "payload_matches",
    "cell_key",
    "config_payload",
    "metric_names",
    "canonical_json",
    "indented_json",
    "encode_blob",
    "decode_blob",
    "STORE_SCHEMA_VERSION",
]
