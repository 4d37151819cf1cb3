"""Continuous streaming linkage: incremental indexing, eviction, watch.

The subsystem that turns the batch reproduction into a continuously
serving linker (ROADMAP item 3):

* :mod:`repro.stream.deltas` — append-only ST-index delta blocks, the
  main-index union probe, and the incremental merge.
* :mod:`repro.stream.pool` — the resident pool, patched in place by
  flush and eviction deltas so it always equals the store's ``load()``.
* :mod:`repro.stream.standing` — standing queries with warm top-k
  rankings, incremental re-scoring, and ``/v1/watch`` event buffers.
* :mod:`repro.stream.runtime` — the flush/evict/merge pipeline a
  daemon drives.
"""

from repro.stream.deltas import (
    DeltaLog,
    StreamIndexView,
    merge_index_deltas,
)
from repro.stream.runtime import StreamRuntime
from repro.stream.standing import StandingQuery, StandingQueryRegistry

__all__ = [
    "DeltaLog",
    "StandingQuery",
    "StandingQueryRegistry",
    "StreamIndexView",
    "StreamRuntime",
    "merge_index_deltas",
]
