"""Append-only ST-index delta blocks, the union probe, incremental merge.

The persisted :class:`~repro.store.stindex.SpatioTemporalIndex` is
stamped with the store manifest's ``generation`` and goes stale on every
append — fine for batch rebuilds, fatal for a daemon flushing ingest
sessions every few seconds.  This module keeps blocking *incremental*:

* :class:`DeltaLog` — an append-only log under ``store/index/deltas/``.
  Each ingest-session flush writes one **delta block**
  (``delta-NNNNNN/``): the same flat columnar arrays as the main index,
  built over just the flushed record deltas and stamped with the store
  generation that append produced.  Sliding-window evictions write a
  tiny ``evict-NNNNNN.json`` marker instead (eviction only removes
  records, so no index content is needed — the probe's database filter
  hides vanished trajectories).
* :class:`StreamIndexView` — the main index *plus* the delta blocks
  probed as one unit.  The view is **valid** exactly when the log
  covers every generation between the main index's stamp and the
  store's current generation; any gap (e.g. an out-of-band append)
  raises :class:`~repro.errors.StaleIndexError` just like the
  single-index path would.
* :func:`merge_index_deltas` — folds the delta blocks into the main
  index (windows are min/max-merged, cell sets unioned, postings
  rebuilt) and persists the result stamped at the current generation
  via the same atomic ``meta.json`` swap the store relies on, then
  prunes the folded log entries.  Exposed as ``ftl store index
  --incremental`` and run in the background by the serving daemon.

**Contract.**  The union probe preserves the main index's property-
tested superset contract.  The temporal screen must use each
candidate's *merged* window (min start / max end across main + blocks):
a candidate whose old and new records individually miss the query
window can still overlap it with the merged window, which is what
``TimeOverlapPrefilter`` sees after merge-on-read.  The spatial screen
is the OR of the per-structure screens — a reachable record pair lives
in *some* structure, whose dilated lookup admits it.  Windows surviving
eviction are conservative (they may still cover evicted records), which
can only admit extra candidates, never drop one.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from repro.core.trajectory import Trajectory
from repro.errors import StaleIndexError, StoreFormatError, ValidationError
from repro.store.format import INDEX_DIR, write_json_atomic
from repro.store.stindex import (
    SpatioTemporalIndex,
    build_index_arrays,
    invert_cell_postings,
)

#: Subdirectory of ``store/index/`` holding the delta log.
DELTAS_DIRNAME = "deltas"

_BLOCK_RE = re.compile(r"^delta-(\d{6,})$")
_EVICT_RE = re.compile(r"^evict-(\d{6,})\.json$")


class DeltaLog:
    """The append-only stream-index log of one trajectory store."""

    def __init__(self, store) -> None:
        self._store = store
        self._dir = Path(store.path) / INDEX_DIR / DELTAS_DIRNAME

    @property
    def path(self) -> Path:
        return self._dir

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def entries(self) -> list[tuple[int, str, Path]]:
        """All log entries as ``(generation, kind, path)``, oldest first.

        ``kind`` is ``"block"`` or ``"evict"``; every committed store
        generation has at most one entry (one commit per generation).
        """
        if not self._dir.is_dir():
            return []
        found: list[tuple[int, str, Path]] = []
        for child in self._dir.iterdir():
            m = _BLOCK_RE.match(child.name)
            if m and child.is_dir() and (child / "meta.json").is_file():
                found.append((int(m.group(1)), "block", child))
                continue
            m = _EVICT_RE.match(child.name)
            if m and child.is_file():
                found.append((int(m.group(1)), "evict", child))
        found.sort()
        return found

    def block_dirs(self) -> list[Path]:
        """Delta-block directories only, oldest first."""
        return [path for _gen, kind, path in self.entries() if kind == "block"]

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append_block(
        self,
        deltas: list[Trajectory],
        generation: int,
        cell_size_m: float,
        vmax_kph: float,
        reach_gap_s: float,
    ) -> SpatioTemporalIndex | None:
        """Index the flushed record deltas as one block at ``generation``.

        ``generation`` is the store generation the corresponding append
        committed; the block is fsynced with ``meta.json`` written last
        (the same publish-by-rename discipline as the main index), so a
        crash mid-write leaves an unreferenced directory the next merge
        sweeps up.  Returns the in-memory block (``None`` when the
        deltas hold no records) for immediate change-probing.
        """
        live = [t for t in deltas if len(t)]
        if not live:
            return None
        ids, starts, ends, cells, offsets, postings = build_index_arrays(
            live, cell_size_m
        )
        block = SpatioTemporalIndex(
            _BlockDatabase(live),
            ids,
            starts,
            ends,
            cells,
            offsets,
            postings,
            cell_size_m,
            vmax_kph,
            reach_gap_s,
        )
        block_dir = self._dir / f"delta-{int(generation):06d}"
        if block_dir.exists():
            raise ValidationError(
                f"{block_dir}: delta block already exists for generation "
                f"{generation}"
            )
        block.save(block_dir, generation=int(generation))
        return block

    def record_eviction(self, generation: int, cutoff_t: float) -> None:
        """Mark ``generation`` as a sliding-window eviction commit."""
        self._dir.mkdir(parents=True, exist_ok=True)
        write_json_atomic(
            self._dir / f"evict-{int(generation):06d}.json",
            {"generation": int(generation), "cutoff_t": float(cutoff_t)},
        )

    def prune_through(self, generation: int) -> int:
        """Drop entries folded into a main index at ``generation``."""
        import shutil

        dropped = 0
        for gen, kind, path in self.entries():
            if gen <= generation:
                if kind == "block":
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    path.unlink(missing_ok=True)
                dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # Coverage
    # ------------------------------------------------------------------
    def covered_entries(self) -> list[tuple[int, str, Path]]:
        """The entries bridging the main index to the store's generation.

        Raises :class:`StaleIndexError` when no main index exists or
        when some intermediate generation has neither a delta block nor
        an eviction marker (an out-of-band append happened: the union
        view would silently miss candidates, so it must not open).
        """
        index_dir = Path(self._store.path) / INDEX_DIR
        if not (index_dir / "meta.json").is_file():
            raise StoreFormatError(
                f"{self._store.path}: no blocking index "
                f"(run build_index / `ftl store index`)"
            )
        main_gen = SpatioTemporalIndex.load_generation(index_dir)
        store_gen = self._store.generation
        wanted = {g: None for g in range(main_gen + 1, store_gen + 1)}
        kept: list[tuple[int, str, Path]] = []
        for gen, kind, path in self.entries():
            if gen in wanted and wanted[gen] is None:
                wanted[gen] = kind
                kept.append((gen, kind, path))
        missing = [g for g, kind in wanted.items() if kind is None]
        if missing:
            raise StaleIndexError(
                f"{index_dir}: delta log does not cover store generation"
                f"(s) {missing} (main index at {main_gen}, store at "
                f"{store_gen}); rebuild with build_index() or re-run the "
                f"flush pipeline"
            )
        return kept


class _BlockDatabase:
    """Minimal id->trajectory mapping backing an in-memory delta block."""

    def __init__(self, trajectories: list[Trajectory]) -> None:
        self._by_id = {str(t.traj_id): t for t in trajectories}

    def __contains__(self, traj_id) -> bool:
        return str(traj_id) in self._by_id

    def __getitem__(self, traj_id) -> Trajectory:
        return self._by_id[str(traj_id)]

    def __iter__(self):
        return iter(self._by_id.values())

    def __len__(self) -> int:
        return len(self._by_id)


class StreamIndexView:
    """The main index unioned with its delta blocks, probed as one.

    Open with :meth:`open`; probes mirror the
    :class:`SpatioTemporalIndex` query surface.  Candidates fully aged
    out by the eviction watermark are filtered at probe time (their
    rows stay in the main index until the next merge or rebuild).
    """

    def __init__(
        self,
        db,
        structures: list[SpatioTemporalIndex],
        ids: list[str],
        starts: np.ndarray,
        ends: np.ndarray,
        rowmaps: list[np.ndarray],
        present: np.ndarray,
    ) -> None:
        self._db = db
        self._structures = structures
        self._ids = ids
        self._starts = starts
        self._ends = ends
        self._rowmaps = rowmaps
        self._present = present

    @classmethod
    def open(cls, store, db=None) -> "StreamIndexView":
        """Open the store's main index plus every covering delta block.

        ``db`` defaults to ``store.load()``; pass a pre-loaded database
        to share the pool the engine already serves from.
        """
        log = DeltaLog(store)
        covered = log.covered_entries()
        index_dir = Path(store.path) / INDEX_DIR
        if db is None:
            db = store.load()
        main = SpatioTemporalIndex.open(
            index_dir, db, expected_generation=None, strict_ids=False
        )
        params = main.params()
        structures = [main]
        for _gen, kind, path in covered:
            if kind != "block":
                continue
            block = SpatioTemporalIndex.open(
                path, db, expected_generation=None, strict_ids=False
            )
            if block.params() != params:
                raise StaleIndexError(
                    f"{path}: delta block parameters {block.params()} differ "
                    f"from the main index {params}; rebuild the index"
                )
            structures.append(block)
        ids: list[str] = []
        pos: dict[str, int] = {}
        starts_parts: list[float] = []
        ends_parts: list[float] = []
        rowmaps: list[np.ndarray] = []
        starts = ends = None
        for s in structures:
            s_starts, s_ends = s.windows()
            rows = np.empty(len(s.id_list), dtype=np.int64)
            for j, sid in enumerate(s.id_list):
                at = pos.get(sid)
                if at is None:
                    at = pos[sid] = len(ids)
                    ids.append(sid)
                    starts_parts.append(float(s_starts[j]))
                    ends_parts.append(float(s_ends[j]))
                else:
                    starts_parts[at] = min(starts_parts[at], float(s_starts[j]))
                    ends_parts[at] = max(ends_parts[at], float(s_ends[j]))
                rows[j] = at
            rowmaps.append(rows)
        starts = np.asarray(starts_parts, dtype=np.float64)
        ends = np.asarray(ends_parts, dtype=np.float64)
        present = np.fromiter(
            (sid in db for sid in ids), dtype=bool, count=len(ids)
        )
        return cls(db, structures, ids, starts, ends, rowmaps, present)

    # ------------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return len(self._structures) - 1

    def __len__(self) -> int:
        return int(self._present.sum())

    def _mask(self, query: Trajectory, min_overlap_s: float) -> np.ndarray:
        overlap = np.minimum(self._ends, query.end_time) - np.maximum(
            self._starts, query.start_time
        )
        keep = overlap >= min_overlap_s
        spatial = np.zeros(len(self._ids), dtype=bool)
        for s, rows in zip(self._structures, self._rowmaps):
            # Coarse per-block screen first: each block's bounding
            # cells are recorded in its meta at flush time, so a block
            # provably outside the query's dilated reach is skipped
            # without probing its postings.  Exactly equivalent — a
            # screened-out block's spatial_mask is all-False — so the
            # union superset contract is untouched (the screen answers
            # True for empty / out-of-range queries, where the mask
            # falls back to keeping everything).
            if rows.size and s.overlaps_query_reach(query):
                spatial[rows] |= s.spatial_mask(query)
        return keep & spatial & self._present

    def candidates_for(
        self, query: Trajectory, min_overlap_s: float = 0.0
    ) -> list[Trajectory]:
        """Union-probe form of ``SpatioTemporalIndex.candidates_for``."""
        if min_overlap_s < 0:
            raise ValidationError(
                f"min_overlap_s must be >= 0, got {min_overlap_s}"
            )
        if len(query) == 0 or not self._ids:
            return []
        keep = self._mask(query, min_overlap_s)
        return [self._db[self._ids[i]] for i in np.nonzero(keep)[0]]

    def ids_for(
        self, query: Trajectory, min_overlap_s: float = 0.0
    ) -> list[object]:
        """Like :meth:`candidates_for` but returning ids only."""
        return [
            t.traj_id for t in self.candidates_for(query, min_overlap_s)
        ]


def merge_index_deltas(store) -> SpatioTemporalIndex:
    """Fold the delta log into the main index at the current generation.

    Windows are min/max-merged per candidate, cell sets unioned, and the
    posting lists rebuilt; candidates no longer in the store (fully
    evicted) are dropped.  The result is persisted over the main index —
    ``meta.json`` is written last via atomic rename, which *is* the
    generation swap readers key on — and the folded log entries are
    pruned.  A no-op returning the opened index when the log is empty
    and the main index is already current.
    """
    log = DeltaLog(store)
    covered = log.covered_entries()
    index_dir = Path(store.path) / INDEX_DIR
    main_gen = SpatioTemporalIndex.load_generation(index_dir)
    db = store.load()
    if main_gen == store.generation and not covered:
        return SpatioTemporalIndex.open(
            index_dir, db, expected_generation=store.generation
        )
    main = SpatioTemporalIndex.open(
        index_dir, db, expected_generation=None, strict_ids=False
    )
    params = main.params()
    ids: list[str] = []
    pos: dict[str, int] = {}
    starts: list[float] = []
    ends: list[float] = []
    cell_sets: list[list[np.ndarray]] = []

    def fold(structure: SpatioTemporalIndex) -> None:
        s_starts, s_ends = structure.windows()
        for j, (sid, cells) in enumerate(
            zip(structure.id_list, structure.cell_sets())
        ):
            at = pos.get(sid)
            if at is None:
                at = pos[sid] = len(ids)
                ids.append(sid)
                starts.append(float(s_starts[j]))
                ends.append(float(s_ends[j]))
                cell_sets.append([cells])
            else:
                starts[at] = min(starts[at], float(s_starts[j]))
                ends[at] = max(ends[at], float(s_ends[j]))
                cell_sets[at].append(cells)

    fold(main)
    for _gen, kind, path in covered:
        if kind != "block":
            continue
        block = SpatioTemporalIndex.open(
            path, db, expected_generation=None, strict_ids=False
        )
        if block.params() != params:
            raise StaleIndexError(
                f"{path}: delta block parameters {block.params()} differ "
                f"from the main index {params}; rebuild the index"
            )
        fold(block)

    keep = [i for i, sid in enumerate(ids) if sid in db]
    key_parts: list[np.ndarray] = []
    idx_parts: list[np.ndarray] = []
    kept_ids: list[str] = []
    kept_starts: list[float] = []
    kept_ends: list[float] = []
    for new_idx, i in enumerate(keep):
        kept_ids.append(ids[i])
        kept_starts.append(starts[i])
        kept_ends.append(ends[i])
        parts = cell_sets[i]
        uniq = parts[0] if len(parts) == 1 else np.unique(
            np.concatenate(parts)
        )
        key_parts.append(np.asarray(uniq, dtype=np.int64))
        idx_parts.append(np.full(len(uniq), new_idx, dtype=np.int64))
    cells, cell_offsets, postings = invert_cell_postings(key_parts, idx_parts)
    merged = SpatioTemporalIndex(
        db,
        kept_ids,
        np.asarray(kept_starts, dtype=np.float64),
        np.asarray(kept_ends, dtype=np.float64),
        cells,
        cell_offsets,
        postings,
        **params,
    )
    merged.save(index_dir, generation=store.generation)
    log.prune_through(store.generation)
    return merged
