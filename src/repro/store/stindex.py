"""Persisted spatio-temporal blocking for candidate pruning.

Blocking on time alone (:meth:`SpatioTemporalIndex.temporal_ids_for`)
keeps a candidate when its observation window overlaps the query's.
At serving scale that still admits every concurrently observed
trajectory in the city.  :class:`SpatioTemporalIndex` crosses the same
time-window test with a uniform geo-grid of each candidate's *visited
cells*, pruned by ``Vmax``-reachability:

**Guarantee (superset contract).**  Let ``R = vmax_mps * reach_gap_s``.
``candidates_for(query, min_overlap_s)`` returns every candidate that
(a) :class:`~repro.core.prefilter.TimeOverlapPrefilter` with the same
``min_overlap_s`` would keep **and** (b) has at least one record within
distance ``vmax_mps * dt`` of some query record for a time gap
``dt <= reach_gap_s`` — i.e. every candidate able to contribute a
*compatible* mutual segment with gap at most ``reach_gap_s``.  Proof
sketch: such a record pair is at distance ``<= R``, so its cells are at
Chebyshev distance ``<= floor(R / cell) + 1``; the query's cells are
dilated by exactly that radius before the inverted-cell lookup, and the
temporal test is the overlap inequality itself, evaluated directly (no
search-boundary rounding).  Property-tested against brute force in
``tests/test_stindex.py``.

``reach_gap_s`` is the blocking knob: the config horizon (one hour) is
fully conservative for all in-horizon evidence, while smaller gaps
prune harder and only drop candidates whose *every* compatible segment
has a long (weak-evidence) gap.

The index persists inside a store directory (``index/``) as the same
flat columnar arrays the store uses, stamped with the store manifest's
``generation``; opening against a different generation raises
:class:`~repro.errors.StaleIndexError` instead of silently serving a
stale snapshot.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from repro.core.database import TrajectoryDatabase
from repro.core.trajectory import Trajectory
from repro.errors import StaleIndexError, StoreFormatError, ValidationError
from repro.geo.units import kph_to_mps
from repro.obs import span
from repro.store.format import fsync_dir, fsync_file, write_json_atomic

#: Magic string identifying a persisted index.
INDEX_FORMAT = "ftl-stindex"

#: Current index layout version.
INDEX_VERSION = 1

#: Cell-coordinate bias / multiplier for the packed int64 cell key.
_BIAS = 1 << 30
_MULT = np.int64(1) << np.int64(31)

#: Largest usable |cell coordinate| (keeps dilated keys inside int64).
_MAX_CELL = _BIAS - 4096

_ARRAY_FILES = (
    ("starts.f64", "<f8"),
    ("ends.f64", "<f8"),
    ("cells.i64", "<i8"),
    ("cell_offsets.i64", "<i8"),
    ("postings.i64", "<i8"),
)


def pack_cell_keys(
    xs: np.ndarray, ys: np.ndarray, cell_size: float
) -> np.ndarray | None:
    """Packed int64 cell keys of the points, or ``None`` when out of range.

    The key of a point is its uniform-grid cell ``(floor(x / cell),
    floor(y / cell))`` packed into one int64: ``(cx + bias) * mult +
    (cy + bias)``.  The packing is a stable, persisted part of the index
    format — and the shard router of the multi-worker daemon
    (:mod:`repro.service.shard`) hashes these same keys, so candidates
    that block together stay on the same shard.
    """
    if cell_size <= 0:
        raise ValidationError(f"cell_size must be positive, got {cell_size}")
    cx = np.floor(np.asarray(xs, dtype=np.float64) / cell_size).astype(np.int64)
    cy = np.floor(np.asarray(ys, dtype=np.float64) / cell_size).astype(np.int64)
    if cx.size and (
        np.abs(cx).max() >= _MAX_CELL or np.abs(cy).max() >= _MAX_CELL
    ):
        return None
    return (cx + _BIAS) * _MULT + (cy + _BIAS)


#: Backwards-compatible private alias (the index predates the public name).
_cell_keys = pack_cell_keys


def build_index_arrays(
    trajectories, cell_size_m: float
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The flat index columns for an iterable of trajectories.

    Returns ``(ids, starts, ends, cells, cell_offsets, postings)`` — the
    exact arrays :class:`SpatioTemporalIndex` persists.  Shared between
    full builds and the append-only delta blocks of
    :mod:`repro.stream.deltas`, so both probe identically.  Empty
    trajectories are skipped (they can never match).
    """
    ids: list[str] = []
    starts: list[float] = []
    ends: list[float] = []
    key_parts: list[np.ndarray] = []
    idx_parts: list[np.ndarray] = []
    for traj in trajectories:
        if len(traj) == 0:
            continue
        keys = pack_cell_keys(traj.xs, traj.ys, cell_size_m)
        if keys is None:
            raise ValidationError(
                f"trajectory {traj.traj_id!r}: coordinates exceed the "
                f"indexable range at cell_size_m={cell_size_m}"
            )
        i = len(ids)
        ids.append(str(traj.traj_id))
        starts.append(traj.start_time)
        ends.append(traj.end_time)
        uniq = np.unique(keys)
        key_parts.append(uniq)
        idx_parts.append(np.full(uniq.size, i, dtype=np.int64))
    cells, cell_offsets, postings = invert_cell_postings(key_parts, idx_parts)
    return (
        ids,
        np.asarray(starts, dtype=np.float64),
        np.asarray(ends, dtype=np.float64),
        cells,
        cell_offsets,
        postings,
    )


def invert_cell_postings(
    key_parts: list[np.ndarray], idx_parts: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build the inverted cell index from per-candidate cell-key arrays.

    ``key_parts[i]`` holds candidate ``idx_parts[i]``'s (unique) cell
    keys; the result is the sorted unique cell array, its CSR-style
    offset table, and the posting list of candidate indices.
    """
    if key_parts:
        all_keys = np.concatenate(key_parts)
        all_idx = np.concatenate(idx_parts)
        order = np.argsort(all_keys, kind="stable")
        sorted_keys = all_keys[order]
        postings = all_idx[order]
        cells, first = np.unique(sorted_keys, return_index=True)
        cell_offsets = np.concatenate(
            [first, [sorted_keys.size]]
        ).astype(np.int64)
    else:
        cells = np.empty(0, dtype=np.int64)
        cell_offsets = np.zeros(1, dtype=np.int64)
        postings = np.empty(0, dtype=np.int64)
    return cells, cell_offsets, postings


class SpatioTemporalIndex:
    """Time-window x visited-cell blocking over a candidate database.

    Build with :meth:`build`, or persist/restore with :meth:`save` /
    :meth:`open`.  Empty trajectories are excluded (they can never
    match).
    """

    def __init__(
        self,
        db: TrajectoryDatabase,
        ids: list[str],
        starts: np.ndarray,
        ends: np.ndarray,
        cells: np.ndarray,
        cell_offsets: np.ndarray,
        postings: np.ndarray,
        cell_size_m: float,
        vmax_kph: float,
        reach_gap_s: float,
    ) -> None:
        self._db = db
        self._ids = ids
        self._starts = starts
        self._ends = ends
        self._cells = cells
        self._cell_offsets = cell_offsets
        self._postings = postings
        self._cell_size_m = float(cell_size_m)
        self._vmax_kph = float(vmax_kph)
        self._reach_gap_s = float(reach_gap_s)
        # Chebyshev dilation radius in cells; covers any point pair at
        # Euclidean distance <= R = vmax * gap (see module docstring).
        reach_m = kph_to_mps(self._vmax_kph) * self._reach_gap_s
        self._dilation = int(math.floor(reach_m / self._cell_size_m)) + 1
        # Bounding cells over the whole index, computed lazily from the
        # cell keys (or seeded from persisted meta by open()).
        self._bounds: tuple[int, int, int, int] | None = None
        self._bounds_computed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        db: TrajectoryDatabase,
        cell_size_m: float | None = None,
        vmax_kph: float = 120.0,
        reach_gap_s: float = 3600.0,
    ) -> "SpatioTemporalIndex":
        """Index a candidate database.

        Parameters
        ----------
        db:
            The candidate database (empty trajectories are skipped).
        cell_size_m:
            Geo-grid cell side in metres; defaults to the reachability
            radius ``vmax * reach_gap_s`` (dilation radius 2 cells).
        vmax_kph:
            The speed cap used for reachability (paper ``Vmax``).
        reach_gap_s:
            Largest mutual-segment time gap the spatial screen must
            preserve; see the module docstring for the contract.
        """
        if not vmax_kph > 0:
            raise ValidationError(f"vmax_kph must be positive, got {vmax_kph}")
        if not reach_gap_s > 0:
            raise ValidationError(
                f"reach_gap_s must be positive, got {reach_gap_s}"
            )
        if cell_size_m is None:
            cell_size_m = kph_to_mps(vmax_kph) * reach_gap_s
        if not cell_size_m > 0:
            raise ValidationError(
                f"cell_size_m must be positive, got {cell_size_m}"
            )
        ids, starts, ends, cells, cell_offsets, postings = build_index_arrays(
            db, cell_size_m
        )
        return cls(
            db,
            ids,
            starts,
            ends,
            cells,
            cell_offsets,
            postings,
            cell_size_m,
            vmax_kph,
            reach_gap_s,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ids)

    @property
    def cell_size_m(self) -> float:
        return self._cell_size_m

    @property
    def vmax_kph(self) -> float:
        return self._vmax_kph

    @property
    def reach_gap_s(self) -> float:
        return self._reach_gap_s

    @property
    def n_cells(self) -> int:
        return int(self._cells.size)

    def params(self) -> dict:
        """The build parameters (reused when compaction rebuilds)."""
        return {
            "cell_size_m": self._cell_size_m,
            "vmax_kph": self._vmax_kph,
            "reach_gap_s": self._reach_gap_s,
        }

    def coverage_window(self) -> tuple[float, float]:
        """The (earliest start, latest end) over all indexed candidates."""
        if not self._ids:
            raise ValidationError("index is empty")
        return float(self._starts.min()), float(self._ends.max())

    @property
    def id_list(self) -> list[str]:
        """The indexed candidate ids, in index order (do not mutate)."""
        return self._ids

    def windows(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-candidate ``(starts, ends)`` arrays, in index order."""
        return self._starts, self._ends

    def cell_sets(self) -> list[np.ndarray]:
        """Per-candidate sorted unique cell keys, in index order.

        Inverts the posting lists back to the per-candidate form used
        at build time; the incremental merge of
        :mod:`repro.stream.deltas` unions these with delta-block cells.
        """
        counts = np.diff(self._cell_offsets)
        cell_per_posting = np.repeat(self._cells, counts)
        order = np.argsort(self._postings, kind="stable")
        owners = np.asarray(self._postings)[order]
        keys = cell_per_posting[order]
        bounds = np.searchsorted(owners, np.arange(len(self._ids) + 1))
        return [
            np.sort(keys[bounds[i]:bounds[i + 1]])
            for i in range(len(self._ids))
        ]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _temporal_mask(
        self, query: Trajectory, min_overlap_s: float
    ) -> np.ndarray:
        """Exactly the :class:`TimeOverlapPrefilter` predicate, vectorised."""
        overlap = np.minimum(self._ends, query.end_time) - np.maximum(
            self._starts, query.start_time
        )
        return overlap >= min_overlap_s

    def _spatial_mask(self, query: Trajectory) -> np.ndarray:
        """Candidates sharing a dilated grid cell with the query.

        Falls back to keeping everything when the query's coordinates
        exceed the indexable range — the screen may only ever prune
        provably unreachable candidates.
        """
        n = len(self._ids)
        base = pack_cell_keys(query.xs, query.ys, self._cell_size_m)
        if base is None:
            return np.ones(n, dtype=bool)
        base = np.unique(base)
        k = self._dilation
        span = np.arange(-k, k + 1, dtype=np.int64)
        # All cells within Chebyshev distance k of any query cell.
        dilated = (
            base[:, None, None]
            + span[None, :, None] * _MULT
            + span[None, None, :]
        ).ravel()
        keys = np.unique(dilated)
        pos = np.searchsorted(self._cells, keys)
        in_range = pos < self._cells.size
        pos, keys = pos[in_range], keys[in_range]
        hit = pos[self._cells[pos] == keys]
        mask = np.zeros(n, dtype=bool)
        for j in hit:
            a, b = self._cell_offsets[j], self._cell_offsets[j + 1]
            mask[self._postings[a:b]] = True
        return mask

    def spatial_mask(self, query: Trajectory) -> np.ndarray:
        """Public form of the spatial screen (index-order boolean mask).

        Used by :class:`repro.stream.deltas.StreamIndexView` to OR the
        screens of the main index and its delta blocks per candidate id.
        """
        if len(query) == 0:
            return np.ones(len(self._ids), dtype=bool)
        return self._spatial_mask(query)

    def bounding_cells(self) -> tuple[int, int, int, int] | None:
        """``(min_cx, max_cx, min_cy, max_cy)`` over all indexed cells.

        ``None`` when the index holds no cells.  The packed keys invert
        exactly (``cx + bias < mult``), so the bounds are derived from
        the unpacked per-axis coordinates — never from min/max of the
        packed keys, whose order mixes the axes.  Persisted in
        ``meta.json`` so delta blocks carry their bounds from flush
        time without touching the mmap.
        """
        if not self._bounds_computed:
            if self._cells.size:
                cx = self._cells // _MULT - _BIAS
                cy = self._cells % _MULT - _BIAS
                self._bounds = (
                    int(cx.min()), int(cx.max()),
                    int(cy.min()), int(cy.max()),
                )
            else:
                self._bounds = None
            self._bounds_computed = True
        return self._bounds

    def overlaps_query_reach(self, query: Trajectory) -> bool:
        """Coarse screen: could *any* indexed cell survive the spatial mask?

        ``False`` is a proof that :meth:`spatial_mask` would be
        all-``False`` for this query — the query's cells dilated by the
        Chebyshev reach radius cannot intersect the index's bounding
        rectangle on at least one axis — so a caller holding several
        structures (the streaming union view) may skip the full probe.
        ``True`` means "maybe": the rectangles overlap, or the query is
        empty / out of packing range (where the mask falls back to
        keeping everything and must not be skipped).
        """
        if len(query) == 0:
            return True
        bounds = self.bounding_cells()
        if bounds is None:
            # No cells: the full mask is all-False, skipping is exact.
            return False
        base = pack_cell_keys(query.xs, query.ys, self._cell_size_m)
        if base is None:
            return True
        cx = base // _MULT - _BIAS
        cy = base % _MULT - _BIAS
        k = self._dilation
        min_cx, max_cx, min_cy, max_cy = bounds
        return not (
            int(cx.max()) + k < min_cx
            or int(cx.min()) - k > max_cx
            or int(cy.max()) + k < min_cy
            or int(cy.min()) - k > max_cy
        )

    def affected_ids(self, query: Trajectory, horizon_s: float) -> list[str]:
        """Ids whose indexed window lies within ``horizon_s`` of the query.

        Temporal-only on purpose: a new record changes a pair's evidence
        whenever it can form a mutual segment with some query record —
        *incompatible* mutual segments may be arbitrarily far away
        spatially, so the spatial screen must not participate here.  The
        window test is the overlap inequality dilated by the horizon
        (``overlap >= -horizon_s``), which admits negative overlaps the
        public ``candidates_for`` contract forbids.
        """
        if horizon_s < 0:
            raise ValidationError(
                f"horizon_s must be >= 0, got {horizon_s}"
            )
        if len(query) == 0 or not self._ids:
            return []
        mask = self._temporal_mask(query, -float(horizon_s))
        return [self._ids[i] for i in np.nonzero(mask)[0]]

    def candidates_for(
        self, query: Trajectory, min_overlap_s: float = 0.0
    ) -> list[Trajectory]:
        """Candidates surviving both the temporal and the spatial screen.

        A strict subset of what temporal blocking alone admits, and a
        guaranteed superset of every time-overlapping candidate within
        ``Vmax * reach_gap_s`` reachability (module docstring).
        """
        if min_overlap_s < 0:
            raise ValidationError(
                f"min_overlap_s must be >= 0, got {min_overlap_s}"
            )
        if len(query) == 0 or not self._ids:
            return []
        with span("blocking"):
            with span("index_probe"):
                keep = self._temporal_mask(
                    query, min_overlap_s
                ) & self._spatial_mask(query)
            with span("mmap_read"):
                return [self._db[self._ids[i]] for i in np.nonzero(keep)[0]]

    def ids_for(
        self, query: Trajectory, min_overlap_s: float = 0.0
    ) -> list[object]:
        """Like :meth:`candidates_for` but returning ids only."""
        return [
            t.traj_id for t in self.candidates_for(query, min_overlap_s)
        ]

    def temporal_ids_for(
        self, query: Trajectory, min_overlap_s: float = 0.0
    ) -> list[str]:
        """The time-only blocking result (the temporal baseline)."""
        if min_overlap_s < 0:
            raise ValidationError(
                f"min_overlap_s must be >= 0, got {min_overlap_s}"
            )
        if len(query) == 0 or not self._ids:
            return []
        mask = self._temporal_mask(query, min_overlap_s)
        return [self._ids[i] for i in np.nonzero(mask)[0]]

    def prune_counts(
        self, query: Trajectory, min_overlap_s: float = 0.0
    ) -> dict:
        """Candidate counts at each pruning stage (benchmark probe)."""
        if len(query) == 0 or not self._ids:
            return {"n_indexed": len(self._ids), "n_temporal": 0,
                    "n_spatiotemporal": 0}
        tmask = self._temporal_mask(query, min_overlap_s)
        stmask = tmask & self._spatial_mask(query)
        return {
            "n_indexed": len(self._ids),
            "n_temporal": int(tmask.sum()),
            "n_spatiotemporal": int(stmask.sum()),
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, index_dir: str | Path, generation: int) -> None:
        """Persist the index, stamped with the store's ``generation``."""
        index_dir = Path(index_dir)
        index_dir.mkdir(parents=True, exist_ok=True)
        arrays = {
            "starts.f64": ("<f8", self._starts),
            "ends.f64": ("<f8", self._ends),
            "cells.i64": ("<i8", self._cells),
            "cell_offsets.i64": ("<i8", self._cell_offsets),
            "postings.i64": ("<i8", self._postings),
        }
        for fname, (dtype, arr) in arrays.items():
            path = index_dir / fname
            np.ascontiguousarray(arr, dtype=dtype).tofile(path)
            fsync_file(path)
        ids_path = index_dir / "ids.json"
        ids_path.write_text(json.dumps(self._ids))
        fsync_file(ids_path)
        fsync_dir(index_dir)
        write_json_atomic(
            index_dir / "meta.json",
            {
                "format": INDEX_FORMAT,
                "format_version": INDEX_VERSION,
                "generation": int(generation),
                "cell_size_m": self._cell_size_m,
                "vmax_kph": self._vmax_kph,
                "reach_gap_s": self._reach_gap_s,
                "n_candidates": len(self._ids),
                "n_cells": int(self._cells.size),
                "n_postings": int(self._postings.size),
                "bounding_cells": (
                    list(self.bounding_cells())
                    if self.bounding_cells() is not None
                    else None
                ),
            },
        )

    @staticmethod
    def _read_meta(index_dir: Path) -> dict:
        meta_path = index_dir / "meta.json"
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreFormatError(f"{meta_path}: unreadable: {exc}") from exc
        if meta.get("format") != INDEX_FORMAT:
            raise StoreFormatError(f"{meta_path}: not a {INDEX_FORMAT} index")
        version = int(meta.get("format_version", -1))
        if not 1 <= version <= INDEX_VERSION:
            raise StoreFormatError(
                f"{meta_path}: unsupported index version {version}"
            )
        return meta

    @classmethod
    def load_params(cls, index_dir: str | Path) -> dict:
        """The persisted build parameters (for rebuild-after-compact)."""
        meta = cls._read_meta(Path(index_dir))
        return {
            "cell_size_m": float(meta["cell_size_m"]),
            "vmax_kph": float(meta["vmax_kph"]),
            "reach_gap_s": float(meta["reach_gap_s"]),
        }

    @classmethod
    def load_generation(cls, index_dir: str | Path) -> int:
        """The store generation a persisted index was built at."""
        return int(cls._read_meta(Path(index_dir)).get("generation", -1))

    @classmethod
    def open(
        cls,
        index_dir: str | Path,
        db: TrajectoryDatabase,
        expected_generation: int | None = None,
        strict_ids: bool = True,
    ) -> "SpatioTemporalIndex":
        """Memory-map a persisted index and bind it to its database.

        ``expected_generation`` (the store manifest's current value)
        guards against serving candidates from a superseded snapshot.
        ``strict_ids=False`` skips the indexed-ids-present check — the
        streaming union view opens the main index *behind* the store
        generation (delta blocks cover the gap) where sliding-window
        eviction may have dropped whole trajectories; its probes filter
        missing ids instead.
        """
        index_dir = Path(index_dir)
        meta = cls._read_meta(index_dir)
        if (
            expected_generation is not None
            and int(meta.get("generation", -1)) != int(expected_generation)
        ):
            raise StaleIndexError(
                f"{index_dir}: index was built at store generation "
                f"{meta.get('generation')}, store is now at "
                f"{expected_generation}; rebuild with build_index()"
            )
        try:
            ids = json.loads((index_dir / "ids.json").read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreFormatError(
                f"{index_dir}/ids.json: unreadable: {exc}"
            ) from exc
        n = int(meta["n_candidates"])
        n_cells = int(meta["n_cells"])
        n_postings = int(meta["n_postings"])
        if len(ids) != n:
            raise StoreFormatError(
                f"{index_dir}: ids.json holds {len(ids)} ids, meta says {n}"
            )
        sizes = {
            "starts.f64": n,
            "ends.f64": n,
            "cells.i64": n_cells,
            "cell_offsets.i64": n_cells + 1,
            "postings.i64": n_postings,
        }
        loaded = {}
        for fname, dtype in _ARRAY_FILES:
            path = index_dir / fname
            want = sizes[fname]
            itemsize = np.dtype(dtype).itemsize
            try:
                actual = path.stat().st_size
            except OSError as exc:
                raise StoreFormatError(f"{path}: unreadable: {exc}") from exc
            if actual != want * itemsize:
                raise StoreFormatError(
                    f"{path}: expected {want} x {dtype}, found {actual} bytes"
                )
            loaded[fname] = (
                np.memmap(path, dtype=dtype, mode="r", shape=(want,))
                if want
                else np.empty(0, dtype=dtype)
            )
        if strict_ids:
            missing = [i for i in ids if i not in db]
            if missing:
                raise StaleIndexError(
                    f"{index_dir}: indexed ids missing from the database "
                    f"(first: {missing[0]!r}); rebuild the index"
                )
        index = cls(
            db,
            [str(i) for i in ids],
            loaded["starts.f64"],
            loaded["ends.f64"],
            loaded["cells.i64"],
            loaded["cell_offsets.i64"],
            loaded["postings.i64"],
            float(meta["cell_size_m"]),
            float(meta["vmax_kph"]),
            float(meta["reach_gap_s"]),
        )
        if "bounding_cells" in meta:
            bounds = meta["bounding_cells"]
            index._bounds = (
                tuple(int(v) for v in bounds) if bounds is not None else None
            )
            index._bounds_computed = True
        return index
