"""The persistent, mmap-backed trajectory store.

Every linking run used to rebuild :class:`~repro.core.database.TrajectoryDatabase`
in RAM from CSV/JSONL — startup cost linear in the corpus, resident
memory linear in the corpus.  :class:`TrajectoryStore` replaces that
with a columnar on-disk layout (see :mod:`repro.store.format`) opened
via ``numpy.memmap``: opening a 100k-trajectory store touches the
manifest, each segment's id table and offset table, but **no record
pages** — those fault in lazily as the engine reads them.

Semantics:

* **Append-only ingest.**  :meth:`append` writes a new immutable
  segment holding *record deltas*; a trajectory id appearing in several
  segments denotes one trajectory whose records are the time-sorted
  union of all its deltas (merge-on-read).  This is exactly what a
  serving daemon's ingest sessions produce.
* **Compaction.**  :meth:`compact` rewrites the store as one snapshot
  segment, materialising the merge and restoring fully zero-copy
  loads; the swap is atomic (manifest rename), so readers crash-safely
  see either the old or the new snapshot.
* **Crash safety.**  Segment directories are written and fsynced
  *before* the manifest references them; an interrupted append leaves
  an orphan directory that the next successful write garbage-collects,
  and the store keeps opening the last consistent snapshot (tested).

Loads feed the linking engine directly: :meth:`load` returns a
:class:`TrajectoryDatabase` whose trajectories wrap read-only memmap
slices (zero-copy for single-segment ids), bit-identical to the same
data loaded through CSV (tested).
"""

from __future__ import annotations

import json
import shutil
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.core.database import TrajectoryDatabase
from repro.core.trajectory import Trajectory
from repro.errors import StoreFormatError, ValidationError
from repro.store.format import (
    FORMAT_VERSION,
    INDEX_DIR,
    MANIFEST_NAME,
    MODELS_DIR,
    ModelArtifactInfo,
    SegmentInfo,
    StoreManifest,
    open_segment_arrays,
    read_manifest,
    write_json_atomic,
    write_manifest,
    write_segment_arrays,
)
from repro.store.models import ModelArtifact


@dataclass(frozen=True)
class StoreStats:
    """Point-in-time summary of a store (the ``ftl store stats`` output)."""

    path: str
    name: str
    format_version: int
    generation: int
    n_segments: int
    n_trajectories: int
    n_records: int
    n_bytes: int
    has_index: bool

    def to_dict(self) -> dict:
        return asdict(self)


class TrajectoryStore:
    """One on-disk trajectory database; open with :meth:`open` or :meth:`create`.

    The handle is cheap: it holds the manifest plus lazily opened
    segment memmaps.  It is safe to keep open across appends *by the
    same handle*; a store mutated by another process should be
    re-opened.
    """

    def __init__(self, path: str | Path, manifest: StoreManifest) -> None:
        self._path = Path(path)
        self._manifest = manifest
        self._segments: list[tuple[SegmentInfo, tuple]] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | Path,
        db: TrajectoryDatabase | Iterable[Trajectory] | None = None,
        name: str = "",
    ) -> "TrajectoryStore":
        """Initialise a new store directory (optionally seeded with data)."""
        root = Path(path)
        if root.exists():
            if (root / MANIFEST_NAME).exists():
                raise ValidationError(f"{root}: store already exists")
            if any(root.iterdir()):
                raise ValidationError(f"{root}: directory exists and is not empty")
        root.mkdir(parents=True, exist_ok=True)
        if name == "" and isinstance(db, TrajectoryDatabase):
            name = db.name
        store = cls(root, StoreManifest(name=name))
        write_manifest(root, store._manifest)
        if db is not None:
            store.append(db)
        return store

    @classmethod
    def open(cls, path: str | Path) -> "TrajectoryStore":
        """Open an existing store (near-zero cost: metadata only)."""
        root = Path(path)
        return cls(root, read_manifest(root))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    @property
    def manifest(self) -> StoreManifest:
        return self._manifest

    @property
    def name(self) -> str:
        return self._manifest.name

    @property
    def generation(self) -> int:
        return self._manifest.generation

    def __repr__(self) -> str:
        m = self._manifest
        return (
            f"TrajectoryStore({str(self._path)!r}, gen={m.generation}, "
            f"segments={len(m.segments)}, records={m.n_records})"
        )

    def ids(self) -> list[str]:
        """Distinct trajectory ids in first-seen (segment, slot) order."""
        seen: dict[str, None] = {}
        for _info, (_ts, _xs, _ys, _offsets, ids) in self._opened_segments():
            for traj_id in ids:
                seen.setdefault(traj_id, None)
        return list(seen)

    def stats(self) -> StoreStats:
        """Summary counters, including bytes on disk of live segments."""
        m = self._manifest
        n_bytes = 0
        for info in m.segments:
            seg_dir = self._path / info.dirname
            for child in seg_dir.iterdir():
                n_bytes += child.stat().st_size
        return StoreStats(
            path=str(self._path),
            name=m.name,
            format_version=m.format_version,
            generation=m.generation,
            n_segments=len(m.segments),
            n_trajectories=len(self.ids()),
            n_records=m.n_records,
            n_bytes=n_bytes,
            has_index=(self._path / INDEX_DIR / "meta.json").is_file(),
        )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _opened_segments(self) -> list[tuple[SegmentInfo, tuple]]:
        if self._segments is None:
            self._segments = [
                (info, open_segment_arrays(self._path / info.dirname, info))
                for info in self._manifest.segments
            ]
        return self._segments

    def load(self, name: str | None = None) -> TrajectoryDatabase:
        """Materialise the store as a :class:`TrajectoryDatabase`.

        Ids come out in **first-seen order**: by the segment, then the
        slot, of an id's first record delta, masked or not — the order
        of :meth:`ids` with fully evicted ids left out.  Appending
        therefore never moves an id that is already stored: a delta
        onto it merges in place and an unseen id goes last, which is
        what lets a serving daemon patch its resident pool instead of
        reloading it (:class:`repro.stream.pool.ResidentPool`).

        Trajectories whose records live in a single segment wrap
        read-only memmap slices directly (zero-copy; pages fault in on
        first access).  Ids spanning several segments — appended record
        deltas not yet compacted — are merged and time-sorted (stably,
        in segment order) into fresh arrays.

        Two deliberate speed choices keep a 100k-trajectory load well
        under a second: each segment's memmaps are re-wrapped as plain
        ndarray views (slicing ``np.memmap`` itself pays a costly
        ``__array_finalize__`` per slice), and ids that occur in only
        one segment — all of them, after a compact — skip the
        merge-buffer lists entirely.
        """
        segments = self._opened_segments()
        multi: set[str] = set()
        if len(segments) > 1:
            seen: set[str] = set()
            for _info, (_ts, _xs, _ys, _offsets, ids) in segments:
                for traj_id in ids:
                    (multi if traj_id in seen else seen).add(traj_id)
        unchecked = Trajectory.from_arrays_unchecked
        # id -> its Trajectory (single-segment ids) or its list of
        # visible pieces (multi-segment ids, merged below); insertion
        # order is first-seen order.
        entries: dict[str, Trajectory | list] = {}
        # Sliding-window eviction: the manifest watermark masks records
        # with t < retain_after at read time.  Per-trajectory slices are
        # time-sorted, so the mask is one searchsorted per slice; whole
        # trajectories disappear when all their records age out.
        cut = self._manifest.retain_after
        for _info, (ts, xs, ys, offsets, ids) in segments:
            ts_v, xs_v, ys_v = np.asarray(ts), np.asarray(xs), np.asarray(ys)
            bounds = offsets.tolist()
            for slot, traj_id in enumerate(ids):
                a, b = bounds[slot], bounds[slot + 1]
                if cut:
                    a += int(np.searchsorted(ts_v[a:b], cut, side="left"))
                if traj_id in multi:
                    parts = entries.setdefault(traj_id, [])
                    if a < b:
                        parts.append((ts_v[a:b], xs_v[a:b], ys_v[a:b]))
                elif a < b:
                    entries[traj_id] = unchecked(
                        ts_v[a:b], xs_v[a:b], ys_v[a:b], traj_id
                    )
        db = TrajectoryDatabase(name=self._manifest.name if name is None else name)
        add = db.add
        for traj_id, entry in entries.items():
            if type(entry) is list:
                if not entry:
                    continue
                entry = Trajectory(
                    np.concatenate([p[0] for p in entry]),
                    np.concatenate([p[1] for p in entry]),
                    np.concatenate([p[2] for p in entry]),
                    traj_id,
                    sort=True,
                )
            add(entry)
        return db

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _next_segment_dir(self) -> tuple[str, Path]:
        """A fresh segment directory name (skips orphans from crashes)."""
        taken = {info.dirname for info in self._manifest.segments}
        n = len(self._manifest.segments)
        while True:
            dirname = f"seg-{n:06d}"
            seg_dir = self._path / dirname
            if dirname not in taken and not seg_dir.exists():
                return dirname, seg_dir
            n += 1

    def _collect_garbage(self) -> None:
        """Remove segment directories the manifest no longer references.

        Orphans appear when an append crashed after writing its segment
        but before the manifest swap, and after :meth:`compact`.
        """
        live = {info.dirname for info in self._manifest.segments}
        for child in self._path.iterdir():
            if (
                child.is_dir()
                and child.name.startswith("seg-")
                and child.name not in live
            ):
                shutil.rmtree(child, ignore_errors=True)

    def _commit(self, manifest: StoreManifest) -> None:
        """Atomically install a new manifest; split out for crash tests."""
        write_manifest(self._path, manifest)
        self._manifest = manifest
        self._segments = None

    def append(
        self, trajectories: TrajectoryDatabase | Iterable[Trajectory]
    ) -> int:
        """Append one immutable segment of records; returns records written.

        Trajectory ids already present in the store are treated as
        *record deltas*: :meth:`load` merges all of an id's segments
        (see :meth:`compact`).  Empty trajectories are skipped — they
        carry no records to persist.
        """
        self._collect_garbage()
        ids: list[str] = []
        ts_parts: list[np.ndarray] = []
        xs_parts: list[np.ndarray] = []
        ys_parts: list[np.ndarray] = []
        lengths: list[int] = []
        seen: set[str] = set()
        for traj in trajectories:
            if len(traj) == 0:
                continue
            if traj.traj_id is None:
                raise ValidationError("stored trajectories need a non-None id")
            traj_id = str(traj.traj_id)
            if traj_id in seen:
                raise ValidationError(
                    f"duplicate trajectory id {traj_id!r} in one append batch"
                )
            seen.add(traj_id)
            ids.append(traj_id)
            ts_parts.append(traj.ts)
            xs_parts.append(traj.xs)
            ys_parts.append(traj.ys)
            lengths.append(len(traj))
        if not ids:
            return 0
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        dirname, seg_dir = self._next_segment_dir()
        write_segment_arrays(
            seg_dir,
            np.concatenate(ts_parts),
            np.concatenate(xs_parts),
            np.concatenate(ys_parts),
            offsets,
            ids,
        )
        info = SegmentInfo(
            dirname=dirname,
            n_trajectories=len(ids),
            n_records=int(offsets[-1]),
        )
        self._commit(self._manifest.bumped(self._manifest.segments + (info,)))
        return info.n_records

    def expire_before(self, cutoff_t: float) -> int:
        """Raise the sliding-window eviction watermark to ``cutoff_t``.

        Records with ``t < cutoff_t`` (strictly — a record at exactly
        the cutoff survives, matching
        :meth:`repro.core.streaming.StreamingPairEvidence.expire_before`)
        stop being visible to :meth:`load` immediately, without
        rewriting any segment; :meth:`compact` materialises the drop.
        Commits a new manifest generation, so a plain persisted index
        goes stale (the streaming delta log records eviction markers to
        keep its union view live).  Returns the number of newly masked
        records; lowering the watermark is a no-op.
        """
        old = self._manifest.retain_after
        cut = float(cutoff_t)
        if cut <= old:
            return 0
        evicted = 0
        for _info, (ts, _xs, _ys, offsets, ids) in self._opened_segments():
            ts_v = np.asarray(ts)
            bounds = offsets.tolist()
            for slot in range(len(ids)):
                a, b = bounds[slot], bounds[slot + 1]
                evicted += int(np.searchsorted(ts_v[a:b], cut, side="left"))
                if old:
                    evicted -= int(
                        np.searchsorted(ts_v[a:b], old, side="left")
                    )
        self._commit(replace(
            self._manifest.bumped(self._manifest.segments), retain_after=cut
        ))
        return evicted

    def compact(self) -> StoreStats:
        """Rewrite the store as a single merged snapshot segment.

        Materialises the merge-on-read view (multi-segment ids become
        one time-sorted run, in :meth:`load`'s first-seen order), swaps
        the manifest atomically, deletes the superseded segments, and —
        when a blocking index was present — rebuilds it against the new
        snapshot so it never goes stale silently.  Safe on an already-compact store (no-op apart
        from a generation bump when segments exist).
        """
        from repro.store.stindex import SpatioTemporalIndex

        had_index = (self._path / INDEX_DIR / "meta.json").is_file()
        index_params: dict | None = None
        if had_index:
            index_params = SpatioTemporalIndex.load_params(
                self._path / INDEX_DIR
            )
        merged = self.load()
        ids: list[str] = []
        lengths: list[int] = []
        ts_parts, xs_parts, ys_parts = [], [], []
        for traj in merged:
            ids.append(str(traj.traj_id))
            lengths.append(len(traj))
            ts_parts.append(traj.ts)
            xs_parts.append(traj.xs)
            ys_parts.append(traj.ys)
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        if lengths:
            np.cumsum(lengths, out=offsets[1:])
        dirname, seg_dir = self._next_segment_dir()
        write_segment_arrays(
            seg_dir,
            np.concatenate(ts_parts) if ts_parts else np.empty(0),
            np.concatenate(xs_parts) if xs_parts else np.empty(0),
            np.concatenate(ys_parts) if ys_parts else np.empty(0),
            offsets,
            ids,
        )
        info = SegmentInfo(
            dirname=dirname,
            n_trajectories=len(ids),
            n_records=int(offsets[-1]),
        )
        # The snapshot was written through the watermark-filtered load,
        # so evicted records are now physically gone: reset the watermark.
        self._commit(replace(
            self._manifest.bumped((info,)), retain_after=0.0
        ))
        self._collect_garbage()
        if had_index and index_params is not None:
            self.build_index(**index_params)
        return self.stats()

    # ------------------------------------------------------------------
    # Blocking index
    # ------------------------------------------------------------------
    def build_index(self, **params) -> "SpatioTemporalIndex":
        """Build and persist the spatio-temporal blocking index.

        Keyword arguments are forwarded to
        :meth:`repro.store.stindex.SpatioTemporalIndex.build`
        (``cell_size_m``, ``vmax_kph``, ``reach_gap_s``).
        """
        from repro.store.stindex import SpatioTemporalIndex

        index = SpatioTemporalIndex.build(self.load(), **params)
        index.save(self._path / INDEX_DIR, generation=self.generation)
        return index

    def open_index(self) -> "SpatioTemporalIndex":
        """Open the persisted blocking index for this store's snapshot.

        Raises :class:`~repro.errors.StaleIndexError` when the store
        has been appended to or compacted since the index was built
        (rebuild with :meth:`build_index`), and
        :class:`~repro.errors.StoreFormatError` when no index exists.
        """
        from repro.store.stindex import SpatioTemporalIndex

        index_dir = self._path / INDEX_DIR
        if not (index_dir / "meta.json").is_file():
            raise StoreFormatError(
                f"{self._path}: no blocking index (run build_index / "
                f"`ftl store index`)"
            )
        return SpatioTemporalIndex.open(
            index_dir, self.load(), expected_generation=self.generation
        )

    # ------------------------------------------------------------------
    # Fitted-model artifacts
    # ------------------------------------------------------------------
    def list_models(self) -> tuple[ModelArtifactInfo, ...]:
        """The registered model artifacts, in registration order."""
        return self._manifest.models

    @property
    def active_model_id(self) -> str | None:
        """Artifact id of the active model, or ``None`` when unset."""
        return self._manifest.active_model or None

    def save_model(
        self, artifact: ModelArtifact, created_at: float, activate: bool = False
    ) -> ModelArtifactInfo:
        """Persist an artifact under ``models/`` and register it.

        The payload file is written and fsynced *before* the manifest
        swap (the same discipline as segment appends): a crash mid-save
        leaves an unreferenced JSON file, never a registered-but-missing
        artifact.  Saving an already-registered artifact id is
        idempotent — artifacts are content-addressed, so the payload is
        byte-identical by construction.
        """
        artifact_id = artifact.artifact_id
        existing = next(
            (m for m in self._manifest.models if m.artifact_id == artifact_id),
            None,
        )
        if existing is not None:
            if activate and self._manifest.active_model != artifact_id:
                self.activate_model(artifact_id)
            return existing
        models_dir = self._path / MODELS_DIR
        models_dir.mkdir(parents=True, exist_ok=True)
        info = ModelArtifactInfo(
            artifact_id=artifact_id,
            filename=f"{artifact_id}.json",
            created_at=float(created_at),
        )
        write_json_atomic(models_dir / info.filename, artifact.to_dict())
        # Model registration leaves the data snapshot untouched, so the
        # generation is deliberately *not* bumped: a persisted blocking
        # index stays valid.
        manifest = replace(
            self._manifest,
            format_version=FORMAT_VERSION,
            models=self._manifest.models + (info,),
        )
        if activate:
            manifest = replace(manifest, active_model=artifact_id)
        self._commit(manifest)
        return info

    def _model_info(self, artifact_id: str) -> ModelArtifactInfo:
        info = next(
            (m for m in self._manifest.models if m.artifact_id == artifact_id),
            None,
        )
        if info is None:
            known = [m.artifact_id for m in self._manifest.models]
            raise ValidationError(
                f"no model artifact {artifact_id!r} in {self._path} "
                f"(registered: {known or 'none'})"
            )
        return info

    def load_model(self, artifact_id: str | None = None) -> ModelArtifact:
        """Load one artifact (the active one when ``artifact_id`` is None)."""
        if artifact_id is None:
            artifact_id = self._manifest.active_model
            if not artifact_id:
                raise ValidationError(
                    f"{self._path}: no active model artifact (fit one with "
                    f"`ftl model fit` or pass an explicit artifact id)"
                )
        info = self._model_info(artifact_id)
        path = self._path / MODELS_DIR / info.filename
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise StoreFormatError(f"{path}: unreadable: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise StoreFormatError(f"{path}: invalid JSON: {exc}") from exc
        artifact = ModelArtifact.from_dict(payload)
        if artifact.artifact_id != artifact_id:
            raise StoreFormatError(
                f"{path}: content hashes to {artifact.artifact_id!r}, "
                f"manifest registered it as {artifact_id!r}"
            )
        return artifact

    def activate_model(self, artifact_id: str) -> ModelArtifactInfo:
        """Point ``active_model`` at a registered artifact (atomic)."""
        info = self._model_info(artifact_id)
        self._commit(
            replace(
                self._manifest,
                format_version=FORMAT_VERSION,
                active_model=artifact_id,
            )
        )
        return info


def build_store(
    path: str | Path,
    db: TrajectoryDatabase | Iterable[Trajectory],
    name: str = "",
) -> TrajectoryStore:
    """Create a store at ``path`` seeded with ``db`` (convenience wrapper)."""
    return TrajectoryStore.create(path, db, name=name)


def open_store(path: str | Path) -> TrajectoryStore:
    """Open the store at ``path`` (convenience wrapper)."""
    return TrajectoryStore.open(path)


__all__ = [
    "FORMAT_VERSION",
    "ModelArtifact",
    "ModelArtifactInfo",
    "StoreStats",
    "TrajectoryStore",
    "build_store",
    "open_store",
]
