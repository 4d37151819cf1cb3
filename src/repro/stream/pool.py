"""The resident candidate pool, patched in place by flush and eviction deltas.

A store-backed daemon serves :meth:`TrajectoryStore.load` of its store.
Reloading that view after every ingest flush costs time linear in the
store; :class:`ResidentPool` instead applies each flush's record deltas
and each eviction's cutoff to the entries they touch, and keeps the
list equal to a fresh ``load()`` — same ids, same order, same arrays
(property-tested in ``tests/test_stream.py``):

* **Order.**  ``load()`` emits ids in first-seen order (the segment,
  then the slot, of an id's first record delta, even when later
  evicted).  The pool keeps each id's first-seen *rank* — also for ids
  that are fully evicted and gone from the list — and keeps the list
  sorted by it: a delta onto a listed id replaces its entry in place,
  an unseen id is appended, and an evicted id that receives records
  again returns to its old position.
* **Records.**  A delta is masked by the store's eviction watermark,
  concatenated after the entry's records and stably time-sorted —
  exactly ``load()``'s merge of an id's pieces in segment order.  An
  eviction drops every entry's prefix below the cutoff, and the entry
  itself once no record is left.

Entries that a delta does not touch stay the same objects, so their
cached content digests (and the profiles keyed on them) carry over.

**Slices.**  A sharded daemon's workers each hold a :meth:`subset
<ResidentPool.subset>` (the ids one shard owns) and apply that shard's
deltas of every flush, in order, and every eviction cutoff to it.  A
subset keeps every rank the pool knew and meets its new ids in the
pool's order, so it stays the owner-filtered ``load()``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

import numpy as np

from repro.core.trajectory import Trajectory


class ResidentPool:
    """A pool list plus its id views, updated from store deltas.

    ``trajectories`` is the list the daemon links against; it is
    mutated in place, never rebound, so every holder of it sees each
    update.  ``known_ids`` are the store's ids in first-seen order
    (:meth:`TrajectoryStore.ids`, fully evicted ids included); the pool
    must start as that store's ``load()`` for the bit-identity above.
    ``by_id`` maps each listed id to its entry and ``rank`` maps every
    id ever seen to its first-seen rank; ranks are never dropped, so a
    reader may look one up without a lock.  ``generation`` counts the
    merges and evictions; ``lock`` keeps :meth:`subset` off half an update.
    """

    def __init__(self, trajectories: list, known_ids=()) -> None:
        self.trajectories = trajectories
        self.lock = threading.Lock()
        self.generation = 0
        self.reset(trajectories, known_ids)

    def reset(self, trajectories, known_ids=()) -> None:
        """Replace the whole pool (startup and the recovery path)."""
        with self.lock:
            self.trajectories[:] = trajectories
            rank: dict[str, int] = {}
            for traj_id in known_ids:
                rank.setdefault(str(traj_id), len(rank))
            for traj in self.trajectories:
                rank.setdefault(str(traj.traj_id), len(rank))
            self.by_id = {str(t.traj_id): t for t in self.trajectories}
            self.rank = rank

    def subset(self, keep) -> ResidentPool:
        """The entries ``keep(trajectory)`` selects, at this generation."""
        with self.lock:
            part = ResidentPool([t for t in self.trajectories if keep(t)])
            part.rank = dict(self.rank)
            part.generation = self.generation
        return part

    def _position(self, traj_id: str) -> int:
        rank = self.rank
        return bisect_left(
            self.trajectories, rank[traj_id],
            key=lambda t: rank[str(t.traj_id)],
        )

    def merge(self, deltas, retain_after: float = 0.0) -> None:
        """Merge one flush's record deltas into the pool.

        ``deltas`` are the trajectories one store append wrote, in
        order; ``retain_after`` is the store's eviction watermark.  A
        delta whose records all lie behind the watermark changes no
        entry but still fixes its id's rank.
        """
        with self.lock:
            for delta in deltas:
                traj_id = str(delta.traj_id)
                self.rank.setdefault(traj_id, len(self.rank))
                ts, xs, ys = delta.ts, delta.xs, delta.ys
                if retain_after:
                    a = int(np.searchsorted(ts, retain_after, side="left"))
                    ts, xs, ys = ts[a:], xs[a:], ys[a:]
                if not len(ts):
                    continue
                old = self.by_id.get(traj_id)
                if old is None:
                    entry = Trajectory.from_arrays_unchecked(
                        ts, xs, ys, traj_id
                    )
                    self.trajectories.insert(self._position(traj_id), entry)
                else:
                    entry = Trajectory(
                        np.concatenate([old.ts, ts]),
                        np.concatenate([old.xs, xs]),
                        np.concatenate([old.ys, ys]),
                        traj_id,
                        sort=True,
                    )
                    self.trajectories[self._position(traj_id)] = entry
                self.by_id[traj_id] = entry
            self.generation += 1

    def evict(self, cutoff_t: float) -> list[str]:
        """Drop records with ``t < cutoff_t``; returns the ids that lost any.

        Ids that lost every record leave the list and ``by_id``.
        """
        affected: list[str] = []
        kept: list[Trajectory] = []
        with self.lock:
            for traj in self.trajectories:
                if len(traj) and float(traj.ts[0]) < cutoff_t:
                    traj_id = str(traj.traj_id)
                    affected.append(traj_id)
                    a = int(np.searchsorted(traj.ts, cutoff_t, side="left"))
                    if a == len(traj):
                        del self.by_id[traj_id]
                        continue
                    traj = Trajectory.from_arrays_unchecked(
                        traj.ts[a:], traj.xs[a:], traj.ys[a:], traj_id
                    )
                    self.by_id[traj_id] = traj
                kept.append(traj)
            if affected:
                self.trajectories[:] = kept
            self.generation += 1
        return affected
