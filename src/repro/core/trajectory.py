"""Trajectories: immutable, time-sorted sequences of records.

A :class:`Trajectory` stores its records columnarly (three float64 arrays
``ts``, ``xs``, ``ys``) because alignment and model building are NumPy
merges over those columns.  The scalar :class:`~repro.core.records.Record`
view is materialised lazily for user code that prefers objects.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import EmptyTrajectoryError, UnsortedRecordsError, ValidationError
from repro.core.records import Record


class Trajectory:
    """A time-sorted sequence of location-timestamp records for one owner.

    Parameters
    ----------
    ts, xs, ys:
        Equal-length 1-D arrays of timestamps (seconds) and coordinates.
        Timestamps must be non-decreasing; pass ``sort=True`` to let the
        constructor sort them.
    traj_id:
        Identifier of the trajectory within its database (the paper's
        card ID / taxi ID / user name).  Any hashable value.
    sort:
        If true, records are sorted by time (stable) instead of
        requiring pre-sorted input.
    """

    __slots__ = ("_ts", "_xs", "_ys", "_traj_id", "_digest")

    def __init__(
        self,
        ts: Sequence[float] | np.ndarray,
        xs: Sequence[float] | np.ndarray,
        ys: Sequence[float] | np.ndarray,
        traj_id: object = None,
        *,
        sort: bool = False,
    ) -> None:
        ts_arr = np.asarray(ts, dtype=np.float64)
        xs_arr = np.asarray(xs, dtype=np.float64)
        ys_arr = np.asarray(ys, dtype=np.float64)
        if not (ts_arr.ndim == xs_arr.ndim == ys_arr.ndim == 1):
            raise ValidationError("ts, xs, ys must be one-dimensional")
        if not (ts_arr.shape == xs_arr.shape == ys_arr.shape):
            raise ValidationError(
                f"ts, xs, ys must have equal lengths, got "
                f"{ts_arr.shape[0]}, {xs_arr.shape[0]}, {ys_arr.shape[0]}"
            )
        if ts_arr.size and not np.all(np.isfinite(ts_arr)):
            raise ValidationError("timestamps must be finite")
        if ts_arr.size and not (
            np.all(np.isfinite(xs_arr)) and np.all(np.isfinite(ys_arr))
        ):
            raise ValidationError("coordinates must be finite")
        if sort:
            order = np.argsort(ts_arr, kind="stable")
            ts_arr = ts_arr[order]
            xs_arr = xs_arr[order]
            ys_arr = ys_arr[order]
        elif ts_arr.size > 1 and np.any(np.diff(ts_arr) < 0):
            raise UnsortedRecordsError(
                "timestamps must be non-decreasing (pass sort=True to sort)"
            )
        self._ts = ts_arr
        self._xs = xs_arr
        self._ys = ys_arr
        self._traj_id = traj_id
        self._digest = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls, records: Iterable[Record], traj_id: object = None, *, sort: bool = False
    ) -> "Trajectory":
        """Build a trajectory from :class:`Record` objects."""
        recs = list(records)
        return cls(
            [r.t for r in recs],
            [r.x for r in recs],
            [r.y for r in recs],
            traj_id,
            sort=sort,
        )

    @classmethod
    def empty(cls, traj_id: object = None) -> "Trajectory":
        """A trajectory with no records."""
        return cls([], [], [], traj_id)

    @classmethod
    def from_arrays_unchecked(
        cls,
        ts: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        traj_id: object = None,
    ) -> "Trajectory":
        """Wrap pre-validated columnar arrays without copying or checking.

        The fast path for storage backends (:mod:`repro.store`) whose
        data was validated when written: the arrays are adopted as-is —
        including ``numpy.memmap`` views, keeping loads zero-copy — so
        the caller guarantees equal-length 1-D float64 columns with
        finite values and non-decreasing timestamps.  Violating that
        contract breaks downstream invariants silently; when in doubt,
        use the validating constructor.
        """
        obj = object.__new__(cls)
        obj._ts = ts
        obj._xs = xs
        obj._ys = ys
        obj._traj_id = traj_id
        obj._digest = None
        return obj

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._ts.shape[0])

    def __iter__(self) -> Iterator[Record]:
        for t, x, y in zip(self._ts, self._xs, self._ys):
            yield Record(float(t), float(x), float(y))

    def __getitem__(self, index: int) -> Record:
        t = self._ts[index]
        return Record(float(t), float(self._xs[index]), float(self._ys[index]))

    def __repr__(self) -> str:
        span = f", span={self.duration:.0f}s" if len(self) > 1 else ""
        return f"Trajectory(id={self._traj_id!r}, n={len(self)}{span})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            self._traj_id == other._traj_id
            and np.array_equal(self._ts, other._ts)
            and np.array_equal(self._xs, other._xs)
            and np.array_equal(self._ys, other._ys)
        )

    def __hash__(self) -> int:  # identity hash; content equality above
        return id(self)

    def content_digest(self) -> bytes:
        """A digest of the records alone (not the id), computed once.

        Keys content-addressed caches: trajectories with equal records
        share a digest whatever their ids, and a reused id with other
        records gets another one.
        """
        if self._digest is None:
            h = hashlib.blake2b(digest_size=16)
            for col in (self._ts, self._xs, self._ys):
                h.update(np.ascontiguousarray(col, dtype=np.float64))
            self._digest = h.digest()
        return self._digest

    # ------------------------------------------------------------------
    # Columnar accessors (read-only views — the hot-path API)
    # ------------------------------------------------------------------
    @property
    def traj_id(self) -> object:
        return self._traj_id

    @property
    def ts(self) -> np.ndarray:
        view = self._ts.view()
        view.flags.writeable = False
        return view

    @property
    def xs(self) -> np.ndarray:
        view = self._xs.view()
        view.flags.writeable = False
        return view

    @property
    def ys(self) -> np.ndarray:
        view = self._ys.view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # Statistics (the columns reported in the paper's Table I)
    # ------------------------------------------------------------------
    @property
    def start_time(self) -> float:
        self._require_nonempty("start_time")
        return float(self._ts[0])

    @property
    def end_time(self) -> float:
        self._require_nonempty("end_time")
        return float(self._ts[-1])

    @property
    def duration(self) -> float:
        """Elapsed seconds between the first and last record (0 if < 2)."""
        if len(self) < 2:
            return 0.0
        return float(self._ts[-1] - self._ts[0])

    def gaps(self) -> np.ndarray:
        """Time differences between consecutive records, in seconds."""
        if len(self) < 2:
            return np.empty(0, dtype=np.float64)
        return np.diff(self._ts)

    def mean_gap(self) -> float:
        """Mean inter-record gap in seconds (paper's "mean of timediff")."""
        gaps = self.gaps()
        return float(gaps.mean()) if gaps.size else 0.0

    def _require_nonempty(self, op: str) -> None:
        if len(self) == 0:
            raise EmptyTrajectoryError(f"{op} on an empty trajectory")

    # ------------------------------------------------------------------
    # Transformations (all return new trajectories)
    # ------------------------------------------------------------------
    def with_id(self, traj_id: object) -> "Trajectory":
        """The same records under a different identifier."""
        return Trajectory(self._ts, self._xs, self._ys, traj_id)

    def slice_time(self, start_s: float, end_s: float) -> "Trajectory":
        """Records with ``start_s <= t < end_s``."""
        if end_s < start_s:
            raise ValidationError(f"empty interval [{start_s}, {end_s})")
        mask = (self._ts >= start_s) & (self._ts < end_s)
        return Trajectory(
            self._ts[mask], self._xs[mask], self._ys[mask], self._traj_id
        )

    def head_duration(self, duration_s: float) -> "Trajectory":
        """Records within ``duration_s`` seconds of the first record."""
        if len(self) == 0:
            return self
        return self.slice_time(self.start_time, self.start_time + duration_s)

    def downsample(self, rate: float, rng: np.random.Generator) -> "Trajectory":
        """Keep each record independently with probability ``rate``.

        This is the paper's "sampling rate" knob (Section VII-A):
        ``rate=0.02`` keeps ~2% of records.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValidationError(f"rate must be in [0, 1], got {rate}")
        if rate == 1.0 or len(self) == 0:
            return self
        mask = rng.random(len(self)) < rate
        return Trajectory(
            self._ts[mask], self._xs[mask], self._ys[mask], self._traj_id
        )

    def thin(self, keep_every: int) -> "Trajectory":
        """Deterministically keep every ``keep_every``-th record."""
        if keep_every < 1:
            raise ValidationError(f"keep_every must be >= 1, got {keep_every}")
        return Trajectory(
            self._ts[::keep_every],
            self._xs[::keep_every],
            self._ys[::keep_every],
            self._traj_id,
        )

    def time_shifted(self, offset_s: float) -> "Trajectory":
        """All timestamps shifted by ``offset_s`` seconds."""
        return Trajectory(self._ts + offset_s, self._xs, self._ys, self._traj_id)

    def concat(self, other: "Trajectory", traj_id: object = None) -> "Trajectory":
        """Merge two trajectories into one time-sorted trajectory.

        This is the paper's *trajectory enrichment* operation (Fig. 2):
        the linked records of one person from two sources merged into a
        single richer trajectory.
        """
        ts = np.concatenate([self._ts, other._ts])
        xs = np.concatenate([self._xs, other._xs])
        ys = np.concatenate([self._ys, other._ys])
        return Trajectory(ts, xs, ys, traj_id, sort=True)

    def records(self) -> list[Record]:
        """All records as a list of :class:`Record` objects."""
        return list(self)
