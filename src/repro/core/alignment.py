"""Trajectory alignment and mutual segments (paper Section IV-A).

The *alignment* ``W_PQ`` of trajectories ``P`` and ``Q`` is the merged,
time-sorted sequence of both record sets.  Adjacent pairs in ``W_PQ``
are *segments*; a **self-segment** joins two records from the same
source, a **mutual segment** joins records from different sources.
Mutual segments carry the discriminating signal for FTL.

Two APIs are provided:

* :func:`align` builds a full :class:`AlignedTrajectory` with labelled
  segments — the readable object API used in examples and tests.
* :func:`mutual_segment_profile` is the NumPy hot path: it directly
  produces the ``(bucket, incompatible)`` arrays consumed by both
  linking algorithms, computing distances only for mutual segments.

When a record of ``P`` and a record of ``Q`` share a timestamp, the
``P`` record is placed first (a stable merge), matching the paper's
notion of an arbitrary but fixed tie order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from repro.config import FTLConfig
from repro.core.records import Record
from repro.core.trajectory import Trajectory
from repro.kernels import (
    pair_profile_arrays,
    pool_profile_arrays,
    resolve_kernel_backend,
)

#: Source labels used in aligned trajectories.
SOURCE_P = 0
SOURCE_Q = 1


@dataclass(frozen=True)
class Segment:
    """An adjacent record pair in an aligned trajectory."""

    first: Record
    second: Record
    first_source: int
    second_source: int

    @property
    def is_mutual(self) -> bool:
        """True when the endpoints come from different trajectories."""
        return self.first_source != self.second_source

    @property
    def timediff(self) -> float:
        """Non-negative time difference of the endpoints in seconds."""
        return self.second.t - self.first.t


class AlignedTrajectory:
    """The merged, time-sorted record sequence of a trajectory pair.

    Instances are produced by :func:`align`; they expose the merged
    columns plus per-record source labels, and iterate segments.
    """

    __slots__ = ("_ts", "_xs", "_ys", "_sources")

    def __init__(
        self, ts: np.ndarray, xs: np.ndarray, ys: np.ndarray, sources: np.ndarray
    ) -> None:
        self._ts = ts
        self._xs = xs
        self._ys = ys
        self._sources = sources

    def __len__(self) -> int:
        return int(self._ts.shape[0])

    def __getitem__(self, index: int) -> tuple[Record, int]:
        return (
            Record(
                float(self._ts[index]), float(self._xs[index]), float(self._ys[index])
            ),
            int(self._sources[index]),
        )

    @property
    def ts(self) -> np.ndarray:
        return self._ts

    @property
    def xs(self) -> np.ndarray:
        return self._xs

    @property
    def ys(self) -> np.ndarray:
        return self._ys

    @property
    def sources(self) -> np.ndarray:
        """Per-record source labels (:data:`SOURCE_P` / :data:`SOURCE_Q`)."""
        return self._sources

    def n_mutual_segments(self) -> int:
        """Number of mutual segments (adjacent source changes)."""
        if len(self) < 2:
            return 0
        return int(np.count_nonzero(self._sources[1:] != self._sources[:-1]))

    def n_self_segments(self) -> int:
        """Number of self-segments."""
        if len(self) < 2:
            return 0
        return len(self) - 1 - self.n_mutual_segments()

    def segments(self) -> Iterator[Segment]:
        """Yield every adjacent segment in time order."""
        for i in range(len(self) - 1):
            first, first_src = self[i]
            second, second_src = self[i + 1]
            yield Segment(first, second, first_src, second_src)

    def mutual_segments(self) -> Iterator[Segment]:
        """Yield only the mutual segments."""
        return (seg for seg in self.segments() if seg.is_mutual)


def align(p: Trajectory, q: Trajectory) -> AlignedTrajectory:
    """Merge two trajectories into their alignment ``W_PQ``.

    The merge is stable with ``P`` records preceding equal-time ``Q``
    records.
    """
    ts = np.concatenate([p.ts, q.ts])
    xs = np.concatenate([p.xs, q.xs])
    ys = np.concatenate([p.ys, q.ys])
    sources = np.concatenate(
        [
            np.full(len(p), SOURCE_P, dtype=np.int8),
            np.full(len(q), SOURCE_Q, dtype=np.int8),
        ]
    )
    order = np.argsort(ts, kind="stable")
    return AlignedTrajectory(ts[order], xs[order], ys[order], sources[order])


@dataclass(frozen=True, eq=False)
class MutualSegmentProfile:
    """The discriminating observation extracted from one aligned pair.

    Attributes
    ----------
    buckets:
        Time-bucket index of each mutual segment (int64 array), computed
        with :meth:`repro.config.FTLConfig.buckets_of`.
    incompatible:
        Boolean array; True where the mutual segment is incompatible
        under the configured ``Vmax``.
    n_total:
        Total number of mutual segments (== ``len(buckets)``).

    Profiles hash and compare by *content* (see :attr:`token`), so they
    can key memoisation tables: two pairs with identical bucketed
    evidence produce identical p-values and log-likelihoods.
    """

    buckets: np.ndarray
    incompatible: np.ndarray

    @property
    def n_total(self) -> int:
        return int(self.buckets.shape[0])

    @property
    def n_incompatible(self) -> int:
        return int(np.count_nonzero(self.incompatible))

    @cached_property
    def token(self) -> tuple[bytes, bytes]:
        """A hashable content token: the raw bytes of both arrays.

        The generated-field ``__eq__`` of a dataclass is ill-defined on
        array fields (elementwise ``==`` has no truth value), so
        equality and hashing are defined through this token instead.
        """
        return (
            np.ascontiguousarray(self.buckets).tobytes(),
            np.ascontiguousarray(self.incompatible).tobytes(),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MutualSegmentProfile):
            return NotImplemented
        return self.token == other.token

    def __hash__(self) -> int:
        return hash(self.token)

    def within_horizon(self, n_buckets: int) -> "MutualSegmentProfile":
        """The profile restricted to buckets below the model horizon."""
        mask = self.buckets < n_buckets
        return MutualSegmentProfile(self.buckets[mask], self.incompatible[mask])


_EMPTY_PROFILE = MutualSegmentProfile(
    np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
)


def mutual_segment_profile(
    p: Trajectory,
    q: Trajectory,
    config: FTLConfig,
    backend: str | None = None,
) -> MutualSegmentProfile:
    """Extract the mutual-segment observation of a pair (NumPy hot path).

    Equivalent to aligning the trajectories, walking its mutual segments
    and recording each segment's time bucket and compatibility, but
    without materialising any Python objects.  The kernel ``backend``
    defaults to the config's (resolved through
    :func:`repro.kernels.resolve_kernel_backend`); every backend yields
    the same profile bit for bit.
    """
    resolved = resolve_kernel_backend(
        backend if backend is not None else config.kernel_backend
    )
    if resolved == "python":
        buckets, incompatible = pair_profile_arrays(
            p.ts, p.xs, p.ys, q.ts, q.xs, q.ys,
            config.metric, config.vmax_mps, config.time_unit_s,
        )
    else:
        offsets = np.array([0, len(q)], dtype=np.int64)
        buckets, incompatible, _ = pool_profile_arrays(
            p.ts, p.xs, p.ys, q.ts, q.xs, q.ys, offsets,
            config.metric, config.vmax_mps, config.time_unit_s,
            backend=resolved,
        )
    if buckets.size == 0:
        return _EMPTY_PROFILE
    return MutualSegmentProfile(buckets, incompatible)


class FlatPool:
    """A candidate pool flattened into the kernels' column layout.

    Building the flat ``(ts, xs, ys, offsets)`` arrays costs one pass
    over every candidate; a batch of queries against the same pool
    (:meth:`repro.core.engine.LinkEngine.link_batch`) builds this once
    and reuses it for every query instead of re-concatenating per call.
    """

    __slots__ = ("ts", "xs", "ys", "offsets", "_sort")

    def __init__(self, candidates: Sequence[Trajectory]) -> None:
        n = len(candidates)
        self.offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter((len(c) for c in candidates), np.int64, n),
            out=self.offsets[1:],
        )
        if n and self.offsets[-1]:
            self.ts = np.concatenate([c.ts for c in candidates])
            self.xs = np.concatenate([c.xs for c in candidates])
            self.ys = np.concatenate([c.ys for c in candidates])
        else:
            self.ts = self.xs = self.ys = np.empty(0, dtype=np.float64)
        self._sort = None

    def merge_cache(self) -> tuple[np.ndarray, ...]:
        """Query-independent precomputation for the ``numpy`` pool kernel.

        ``(ts[order], inv, valid_starts, valid_lasts)`` where ``order``
        is the pool's global time order, ``inv`` its inverse
        permutation, and the ``valid_*`` arrays the per-candidate
        boundary record indices (first/last record of each non-empty
        candidate).  Computed on first use and cached: it lets the pool
        kernel rank a query's timestamps against the whole pool with
        ``len(query)`` binary searches instead of ``len(pool records)``
        (see ``_pool_profiles_numpy``), and the cost is amortised over
        every query in the batch.
        """
        if self._sort is None:
            order = np.argsort(self.ts, kind="stable")
            inv = np.empty_like(order)
            inv[order] = np.arange(order.size)
            starts = self.offsets[:-1]
            last_of = self.offsets[1:] - 1
            n_flat = self.ts.size
            self._sort = (
                self.ts[order],
                inv,
                starts[starts < n_flat],
                last_of[last_of >= starts],
            )
        return self._sort

    def __len__(self) -> int:
        return int(self.offsets.shape[0] - 1)


def batch_mutual_segment_profiles(
    p: Trajectory,
    candidates: Sequence[Trajectory],
    config: FTLConfig,
    backend: str | None = None,
    flat: FlatPool | None = None,
) -> list[MutualSegmentProfile]:
    """Profiles of one query against a whole candidate pool.

    Equal to ``[mutual_segment_profile(p, c, config) for c in
    candidates]`` but the ``numpy`` backend extracts every
    pair's evidence in a single kernel invocation over the pool's flat
    coordinate arrays — the hot path behind
    :meth:`repro.core.engine.ProfileCache.get_many`.  Pass a prebuilt
    ``flat`` :class:`FlatPool` of exactly these candidates to skip the
    per-call flattening.
    """
    if not candidates:
        return []
    resolved = resolve_kernel_backend(
        backend if backend is not None else config.kernel_backend
    )
    if resolved == "python":
        return [
            mutual_segment_profile(p, c, config, backend="python")
            for c in candidates
        ]
    if flat is None or len(flat) != len(candidates):
        flat = FlatPool(candidates)
    buckets, incompatible, seg_offsets = pool_profile_arrays(
        p.ts, p.xs, p.ys, flat.ts, flat.xs, flat.ys, flat.offsets,
        config.metric, config.vmax_mps, config.time_unit_s,
        backend=resolved,
        c_sort=flat.merge_cache() if resolved == "numpy" else None,
    )
    return _materialise(buckets, incompatible, seg_offsets.tolist())


def _materialise(
    buckets: np.ndarray, incompatible: np.ndarray, bounds: list
) -> list[MutualSegmentProfile]:
    """Wrap a kernel's flat output into per-candidate profile objects.

    Slices view the kernel's freshly-allocated output, which the
    profiles jointly cover in full — no per-slice copies needed.  The
    fields go straight into each instance ``__dict__``, skipping the
    frozen dataclass's ``object.__setattr__`` round-trips; both the
    copies and the constructor are measurable at hundreds of profiles
    per query.
    """
    new = MutualSegmentProfile.__new__
    cls = MutualSegmentProfile
    out: list[MutualSegmentProfile] = []
    append = out.append
    prev = bounds[0]
    for end in bounds[1:]:
        if end == prev:
            append(_EMPTY_PROFILE)
        else:
            profile = new(cls)
            d = profile.__dict__
            d["buckets"] = buckets[prev:end]
            d["incompatible"] = incompatible[prev:end]
            append(profile)
        prev = end
    return out


def self_segment_profile(t: Trajectory, config: FTLConfig) -> MutualSegmentProfile:
    """Segment profile of a *single* trajectory (all segments are self).

    Used by Algorithm 1: each individual trajectory is treated as an
    already-aligned same-person pair, and each of its segments as a
    mutual segment, when estimating the rejection model.
    """
    if len(t) < 2:
        return _EMPTY_PROFILE
    dts = np.diff(t.ts)
    dists = config.metric_fn(t.xs[:-1], t.ys[:-1], t.xs[1:], t.ys[1:])
    buckets = config.buckets_of(dts)
    incompatible = dists > config.vmax_mps * dts
    return MutualSegmentProfile(buckets, incompatible)
