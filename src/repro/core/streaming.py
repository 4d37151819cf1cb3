"""Incremental FTL: update pair evidence as records arrive.

The paper's setting is naturally streaming — "as time goes by, the
trajectories maintained by service providers grow as services are
accessed".  Recomputing a pair's alignment from scratch on every new
record costs O(n); :class:`StreamingPairEvidence` instead maintains the
merged sequence and the per-bucket incompatibility tallies, updating
them in O(log n) per record: inserting a record into the alignment
splits exactly one segment into two, so only those three segments'
contributions change.

Naive-Bayes (paper Section IV-E) needs only the per-(bucket, outcome)
counts, so it is evaluated exactly from the maintained tallies.

:class:`StreamingLinker` manages one :class:`StreamingPairEvidence` per
(query, candidate) pair and takes its decisions with the engine's
Naive-Bayes rule; equivalence with the batch path is covered by tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import FTLConfig
from repro.core.engine import _clipped_log_tables, _log_posterior_ratio
from repro.core.models import CompatibilityModel, require_fitted_pair
from repro.core.records import Record
from repro.core.trajectory import Trajectory
from repro.errors import ValidationError
from repro.geo.distance import get_metric

#: Source labels, matching repro.core.alignment.
SOURCE_P = 0
SOURCE_Q = 1


class StreamingPairEvidence:
    """Evidence state of one (P, Q) pair under record insertions.

    Maintains the merged record sequence plus a ``(2, n_buckets)``
    tally: ``counts[outcome, bucket]`` where outcome 1 = incompatible.
    Only *mutual* in-horizon segments are tallied, mirroring the batch
    profile semantics.
    """

    def __init__(self, config: FTLConfig) -> None:
        self._config = config
        self._metric = get_metric(config.metric)
        self._ts: list[float] = []
        self._xs: list[float] = []
        self._ys: list[float] = []
        self._src: list[int] = []
        self._counts = np.zeros((2, config.n_buckets), dtype=np.int64)

    # ------------------------------------------------------------------
    # Segment accounting
    # ------------------------------------------------------------------
    def _segment_key(self, i: int, j: int) -> tuple[int, int] | None:
        """(outcome, bucket) of the segment between positions i and j.

        Returns ``None`` for self-segments and beyond-horizon segments
        (neither is tallied).
        """
        if self._src[i] == self._src[j]:
            return None
        dt = self._ts[j] - self._ts[i]
        # Route through the config's canonical bucketing so streaming
        # and batch (``FTLConfig.buckets_of``) agree on every dt,
        # including the half-bucket boundaries where a local
        # ``int(round(...))`` silently diverged from np.rint.
        bucket = self._config.bucket_of(dt)
        if bucket >= self._config.n_buckets:
            return None
        dist = float(
            self._metric(self._xs[i], self._ys[i], self._xs[j], self._ys[j])
        )
        incompatible = dist > self._config.vmax_mps * dt
        return (int(incompatible), bucket)

    def _tally(self, i: int, j: int, delta: int) -> None:
        key = self._segment_key(i, j)
        if key is not None:
            self._counts[key] += delta

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, record: Record, source: int) -> None:
        """Insert one record from ``source`` into the alignment.

        Ties keep existing records first, so a P record arriving before
        a Q record with the same timestamp reproduces the batch stable
        merge for streams delivered in P-then-Q order.
        """
        if source not in (SOURCE_P, SOURCE_Q):
            raise ValidationError(f"source must be 0 or 1, got {source}")
        pos = int(np.searchsorted(np.asarray(self._ts), record.t, side="right"))
        # The old segment (pos-1, pos) disappears...
        if 0 < pos < len(self._ts):
            self._tally(pos - 1, pos, -1)
        self._ts.insert(pos, record.t)
        self._xs.insert(pos, record.x)
        self._ys.insert(pos, record.y)
        self._src.insert(pos, source)
        # ... replaced by (pos-1, pos) and (pos, pos+1).
        if pos > 0:
            self._tally(pos - 1, pos, +1)
        if pos < len(self._ts) - 1:
            self._tally(pos, pos + 1, +1)

    def extend(self, trajectory: Trajectory, source: int) -> None:
        """Insert every record of a trajectory."""
        for record in trajectory:
            self.insert(record, source)

    def expire_before(self, cutoff_t: float) -> int:
        """Drop all records older than ``cutoff_t``; returns how many.

        Supports sliding-window deployments where evidence beyond a
        retention horizon must be forgotten (e.g. data-protection
        retention limits).  Removing the oldest record deletes exactly
        one segment — the one joining it to its successor — so the
        tallies stay exact.
        """
        removed = 0
        while self._ts and self._ts[0] < cutoff_t:
            if len(self._ts) > 1:
                self._tally(0, 1, -1)
            del self._ts[0], self._xs[0], self._ys[0], self._src[0]
            removed += 1
        return removed

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def n_records(self) -> int:
        return len(self._ts)

    @property
    def n_mutual(self) -> int:
        """In-horizon mutual segments currently tallied."""
        return int(self._counts.sum())

    @property
    def n_incompatible(self) -> int:
        return int(self._counts[1].sum())

    def bucket_counts(self) -> np.ndarray:
        """A copy of the ``(2, n_buckets)`` tally."""
        return self._counts.copy()

    # ------------------------------------------------------------------
    # Decisions (exact, from the tallies)
    # ------------------------------------------------------------------
    def log_likelihoods(self, log_tables) -> tuple[float, float]:
        """``(log L(Mr), log L(Ma))`` of the current evidence, from each
        model's clipped per-bucket ``(log p, log(1 - p))`` tables."""
        (log_r, log1m_r), (log_a, log1m_a) = log_tables
        compat, incompat = self._counts[0], self._counts[1]
        ll_r = float((incompat * log_r).sum() + (compat * log1m_r).sum())
        ll_a = float((incompat * log_a).sum() + (compat * log1m_a).sum())
        return ll_r, ll_a


@dataclass(frozen=True)
class StreamDecision:
    """Current decision state of one candidate in a streaming linker."""

    candidate_id: object
    same_person: bool
    log_posterior_ratio: float
    n_mutual: int
    n_incompatible: int


class StreamingLinker:
    """Naive-Bayes linking of one growing query against growing candidates.

    Records are pushed via :meth:`observe_query` /
    :meth:`observe_candidate`; :meth:`decisions` returns the current
    per-candidate NB decision, and :meth:`matches` the positives.  The
    decision at any instant equals what the batch
    :class:`~repro.core.engine.LinkEngine` would produce on the records
    seen so far (tested).
    """

    def __init__(
        self,
        rejection_model: CompatibilityModel,
        acceptance_model: CompatibilityModel,
        phi_r: float = 0.01,
    ) -> None:
        self._mr, self._ma = require_fitted_pair(rejection_model, acceptance_model)
        if not 0.0 < phi_r < 1.0:
            raise ValidationError(f"phi_r must be in (0, 1), got {phi_r}")
        self._phi_r = phi_r
        self._config = self._mr.config
        self._log_tables = (
            _clipped_log_tables(self._mr), _clipped_log_tables(self._ma)
        )
        self._pairs: dict[object, StreamingPairEvidence] = {}
        self._query_history: list[Record] = []

    @property
    def n_candidates(self) -> int:
        """Number of candidates currently tracked."""
        return len(self._pairs)

    @property
    def n_query_records(self) -> int:
        """Number of query records currently retained."""
        return len(self._query_history)

    def candidate_ids(self) -> list[object]:
        """Tracked candidate ids, in registration order."""
        return list(self._pairs)

    def has_candidate(self, candidate_id: object) -> bool:
        return candidate_id in self._pairs

    def add_candidate(self, candidate_id: object) -> None:
        """Register a candidate; replays the query records seen so far."""
        if candidate_id in self._pairs:
            raise ValidationError(f"candidate {candidate_id!r} already tracked")
        evidence = StreamingPairEvidence(self._config)
        for record in self._query_history:
            evidence.insert(record, SOURCE_P)
        self._pairs[candidate_id] = evidence

    def discard_candidate(self, candidate_id: object) -> None:
        """Stop tracking a candidate and drop its pair evidence."""
        if self._pairs.pop(candidate_id, None) is None:
            raise ValidationError(f"unknown candidate {candidate_id!r}")

    def expire_before(self, cutoff_t: float) -> int:
        """Forget all evidence older than ``cutoff_t``; returns records dropped.

        The session-reuse hook for long-lived service deployments: the
        same linker keeps serving a session while records beyond a
        retention horizon are discarded, both from every pair's
        :meth:`StreamingPairEvidence.expire_before` and from the query
        history replayed into newly registered candidates.  After the
        call, decisions equal what a fresh linker fed only the
        surviving records would produce.
        """
        removed = 0
        for evidence in self._pairs.values():
            removed += evidence.expire_before(cutoff_t)
        kept = [r for r in self._query_history if r.t >= cutoff_t]
        removed += len(self._query_history) - len(kept)
        self._query_history = kept
        return removed

    def observe_query(self, record: Record) -> None:
        """A new record of the query trajectory arrived."""
        self._query_history.append(record)
        for evidence in self._pairs.values():
            evidence.insert(record, SOURCE_P)

    def observe_candidate(self, candidate_id: object, record: Record) -> None:
        """A new record of one candidate trajectory arrived."""
        try:
            self._pairs[candidate_id].insert(record, SOURCE_Q)
        except KeyError:
            raise ValidationError(
                f"unknown candidate {candidate_id!r}; call add_candidate first"
            ) from None

    def decision(self, candidate_id: object) -> StreamDecision:
        """The current NB decision for one candidate."""
        try:
            evidence = self._pairs[candidate_id]
        except KeyError:
            raise ValidationError(f"unknown candidate {candidate_id!r}") from None
        ll_r, ll_a = evidence.log_likelihoods(self._log_tables)
        ratio = _log_posterior_ratio(ll_r, ll_a, self._phi_r)
        return StreamDecision(
            candidate_id=candidate_id,
            same_person=ratio >= 0.0,
            log_posterior_ratio=ratio,
            n_mutual=evidence.n_mutual,
            n_incompatible=evidence.n_incompatible,
        )

    def decisions(self) -> list[StreamDecision]:
        """Current decisions for all candidates (registration order)."""
        return [self.decision(cid) for cid in self._pairs]

    def matches(self) -> list[StreamDecision]:
        """Candidates currently classified as the same person."""
        return [d for d in self.decisions() if d.same_person]
