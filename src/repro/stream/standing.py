"""Standing queries: warm top-k rankings updated incrementally.

A *standing query* is a registered trajectory whose ranked candidate
list the daemon keeps warm: instead of recomputing every pair on each
``/v1/link``, the registry scores the full pool **once** at
registration and thereafter re-scores only pairs whose evidence
changed — the flushed delta block's dilated temporal probe
(:meth:`~repro.store.stindex.SpatioTemporalIndex.affected_ids`) names
the changed candidates on ingest, and the eviction pipeline names
candidates that lost records.

**Bit-identity invariant** (property-tested in ``tests/test_stream.py``):
after every update, the registry's ranking equals a from-scratch
``LinkEngine`` run over the current pool.  This holds because each
candidate's statistics depend only on (query records, candidate
records, options), the engine's rank stage is a stable sort by
``-score`` over pool order — i.e. the key ``(-score, pool_index)`` —
and the registry re-sorts its full scored set by exactly that key,
truncating to ``top_k`` only at the output edge.

Updates are fan-out events carrying monotonically increasing sequence
numbers per query; ``/v1/watch`` long-polls :meth:`wait_events` with a
``since`` cursor to resume.  A cursor older than the bounded event
buffer gets a fresh snapshot (``resync``) instead of a gap.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.core.engine import Candidate, LinkEngine, LinkOptions, LinkRequest
from repro.core.trajectory import Trajectory
from repro.errors import ValidationError
from repro.stream.pool import ResidentPool

#: Events retained per standing query for `/v1/watch` resume.
DEFAULT_EVENT_BUFFER = 64


def _candidate_wire(c: Candidate) -> dict:
    return c.to_dict()


def score_units(
    engine: LinkEngine, by_id: dict, units
) -> list[list[Candidate]]:
    """Score ``(query, candidate ids, options)`` units in one engine call:
    per unit, the matched :class:`Candidate` objects of those ids."""
    results = engine.link_requests([
        LinkRequest(
            query,
            candidates=tuple(by_id[cid] for cid in ids),
            options=options,
        )
        for query, ids, options in units
    ])
    return [list(result.candidates) for result in results]


@dataclass
class StandingQuery:
    """One registered query and its warm full scored set."""

    query_id: str
    trajectory: Trajectory
    options: LinkOptions
    full_options: LinkOptions
    created_at: float
    seq: int = 0
    #: Full matched set (no top-k truncation), keyed by candidate id.
    scored: dict = field(default_factory=dict)
    events: deque = field(default_factory=lambda: deque(maxlen=DEFAULT_EVENT_BUFFER))
    n_updates: int = 0
    n_rescored_pairs: int = 0


class StandingQueryRegistry:
    """Thread-safe registry of standing queries for a serving daemon.

    ``pool`` is the daemon's live :class:`~repro.stream.pool.ResidentPool`
    (a plain list is wrapped in one); whoever applies a flush or
    eviction delta to it calls :meth:`apply_update` afterwards.
    Rankings break score ties by the pool's first-seen ranks, which
    order the pool list.  ``scorer`` overrides :func:`score_units` on
    the local engine — the sharded supervisor routes the pairs to the
    workers owning each candidate — and gets every query's changed
    pairs of one update in one call.
    """

    def __init__(
        self,
        engine: LinkEngine,
        pool: list,
        options: LinkOptions,
        horizon_s: float,
        metrics=None,
        clock=time.monotonic,
        scorer=None,
        event_buffer: int = DEFAULT_EVENT_BUFFER,
    ) -> None:
        self._engine = engine
        self._pool = (
            pool if isinstance(pool, ResidentPool) else ResidentPool(pool)
        )
        self._options = options
        self._horizon_s = float(horizon_s)
        self._metrics = metrics
        self._clock = clock
        self._scorer = scorer or (
            lambda units: score_units(self._engine, self._pool.by_id, units)
        )
        self._event_buffer = int(event_buffer)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._closed = False
        self._queries: dict[str, StandingQuery] = {}

    def swap_engine(self, engine: LinkEngine) -> None:
        """Rebind the scoring engine (model hot-swap; no scoring in flight)."""
        with self._lock:
            self._engine = engine

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._queries)

    def counts(self) -> dict:
        """Aggregate counters for /metrics gauges."""
        with self._lock:
            return {
                "standing_queries": len(self._queries),
                "n_updates": sum(q.n_updates for q in self._queries.values()),
            }

    def summaries(self) -> list[dict]:
        with self._lock:
            return [
                {
                    "query_id": q.query_id,
                    "seq": q.seq,
                    "n_tracked": len(q.scored),
                    "top_k": q.options.top_k,
                    "n_updates": q.n_updates,
                    "n_rescored_pairs": q.n_rescored_pairs,
                    "created_at": q.created_at,
                }
                for q in self._queries.values()
            ]

    # ------------------------------------------------------------------
    # Ranking
    # ------------------------------------------------------------------
    def _ranking(self, q: StandingQuery) -> list[Candidate]:
        """The engine-identical ranking from the full scored set.

        Candidates that fell out of the pool entirely (full eviction)
        are dropped lazily here; the sort key mirrors the engine's
        stable ``-score`` sort over pool order (first-seen rank).
        """
        by_id, rank = self._pool.by_id, self._pool.rank
        live = [c for c in q.scored.values() if str(c.candidate_id) in by_id]
        live.sort(key=lambda c: (-c.score, rank[str(c.candidate_id)]))
        if q.options.top_k is not None:
            live = live[: q.options.top_k]
        return live

    def _snapshot_locked(self, q: StandingQuery) -> dict:
        return {
            "query_id": q.query_id,
            "seq": q.seq,
            "n_tracked": len(q.scored),
            "ranking": [_candidate_wire(c) for c in self._ranking(q)],
        }

    def snapshot(self, query_id: str) -> dict:
        with self._lock:
            q = self._require(query_id)
            return self._snapshot_locked(q)

    def _require(self, query_id: str) -> StandingQuery:
        q = self._queries.get(str(query_id))
        if q is None:
            raise ValidationError(f"unknown standing query {query_id!r}")
        return q

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        trajectory: Trajectory,
        query_id: str | None = None,
        options: LinkOptions | None = None,
    ) -> dict:
        """Register (or replace) a standing query; scores the full pool.

        Returns the initial snapshot (seq 1, kind ``"snapshot"``).

        The full-pool scoring pass runs *outside* the registry lock —
        a large pool would otherwise block every concurrent
        ``/v1/watch`` poll for its duration.  Callers must hold the
        engine lock (:meth:`StreamRuntime.register_query` does), which
        already serialises the scoring against pool-mutating flush and
        eviction updates; only the install + snapshot event take the
        registry lock.
        """
        if len(trajectory) == 0:
            raise ValidationError("standing query trajectory is empty")
        qid = str(query_id if query_id is not None else trajectory.traj_id)
        opts = options if options is not None else self._options
        full_opts = opts.with_updates(top_k=None)
        result = self._engine.link_requests(
            [LinkRequest(trajectory, options=full_opts)],
            default_pool=self._pool.trajectories,
        )[0]
        with self._lock:
            q = StandingQuery(
                query_id=qid,
                trajectory=trajectory,
                options=opts,
                full_options=full_opts,
                created_at=time.time(),
                events=deque(maxlen=self._event_buffer),
            )
            q.scored = {str(c.candidate_id): c for c in result.candidates}
            q.seq = 1
            self._queries[qid] = q
            if self._metrics is not None:
                self._metrics.inc(
                    "standing_full_pairs_total", len(self._pool.trajectories)
                )
            event = {
                "seq": q.seq,
                "kind": "snapshot",
                "changed": [],
                "evicted": [],
                "ranking": [_candidate_wire(c) for c in self._ranking(q)],
            }
            q.events.append(event)
            self._cond.notify_all()
            return self._snapshot_locked(q)

    def close(self) -> None:
        """Wake every parked watcher; later waits return immediately.

        Called on daemon drain so long-poll threads release promptly
        instead of running out their full ``wait_ms``.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def unregister(self, query_id: str) -> bool:
        with self._lock:
            gone = self._queries.pop(str(query_id), None)
            if gone is not None:
                self._cond.notify_all()
            return gone is not None

    # ------------------------------------------------------------------
    # Incremental updates
    # ------------------------------------------------------------------
    def apply_update(
        self,
        block=None,
        evicted_ids=(),
        started_s: float | None = None,
    ) -> int:
        """Re-score only the pairs whose evidence changed.

        ``block`` is the just-flushed delta block (its dilated temporal
        probe names the candidates whose new records can alter each
        query's evidence — spatial screening is deliberately absent,
        see ``SpatioTemporalIndex.affected_ids``); ``evicted_ids`` are
        pool ids that lost records to the sliding window.  Must be
        called *after* the same delta was applied to the pool.
        Returns the total pairs re-scored across all standing queries.
        """
        total = 0
        with self._lock:
            by_id = self._pool.by_id
            work = []
            for q in self._queries.values():
                changed: dict[str, None] = {}
                if block is not None:
                    for cid in block.affected_ids(
                        q.trajectory, self._horizon_s
                    ):
                        changed.setdefault(str(cid), None)
                for cid in evicted_ids:
                    changed.setdefault(str(cid), None)
                if changed:
                    rescore = [cid for cid in changed if cid in by_id]
                    work.append((q, changed, rescore))
            # Every query's changed pairs in one scorer call.
            units = [
                (q.trajectory, rescore, q.full_options)
                for q, _, rescore in work
                if rescore
            ]
            scored = iter(self._scorer(units))
            for q, changed, rescore in work:
                fresh = next(scored) if rescore else []
                for cid in changed:
                    q.scored.pop(cid, None)
                for c in fresh:
                    q.scored[str(c.candidate_id)] = c
                q.seq += 1
                q.n_updates += 1
                q.n_rescored_pairs += len(rescore)
                total += len(rescore)
                event = {
                    "seq": q.seq,
                    "kind": "update",
                    "changed": sorted(rescore),
                    "evicted": sorted(cid for cid in changed if cid not in by_id),
                    "ranking": [
                        _candidate_wire(c) for c in self._ranking(q)
                    ],
                }
                if started_s is not None:
                    staleness = max(0.0, self._clock() - started_s)
                    event["staleness_s"] = staleness
                    if self._metrics is not None:
                        self._metrics.observe(
                            "standing_staleness", staleness
                        )
                q.events.append(event)
            if self._metrics is not None and total:
                self._metrics.inc("standing_rescored_pairs_total", total)
            self._cond.notify_all()
        return total

    # ------------------------------------------------------------------
    # Watch (long-poll)
    # ------------------------------------------------------------------
    def wait_events(
        self,
        query_id: str,
        since: int = 0,
        timeout_s: float = 0.0,
    ) -> dict:
        """Events with ``seq > since``, long-polling up to ``timeout_s``.

        Returns ``{"query_id", "seq", "events", "resync"}``.  When the
        cursor predates the bounded event buffer, ``resync`` is true
        and ``events`` holds one fresh snapshot instead of a gap — the
        client re-bases and continues from the returned ``seq``.
        """
        since = int(since)
        deadline = self._clock() + max(0.0, float(timeout_s))
        with self._cond:
            q = self._require(query_id)
            while q.seq <= since and not self._closed:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
                q = self._queries.get(str(query_id))
                if q is None:
                    raise ValidationError(
                        f"standing query {query_id!r} was unregistered"
                    )
            pending = [e for e in q.events if e["seq"] > since]
            covered = (
                not pending or pending[0]["seq"] == since + 1
                or since >= q.seq
            )
            if q.seq > since and not covered:
                snap = self._snapshot_locked(q)
                return {
                    "query_id": q.query_id,
                    "seq": q.seq,
                    "resync": True,
                    "events": [{
                        "seq": q.seq,
                        "kind": "snapshot",
                        "changed": [],
                        "evicted": [],
                        "ranking": snap["ranking"],
                    }],
                }
            return {
                "query_id": q.query_id,
                "seq": q.seq,
                "resync": False,
                "events": pending,
            }
