"""Shared daemon state: engine, pool, ingest sessions, metrics.

Everything the request handlers touch lives here, behind plain method
calls with an injectable clock, so the state machine (session creation,
flushes, idle-TTL garbage collection, counter accounting) is
unit-testable without an event loop.  The coordinator's state holds
the daemon's one ingest-session registry at every worker count; shard
workers' states hold none.
"""

from __future__ import annotations

import bisect
import threading
import time
from dataclasses import dataclass, field

from repro.core.engine import LinkEngine, LinkOptions
from repro.core.records import Record
from repro.core.streaming import StreamingLinker
from repro.core.trajectory import Trajectory
from repro.errors import ValidationError
from repro.obs import BucketEvidence, STAGES, render_exposition
from repro.obs.spans import STAGE_METRIC_PREFIX
from repro.stream.pool import ResidentPool

#: Idle seconds after which an ingest session is garbage-collected.
DEFAULT_SESSION_TTL_S = 900.0

#: Histogram bucket upper bounds in seconds (log-spaced, sub-ms to 10 s).
_LATENCY_BOUNDS_S = tuple(
    round(0.0001 * (10 ** (i / 4)), 7) for i in range(21)
)  # 0.1 ms ... 10 s


class Histogram:
    """A fixed-bucket latency histogram with percentile estimates.

    Cumulative-bucket percentile estimation (the Prometheus approach):
    cheap to update, bounded memory, and accurate to within one bucket
    width — plenty for p50/p99 served from ``/metrics``.
    """

    def __init__(self, bounds_s: tuple[float, ...] = _LATENCY_BOUNDS_S) -> None:
        self._bounds = bounds_s
        self._counts = [0] * (len(bounds_s) + 1)
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def observe(self, seconds: float) -> None:
        idx = bisect.bisect_left(self._bounds, seconds)
        self._counts[idx] += 1
        self._count += 1
        self._sum += seconds
        if seconds > self._max:
            self._max = seconds

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile (seconds)."""
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile must be in [0, 1], got {q}")
        rank = q * self._count
        if rank <= 0:
            # q == 0 (or an empty histogram): the infimum of observed
            # values, by convention 0, never the first bucket's bound —
            # rank 0 would otherwise satisfy ``seen >= rank`` before any
            # count has been seen.
            return 0.0
        seen = 0
        for i, n in enumerate(self._counts):
            seen += n
            if seen >= rank:
                return self._bounds[i] if i < len(self._bounds) else self._max
        return self._max

    def snapshot(self) -> dict:
        """Raw bucket state for Prometheus rendering (non-cumulative)."""
        return {
            "bounds": self._bounds,
            "counts": list(self._counts),
            "sum": self._sum,
            "count": self._count,
            "max": self._max,
        }

    def to_dict(self) -> dict:
        return {
            "count": self._count,
            "mean_ms": round(self.mean * 1e3, 4),
            "p50_ms": round(self.quantile(0.50) * 1e3, 4),
            "p90_ms": round(self.quantile(0.90) * 1e3, 4),
            "p99_ms": round(self.quantile(0.99) * 1e3, 4),
            "max_ms": round(self._max * 1e3, 4),
        }


class Metrics:
    """Thread-safe named counters and latency histograms.

    Handlers run on the event loop but batches execute on worker
    threads, so every mutation takes one process-wide lock; the ops are
    increments, so contention is negligible.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._histograms: dict[str, Histogram] = {}

    def inc(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + by

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(seconds)

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def histogram(self, name: str) -> Histogram:
        """The named histogram, registered empty on first use.

        Pre-registering (e.g. the per-stage timers) guarantees the
        family appears in ``/metrics`` output even before any sample.
        """
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            return hist

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "latency": {
                    name: hist.to_dict()
                    for name, hist in sorted(self._histograms.items())
                },
            }

    def snapshots(self) -> tuple[dict, dict]:
        """``(counters, histogram snapshots)`` — the raw registry state.

        Histogram snapshots are *non-cumulative* per-bucket counts (see
        :meth:`Histogram.snapshot`), the shape
        :func:`repro.obs.merge_histogram_snapshots` aggregates across
        shard workers before exposition.
        """
        with self._lock:
            return dict(self._counters), {
                name: hist.snapshot() for name, hist in self._histograms.items()
            }

    def to_prometheus(self, gauges: dict | None = None) -> str:
        """The registry in Prometheus text exposition format."""
        counters, histograms = self.snapshots()
        return render_exposition(counters, histograms, gauges or {})


@dataclass
class IngestSession:
    """One streaming-ingest session: a linker plus bookkeeping.

    When the daemon runs over a persistent store, ``pending`` buffers
    the session's raw candidate records until they are flushed into the
    store's append log (explicitly via the wire ``flush`` flag, or
    automatically when the idle session expires).
    """

    session_id: str
    linker: StreamingLinker
    created_at: float
    last_used_at: float
    n_records: int = 0
    pending: dict[str, list[tuple[float, float, float]]] = field(
        default_factory=dict
    )

    def touch(self, now: float) -> None:
        self.last_used_at = now


@dataclass
class ServiceState:
    """Everything the daemon's handlers share.

    Parameters
    ----------
    engine:
        The fitted :class:`~repro.core.engine.LinkEngine` serving
        ``/link``.
    pool:
        Resident candidate pool used by ``/link`` requests that do not
        carry their own candidates.
    resident:
        The :class:`~repro.stream.pool.ResidentPool` over ``pool`` (its
        id views and first-seen ranks); built when not given.
    options:
        Server-default :class:`LinkOptions`; per-request ``options``
        objects are applied on top.
    session_ttl_s:
        Idle seconds before an ingest session is garbage-collected.
    clock:
        Monotonic-seconds source; injectable so TTL tests control time.
    store:
        Optional :class:`~repro.store.TrajectoryStore` the daemon
        serves from.  When set, ingest sessions buffer their candidate
        records until :meth:`flush_session` appends them to the store's
        append log (idle-expired sessions are flushed first, so
        ingested evidence survives the daemon).  Shard worker states
        have no store.
    provenance:
        Where the resident pool came from (store dir + manifest
        generation, parsed files, ...); reported by :meth:`health` and
        the startup log so operators can tell which snapshot a daemon
        is serving.
    """

    engine: LinkEngine
    pool: list[Trajectory]
    options: LinkOptions
    session_ttl_s: float = DEFAULT_SESSION_TTL_S
    clock: object = time.monotonic
    metrics: Metrics = field(default_factory=Metrics)
    store: object | None = None
    provenance: dict | None = None
    #: Optional :class:`repro.stream.StreamRuntime`; when set, every
    #: store flush runs the incremental pipeline (delta block, in-place
    #: pool update, standing-query re-scoring).
    stream: object | None = None
    #: Artifact id of the model pair the engine was built from (``None``
    #: for an ad-hoc in-process fit); reported by health/admin handlers.
    model_artifact_id: str | None = None
    resident: ResidentPool | None = None
    #: Serialises every use of ``engine`` (its profile cache is a plain
    #: dict) across the batch thread, ingest/flush handlers and the
    #: stream runtime.  Re-entrant: a flush holds it while re-scoring
    #: standing queries through the in-process shard, which takes it
    #: again on the same thread.
    engine_lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )
    #: Serialises the session registry across the executor threads
    #: serving ``/v1/ingest`` and the sweeper.  Taken before
    #: ``engine_lock``: a flush or eviction runs the stream runtime,
    #: which takes the engine lock and then its own.
    sessions_lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )
    started_at: float = field(init=False)
    evidence: BucketEvidence = field(init=False)
    sessions: dict[str, IngestSession] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.session_ttl_s <= 0:
            raise ValidationError(
                f"session_ttl_s must be positive, got {self.session_ttl_s}"
            )
        if self.resident is None:
            self.resident = ResidentPool(
                self.pool, self.store.ids() if self.store is not None else ()
            )
        self.started_at = self.clock()
        #: Live per-bucket drift evidence; batch worker threads bind it
        #: as their evidence sink, ``/metrics`` renders it as the
        #: ``ftl_model_drift`` gauges.
        self.evidence = BucketEvidence(self.engine.config.n_buckets)
        # Pre-register the per-stage timer histograms so ``/metrics``
        # always exposes the full pipeline breakdown, sampled or not.
        for stage in STAGES:
            self.metrics.histogram(STAGE_METRIC_PREFIX + stage)

    def adopt_engine(self, engine: LinkEngine, artifact_id: str | None) -> None:
        """Swap the serving engine in place (model hot-swap).

        Rebinds the engine, records which artifact it came from, and
        resets the drift evidence — tallies gathered under the old
        model pair say nothing about the new one.  Callers are
        responsible for quiescing in-flight batches first (the server
        drains its batcher before calling this).
        """
        self.engine = engine
        self.model_artifact_id = artifact_id
        self.evidence.reset(engine.config.n_buckets)
        self.metrics.inc("model_swaps_total")

    # ------------------------------------------------------------------
    # Ingest sessions
    # ------------------------------------------------------------------
    def session(self, session_id: str) -> IngestSession:
        """The named session, created on first use (and TTL-refreshed)."""
        with self.sessions_lock:
            now = self.clock()
            entry = self.sessions.get(session_id)
            if entry is None:
                linker = StreamingLinker(
                    self.engine.rejection_model,
                    self.engine.acceptance_model,
                    phi_r=self.options.phi_r,
                )
                entry = IngestSession(
                    session_id=session_id,
                    linker=linker,
                    created_at=now,
                    last_used_at=now,
                )
                self.sessions[session_id] = entry
                self.metrics.inc("sessions_created_total")
            entry.touch(now)
            return entry

    def expire_idle_sessions(self, now: float | None = None) -> list[str]:
        """Drop sessions idle for longer than the TTL; returns their ids.

        The one expiry routine, called lazily from the ingest path and
        periodically by the server's sweeper.  With a store attached an
        expiring session is flushed first, so its buffered records are
        persisted, never dropped.  Dropping the session releases every
        :class:`~repro.core.streaming.StreamingPairEvidence` it held, so
        a later request under the same id starts from zero evidence —
        its decisions then equal a fresh batch-path run over only the
        newly ingested records (covered by tests).
        """
        with self.sessions_lock:
            if now is None:
                now = self.clock()
            expired = [
                sid
                for sid, entry in self.sessions.items()
                if now - entry.last_used_at > self.session_ttl_s
            ]
            for sid in expired:
                if self.store is not None:
                    self.flush_session(sid)
                del self.sessions[sid]
            if expired:
                self.metrics.inc("sessions_expired_total", len(expired))
            return expired

    def ingest(self, session_id: str, query_records, candidate_records,
               expire_before: float | None = None) -> IngestSession:
        """Route new records into a session's streaming linker."""
        with self.sessions_lock:
            self.expire_idle_sessions()
            entry = self.session(session_id)
            linker = entry.linker
            for t, x, y in query_records:
                linker.observe_query(Record(t, x, y))
                entry.n_records += 1
            for cid, records in candidate_records.items():
                if not linker.has_candidate(cid):
                    linker.add_candidate(cid)
                buffer = (
                    entry.pending.setdefault(str(cid), [])
                    if self.store is not None
                    else None
                )
                for t, x, y in records:
                    linker.observe_candidate(cid, Record(t, x, y))
                    entry.n_records += 1
                    if buffer is not None:
                        buffer.append((float(t), float(x), float(y)))
            total = len(query_records) + sum(
                len(r) for r in candidate_records.values()
            )
            if total:
                self.metrics.inc("ingested_records_total", total)
            if expire_before is not None:
                linker.expire_before(expire_before)
            return entry

    def flush_session(self, session_id: str) -> int:
        """Append a session's buffered candidate records to the store.

        Runs the stream runtime's flush pipeline when one is attached.
        Returns the records appended; the buffer is cleared only once
        the append committed.
        """
        with self.sessions_lock:
            if self.store is None:
                raise ValidationError(
                    "no trajectory store attached to this daemon"
                )
            entry = self.sessions.get(session_id)
            if entry is None:
                raise ValidationError(f"unknown ingest session {session_id!r}")
            if not entry.pending:
                return 0
            deltas = []
            for cid, records in entry.pending.items():
                ts, xs, ys = zip(*records)
                deltas.append(Trajectory(ts, xs, ys, cid, sort=True))
            if self.stream is not None:
                flushed = self.stream.append_flush(deltas)
            else:
                flushed = self.store.append(deltas)
            entry.pending = {}
            self.metrics.inc("store_flushes_total")
            self.metrics.inc("store_flushed_records_total", flushed)
            return flushed

    def serve_ingest(self, wire) -> dict:
        """Serve one parsed ``/v1/ingest`` body
        (:class:`~repro.service.protocol.IngestWireRequest`).

        Ingests the records, slides the store window to
        ``expire_before``, then flushes and decides as asked, all under
        the sessions lock.
        """
        with self.sessions_lock:
            entry = self.ingest(
                wire.session,
                wire.query_records,
                wire.candidate_records,
                expire_before=wire.expire_before,
            )
            if wire.expire_before is not None and self.stream is not None:
                # The session already dropped its older records; slide
                # the store window and re-score standing queries to match.
                self.stream.evict_before(float(wire.expire_before))
            response = {
                "session": wire.session,
                "n_candidates": entry.linker.n_candidates,
                "n_query_records": entry.linker.n_query_records,
                "n_records_ingested": entry.n_records,
            }
            if wire.flush:
                response["flushed_records"] = self.flush_session(wire.session)
            if wire.decide:
                response["decisions"] = [
                    {
                        "candidate_id": d.candidate_id,
                        "same_person": d.same_person,
                        "log_posterior_ratio": d.log_posterior_ratio,
                        "n_mutual": d.n_mutual,
                        "n_incompatible": d.n_incompatible,
                    }
                    for d in entry.linker.decisions()
                ]
            return response

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return {
            "status": "ok",
            "uptime_s": round(self.clock() - self.started_at, 3),
            "pool_size": len(self.pool),
            "sessions": len(self.sessions),
            "method": self.options.method,
            "model_artifact": self.model_artifact_id,
            "kernel_backend": self.engine.kernel_backend,
            "stage_backends": self.engine.stage_backends(),
            "data_source": (
                self.provenance
                if self.provenance is not None
                else {"source": "in-memory"}
            ),
        }
