"""Shared daemon state: engine, pool, ingest sessions, metrics.

Everything the request handlers touch lives here, behind plain method
calls with an injectable clock, so the state machine (session creation,
idle-TTL garbage collection, counter accounting) is unit-testable
without an event loop.
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
        records until the coordinator flushes them into the store's
        append log (:meth:`ShardSupervisor.flush_session
        <repro.service.supervisor.ShardSupervisor.flush_session>`;
        idle-expired sessions are flushed automatically, so ingested
        evidence survives the daemon).  Shard states carry the
        coordinator's store for exactly this: they never touch it, but
        buffer only when there is somewhere to flush to.
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
    #: store flush runs the incremental pipeline (delta block, pool
    #: refresh, targeted cache invalidation, standing-query re-scoring).
    stream: object | None = None
    #: Artifact id of the model pair the engine was built from (``None``
    #: for an ad-hoc in-process fit); reported by health/admin handlers.
    model_artifact_id: str | None = None
    #: Serialises every use of ``engine`` (its profile cache is a plain
    #: dict) across the batch thread, ingest/flush handlers and the
    #: stream runtime.  Re-entrant: a flush holds it while re-scoring
    #: standing queries through the in-process shard, which takes it
    #: again on the same thread.
    engine_lock: threading.RLock = field(
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

    def refresh_pool(self) -> int:
        """Reload the resident pool from the attached store, in place.

        In-place mutation (not rebinding) so the engine/server views
        holding a reference to the same list observe the refresh.
        Returns the new pool size.  Raises
        :class:`~repro.errors.ValidationError` without a store.
        """
        if self.store is None:
            raise ValidationError("no trajectory store attached to this daemon")
        self.pool[:] = list(self.store.load())
        self.metrics.inc("pool_refreshes_total")
        return len(self.pool)

    # ------------------------------------------------------------------
    # Ingest sessions
    # ------------------------------------------------------------------
    def session(self, session_id: str) -> IngestSession:
        """The named session, created on first use (and TTL-refreshed)."""
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

        Called lazily from the ingest path and periodically by the
        server's sweeper task.  Dropping the session releases every
        :class:`~repro.core.streaming.StreamingPairEvidence` it held, so
        a later request under the same id starts from zero evidence —
        its decisions then equal a fresh batch-path run over only the
        newly ingested records (covered by tests).
        """
        if now is None:
            now = self.clock()
        expired = [
            sid
            for sid, entry in self.sessions.items()
            if now - entry.last_used_at > self.session_ttl_s
        ]
        for sid in expired:
            del self.sessions[sid]
        if expired:
            self.metrics.inc("sessions_expired_total", len(expired))
        return expired

    def take_pending(
        self, session_id: str
    ) -> dict[str, list[tuple[float, float, float]]]:
        """Hand over (and clear) a session's buffered candidate records.

        The shard half of a coordinator-driven flush: the shard
        buffered the records and the coordinator — the only process
        that writes the store — appends them.  Unknown
        sessions yield ``{}`` (the worker may have been respawned since
        the records were ingested).
        """
        entry = self.sessions.get(session_id)
        if entry is None or not entry.pending:
            return {}
        pending, entry.pending = entry.pending, {}
        return pending

    def ingest(self, session_id: str, query_records, candidate_records,
               expire_before: float | None = None) -> IngestSession:
        """Route new records into a session's streaming linker."""
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
