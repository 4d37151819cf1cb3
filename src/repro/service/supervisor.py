"""Shard supervisor: the daemon's one serving path.

:class:`ShardSupervisor` serves every link, assign, ingest, flush and
expiry over its shards.  With one shard it holds a
:class:`~repro.service.shard.LocalShard` that answers in-process, on
the caller's thread.  With more it ``fork``s one worker per shard
*after* the engine, pool and store are built, so workers inherit
everything copy-on-write — for an mmap-backed store the pool's record
arrays are shared pages, not copies.  Each worker runs
:func:`repro.service.shard.run_worker` over a ``socketpair``; the
supervisor keeps the parent ends and scatters work across them with
one thread per shard.  That fork-or-in-process choice is the only
place the shard count matters.

Division of labour:

* **Workers** hold disjoint pool slices (consistent-hashed by home
  cell) and answer ``link`` with per-shard partial rankings; for
  ingest they run real :class:`~repro.core.streaming.StreamingLinker`
  sessions over the query stream (broadcast) and their owned
  candidates (routed), buffering raw candidate records when the
  daemon has a store to flush them into.
* **The coordinator** merges partial rankings
  (:func:`~repro.service.shard.merge_partials` — bit-identical to the
  single-process order), keeps the session registry that reassembles
  ingest responses, and is the *only* process that
  touches the store: flushes pull buffered records out of workers via
  ``take_pending`` and append them here.

Failure semantics: any transport error marks the worker dead, the
supervisor respawns it and retries the operation once
(``worker_restarts_total`` counts respawns).  A respawned worker
restarts from the original pool snapshot, so streaming-session
evidence its shard held is lost — equivalent to an idle-TTL expiry of
that shard's slice of the session, and exactly the trade documented in
``docs/service.md``.
"""

from __future__ import annotations

import contextlib
import logging
import os
import signal
import socket
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.engine import LinkRequest, LinkResult
from repro.errors import FTLError, ValidationError, WorkerCrashedError
from repro.service.protocol import IngestWireRequest, ShardInfo
from repro.service.shard import (
    HashRing,
    LocalShard,
    ShardHandle,
    ShardPlan,
    merge_partials,
    plan_shards,
    run_worker,
)
from repro.service.state import ServiceState
from repro.core.trajectory import Trajectory

_LOG = logging.getLogger("ftl.supervisor")

#: Cap on query records retained per session for worker rehydration.
#: Beyond it the oldest records are dropped (counted by
#: ``session_ledger_truncated_records_total``): a respawn then replays
#: a truncated query stream — the same best-effort trade as losing a
#: worker's unflushed buffer.
MAX_QUERY_HISTORY_RECORDS = 50_000


@dataclass
class _SessionEntry:
    """Coordinator-side view of one sharded ingest session.

    ``owners`` maps candidate id -> owning shard in *first-seen order*,
    which is exactly the registration order a single-process
    :class:`StreamingLinker` would report decisions in.  ``n_records``
    is the monotone ingested-record counter the ingest response
    exposes (query + candidate records ever routed).

    ``query_history``, ``expire_before`` and ``flushed_segments`` are
    the rehydration ledger: enough coordinator-side state to replay a
    respawned worker's slice of the session (the broadcast query
    stream, the latest eviction cutoff, and the store segments holding
    the session's flushed candidate records).  The ledger is bounded:
    query records behind the eviction cutoff are compacted away, the
    total is capped at :data:`MAX_QUERY_HISTORY_RECORDS`, and segments
    compacted out of the store are pruned on flush — a long-lived
    session cannot grow coordinator memory without bound.
    """

    session_id: str
    created_at: float
    last_used_at: float
    n_records: int = 0
    owners: dict[str, int] = field(default_factory=dict)
    query_history: list[list[list[float]]] = field(default_factory=list)
    expire_before: float | None = None
    flushed_segments: list[str] = field(default_factory=list)


class ShardSupervisor:
    """Shard handles + the scatter-gather coordinator logic.

    Parameters
    ----------
    state:
        The daemon's coordinator :class:`ServiceState` — source of the
        engine, pool, server-default options, store, metrics, TTL and
        clock.  Workers get their own states built from its parts.
    n_shards:
        Shard count (>= 1): ``1`` serves in-process, ``N > 1`` forks
        ``N`` worker processes.
    spans:
        Bind a :class:`~repro.obs.MetricsSpanSink` inside each shard
        so per-stage timers land in the shard's own registry (exposed
        shard-labelled by ``/v1/metrics``).
    cell_size_m:
        Home-cell size for shard routing; defaults to the engine
        config's ``shard_cell_size_m``.
    """

    def __init__(
        self,
        state: ServiceState,
        n_shards: int,
        spans: bool = True,
        cell_size_m: float | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
        self._state = state
        self._spans = spans
        self.n_shards = int(n_shards)
        self.ring = HashRing(self.n_shards)
        if cell_size_m is None:
            cell_size_m = state.engine.config.shard_cell_size_m
        self._cell_size_m = float(cell_size_m)
        # One shard links the coordinator's live pool in-process, so it
        # has no plan.  Forked workers get a plan frozen at
        # construction: a pool refresh in the coordinator does NOT
        # repartition them (restart the daemon to re-shard; documented
        # in docs/service.md).
        self._plans: list[ShardPlan] | None = (
            plan_shards(list(state.pool), self.ring, self._cell_size_m)
            if self.n_shards > 1
            else None
        )
        self._pool_ids = [t.traj_id for t in state.pool]
        # A streaming flush can append records to *existing* ids (the
        # id list then never changes), so drift detection also pins the
        # store generation the plan was computed against.
        self._plan_generation = (
            state.store.generation if state.store is not None else None
        )
        self._plan_stale = False
        self._handles: list[ShardHandle | LocalShard | None] = (
            [None] * self.n_shards
        )
        self._restarts = [0] * self.n_shards
        self._spawn_lock = threading.Lock()
        self._scatter: ThreadPoolExecutor | None = None
        self.sessions: dict[str, _SessionEntry] = {}
        # Ingest, flush and expiry run on executor threads and
        # check-then-act on ``sessions`` and its entries; one at a time.
        self._sessions_lock = threading.RLock()
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Fork one worker per shard (or open the in-process shard).

        Call before the asyncio listener exists: children must not
        inherit the accept socket or any event loop state.
        """
        if self._started:
            raise ValidationError("supervisor already started")
        self._started = True
        if self._plans is not None:
            self._scatter = ThreadPoolExecutor(
                max_workers=self.n_shards, thread_name_prefix="ftl-scatter"
            )
        for shard_id in range(self.n_shards):
            self._handles[shard_id] = self._spawn(shard_id)

    def stop(self, timeout_s: float = 5.0) -> None:
        """Graceful worker shutdown: ack'd shutdown op, then reap.

        Workers that do not exit within ``timeout_s`` are SIGKILLed —
        drain happened upstream (batcher stop), so nothing is lost.
        """
        if not self._started:
            return
        self._started = False
        for handle in self._handles:
            if handle is None or handle.broken:
                continue
            with contextlib.suppress(Exception):
                handle.call("shutdown")
            handle.close()
        deadline = time.monotonic() + timeout_s
        for handle in self._handles:
            if isinstance(handle, ShardHandle):
                self._reap(handle.pid, deadline)
        if self._scatter is not None:
            self._scatter.shutdown(wait=True)
            self._scatter = None

    @staticmethod
    def _reap(pid: int, deadline: float) -> None:
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                return
            if done:
                return
            if time.monotonic() >= deadline:
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
                with contextlib.suppress(OSError):
                    os.waitpid(pid, 0)
                return
            time.sleep(0.01)

    def _worker_state(self, pool: list[Trajectory]) -> ServiceState:
        """A shard's own state over ``pool``: the coordinator's engine,
        options and store.  Its sessions never expire on their own (the
        coordinator's ledger expires them via ``drop_session``) and
        buffer candidate records only when the store exists."""
        return ServiceState(
            engine=self._state.engine,
            pool=pool,
            options=self._state.options,
            session_ttl_s=float("inf"),
            store=self._state.store,
        )

    def _spawn(self, shard_id: int) -> ShardHandle | LocalShard:
        if self._plans is None:
            return LocalShard(
                self._worker_state(self._state.pool), self._state, self._spans
            )
        plan = self._plans[shard_id]
        parent_sock, child_sock = socket.socketpair()
        pid = os.fork()
        if pid == 0:
            # Worker child.  Drop every parent-side socket we inherited
            # (ours *and* the other shards' — a stray copy here would
            # keep a sibling's pipe open and defeat EOF-based exit),
            # then serve until the coordinator closes our pipe.
            try:
                parent_sock.close()
                for other in self._handles:
                    if other is not None:
                        other.close()
                run_worker(
                    child_sock,
                    self._worker_state(list(plan.local_pool)),
                    shard_id,
                    self._spans,
                )
            finally:
                os._exit(0)
        child_sock.close()
        return ShardHandle(shard_id, parent_sock, pid)

    def _respawn(self, shard_id: int, dead: ShardHandle) -> None:
        with self._spawn_lock:
            current = self._handles[shard_id]
            if current is not dead and current is not None and not current.broken:
                return  # another thread already respawned this shard
            dead.close()
            self._reap(dead.pid, time.monotonic())  # non-blocking best effort
            self._handles[shard_id] = self._spawn(shard_id)
            self._restarts[shard_id] += 1
            self._state.metrics.inc("worker_restarts_total")
            self._rehydrate(shard_id)

    def _rehydrate(self, shard_id: int) -> None:
        """Replay a respawned worker's slice of every live session.

        The broadcast query stream comes back from the coordinator's
        per-session history; the worker's owned candidate records come
        back from the store segments the session flushed (records that
        were still buffered worker-side died with it — the documented
        idle-TTL-equivalent loss).  Replayed candidate records are
        already persisted, so the fresh worker's pending buffer is
        drained immediately lest the next flush append them twice.
        """
        handle = self._handles[shard_id]
        for entry in self.sessions.values():
            records_by_cid: dict[str, list[list[float]]] = {}
            if self._state.store is not None:
                owned = {
                    cid for cid, shard in entry.owners.items()
                    if shard == shard_id
                }
                for dirname in entry.flushed_segments:
                    try:
                        segment = self._state.store.read_segment(dirname)
                    except (FTLError, OSError):
                        continue  # compacted away since the flush
                    for traj in segment:
                        cid = str(traj.traj_id)
                        if cid not in owned:
                            continue
                        records_by_cid.setdefault(cid, []).extend(
                            [float(t), float(x), float(y)]
                            for t, x, y in zip(traj.ts, traj.xs, traj.ys)
                        )
            query_records = [
                record for batch in entry.query_history for record in batch
            ]
            if not query_records and not records_by_cid:
                continue
            try:
                handle.call(
                    "ingest",
                    {
                        "session": entry.session_id,
                        "query_records": query_records,
                        "candidate_records": records_by_cid,
                        "expire_before": entry.expire_before,
                    },
                )
                if records_by_cid:
                    handle.call("take_pending", entry.session_id)
                self._state.metrics.inc("worker_rehydrated_sessions_total")
                _LOG.info(
                    "worker_rehydrated",
                    extra={"ftl_fields": {
                        "shard": shard_id,
                        "session": entry.session_id,
                        "n_query_records": len(query_records),
                        "n_candidates": len(records_by_cid),
                    }},
                )
            except (WorkerCrashedError, FTLError):
                continue  # best effort: the next op respawns again

    def _call(self, shard_id: int, op: str, payload=None):
        """One shard op with crash-respawn-retry-once semantics."""
        handle = self._handles[shard_id]
        try:
            return handle.call(op, payload)
        except WorkerCrashedError:
            self._respawn(shard_id, handle)
            return self._handles[shard_id].call(op, payload)

    def _submit(self, shard_id: int, op: str, payload=None) -> Future:
        """Start one shard op; the in-process shard answers at once, on
        the caller's thread (which may already hold the engine lock)."""
        if self._scatter is not None:
            return self._scatter.submit(self._call, shard_id, op, payload)
        future: Future = Future()
        try:
            future.set_result(self._call(shard_id, op, payload))
        except Exception as exc:  # noqa: BLE001 - re-raised by .result()
            future.set_exception(exc)
        return future

    # ------------------------------------------------------------------
    # /link scatter-gather
    # ------------------------------------------------------------------
    def link_requests(
        self, requests: list[LinkRequest]
    ) -> list[tuple[object, tuple[ShardInfo, ...]]]:
        """Serve a batch: ``(LinkResult, shard provenance)`` per request.

        Pool-backed requests are scattered to every shard in one
        batched ``link`` op per shard and merged (a single in-process
        shard's ranking already is the result); requests carrying
        their own candidates execute on the coordinator's engine
        (their candidates were never partitioned), reported as shard
        ``-1``.
        """
        pool_units: list[tuple[int, LinkRequest]] = []
        results: list[tuple[object, tuple[ShardInfo, ...]] | None]
        results = [None] * len(requests)
        for index, request in enumerate(requests):
            if request.candidates is not None:
                results[index] = self._link_local(request)
            else:
                pool_units.append((index, request))
        if pool_units:
            payload = [
                (request.query, request.options) for _, request in pool_units
            ]
            futures = [
                self._submit(shard_id, "link", payload)
                for shard_id in range(self.n_shards)
            ]
            replies = [future.result() for future in futures]
            for j, (index, request) in enumerate(pool_units):
                options = (
                    request.options
                    if request.options is not None
                    else self._state.options
                )
                if self._plans is None:
                    merged = LinkResult(
                        query_id=request.query.traj_id,
                        method=options.method,
                        candidates=tuple(replies[0]["matches"][j]),
                    )
                else:
                    merged = merge_partials(
                        [reply["matches"][j] for reply in replies],
                        self._pool_ids,
                        request.query.traj_id,
                        options,
                    )
                provenance = tuple(
                    ShardInfo(
                        shard=reply["shard"],
                        pid=reply["pid"],
                        n_candidates=reply["n_candidates"],
                        n_matched=len(reply["matches"][j]),
                        elapsed_ms=reply["elapsed_ms"],
                    )
                    for reply in replies
                )
                results[index] = (merged, provenance)
        return results

    def _link_local(self, request: LinkRequest):
        started = time.monotonic()
        with self._state.engine_lock:
            result = self._state.engine.link_requests(
                [request],
                default_pool=self._state.pool,
                options=self._state.options,
            )[0]
        info = ShardInfo(
            shard=-1,
            pid=os.getpid(),
            n_candidates=len(request.candidates),
            n_matched=len(result.candidates),
            elapsed_ms=round((time.monotonic() - started) * 1e3, 3),
        )
        return result, (info,)

    # ------------------------------------------------------------------
    # Standing-query re-scoring scatter
    # ------------------------------------------------------------------
    def score_pairs(self, query, candidates, options, changed_ids):
        """Score changed standing-query pairs on the workers owning them.

        The workers' resident pools are frozen fork-time slices, so the
        *current* candidate trajectories ship with the request and each
        worker first drops its cached profiles for those ids.  (The
        in-process shard shares the coordinator's engine, whose cache
        the stream runtime already invalidated; it drops nothing.)
        Candidates route by id hash (the ring ingest uses); a shard
        that cannot answer even after a respawn falls back to the
        coordinator engine, so an update is never silently lost.  The
        returned :class:`Candidate` entries are bit-identical to a
        coordinator-local score — per-pair statistics depend only on
        (query, candidate, options), regardless of which process runs
        them (the merge-correctness argument in
        :mod:`repro.service.shard`).
        """
        del changed_ids  # implied by the shipped candidates
        groups: dict[int, list[Trajectory]] = {}
        for trajectory in candidates:
            shard_id = self.ring.shard_for(f"id:{trajectory.traj_id}")
            groups.setdefault(shard_id, []).append(trajectory)
        futures = {
            shard_id: self._submit(
                shard_id,
                "score_pairs",
                {
                    "query": query,
                    "candidates": group,
                    "options": options,
                    "invalidate": (
                        [str(t.traj_id) for t in group]
                        if self._plans is not None
                        else []
                    ),
                },
            )
            for shard_id, group in groups.items()
        }
        scored = []
        for shard_id, future in futures.items():
            try:
                scored.extend(future.result())
            except WorkerCrashedError:
                self._state.metrics.inc("score_pairs_fallback_total")
                self._state.engine.invalidate_profiles(
                    [str(t.traj_id) for t in groups[shard_id]]
                )
                result = self._state.engine.link_requests(
                    [LinkRequest(
                        query,
                        candidates=tuple(groups[shard_id]),
                        options=options,
                    )]
                )[0]
                scored.extend(result.candidates)
        return scored

    # ------------------------------------------------------------------
    # /ingest routing
    # ------------------------------------------------------------------
    def ingest(self, wire: IngestWireRequest) -> dict:
        """Route one ingest request and reassemble its response.

        Query records and ``expire_before`` are broadcast to every
        shard (each worker's linker needs the full query stream);
        candidate records go only to their owning shard.  The response
        counts come back out the same way: retained query records from
        any shard (they agree), candidate counts summed, the monotone
        ingested-record total from the coordinator registry.
        """
        with self._sessions_lock:
            now = self._state.clock()
            self.expire_idle(now)
            entry = self.sessions.get(wire.session)
            if entry is None:
                entry = _SessionEntry(
                    session_id=wire.session, created_at=now, last_used_at=now
                )
                self.sessions[wire.session] = entry
                self._state.metrics.inc("sessions_created_total")
            entry.last_used_at = now
            # The query history only replays into a respawned worker;
            # the in-process shard is never respawned.
            if wire.query_records and self._plans is not None:
                entry.query_history.append(
                    [list(map(float, r)) for r in wire.query_records]
                )
            if wire.expire_before is not None:
                entry.expire_before = (
                    wire.expire_before
                    if entry.expire_before is None
                    else max(entry.expire_before, wire.expire_before)
                )
            self._compact_ledger(entry)
            for cid in wire.candidate_records:
                if cid not in entry.owners:
                    entry.owners[cid] = self.ring.shard_for(f"id:{cid}")
            per_shard: list[dict] = [{} for _ in range(self.n_shards)]
            for cid, records in wire.candidate_records.items():
                per_shard[entry.owners[cid]][cid] = records
            futures = [
                self._submit(
                    shard_id,
                    "ingest",
                    {
                        "session": wire.session,
                        "query_records": wire.query_records,
                        "candidate_records": per_shard[shard_id],
                        "expire_before": wire.expire_before,
                    },
                )
                for shard_id in range(self.n_shards)
            ]
            replies = [future.result() for future in futures]
            total = len(wire.query_records) + sum(
                len(r) for r in wire.candidate_records.values()
            )
            entry.n_records += total
            if total:
                self._state.metrics.inc("ingested_records_total", total)
            if wire.expire_before is not None and self._state.stream is not None:
                # Workers already dropped their in-session records; slide
                # the store window and re-score standing queries to match.
                self._state.stream.evict_before(float(wire.expire_before))
            response = {
                "session": wire.session,
                "n_candidates": sum(r["n_candidates"] for r in replies),
                "n_query_records": max(r["n_query_records"] for r in replies),
                "n_records_ingested": entry.n_records,
            }
            if wire.flush:
                response["flushed_records"] = self.flush_session(wire.session)
            if wire.decide:
                response["decisions"] = self._decisions(entry)
            return response

    def _compact_ledger(self, entry: _SessionEntry) -> None:
        """Keep the session's rehydration ledger bounded.

        Query records behind the eviction cutoff would be dropped by
        the workers' linkers on replay anyway (``expire_before`` is
        replayed too), so compacting them away changes nothing.  Past
        :data:`MAX_QUERY_HISTORY_RECORDS` the oldest records go as
        well — lossy but counted, and strictly better than unbounded
        coordinator growth.
        """
        if entry.expire_before is not None:
            cutoff = entry.expire_before
            entry.query_history = [
                kept
                for batch in entry.query_history
                if (kept := [r for r in batch if r[0] >= cutoff])
            ]
        overflow = (
            sum(len(batch) for batch in entry.query_history)
            - MAX_QUERY_HISTORY_RECORDS
        )
        if overflow <= 0:
            return
        self._state.metrics.inc(
            "session_ledger_truncated_records_total", overflow
        )
        while overflow > 0:
            batch = entry.query_history[0]
            if len(batch) <= overflow:
                overflow -= len(batch)
                entry.query_history.pop(0)
            else:
                del batch[:overflow]
                overflow = 0

    def _decisions(self, entry: _SessionEntry) -> list[dict]:
        """Per-candidate decisions in global registration order.

        Each owning shard reports its candidates' decisions; the
        registry's first-seen order stitches them back into the order a
        single-process linker would emit.  Candidates living on a shard
        that was respawned since their ingest are absent (their
        evidence died with the worker) and are skipped.
        """
        shard_ids = sorted(set(entry.owners.values()))
        futures = {
            shard_id: self._submit(shard_id, "decisions", entry.session_id)
            for shard_id in shard_ids
        }
        by_cid = {}
        for shard_id in shard_ids:
            for decision in futures[shard_id].result():
                by_cid[decision["candidate_id"]] = decision
        return [by_cid[cid] for cid in entry.owners if cid in by_cid]

    # ------------------------------------------------------------------
    # Store flushes and session expiry (coordinator-owned)
    # ------------------------------------------------------------------
    def flush_session(self, session_id: str) -> int:
        """Pull buffered records out of the workers, append to the store."""
        with self._sessions_lock:
            if self._state.store is None:
                raise ValidationError("no trajectory store attached to this daemon")
            entry = self.sessions.get(session_id)
            if entry is None:
                raise ValidationError(f"unknown ingest session {session_id!r}")
            pending: dict[str, list[tuple[float, float, float]]] = {}
            for shard_id in range(self.n_shards):
                pending.update(self._call(shard_id, "take_pending", session_id))
            if not pending:
                return 0
            deltas = []
            for cid, records in pending.items():
                ts, xs, ys = zip(*records)
                deltas.append(Trajectory(ts, xs, ys, cid, sort=True))
            # The stream runtime appends inside its locks (delta-block
            # stamp must match this append's committed generation) and
            # reports back the segment it wrote for the rehydration ledger.
            if self._state.stream is not None:
                flushed, segment = self._state.stream.append_flush(deltas)
            else:
                flushed = self._state.store.append(deltas)
                segment = (
                    self._state.store.manifest.segments[-1].dirname
                    if flushed
                    else None
                )
            if segment is not None and segment not in entry.flushed_segments:
                entry.flushed_segments.append(segment)
            # Compaction rewrites the store into one segment; ledger
            # entries pointing at dead segments are useless for rehydration
            # and would otherwise accumulate for the session's lifetime.
            live = {info.dirname for info in self._state.store.manifest.segments}
            entry.flushed_segments = [
                d for d in entry.flushed_segments if d in live
            ]
            self._state.metrics.inc("store_flushes_total")
            self._state.metrics.inc("store_flushed_records_total", flushed)
            return flushed

    def expire_idle(self, now: float | None = None) -> list[str]:
        """TTL-expire idle sessions everywhere (flushing first if stored)."""
        with self._sessions_lock:
            if now is None:
                now = self._state.clock()
            expired = [
                sid
                for sid, entry in self.sessions.items()
                if now - entry.last_used_at > self._state.session_ttl_s
            ]
            for sid in expired:
                if self._state.store is not None:
                    self.flush_session(sid)
                for shard_id in range(self.n_shards):
                    self._call(shard_id, "drop_session", sid)
                del self.sessions[sid]
            if expired:
                self._state.metrics.inc("sessions_expired_total", len(expired))
            return expired

    # ------------------------------------------------------------------
    # Model hot-swap broadcast
    # ------------------------------------------------------------------
    def broadcast_model(
        self,
        rejection: dict,
        acceptance: dict,
        artifact_id: str | None,
    ) -> list[dict]:
        """Ship a fitted model pair to every shard worker.

        Called *after* the coordinator's own :meth:`ServiceState.adopt_engine`
        (and while the batcher is drained), so a worker that crashes
        mid-broadcast respawns from the already-swapped coordinator
        engine — ``_spawn`` reads ``self._state.engine`` at fork time —
        and the retry lands the explicit swap on the fresh process too.
        Models travel as ``to_dict()`` payloads, not pickled objects,
        so each worker rebuilds its engine from the canonical count
        tables + config snapshot.
        """
        payload = {
            "rejection": rejection,
            "acceptance": acceptance,
            "artifact_id": artifact_id,
        }
        futures = [
            self._submit(shard_id, "swap_model", payload)
            for shard_id in range(self.n_shards)
        ]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Introspection / aggregation
    # ------------------------------------------------------------------
    def ensure_alive(self) -> None:
        """Ping every shard, respawning any dead worker (sweeper hook)."""
        for shard_id in range(self.n_shards):
            self._call(shard_id, "ping")

    def plan_drift(self) -> bool:
        """Whether the coordinator pool drifted from the frozen plan.

        The shard plan is frozen at fork time, but streaming flushes
        and evictions refresh the coordinator pool in place — so
        pool-backed ``/v1/link`` scatters keep serving the fork-time
        snapshot while standing queries track the live pool.  Drift is
        either an id-list change *or* a store-generation change: a
        flush appending records to already-stored ids mutates pool
        content without touching the id list.  The transition into
        staleness emits one structured warning (and bumps
        ``shard_plan_drift_total``); ``/v1/metrics`` gauges the
        current state as ``ftl_shard_plan_stale``.  Restart the daemon
        to re-shard, as documented in ``docs/service.md``.  The
        in-process shard links the live pool, so it never drifts.
        """
        if self._plans is None:
            return False
        current = [t.traj_id for t in self._state.pool]
        generation = (
            self._state.store.generation
            if self._state.store is not None
            else None
        )
        stale = (
            current != self._pool_ids or generation != self._plan_generation
        )
        if stale and not self._plan_stale:
            self._state.metrics.inc("shard_plan_drift_total")
            _LOG.warning(
                "shard_plan_stale",
                extra={"ftl_fields": {
                    "frozen_pool": len(self._pool_ids),
                    "current_pool": len(current),
                    "plan_generation": self._plan_generation,
                    "store_generation": generation,
                }},
            )
        self._plan_stale = stale
        return stale

    def worker_status(self) -> list[dict]:
        """Live per-worker status for ``/v1/healthz`` (active ping)."""
        status = []
        for shard_id in range(self.n_shards):
            try:
                reply = self._call(shard_id, "ping")
                status.append(
                    {
                        "shard": shard_id,
                        "pid": reply["pid"],
                        "alive": True,
                        "pool_size": reply["pool_size"],
                        "sessions": reply["sessions"],
                        "restarts": self._restarts[shard_id],
                    }
                )
            except WorkerCrashedError:
                status.append(
                    {
                        "shard": shard_id,
                        "pid": self._handles[shard_id].pid,
                        "alive": False,
                        "pool_size": len(self._plans[shard_id].global_indices),
                        "sessions": 0,
                        "restarts": self._restarts[shard_id],
                    }
                )
        return status

    def metrics_payloads(self) -> dict[int, dict]:
        """Per-shard ``{"counters", "histograms", "evidence"}`` snapshots.

        A shard whose worker cannot answer even after a respawn is
        omitted — ``/v1/metrics`` then simply lacks that shard's
        labelled series for the scrape.
        """
        payloads: dict[int, dict] = {}
        for shard_id in range(self.n_shards):
            try:
                payloads[shard_id] = self._call(shard_id, "metrics")
            except WorkerCrashedError:
                continue
        return payloads
