"""Shard supervisor: the daemon's one serving path.

:class:`ShardSupervisor` serves every link, assign and standing-query
re-scoring over its shards.  With one shard it holds a
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

* **Workers** hold disjoint, live slices of the coordinator's
  :class:`~repro.stream.pool.ResidentPool`.  Each id is pinned to an
  owner the first time the coordinator sees it: the home cell of its
  trajectory at startup, else of its first flushed delta.  Workers
  answer ``link`` with per-shard partial rankings over their slice and
  ``score_pairs`` with the standing-query pairs they own.  They hold
  no ingest sessions.
* **The coordinator** merges partial rankings
  (:func:`~repro.service.shard.merge_partials` — bit-identical to the
  single-process order), holds every ingest session in its own
  :class:`~repro.service.state.ServiceState`, and is the *only*
  process that touches the store.  The stream runtime applies each
  flush and eviction to the coordinator's pool and sends it on to the
  slices (:meth:`ShardSupervisor.merge_pool`,
  :meth:`~ShardSupervisor.evict_pool`) under the engine lock that
  every ``link`` scatter also holds, so a scatter sees every shard
  either before or after a flush, never a mix.

Failure semantics: any transport error marks the worker dead, the
supervisor respawns it and retries the operation once
(``worker_restarts_total`` counts respawns).  A respawned worker is
forked from the coordinator's *current* pool, and skips a retried delta
its generation already holds.  A worker crash loses no session state:
sessions live on the coordinator.
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

from repro.core.engine import LinkRequest
from repro.errors import ValidationError, WorkerCrashedError
from repro.service.protocol import ShardInfo
from repro.service.shard import (
    HashRing,
    LocalShard,
    ShardHandle,
    home_shard,
    merge_partials,
    run_worker,
)
from repro.service.state import ServiceState
from repro.core.trajectory import Trajectory
from repro.stream.pool import ResidentPool
from repro.stream.standing import score_units

_LOG = logging.getLogger("ftl.supervisor")


class ShardSupervisor:
    """Shard handles + the scatter-gather coordinator logic.

    Parameters
    ----------
    state:
        The daemon's coordinator :class:`ServiceState` — source of the
        engine, pool, server-default options and metrics.  Workers get
        their own states built from its parts.
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
        self._pool = state.resident
        # id -> owning shard, pinned at first sight and never moved;
        # start() slices, and so pins, the startup pool.
        self._owners: dict[str, int] = {}
        self._handles: list[ShardHandle | LocalShard | None] = (
            [None] * self.n_shards
        )
        self._restarts = [0] * self.n_shards
        self._spawn_lock = threading.Lock()
        self._scatter: ThreadPoolExecutor | None = None
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
        if self.n_shards > 1:
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

    def _owner(self, trajectory: Trajectory) -> int:
        """The shard owning ``trajectory``'s id, pinned at first sight."""
        traj_id = str(trajectory.traj_id)
        owner = self._owners.get(traj_id)
        if owner is None:
            owner = self._owners.setdefault(
                traj_id, home_shard(self.ring, trajectory, self._cell_size_m)
            )
        return owner

    def shard_pool(self, shard_id: int) -> ResidentPool:
        """The live pool's slice ``shard_id`` owns, at its generation."""
        return self._pool.subset(lambda t: self._owner(t) == shard_id)

    def _worker_state(self, resident: ResidentPool) -> ServiceState:
        """A shard's own state over ``resident``: the coordinator's
        engine and options."""
        return ServiceState(
            engine=self._state.engine,
            pool=resident.trajectories,
            resident=resident,
            options=self._state.options,
        )

    def _spawn(self, shard_id: int) -> ShardHandle | LocalShard:
        if self.n_shards == 1:
            return LocalShard(
                self._worker_state(self._pool), self._state, self._spans
            )
        # Sliced before the fork, from the live pool: a worker
        # respawned mid-broadcast already holds the delta.
        state = self._worker_state(self.shard_pool(shard_id))
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
                run_worker(child_sock, state, shard_id, self._spans)
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
        batched ``link`` op per shard and merged by first-seen rank,
        under the engine lock, so no pool delta lands mid-scatter;
        requests carrying their own candidates execute on the
        coordinator's engine (their candidates were never
        partitioned), reported as shard ``-1``.
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
            with self._state.engine_lock:
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
                merged = merge_partials(
                    [reply["matches"][j] for reply in replies],
                    self._pool.rank,
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
    # Pool deltas and standing-query re-scoring (stream runtime hooks)
    # ------------------------------------------------------------------
    def merge_pool(self, deltas, retain_after: float) -> None:
        """Send a flush the coordinator's pool merged on to its owners
        (new ids are pinned here), in flush order."""
        groups: list[list[Trajectory]] = [[] for _ in range(self.n_shards)]
        for delta in deltas:
            groups[self._owner(delta)].append(delta)
        self._broadcast_delta(
            [{"deltas": group, "retain_after": retain_after} for group in groups]
        )

    def evict_pool(self, cutoff_t: float) -> None:
        """Send an eviction cutoff on to every shard."""
        self._broadcast_delta([{"cutoff": cutoff_t}] * self.n_shards)

    def reload_pool(self) -> None:
        """Re-fork every worker (on its next op) from the coordinator's
        pool, after the stream runtime reloaded it from the store."""
        for handle in self._handles:
            handle.close()

    def _broadcast_delta(self, payloads: list[dict]) -> None:
        """One ``pool_delta`` op per shard, stamped with the pool's
        generation.  Never raises: a worker that dies or fails to apply
        it is closed, and its next op re-forks it from the live pool."""
        generation = self._pool.generation
        futures = [
            self._submit(shard_id, "pool_delta", {**p, "generation": generation})
            for shard_id, p in enumerate(payloads)
        ]
        for shard_id, future in enumerate(futures):
            try:
                future.result()
            except Exception:  # noqa: BLE001 - the shard is re-forked
                _LOG.warning("pool_delta_failed", exc_info=True,
                             extra={"ftl_fields": {"shard": shard_id}})
                self._handles[shard_id].close()

    def score_pairs(self, units) -> list[list]:
        """Score standing-query pairs on the workers owning them.

        ``units`` are one update's ``(query, candidate ids, options)``
        triples; each shard gets one ``score_pairs`` op with its owned
        part of every unit and scores it from its live slice.  A shard
        that cannot answer even after a respawn falls back to the
        coordinator engine, so an update is never silently lost.  The
        returned :class:`Candidate` entries are bit-identical to a
        coordinator-local score — per-pair statistics depend only on
        (query, candidate, options), regardless of which process runs
        them (the merge-correctness argument in
        :mod:`repro.service.shard`).
        """
        by_id = self._pool.by_id
        work: dict[int, list[tuple[int, tuple]]] = {}
        for index, (query, ids, options) in enumerate(units):
            groups: dict[int, list[str]] = {}
            for cid in ids:
                groups.setdefault(self._owner(by_id[cid]), []).append(cid)
            for shard_id, group in groups.items():
                work.setdefault(shard_id, []).append(
                    (index, (query, group, options))
                )
        futures = {
            shard_id: self._submit(
                shard_id, "score_pairs", [unit for _, unit in items]
            )
            for shard_id, items in work.items()
        }
        scored: list[list] = [[] for _ in units]
        for shard_id, future in futures.items():
            items = work[shard_id]
            try:
                replies = future.result()
            except WorkerCrashedError:
                self._state.metrics.inc("score_pairs_fallback_total")
                replies = score_units(
                    self._state.engine, by_id, [unit for _, unit in items]
                )
            for (index, _), reply in zip(items, replies):
                scored[index].extend(reply)
        return scored

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

    def worker_status(self) -> list[dict]:
        """Live per-worker status for ``/v1/healthz`` (active ping)."""
        status = []
        for shard_id in range(self.n_shards):
            try:
                reply = dict(self._call(shard_id, "ping"), alive=True)
            except WorkerCrashedError:
                # A dead worker holds no slice.
                reply = {"pid": self._handles[shard_id].pid, "alive": False,
                         "pool_size": 0}
            status.append({
                "shard": shard_id,
                "pid": reply["pid"],
                "alive": reply["alive"],
                "pool_size": reply["pool_size"],
                "restarts": self._restarts[shard_id],
            })
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
