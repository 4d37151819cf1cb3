"""Candidate-pool sharding: hash ring, owners, worker protocol.

The multi-worker daemon (see :mod:`repro.service.supervisor`) splits
the resident candidate pool across ``fork``ed worker processes and
turns ``/link`` into a scatter-gather.  This module holds the pieces
that are pure enough to test without forking:

* a **consistent-hash ring** over the spatio-temporal index's packed
  cell keys (:func:`repro.store.stindex.pack_cell_keys`): a pool
  trajectory's *home cell* — the cell of its first record at
  :attr:`~repro.config.FTLConfig.shard_cell_size_m` resolution — maps
  to a shard (:func:`home_shard`), so spatially co-located candidates
  (the ones that block together) tend to stay together and ring
  perturbations move few keys;
* a length-prefixed pickle **framing** over ``socketpair`` and the
  blocking worker loop :func:`run_worker` / parent-side
  :class:`ShardHandle`, plus :class:`LocalShard`, which answers the
  same ops in-process for a one-shard daemon;
* :func:`merge_partials` with the correctness argument for why the
  merged top-k equals the single-process ranking bit for bit.

**Live slices.**  Each worker holds a
:meth:`~repro.stream.pool.ResidentPool.subset` of the coordinator's
pool, the ids it owns in first-seen order, and the ``pool_delta`` op
applies each flush and eviction to it (``ResidentPool.merge``/
``evict``); a delta whose generation the slice already holds (a worker
re-forked from the live pool mid-broadcast) is skipped.

**Merge correctness.**  Every per-candidate statistic the engine
computes (``p_rejection``, ``p_acceptance``, ``score``) depends only on
the (query, candidate, options) triple — the batched kernels are
bit-identical to the per-pair reference regardless of batch composition
(property-tested in ``tests/test_kernels.py``) — so a candidate's
evidence is the same whether its shard holds 3 or 3000 neighbours.
Single-process ranking sorts the matched set with a *stable* sort on
descending score over the pool list, which is in first-seen order,
i.e. orders by ``(-score, first-seen rank)``.  Every slice keeps that
order, so sorting the concatenated partials by the same key, with the
coordinator's ranks, reproduces the single-process order exactly.
Per-shard ``top_k`` truncation is lossless: any candidate in the global
top k ranks at most k-th within its own shard under the same
comparator.  The equivalence is property-tested across shard counts and
both methods in ``tests/test_shard.py``.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import pickle
import socket
import struct
import time

from repro import obs
from repro.core.engine import Candidate, LinkOptions, LinkRequest, LinkResult
from repro.core.trajectory import Trajectory
from repro.errors import ValidationError, WorkerCrashedError
from repro.store.stindex import pack_cell_keys
from repro.stream.standing import score_units

#: Virtual nodes per shard on the hash ring; enough for an even spread
#: at single-digit shard counts without bloating ring construction.
DEFAULT_VNODES = 64

#: Frame header: one unsigned 32-bit big-endian payload length.
_HEADER = struct.Struct(">I")

#: Hard cap on one framed message (guards against a corrupt length).
_MAX_FRAME_BYTES = 1 << 30


def stable_hash(key: object) -> int:
    """A 64-bit hash of ``key`` stable across processes and runs.

    ``hash()`` is salted per process (``PYTHONHASHSEED``), which would
    scatter the same pool differently in every worker generation;
    blake2b of the repr is not.
    """
    raw = repr(key).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(), "big")


class HashRing:
    """Consistent hashing: keys -> shards via virtual nodes.

    Each shard contributes ``vnodes`` points on a 64-bit ring; a key is
    owned by the first point clockwise from its hash.  Adding or
    removing one shard relocates only the keys whose owning arc
    changed (~1/n of them), which is what keeps pool ownership stable
    when a deployment resizes.
    """

    def __init__(self, n_shards: int, vnodes: int = DEFAULT_VNODES) -> None:
        if n_shards < 1:
            raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
        if vnodes < 1:
            raise ValidationError(f"vnodes must be >= 1, got {vnodes}")
        self.n_shards = int(n_shards)
        points = [
            (stable_hash(f"shard:{shard}:vnode:{v}"), shard)
            for shard in range(self.n_shards)
            for v in range(vnodes)
        ]
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [s for _, s in points]

    def shard_for(self, key: object) -> int:
        """The shard owning ``key`` (any hashable/reprable value)."""
        if self.n_shards == 1:
            return 0
        idx = bisect.bisect_right(self._hashes, stable_hash(key))
        if idx == len(self._hashes):
            idx = 0
        return self._owners[idx]


def home_shard(
    ring: HashRing, trajectory: Trajectory, cell_size_m: float
) -> int:
    """The shard owning a trajectory, via its home cell.

    The home cell is the packed grid cell of the trajectory's *first*
    record — a stable spatial key that keeps co-located candidates on
    the same shard.  Empty trajectories and out-of-range coordinates
    fall back to hashing the trajectory id.
    """
    if ring.n_shards == 1:
        return 0
    if len(trajectory) > 0:
        keys = pack_cell_keys(
            trajectory.xs[:1], trajectory.ys[:1], cell_size_m
        )
        if keys is not None:
            return ring.shard_for(f"cell:{int(keys[0])}")
    return ring.shard_for(f"id:{trajectory.traj_id!r}")


# ----------------------------------------------------------------------
# Framing (length-prefixed pickle over a socketpair)
# ----------------------------------------------------------------------
def send_msg(sock: socket.socket, obj: object) -> None:
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise EOFError("peer closed the shard socket")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket) -> object:
    (length,) = _HEADER.unpack(_recv_exactly(sock, _HEADER.size))
    if length > _MAX_FRAME_BYTES:
        raise EOFError(f"shard frame of {length} bytes exceeds the cap")
    return pickle.loads(_recv_exactly(sock, length))


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def shard_link_matches(
    engine,
    local_pool: list[Trajectory],
    units: list[tuple[Trajectory, LinkOptions | None]],
    default_options: LinkOptions,
) -> list[list[Candidate]]:
    """One shard's partial rankings for a batch of pool-backed queries.

    ``local_pool`` is the shard's slice, in global first-seen order.
    Exposed separately from the socket loop so the merge-equivalence
    property tests exercise the exact serving code without forking.
    """
    requests = [
        LinkRequest(query=query, options=options) for query, options in units
    ]
    results = engine.link_requests(
        requests, default_pool=local_pool, options=default_options
    )
    return [list(result.candidates) for result in results]


def run_worker(
    sock: socket.socket,
    state,
    shard_id: int,
    spans: bool = True,
) -> None:
    """The blocking shard-worker loop (runs in the forked child).

    ``state`` is a :class:`~repro.service.state.ServiceState` whose
    ``resident`` pool is the shard's live slice.  The loop answers
    ``(op, payload)`` frames with ``("ok", result)`` or ``("error",
    exception)`` and exits on socket EOF — the coordinator closing its
    end (shutdown or crash) is the worker's cue to die.  Workers hold
    no ingest sessions: those live in the coordinator's state.
    """
    if spans:
        obs.bind_sink(obs.MetricsSpanSink(state.metrics))
    # Drift evidence accumulates worker-side (the engine runs here);
    # the coordinator pulls snapshots via the "metrics" op and merges
    # them fleet-wide before rendering the ftl_model_drift gauges.
    obs.bind_evidence_sink(state.evidence)
    while True:
        try:
            op, payload = recv_msg(sock)
        except (EOFError, OSError):
            break
        try:
            result = _dispatch_op(state, shard_id, op, payload)
        except Exception as exc:  # noqa: BLE001 - shipped to the coordinator
            try:
                send_msg(sock, ("error", exc))
            except (OSError, pickle.PicklingError):
                send_msg(sock, ("error", RuntimeError(repr(exc))))
            continue
        send_msg(sock, ("ok", result))
        if op == "shutdown":
            break


def _dispatch_op(state, shard_id: int, op: str, payload) -> object:
    if op == "ping" or op == "health" or op == "shutdown":
        return {
            "shard": shard_id,
            "pid": os.getpid(),
            "pool_size": len(state.pool),
        }
    if op == "link":
        started = time.monotonic()
        matches = shard_link_matches(
            state.engine, state.pool, payload, state.options
        )
        return {
            "shard": shard_id,
            "pid": os.getpid(),
            "n_candidates": len(state.pool),
            "elapsed_ms": round((time.monotonic() - started) * 1e3, 3),
            "matches": matches,
        }
    if op == "pool_delta":
        resident = state.resident
        if payload["generation"] > resident.generation:
            if "cutoff" in payload:
                resident.evict(payload["cutoff"])
            else:
                resident.merge(payload["deltas"], payload["retain_after"])
            resident.generation = payload["generation"]
        return None
    if op == "score_pairs":
        # Standing-query re-scoring of the changed pairs this shard
        # owns, from its live slice.
        return score_units(state.engine, state.resident.by_id, payload)
    if op == "metrics":
        counters, histograms = state.metrics.snapshots()
        return {
            "counters": counters,
            "histograms": histograms,
            "evidence": state.evidence.snapshot(),
        }
    if op == "swap_model":
        # Model hot-swap broadcast.  The coordinator ships to_dict()
        # payloads (not pickled models): both models are rebuilt from
        # their count tables + config snapshot, so the worker's engine
        # is provably the same pure function of the artifact as the
        # coordinator's — partial rankings stay bit-identical.
        from repro.core.engine import LinkEngine
        from repro.core.models import CompatibilityModel

        mr = CompatibilityModel.from_dict(payload["rejection"])
        ma = CompatibilityModel.from_dict(payload["acceptance"])
        state.adopt_engine(
            LinkEngine(mr, ma, options=state.options),
            payload.get("artifact_id"),
        )
        return {
            "shard": shard_id,
            "pid": os.getpid(),
            "model_artifact": payload.get("artifact_id"),
        }
    raise ValidationError(f"unknown shard op {op!r}")


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class ShardHandle:
    """Coordinator-side handle of one forked shard worker.

    One blocking request/response round trip at a time per handle (a
    lock serialises callers — the supervisor's scatter pool gives each
    shard its own thread).  Any transport failure is surfaced as
    :class:`~repro.errors.WorkerCrashedError`; the supervisor owns
    respawn policy.
    """

    def __init__(self, shard_id: int, sock: socket.socket, pid: int) -> None:
        import threading

        self.shard_id = shard_id
        self.pid = pid
        self._sock = sock
        self._lock = threading.Lock()
        self._broken = False

    @property
    def broken(self) -> bool:
        return self._broken

    def call(self, op: str, payload: object = None) -> object:
        with self._lock:
            if self._broken:
                raise WorkerCrashedError(
                    f"shard {self.shard_id} worker (pid {self.pid}) is down"
                )
            try:
                send_msg(self._sock, (op, payload))
                status, result = recv_msg(self._sock)
            except (OSError, EOFError) as exc:
                self._broken = True
                raise WorkerCrashedError(
                    f"shard {self.shard_id} worker (pid {self.pid}) died "
                    f"mid-operation: {exc}"
                ) from None
        if status == "error":
            raise result
        return result

    def close(self) -> None:
        self._broken = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


class LocalShard:
    """The in-process shard of a one-shard supervisor.

    Answers the same ops as :func:`run_worker` by calling
    :func:`_dispatch_op` on the caller's thread: no fork, no pickle, no
    socket and no scatter-thread hop.  ``state`` shares the
    coordinator's live pool, so the stream runtime's in-place pool
    updates reach the next link and the ``pool_delta`` op is a no-op.

    Each op runs under the coordinator's re-entrant engine lock — the
    one-op-at-a-time guarantee a worker's socket gives, and the lock
    every user of the shared engine takes.  A caller already holding it
    (a flush re-scoring standing queries through the scorer) re-enters
    it on its own thread.  Like a worker, the shard binds its own span
    and evidence sinks for the op.
    """

    broken = False

    def __init__(self, state, coordinator, spans: bool = True) -> None:
        self.shard_id = 0
        self.pid = os.getpid()
        self.state = state
        self._coordinator = coordinator
        self._sink = obs.MetricsSpanSink(state.metrics) if spans else None

    def call(self, op: str, payload: object = None) -> object:
        if op == "pool_delta":
            return None  # the shard already links the live pool
        with (
            self._coordinator.engine_lock,
            obs.use_sink(self._sink),
            obs.use_evidence_sink(self.state.evidence),
        ):
            if op == "swap_model":
                # Adopt the engine the coordinator swapped in, not a
                # copy rebuilt from the dicts, so the shard and the
                # stream runtime keep sharing one engine and its cache.
                self.state.adopt_engine(
                    self._coordinator.engine, payload.get("artifact_id")
                )
                return {
                    "shard": self.shard_id,
                    "pid": self.pid,
                    "model_artifact": payload.get("artifact_id"),
                }
            return _dispatch_op(self.state, self.shard_id, op, payload)

    def close(self) -> None:
        """Nothing to release: the shard lives in the coordinator."""


def merge_partials(
    partials: list[list[Candidate]],
    rank: dict[str, int],
    query_id: object,
    options: LinkOptions,
) -> LinkResult:
    """Merge per-shard partial rankings into the global result.

    ``rank`` maps each pool id to its first-seen rank (the
    coordinator's :attr:`ResidentPool.rank
    <repro.stream.pool.ResidentPool.rank>`); the merged order is
    ``(-score, rank)`` — exactly the single-process stable sort's order
    (see the module docstring) — truncated to ``top_k``.
    """
    merged: list[Candidate] = []
    for partial in partials:
        merged.extend(partial)
    merged.sort(key=lambda c: (-c.score, rank[str(c.candidate_id)]))
    if options.top_k is not None:
        merged = merged[: options.top_k]
    return LinkResult(
        query_id=query_id, method=options.method, candidates=tuple(merged)
    )
