"""Sharded serving: ring, slices, merge equivalence, prefork e2e.

The merge-equivalence property tests exercise the exact worker code
(:func:`shard_link_matches`) over the supervisor's pool slices and the
coordinator merge (:func:`merge_partials`) without forking; a real
multi-worker :class:`BackgroundServer` then covers the
fork/scatter/respawn path end to end, including a SIGKILLed worker and
store flushes and evictions reaching the workers' live slices.
"""

import os
import signal
import threading

import pytest

from repro.core.engine import LinkEngine, LinkOptions, LinkRequest
from repro.core.trajectory import Trajectory
from repro.errors import ValidationError
from repro.obs import merge_histogram_snapshots
from repro.obs.prometheus import render_exposition, validate_exposition
from repro.service.client import ServiceClient
from repro.service.server import BackgroundServer, ServerConfig
from repro.service.shard import (
    HashRing,
    home_shard,
    merge_partials,
    shard_link_matches,
    stable_hash,
)
from repro.service.state import ServiceState
from repro.service.supervisor import ShardSupervisor

RANKING = LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0)
CELL_M = 1000.0


@pytest.fixture(scope="module")
def engine(fitted_models):
    mr, ma = fitted_models
    return LinkEngine(mr, ma, options=RANKING)


@pytest.fixture(scope="module")
def pool(small_pair):
    return list(small_pair.q_db)


def _supervisor(engine, pool, n_shards):
    """An unstarted supervisor over ``pool``: its owners and slices."""
    state = ServiceState(engine=engine, pool=list(pool), options=RANKING)
    return ShardSupervisor(state, n_shards, cell_size_m=CELL_M), state


@pytest.fixture(scope="module")
def queries(small_pair):
    ids = sorted(small_pair.truth)[:4]
    return [small_pair.p_db[qid] for qid in ids]


class TestHashRing:
    def test_deterministic_across_instances(self):
        a, b = HashRing(4), HashRing(4)
        keys = [f"cell:{i}" for i in range(200)]
        assert [a.shard_for(k) for k in keys] == [b.shard_for(k) for k in keys]

    def test_stable_hash_is_not_process_salted(self):
        # blake2b of the repr, not builtin hash(): same value every call.
        assert stable_hash("cell:42") == stable_hash("cell:42")
        assert stable_hash("cell:42") != stable_hash("cell:43")

    def test_all_shards_get_keys(self):
        ring = HashRing(4)
        owners = {ring.shard_for(f"cell:{i}") for i in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_single_shard_owns_everything(self):
        ring = HashRing(1)
        assert {ring.shard_for(f"k{i}") for i in range(50)} == {0}

    def test_resize_moves_few_keys(self):
        # Consistent hashing: going 4 -> 5 shards should relocate
        # roughly 1/5 of the keys, not reshuffle everything.
        keys = [f"cell:{i}" for i in range(1000)]
        four, five = HashRing(4), HashRing(5)
        moved = sum(
            1 for k in keys if four.shard_for(k) != five.shard_for(k)
        )
        assert moved < len(keys) // 2

    def test_validation(self):
        with pytest.raises(ValidationError):
            HashRing(0)
        with pytest.raises(ValidationError):
            HashRing(2, vnodes=0)


class TestPartitioning:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
    def test_disjoint_covering_ascending(self, engine, pool, n_shards):
        sup, state = _supervisor(engine, pool, n_shards)
        rank = state.resident.rank
        parts = [
            [rank[str(t.traj_id)] for t in sup.shard_pool(s).trajectories]
            for s in range(n_shards)
        ]
        assert len(parts) == n_shards
        flat = [i for part in parts for i in part]
        assert sorted(flat) == list(range(len(pool)))
        assert len(set(flat)) == len(flat)
        for part in parts:
            assert part == sorted(part)

    def test_colocated_trajectories_share_a_shard(self):
        # Same home cell (first record in the same 1 km grid cell)
        # => same shard, for every shard count.
        a = Trajectory([0.0], [123.0], [456.0], "a")
        b = Trajectory([9.0], [900.0], [10.0], "b")
        for n_shards in (2, 3, 4, 8):
            ring = HashRing(n_shards)
            assert home_shard(ring, a, CELL_M) == home_shard(ring, b, CELL_M)

    def test_slices_share_pool_entries(self, engine, pool):
        # A slice lists the coordinator's own entries under their real
        # ids: no copy of the record arrays, no re-identification.
        sup, state = _supervisor(engine, pool, 2)
        by_id = state.resident.by_id
        for s in range(2):
            for entry in sup.shard_pool(s).trajectories:
                assert entry is by_id[str(entry.traj_id)]


class TestLiveSlices:
    def test_slice_forked_mid_broadcast_skips_the_delta_it_holds(
        self, engine, pool
    ):
        # The coordinator merged a flush and a worker was re-forked from
        # the live pool before its pool_delta arrived: the retried op
        # carries a generation the new slice already holds, so the
        # records are not appended twice.
        from repro.service.shard import _dispatch_op

        sup, state = _supervisor(engine, pool, 2)
        old = pool[0]
        delta = Trajectory(old.ts + 1.0, old.xs, old.ys, old.traj_id)
        state.resident.merge([delta])
        owner = sup._owner(delta)
        forked = sup._worker_state(sup.shard_pool(owner))
        payload = {
            "generation": state.resident.generation,
            "deltas": [delta],
            "retain_after": 0.0,
        }
        _dispatch_op(forked, owner, "pool_delta", payload)
        owned = [t for t in state.pool if sup._owner(t) == owner]
        assert forked.pool == owned
        assert len(forked.resident.by_id[str(old.traj_id)]) == 2 * len(old)


class TestMergeEquivalence:
    """Scatter-gather == single-process ranking, bit for bit."""

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize(
        "options",
        [
            None,  # server defaults (alpha-filter, rank everything)
            LinkOptions(method="naive-bayes", phi_r=0.1),
            LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0, top_k=3),
            LinkOptions(method="naive-bayes", phi_r=0.1, top_k=3),
        ],
        ids=["default", "naive-bayes", "alpha-topk", "nb-topk"],
    )
    def test_merged_equals_single_process(
        self, engine, pool, queries, n_shards, options
    ):
        requests = [
            LinkRequest(query=query, options=options) for query in queries
        ]
        expected = engine.link_requests(
            requests, default_pool=pool, options=RANKING
        )

        sup, state = _supervisor(engine, pool, n_shards)
        units = [(query, options) for query in queries]
        partials = [
            shard_link_matches(
                engine, sup.shard_pool(s).trajectories, units, RANKING
            )
            for s in range(n_shards)
        ]
        resolved = options if options is not None else RANKING
        merged = [
            merge_partials(
                [partial[j] for partial in partials],
                state.resident.rank,
                query.traj_id,
                resolved,
            )
            for j, query in enumerate(queries)
        ]
        assert merged == expected  # bit-identical LinkResults

    def test_per_shard_topk_truncation_is_lossless(self, engine, pool, queries):
        # With top_k smaller than any shard slice, the merged top-k must
        # still equal the global top-k (the per-shard truncation cannot
        # evict a global winner).
        options = LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0,
                              top_k=2)
        expected = engine.link_requests(
            [LinkRequest(query=queries[0], options=options)],
            default_pool=pool,
            options=RANKING,
        )[0]
        sup, state = _supervisor(engine, pool, 4)
        partials = [
            shard_link_matches(
                engine,
                sup.shard_pool(s).trajectories,
                [(queries[0], options)],
                RANKING,
            )[0]
            for s in range(4)
        ]
        got = merge_partials(
            partials, state.resident.rank, queries[0].traj_id, options
        )
        assert got == expected
        assert len(got) <= 2


WORKER_SNAP = {
    "bounds": (0.1, 1.0),
    "counts": [1, 2, 0],  # raw per-bucket counts + overflow bucket
    "sum": 0.9,
    "count": 3,
    "max": 0.4,
}


class TestHistogramMerge:
    def test_sums_raw_counts(self):
        other = {"bounds": (0.1, 1.0), "counts": [4, 0, 1], "sum": 2.0,
                 "count": 5, "max": 1.7}
        merged = merge_histogram_snapshots([WORKER_SNAP, other])
        assert merged["counts"] == [5, 2, 1]
        assert merged["count"] == 8
        assert merged["sum"] == pytest.approx(2.9)
        assert merged["max"] == 1.7

    def test_mismatched_bounds_rejected(self):
        other = dict(WORKER_SNAP, bounds=(0.2, 1.0))
        with pytest.raises(ValueError, match="mismatched"):
            merge_histogram_snapshots([WORKER_SNAP, other])

    def test_zero_snapshots_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            merge_histogram_snapshots([])


class TestExpositionRegression:
    """The cross-worker aggregation bug ``validate_exposition`` guards.

    Summing worker documents that already carry *cumulative* ``le``
    buckets double-counts every observation below each bound; the
    resulting family has a bucket larger than ``+Inf``/``_count``.
    """

    def test_double_counted_cumulative_sum_is_flagged(self):
        # Each worker's cumulative buckets are [1, 3, +Inf=3]; the buggy
        # aggregate sums those cumulative values: [2, 6, +Inf=6].
        buggy = {"bounds": (0.1, 1.0), "counts": [2, 6, 6], "sum": 1.8,
                 "count": 6, "max": 0.4}
        text = render_exposition(
            {},
            {
                "latency": [
                    ({}, buggy),
                    ({"shard": "0"}, WORKER_SNAP),
                    ({"shard": "1"}, WORKER_SNAP),
                ]
            },
        )
        errors = validate_exposition(text)
        assert errors, "double-counted aggregate must not validate"
        assert any("not cumulative" in e for e in errors)
        # Checked per label signature: the per-shard series are clean,
        # only the unlabelled aggregate is broken.
        assert all("shard=" not in e for e in errors)

    def test_raw_merge_validates(self):
        merged = merge_histogram_snapshots([WORKER_SNAP, WORKER_SNAP])
        text = render_exposition(
            {"requests_total": [({}, 4), ({"shard": "0"}, 2)]},
            {
                "latency": [
                    ({}, merged),
                    ({"shard": "0"}, WORKER_SNAP),
                    ({"shard": "1"}, WORKER_SNAP),
                ]
            },
            {"worker_up": [({"shard": "0"}, 1.0), ({"shard": "1"}, 1.0)]},
        )
        assert validate_exposition(text) == []


# ----------------------------------------------------------------------
# Prefork end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sharded_server(engine, pool):
    config = ServerConfig(
        port=0, max_wait_ms=1.0, workers=3, session_ttl_s=3600.0
    )
    with BackgroundServer(engine, pool, config=config) as background:
        yield background


@pytest.fixture(scope="module")
def plain_server(engine, pool):
    config = ServerConfig(
        port=0, max_wait_ms=1.0, workers=1, session_ttl_s=3600.0
    )
    with BackgroundServer(engine, pool, config=config) as background:
        yield background


@pytest.fixture
def sharded_client(sharded_server):
    with ServiceClient(*sharded_server.address) as client:
        yield client


class TestShardedServer:
    def test_health_reports_worker_fleet(self, sharded_client, pool):
        envelope = sharded_client.request("GET", "/v1/healthz")
        assert envelope["shard_count"] == 3
        health = envelope["data"]
        workers = health["workers"]
        assert [w["shard"] for w in workers] == [0, 1, 2]
        assert all(w["alive"] for w in workers)
        assert sum(w["pool_size"] for w in workers) == len(pool)
        assert all(w["pid"] != os.getpid() for w in workers)

    def test_link_bit_identical_to_single_process(
        self, sharded_client, engine, pool, queries
    ):
        expected = engine.link_batch(queries, pool)
        got = [sharded_client.link(query) for query in queries]
        assert got == expected

    def test_link_envelope_carries_shard_provenance(
        self, sharded_client, pool, queries
    ):
        from repro.service.protocol import trajectory_to_wire

        envelope = sharded_client.link_raw(
            {"query": trajectory_to_wire(queries[0])}
        )
        assert envelope["api_version"] == "v1"
        assert envelope["shard_count"] == 3
        shards = envelope["shards"]
        assert sorted(s["shard"] for s in shards) == [0, 1, 2]
        assert sum(s["n_candidates"] for s in shards) == len(pool)
        for shard in shards:
            assert shard["elapsed_ms"] >= 0.0

    def test_explicit_candidates_run_on_coordinator(
        self, sharded_client, engine, pool, queries
    ):
        subset = pool[:5]
        expected = engine.link(queries[0], subset)
        assert sharded_client.link(queries[0], candidates=subset) == expected
        from repro.service.protocol import trajectory_to_wire

        envelope = sharded_client.link_raw(
            {
                "query": trajectory_to_wire(queries[0]),
                "candidates": [trajectory_to_wire(c) for c in subset],
            }
        )
        assert [s["shard"] for s in envelope["shards"]] == [-1]

    def test_sharded_ingest_matches_single_process(
        self, sharded_server, plain_server
    ):
        query = [(0.0, 100.0, 100.0), (120.0, 180.0, 140.0)]
        candidates = {
            "near": [(10.0, 110.0, 105.0), (130.0, 175.0, 150.0)],
            "far": [(15.0, 9000.0, 9000.0)],
            "late": [(400.0, 200.0, 160.0)],
        }
        with ServiceClient(*sharded_server.address) as sharded, \
                ServiceClient(*plain_server.address) as plain:
            got = sharded.ingest("eq", query, candidates, decide=True)
            expected = plain.ingest("eq", query, candidates, decide=True)
        assert got == expected

    def test_sharded_metrics_exposition_validates(self, sharded_client):
        sharded_client.healthz()
        text = sharded_client.metrics_text()
        assert validate_exposition(text) == []
        assert 'shard="0"' in text
        assert "ftl_worker_up" in text
        assert "ftl_shard_count 3" in text

    def test_worker_crash_respawns_and_keeps_serving(
        self, sharded_client, engine, pool, queries
    ):
        before = sharded_client.healthz()["workers"]
        victim = before[1]["pid"]
        os.kill(victim, signal.SIGKILL)

        # The very next scatter hits the dead pipe, respawns the worker
        # and retries: results stay bit-identical to single-process.
        expected = engine.link_batch(queries, pool)
        got = [sharded_client.link(query) for query in queries]
        assert got == expected

        after = sharded_client.healthz()["workers"]
        assert all(w["alive"] for w in after)
        assert after[1]["pid"] != victim
        assert sum(w["restarts"] for w in after) >= 1
        metrics = sharded_client.metrics()
        assert metrics["ftl_worker_restarts_total"] >= 1


class TestShardedAssign:
    def test_assign_equals_library_and_ships_only_edge_capable_pairs(
        self, engine, pool, queries
    ):
        """``/v1/assign`` on a 2-worker daemon equals ``build_cost_graph``
        plus ``solve`` at ``min_score`` 0, 1e-12, 1e-6 and some pair's
        exact ``p1``, and the shards' ``n_matched`` counts only pairs
        with ``p1 >= min_score`` (and ``p2 < alpha2``)."""
        import json

        from repro.assign import build_cost_graph, solve
        from repro.service.protocol import trajectory_to_wire

        evidence = engine.evidence(queries, pool)
        interior = sorted(
            {float(v) for ev in evidence for v in ev.p1 if 0.0 < v < 1.0}
        )
        body = {"queries": [trajectory_to_wire(q) for q in queries]}
        config = ServerConfig(port=0, max_wait_ms=1.0, workers=2)
        with BackgroundServer(engine, pool, config=config) as background, \
                ServiceClient(*background.address) as c:
            for min_score in (0.0, 1e-12, 1e-6, interior[len(interior) // 2]):
                graph = build_cost_graph(
                    engine, queries, pool, min_score=min_score
                )
                local = solve(graph, backend="auto")
                expected = local.to_dict()
                expected["unassigned"] = local.unassigned(graph.query_ids)
                expected["density"] = graph.density
                envelope = c.assign_raw({**body, "min_score": min_score})
                assert envelope["data"] == json.loads(json.dumps(expected))
                capable = sum(
                    int(((ev.p1 >= min_score) & (ev.p2 < 1.0)).sum())
                    for ev in evidence
                )
                assert [s["shard"] for s in envelope["shards"]] == [0, 1]
                assert sum(s["n_matched"] for s in envelope["shards"]) == capable


class _OwnerLock:
    """A re-entrant lock that knows which thread holds it."""

    def __init__(self):
        self._lock = threading.RLock()
        self._owner = None
        self._depth = 0

    def __enter__(self):
        self._lock.acquire()
        self._owner = threading.get_ident()
        self._depth += 1
        return self

    def __exit__(self, *exc_info):
        self._depth -= 1
        if self._depth == 0:
            self._owner = None
        self._lock.release()

    def held_here(self) -> bool:
        return self._owner == threading.get_ident()


class TestCoordinatorEngineLock:
    """Coordinator-local scoring shares the daemon's engine (and its
    profile cache) with standing-query registration and the stream
    runtime, so it must run under the daemon's engine lock."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_local_scoring_holds_engine_lock(
        self, engine, pool, queries, workers, monkeypatch
    ):
        config = ServerConfig(port=0, workers=workers, max_wait_ms=1.0)
        with BackgroundServer(engine, pool, config=config) as background:
            # Instrument after start: forked workers keep the plain
            # engine, only the coordinator's is checked.
            lock = _OwnerLock()
            monkeypatch.setattr(
                background.server.state, "engine_lock", lock, raising=False
            )
            held: list[bool] = []
            link_requests = engine.link_requests

            def checked(*args, **kwargs):
                held.append(lock.held_here())
                return link_requests(*args, **kwargs)

            monkeypatch.setattr(engine, "link_requests", checked)
            with ServiceClient(*background.address) as c:
                own = c.link(queries[0], candidates=pool[:20])
                served = c.link(queries[0])
        assert held and all(held), held
        assert own == engine.link_batch(queries[:1], pool[:20])[0]
        assert served == engine.link_batch(queries[:1], pool)[0]


# ----------------------------------------------------------------------
# Streaming over a store-backed sharded daemon: live worker slices.  The
# single-process streaming surface is covered in tests/test_stream.py.
# ----------------------------------------------------------------------
@pytest.fixture()
def stream_sharded_server(engine, pool, tmp_path):
    from repro.store import TrajectoryStore

    store = TrajectoryStore.create(tmp_path / "shard-store", pool)
    shared = list(store.load())
    config = ServerConfig(
        port=0, max_wait_ms=1.0, workers=2, session_ttl_s=3600.0
    )
    with BackgroundServer(engine, shared, config=config,
                          store=store) as background:
        yield background, store


class TestShardedStreaming:
    @staticmethod
    def _near_records(query, n=4):
        return [
            (float(t), float(x), float(y))
            for t, x, y in zip(query.ts[:n], query.xs[:n], query.ys[:n])
        ]

    def test_flush_and_evict_reach_the_worker_slices(
        self, stream_sharded_server, fitted_models, small_pair
    ):
        """Forked workers link the live pool: after a flush of a new
        candidate, a flush onto an existing id and an eviction,
        ``/v1/link``, ``/v1/assign`` and a standing query all equal a
        fresh engine over ``store.load()``, and the shards'
        ``n_candidates`` sum to the pool size.  A worker SIGKILLed after
        a flush is re-forked with the flushed records in its slice."""
        from repro.assign import build_cost_graph, solve
        from repro.service.protocol import trajectory_to_wire

        server, store = stream_sharded_server
        mr, ma = fitted_models
        queries = [
            small_pair.p_db[qid] for qid in sorted(small_pair.truth)[:3]
        ]
        query = queries[0]

        def check(c, where):
            current = list(store.load())
            fresh = LinkEngine(mr, ma, options=RANKING)
            expected = fresh.link_batch(queries, current)
            assert [c.link(q) for q in queries] == expected, where
            envelope = c.link_raw({"query": trajectory_to_wire(query)})
            assert sum(
                s["n_candidates"] for s in envelope["shards"]
            ) == len(current), where
            assert sum(
                w["pool_size"] for w in c.healthz()["workers"]
            ) == len(current), where
            local = solve(
                build_cost_graph(fresh, queries, current, options=RANKING),
                backend="auto",
            )
            data = c.assign(queries)
            assert {
                m["query_id"]: (m["candidate_id"], m["score"])
                for m in data["matches"]
            } == {
                qid: (cid, local.scores[qid])
                for qid, cid in dict(local.pairs).items()
            }, where
            return expected[0]

        def ids(result):
            return [str(cand.candidate_id) for cand in result.candidates]

        t_lo = float(query.ts[0])
        t_hi = float(query.ts[-1])
        cutoff = t_lo + (t_hi - t_lo) / 4.0
        late = [i for i in range(len(query)) if query.ts[i] >= cutoff]
        existing = str(next(t.traj_id for t in store.load()))
        with ServiceClient(*server.address, timeout_s=60) as c:
            check(c, "startup")
            assert c.register_query(query, query_id="sq")["seq"] == 1

            near = self._near_records(query)
            got = c.ingest("live", candidate_records={"cNew": near},
                           decide=False, flush=True)
            assert got["flushed_records"] == len(near)
            assert "cNew" in ids(check(c, "new candidate"))
            [event] = c.watch("sq", since=1, wait_ms=5_000)["events"]
            assert "cNew" in event["changed"]
            fresh = LinkEngine(mr, ma, options=RANKING).link_batch(
                [query], list(store.load())
            )[0]
            assert event["ranking"] == [
                cand.to_dict() for cand in fresh.candidates
            ]

            onto = [
                (float(query.ts[i]) + 20.0, float(query.xs[i]),
                 float(query.ys[i]))
                for i in late[:3]
            ]
            c.ingest("live", candidate_records={existing: onto},
                     decide=False, flush=True)
            assert existing in ids(check(c, "flush onto an existing id"))

            c.ingest("live", expire_before=cutoff, decide=False)
            assert min(float(t.ts[0]) for t in store.load()) >= cutoff
            check(c, "eviction")

            kill = [
                (float(query.ts[i]), float(query.xs[i]) + 10.0,
                 float(query.ys[i]))
                for i in late[:4]
            ]
            c.ingest("live", candidate_records={"cKill": kill},
                     decide=False, flush=True)
            owner = server.server._supervisor._owners["cKill"]
            victim = c.healthz()["workers"][owner]
            os.kill(victim["pid"], signal.SIGKILL)
            assert "cKill" in ids(check(c, "respawned owner"))
            after = c.healthz()["workers"][owner]
            assert after["pid"] != victim["pid"] and after["alive"]
            assert c.metrics()["ftl_worker_restarts_total"] >= 1

    def test_link_scatters_never_see_half_a_flush(
        self, stream_sharded_server, fitted_models, small_pair, monkeypatch
    ):
        """Links racing flushes whose deltas land on both workers: each
        ranking equals a fresh engine over the pool before or after
        some flush, never one worker's slice updated and not the
        other's.  Worker 1's delta is sent 50 ms after worker 0's, so a
        scatter not serialised against the broadcast would see the mix.
        More client threads than cores, short switch interval."""
        import sys
        import time

        from repro.config import FTLConfig
        from repro.service.shard import ShardHandle

        call = ShardHandle.call

        def late_on_one(handle, op, payload=None):
            if op == "pool_delta" and handle.shard_id == 1:
                time.sleep(0.05)
            return call(handle, op, payload)

        monkeypatch.setattr(ShardHandle, "call", late_on_one)
        server, store = stream_sharded_server
        mr, ma = fitted_models
        query = small_pair.p_db[sorted(small_pair.truth)[0]]
        ring, cell = HashRing(2), FTLConfig().shard_cell_size_m

        def placed(traj_id, shard):
            # The query's records shifted east until the home cell
            # falls on ``shard``.
            for dx in range(0, 200_000, 1_000):
                traj = Trajectory(query.ts, query.xs + dx, query.ys, traj_id)
                if home_shard(ring, traj, cell) == shard:
                    return traj
            raise AssertionError("no home cell on that shard")

        states = [list(store.load())]
        results = []
        stop = threading.Event()

        def linker():
            with ServiceClient(*server.address, timeout_s=60) as c:
                while not stop.is_set():
                    results.append(c.link(query))

        threads = [threading.Thread(target=linker) for _ in range(4)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            with ServiceClient(*server.address, timeout_s=60) as c:
                for i in range(4):
                    flush = {
                        f"{side}{i}": [
                            (float(t), float(x), float(y))
                            for t, x, y in zip(traj.ts, traj.xs, traj.ys)
                        ]
                        for side, traj in (
                            ("a", placed(f"a{i}", 0)),
                            ("b", placed(f"b{i}", 1)),
                        )
                    }
                    c.ingest("race", candidate_records=flush, decide=False,
                             flush=True)
                    states.append(list(store.load()))
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert results
        owners = server.server._supervisor._owners
        assert {owners[f"a{i}"] for i in range(4)} == {0}
        assert {owners[f"b{i}"] for i in range(4)} == {1}
        fresh = LinkEngine(mr, ma, options=RANKING)
        allowed = [fresh.link_batch([query], pool)[0] for pool in states]
        assert all(result in allowed for result in results)


@pytest.fixture(params=["no-store", "store"])
def session_server(request, engine, pool, tmp_path):
    """A 2-worker daemon, with and without a store behind its pool."""
    from repro.store import TrajectoryStore

    store, serving = None, pool
    if request.param == "store":
        store = TrajectoryStore.create(tmp_path / "session-store", pool)
        serving = list(store.load())
    config = ServerConfig(
        port=0, max_wait_ms=1.0, workers=2, session_ttl_s=3600.0
    )
    with BackgroundServer(engine, serving, config=config,
                          store=store) as background:
        yield background, store


class TestShardedSessions:
    def test_killed_workers_lose_no_session_evidence(
        self, session_server, small_pair
    ):
        """Ingest sessions live on the coordinator: SIGKILLing each
        worker in turn leaves an unflushed session's decisions as they
        were, and a store-backed flush then persists every ingested
        candidate record exactly once."""
        server, store = session_server
        query = small_pair.p_db[sorted(small_pair.truth)[0]]
        near = [
            (float(t), float(x), float(y))
            for t, x, y in zip(query.ts[:6], query.xs[:6], query.ys[:6])
        ]
        candidates = {
            f"c{k}": [
                (t + 5.0 * k, x + 20.0 * k, y - 10.0 * k)
                for t, x, y in near
            ]
            for k in range(8)
        }
        # Ids that routing by id hash spreads over both workers.
        ring = HashRing(2)
        assert {ring.shard_for(f"id:{cid}") for cid in candidates} == {0, 1}
        with ServiceClient(*server.address, timeout_s=60) as c:
            first = c.ingest("crash", query_records=near,
                             candidate_records=candidates, decide=True)
            decisions = first["decisions"]
            assert [d["candidate_id"] for d in decisions] == list(candidates)
            health = c.healthz()
            assert health["sessions"] == 1
            assert not any("sessions" in w for w in health["workers"])
            assert c.metrics()["ftl_sessions"] == 1
            for shard in (0, 1):
                victim = c.healthz()["workers"][shard]
                os.kill(victim["pid"], signal.SIGKILL)
                again = c.ingest("crash", decide=True)
                assert again["decisions"] == decisions, shard
                after = c.healthz()["workers"][shard]
                assert after["pid"] != victim["pid"] and after["alive"]
            assert c.metrics()["ftl_worker_restarts_total"] >= 2
            if store is not None:
                flushed = c.ingest("crash", decide=False, flush=True)
                assert flushed["flushed_records"] == sum(
                    len(records) for records in candidates.values()
                )
                again = c.ingest("crash", decide=False, flush=True)
                assert again["flushed_records"] == 0
