"""Sharded serving: ring, partitioning, merge equivalence, prefork e2e.

The merge-equivalence property tests exercise the exact worker code
(:func:`shard_link_matches`) and coordinator merge
(:func:`merge_partials`) without forking; a real multi-worker
:class:`BackgroundServer` then covers the fork/scatter/respawn path
end to end, including a SIGKILLed worker.
"""

import os
import signal
import threading

import numpy as np
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
    partition_pool,
    plan_shards,
    reindexed,
    shard_link_matches,
    stable_hash,
)

RANKING = LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0)
CELL_M = 1000.0


@pytest.fixture(scope="module")
def engine(fitted_models):
    mr, ma = fitted_models
    return LinkEngine(mr, ma, options=RANKING)


@pytest.fixture(scope="module")
def pool(small_pair):
    return list(small_pair.q_db)


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
    def test_disjoint_covering_ascending(self, pool, n_shards):
        parts = partition_pool(pool, HashRing(n_shards), CELL_M)
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

    def test_reindexed_shares_arrays(self, pool):
        clone = reindexed(pool[0], 7)
        assert clone.traj_id == 7
        assert np.shares_memory(clone.ts, pool[0].ts)
        assert np.shares_memory(clone.xs, pool[0].xs)
        assert len(clone) == len(pool[0])


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

        plans = plan_shards(pool, HashRing(n_shards), CELL_M)
        units = [(query, options) for query in queries]
        partials = [
            shard_link_matches(engine, list(plan.local_pool), units, RANKING)
            for plan in plans
        ]
        pool_ids = [t.traj_id for t in pool]
        resolved = options if options is not None else RANKING
        merged = [
            merge_partials(
                [partial[j] for partial in partials],
                pool_ids,
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
        plans = plan_shards(pool, HashRing(4), CELL_M)
        partials = [
            shard_link_matches(
                engine, list(plan.local_pool), [(queries[0], options)], RANKING
            )[0]
            for plan in plans
        ]
        got = merge_partials(
            partials, [t.traj_id for t in pool], queries[0].traj_id, options
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
# Coordinator-side unit coverage (no fork): plan-drift detection and
# the bounded rehydration ledger.
# ----------------------------------------------------------------------
class TestPlanDriftDetection:
    def test_generation_only_change_flags_drift(self, engine, pool,
                                                tmp_path):
        # An eviction that only masks records mutates pool *content*
        # while the id list (and its order) stays identical; drift must
        # still be flagged via the store generation recorded at plan
        # time.
        from repro.service.state import ServiceState
        from repro.service.supervisor import ShardSupervisor
        from repro.store import TrajectoryStore

        store = TrajectoryStore.create(tmp_path / "drift-store", pool)
        state = ServiceState(
            engine=engine, pool=list(store.load()), options=RANKING,
            store=store,
        )
        sup = ShardSupervisor(state, 2)
        assert sup.plan_drift() is False
        # cutoff just past the earliest record: at least one record is
        # masked, and (checked below) no trajectory vanishes entirely,
        # so the id list is untouched.
        cutoff = min(float(t.ts[0]) for t in state.pool) + 1e-6
        assert all(float(t.ts[-1]) >= cutoff for t in state.pool)
        assert store.expire_before(cutoff) >= 1
        state.pool[:] = list(state.store.load())
        state.metrics.inc("pool_refreshes_total")
        assert [t.traj_id for t in state.pool] == sup._pool_ids
        assert sup.plan_drift() is True
        assert state.metrics.counter("shard_plan_drift_total") == 1
        # steady state: no repeat warning/counter while still stale
        assert sup.plan_drift() is True
        assert state.metrics.counter("shard_plan_drift_total") == 1


class TestSessionLedgerBounds:
    def _supervisor(self, engine, pool):
        from repro.service.state import ServiceState
        from repro.service.supervisor import ShardSupervisor

        state = ServiceState(engine=engine, pool=list(pool), options=RANKING)
        return ShardSupervisor(state, 2), state

    def test_eviction_cutoff_compacts_query_history(self, engine, pool):
        from repro.service.supervisor import _SessionEntry

        sup, _state = self._supervisor(engine, pool)
        entry = _SessionEntry("s", created_at=0.0, last_used_at=0.0)
        entry.query_history = [
            [[10.0, 0.0, 0.0], [50.0, 1.0, 1.0]],
            [[200.0, 2.0, 2.0]],
        ]
        entry.expire_before = 100.0
        sup._compact_ledger(entry)
        assert entry.query_history == [[[200.0, 2.0, 2.0]]]

    def test_record_cap_drops_oldest_and_counts(self, engine, pool,
                                                monkeypatch):
        import repro.service.supervisor as supervisor_mod
        from repro.service.supervisor import _SessionEntry

        monkeypatch.setattr(
            supervisor_mod, "MAX_QUERY_HISTORY_RECORDS", 5
        )
        sup, state = self._supervisor(engine, pool)
        entry = _SessionEntry("s", created_at=0.0, last_used_at=0.0)
        entry.query_history = [
            [[float(i), 0.0, 0.0] for i in range(4)],
            [[float(10 + i), 0.0, 0.0] for i in range(4)],
        ]
        sup._compact_ledger(entry)
        kept = [r for batch in entry.query_history for r in batch]
        assert len(kept) == 5
        # newest records survive, oldest were dropped
        assert kept == [[3.0, 0.0, 0.0]] + [
            [float(10 + i), 0.0, 0.0] for i in range(4)
        ]
        assert state.metrics.counter(
            "session_ledger_truncated_records_total"
        ) == 3


# ----------------------------------------------------------------------
# Streaming over a store-backed sharded daemon: frozen-plan drift
# detection and worker-session rehydration.  The single-process
# streaming surface is covered in tests/test_stream.py.
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

    def test_flush_updates_standing_query_and_flags_plan_drift(
        self, stream_sharded_server, fitted_models, small_pair
    ):
        server, store = stream_sharded_server
        mr, ma = fitted_models
        query = small_pair.p_db[sorted(small_pair.truth)[0]]
        with ServiceClient(*server.address, timeout_s=60) as c:
            assert "ftl_shard_plan_stale 0" in c.metrics_text()
            assert c.register_query(query, query_id="sq")["seq"] == 1
            near = self._near_records(query)
            got = c.ingest("drift", candidate_records={"cNew": near},
                           decide=False, flush=True)
            assert got["flushed_records"] == len(near)
            watched = c.watch("sq", since=1, wait_ms=5_000)
            assert watched["seq"] == 2
            [event] = watched["events"]
            assert "cNew" in event["changed"]
            # standing rankings are scored against the *refreshed* pool
            # (workers receive the trajectories on the wire), so they
            # stay bit-identical to a from-scratch single-process run
            # even though the frozen shard plan no longer matches.
            fresh = LinkEngine(mr, ma, options=RANKING).link_batch(
                [query], list(store.load())
            )[0]
            assert event["ranking"] == [
                cand.to_dict() for cand in fresh.candidates
            ]
            # ...and the drift is surfaced, not hidden: gauge flips to 1.
            assert "ftl_shard_plan_stale 1" in c.metrics_text()

    def test_killed_worker_rehydrates_flushed_sessions(
        self, stream_sharded_server, small_pair
    ):
        server, store = stream_sharded_server
        query = small_pair.p_db[sorted(small_pair.truth)[0]]
        near = self._near_records(query)
        shifted = [(t + 30.0, x + 40.0, y - 40.0) for t, x, y in near]
        with ServiceClient(*server.address, timeout_s=60) as c:
            first = c.ingest(
                "reh", query_records=near,
                candidate_records={"cA": near, "cB": shifted},
                decide=True, flush=True,
            )
            assert first["flushed_records"] == len(near) + len(shifted)
            before = {
                d["candidate_id"]: d for d in first["decisions"]
            }
            assert set(before) == {"cA", "cB"}

            workers = c.healthz()["workers"]
            os.kill(workers[0]["pid"], signal.SIGKILL)
            # The next ingest round-trip hits the dead pipe: the
            # supervisor respawns the worker and replays the session's
            # flushed segments from the store's append log.
            second = c.ingest("reh", decide=True)
            after = {
                d["candidate_id"]: d for d in second["decisions"]
            }
            # Rehydrated evidence is rebuilt from the persisted records,
            # so the decisions survive the crash bit-identically.
            assert after == before

            metrics = c.metrics()
            assert metrics["ftl_worker_rehydrated_sessions_total"] >= 1
            assert metrics["ftl_worker_restarts_total"] >= 1

            # Replayed records were already persisted: re-flushing the
            # session must append nothing (no double-observation).
            third = c.ingest("reh", decide=False, flush=True)
            assert third["flushed_records"] == 0
            assert c.healthz()["workers"][0]["pid"] != workers[0]["pid"]
