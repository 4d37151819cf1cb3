"""The linking daemon: batching, endpoints, sessions, drain, bench smoke.

A real :class:`BackgroundServer` on an ephemeral port backs the HTTP
tests; the micro-batcher and session-TTL state machines are additionally
unit-tested without sockets (deterministic clocks, no sleeps).
"""

import http.client
import json
import logging
import math
import threading
import time

import pytest

from repro.core.engine import LinkEngine, LinkOptions
from repro.core.records import Record
from repro.core.streaming import SOURCE_P, SOURCE_Q, StreamingPairEvidence
from repro.core.trajectory import Trajectory
from repro.errors import (
    DeadlineExceededError,
    RemoteServiceError,
    ServiceOverloadedError,
    ValidationError,
)
from repro.obs.prometheus import validate_exposition
from repro.service.batcher import MicroBatcher
from repro.service.client import ServiceClient
from repro.service.protocol import IngestWireRequest
from repro.service.server import BackgroundServer, LinkServer, ServerConfig
from repro.service.state import Metrics, ServiceState

RANKING = LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0)


def assert_matches_batch_nb(decision, mr, ma, query, candidate, phi_r):
    """``decision`` equals the batch engine's Naive-Bayes view of the pair."""
    [evidence] = LinkEngine(mr, ma).evidence([query], [candidate])
    ratio = evidence.llr[0] + math.log(phi_r) - math.log(1.0 - phi_r)
    assert decision["same_person"] == evidence.naive_bayes_mask(phi_r)[0]
    assert decision["n_mutual"] == evidence.n_mutual[0]
    assert decision["n_incompatible"] == evidence.n_incompatible[0]
    assert decision["log_posterior_ratio"] == pytest.approx(ratio)


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


@pytest.fixture(scope="module")
def server(engine, pool):
    config = ServerConfig(port=0, max_wait_ms=1.0, session_ttl_s=3600.0)
    with BackgroundServer(engine, pool, config=config) as background:
        yield background


@pytest.fixture
def client(server):
    with ServiceClient(*server.address) as service_client:
        yield service_client


def _post_raw(address, path, raw: bytes, content_length: int | None = None):
    """POST arbitrary bytes, returning (status, parsed_body, raw_text)."""
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        length = len(raw) if content_length is None else content_length
        conn.putrequest("POST", path)
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(length))
        conn.endheaders()
        conn.send(raw)
        response = conn.getresponse()
        text = response.read().decode("utf-8")
        return response.status, json.loads(text), text
    finally:
        conn.close()


class TestHealthAndMetrics:
    def test_healthz(self, client, pool):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["pool_size"] == len(pool)
        assert health["uptime_s"] >= 0.0

    def test_metrics_shape(self, client):
        client.healthz()
        metrics = client.metrics()
        assert metrics["ftl_requests_total"] >= 1
        assert metrics["ftl_request_healthz_seconds_count"] >= 1
        assert metrics["ftl_queue_depth"] == 0

    def test_wrong_method_is_structured_405(self, client):
        with pytest.raises(RemoteServiceError) as exc:
            client.request("POST", "/v1/healthz", {"x": 1})
        assert exc.value.status == 405
        assert exc.value.payload["error"]["type"] == "MethodNotAllowed"

    def test_unknown_endpoint_is_structured_404(self, client):
        with pytest.raises(RemoteServiceError) as exc:
            client.request("GET", "/linkz")
        assert exc.value.status == 404
        assert exc.value.payload["error"]["type"] == "NotFound"

    def test_unknown_paths_share_one_metric_family(self, client):
        def families():
            text = client.metrics_text()
            assert validate_exposition(text) == []
            return {
                line.split()[2]
                for line in text.splitlines()
                if line.startswith("# TYPE ")
            }

        before = families()
        for i in range(200):
            with pytest.raises(RemoteServiceError) as exc:
                client.request("GET", f"/v1/probe{i}")
            assert exc.value.status == 404
        added = families() - before
        assert added <= {"ftl_request_unknown_seconds"}


class TestLinkEndpoint:
    def test_bit_identical_to_link_batch_resident_pool(
        self, client, engine, pool, queries
    ):
        expected = engine.link_batch(queries, pool)
        got = [client.link(query) for query in queries]
        assert got == expected

    def test_bit_identical_with_explicit_candidates(
        self, client, engine, pool, queries
    ):
        subset = pool[:7]
        expected = engine.link(queries[0], subset)
        assert client.link(queries[0], candidates=subset) == expected

    def test_per_request_options_override(self, client, engine, pool, queries):
        options = LinkOptions(method="naive-bayes", phi_r=0.2, top_k=3)
        expected = engine.link(queries[0], pool, options)
        got = client.link(queries[0], options=options)
        assert got == expected
        assert got.method == "naive-bayes"
        assert len(got) <= 3

    def test_unknown_option_key_is_400(self, client, queries):
        from repro.service.protocol import trajectory_to_wire

        with pytest.raises(RemoteServiceError) as exc:
            client.link_raw(
                {
                    "query": trajectory_to_wire(queries[0]),
                    "options": {"phir": 0.2},
                }
            )
        assert exc.value.status == 400
        assert exc.value.payload["error"]["type"] == "ProtocolError"

    def test_unknown_method_value_is_400(self, client, queries):
        from repro.service.protocol import trajectory_to_wire

        with pytest.raises(RemoteServiceError) as exc:
            client.link_raw(
                {
                    "query": trajectory_to_wire(queries[0]),
                    "options": {"method": "kmeans"},
                }
            )
        assert exc.value.status == 400
        assert exc.value.payload["error"]["type"] == "ValidationError"
        assert "unknown method" in exc.value.payload["error"]["message"]

    def test_malformed_json_is_structured_400(self, server):
        status, body, text = _post_raw(
            server.address, "/v1/link", b'{"query": '
        )
        assert status == 400
        assert body["error"]["type"] == "ProtocolError"
        assert "Traceback" not in text

    def test_concurrent_requests_all_bit_identical(
        self, server, engine, pool, queries
    ):
        expected = engine.link_batch(queries, pool)
        n_threads = 8
        results: list[object] = [None] * n_threads
        barrier = threading.Barrier(n_threads)

        def worker(tid: int) -> None:
            with ServiceClient(*server.address) as c:
                barrier.wait()
                results[tid] = c.link(queries[tid % len(queries)])

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        for tid in range(n_threads):
            assert results[tid] == expected[tid % len(queries)]


class TestAssignEndpoint:
    def test_matches_local_library_assignment(
        self, client, engine, pool, queries
    ):
        """/v1/assign == build_cost_graph + solve over the same pool.

        The CLI path (`ftl assign`) goes through exactly this library
        pipeline, so this also pins CLI/service matching identity.
        """
        from repro.assign import build_cost_graph, solve

        local = solve(
            build_cost_graph(engine, queries, pool, options=RANKING),
            backend="auto",
        )
        data = client.assign(queries)
        assert {
            m["query_id"]: m["candidate_id"] for m in data["matches"]
        } == dict(local.pairs)
        assert {
            m["query_id"]: m["score"] for m in data["matches"]
        } == dict(local.scores)
        assert data["total_score"] == local.total_score
        assert data["solver"] == local.backend
        assert data["n_components"] == local.n_components
        assert data["n_edges"] == local.n_edges
        assert sorted(data["unassigned"]) == sorted(
            local.unassigned([q.traj_id for q in queries])
        )

    def test_solver_override(self, client, engine, pool, queries):
        from repro.assign import build_cost_graph, solve

        local = solve(
            build_cost_graph(engine, queries, pool, options=RANKING),
            backend="greedy",
        )
        data = client.assign(queries, solver="greedy")
        assert data["solver"] == "greedy"
        assert {
            m["query_id"]: m["candidate_id"] for m in data["matches"]
        } == dict(local.pairs)

    def test_min_score_prunes_edges(self, client, queries):
        loose = client.assign(queries, min_score=1e-6)
        tight = client.assign(queries, min_score=0.9)
        assert tight["n_edges"] <= loose["n_edges"]

    def test_unknown_solver_is_400(self, client, queries):
        from repro.errors import RemoteServiceError
        from repro.service.protocol import trajectory_to_wire

        with pytest.raises(RemoteServiceError) as exc:
            client.assign_raw(
                {
                    "queries": [trajectory_to_wire(queries[0])],
                    "solver": "simplex",
                }
            )
        assert exc.value.status == 400

    def test_empty_queries_is_400(self, client):
        from repro.errors import RemoteServiceError

        with pytest.raises(RemoteServiceError) as exc:
            client.assign_raw({"queries": []})
        assert exc.value.status == 400

    def test_duplicate_query_ids_is_400(self, client, queries):
        from repro.errors import RemoteServiceError
        from repro.service.protocol import trajectory_to_wire

        with pytest.raises(RemoteServiceError) as exc:
            client.assign_raw(
                {"queries": [trajectory_to_wire(queries[0])] * 2}
            )
        assert exc.value.status == 400


class TestBodyLimit:
    def test_oversized_body_is_structured_413(self, engine, pool):
        config = ServerConfig(port=0, max_body_bytes=256)
        with BackgroundServer(engine, pool, config=config) as background:
            status, body, text = _post_raw(
                background.address, "/v1/link", b"{" + b" " * 512 + b"}"
            )
        assert status == 413
        assert body["error"]["type"] == "PayloadTooLargeError"
        assert "Traceback" not in text


class _Barrier:
    """A runner that blocks until released, recording batch sizes."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.batch_sizes: list[int] = []

    def __call__(self, payloads):
        self.started.set()
        assert self.release.wait(timeout=30)
        self.batch_sizes.append(len(payloads))
        return [f"done-{p}" for p in payloads]


class TestMicroBatcher:
    def _run(self, coro):
        import asyncio

        return asyncio.run(coro)

    def test_coalesces_concurrent_submissions(self):
        import asyncio

        sizes = []

        def runner(payloads):
            sizes.append(len(payloads))
            return [p * 2 for p in payloads]

        async def main():
            batcher = MicroBatcher(runner, max_batch_size=8, max_wait_ms=200.0)
            await batcher.start()
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(8))
            )
            await batcher.stop()
            return results

        assert self._run(main()) == [i * 2 for i in range(8)]
        # All eight were waiting before the first dispatch, so they
        # coalesced into few batches; the first one holds most of them.
        assert sum(sizes) == 8
        assert max(sizes) >= 2

    def test_max_batch_size_is_respected(self):
        import asyncio

        sizes = []

        def runner(payloads):
            sizes.append(len(payloads))
            return payloads

        async def main():
            batcher = MicroBatcher(runner, max_batch_size=3, max_wait_ms=200.0)
            await batcher.start()
            await asyncio.gather(*(batcher.submit(i) for i in range(10)))
            await batcher.stop()

        self._run(main())
        assert sum(sizes) == 10
        assert max(sizes) <= 3

    def test_queue_overflow_is_503(self):
        import asyncio

        blocker = _Barrier()

        async def main():
            batcher = MicroBatcher(
                blocker, max_batch_size=1, max_wait_ms=0.0, queue_limit=2
            )
            await batcher.start()
            first = asyncio.ensure_future(batcher.submit("a"))
            await asyncio.to_thread(blocker.started.wait, 30)
            # The runner is blocked; fill the queue behind it.
            queued = [
                asyncio.ensure_future(batcher.submit(x)) for x in ("b", "c")
            ]
            await asyncio.sleep(0)
            with pytest.raises(ServiceOverloadedError, match="queue is full"):
                await batcher.submit("d")
            blocker.release.set()
            results = await asyncio.gather(first, *queued)
            await batcher.stop()
            return results

        assert self._run(main()) == ["done-a", "done-b", "done-c"]

    def test_expired_deadline_is_504_without_engine_time(self):
        import asyncio

        blocker = _Barrier()

        async def main():
            batcher = MicroBatcher(blocker, max_batch_size=1, max_wait_ms=0.0)
            await batcher.start()
            first = asyncio.ensure_future(batcher.submit("a"))
            await asyncio.to_thread(blocker.started.wait, 30)
            late = asyncio.ensure_future(batcher.submit("b", timeout_ms=10.0))
            await asyncio.sleep(0.05)  # deadline passes while queued
            blocker.release.set()
            with pytest.raises(DeadlineExceededError):
                await late
            result = await first
            await batcher.stop()
            return result

        assert self._run(main()) == "done-a"
        # "b" never reached the runner.
        assert blocker.batch_sizes == [1]

    def test_drain_finishes_queued_work_then_refuses(self):
        import asyncio

        def runner(payloads):
            return payloads

        async def main():
            batcher = MicroBatcher(runner, max_batch_size=4, max_wait_ms=50.0)
            await batcher.start()
            pending = [asyncio.ensure_future(batcher.submit(i)) for i in range(6)]
            await asyncio.sleep(0)  # let the submits enqueue
            await batcher.stop()
            results = await asyncio.gather(*pending)
            with pytest.raises(ServiceOverloadedError, match="draining"):
                await batcher.submit("late")
            return results

        assert self._run(main()) == list(range(6))

    def test_runner_exception_propagates_without_killing_scheduler(self):
        import asyncio

        calls = []

        def runner(payloads):
            calls.append(list(payloads))
            if len(calls) == 1:
                raise RuntimeError("boom")
            return payloads

        async def main():
            batcher = MicroBatcher(runner, max_batch_size=1, max_wait_ms=0.0)
            await batcher.start()
            with pytest.raises(RuntimeError, match="boom"):
                await batcher.submit("a")
            result = await batcher.submit("b")
            await batcher.stop()
            return result

        assert self._run(main()) == "b"

    def test_validates_parameters(self):
        with pytest.raises(ValidationError):
            MicroBatcher(lambda p: p, max_batch_size=0)
        with pytest.raises(ValidationError):
            MicroBatcher(lambda p: p, max_wait_ms=-1)
        with pytest.raises(ValidationError):
            MicroBatcher(lambda p: p, queue_limit=0)


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def _session_records(base_t: float = 0.0):
    """A tiny deterministic (query, candidate) record set."""
    query = [(base_t + 60.0 * i, 100.0 * i, 50.0 * i) for i in range(6)]
    cand = [(base_t + 30.0 + 60.0 * i, 100.0 * i + 40.0, 50.0 * i + 20.0)
            for i in range(6)]
    return query, cand


def _ingest(session: str, query, candidates) -> IngestWireRequest:
    return IngestWireRequest(
        session=session,
        query_records=query,
        candidate_records=candidates,
        expire_before=None,
        decide=False,
        flush=False,
    )


class TestIngestSessions:
    def test_ingest_decisions_match_batch_matcher(self, client, fitted_models):
        mr, ma = fitted_models
        query, cand = _session_records()
        response = client.ingest(
            "match-batch", query_records=query,
            candidate_records={"c1": cand},
        )
        assert response["n_candidates"] == 1
        (decision,) = response["decisions"]

        # The session linker inherits the server options' phi_r (0.01).
        q_traj = Trajectory([r[0] for r in query], [r[1] for r in query],
                            [r[2] for r in query], "q")
        c_traj = Trajectory([r[0] for r in cand], [r[1] for r in cand],
                            [r[2] for r in cand], "c1")
        assert_matches_batch_nb(decision, mr, ma, q_traj, c_traj, RANKING.phi_r)

    def test_sessions_accumulate_and_report(self, client):
        query, cand = _session_records()
        first = client.ingest("acc", query_records=query[:3],
                              candidate_records={"c1": cand[:3]})
        second = client.ingest("acc", query_records=query[3:],
                               candidate_records={"c1": cand[3:]})
        assert first["n_query_records"] == 3
        assert second["n_query_records"] == 6
        assert second["n_records_ingested"] == 12

    def test_concurrent_ingest_into_one_session_loses_nothing(
        self, engine, pool
    ):
        """Ingest handlers run on executor threads: concurrent requests
        into one new session must lose no records and no candidates."""
        import sys

        n_threads, rounds, sessions = 8, 100, ("s0", "s1", "s2", "s3")
        state = ServiceState(
            engine=engine, pool=pool, options=LinkOptions(),
            session_ttl_s=3600.0,
        )

        def worker(tid: int, session: str, barrier) -> None:
            barrier.wait()
            for r in range(rounds):
                state.serve_ingest(_ingest(session, [], {
                    f"c{tid}-{r}": [(float(r), 0.0, 0.0)],
                }))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for session in sessions:
                barrier = threading.Barrier(n_threads)
                threads = [
                    threading.Thread(
                        target=worker, args=(tid, session, barrier)
                    )
                    for tid in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(switch)
        for session in sessions:
            entry = state.sessions[session]
            assert entry.n_records == n_threads * rounds
            assert entry.linker.n_candidates == n_threads * rounds

    def test_record_level_expiry_over_http(self, client, fitted_models):
        mr, ma = fitted_models
        query, cand = _session_records()
        client.ingest("retention", query_records=query,
                      candidate_records={"c1": cand}, decide=False)
        response = client.ingest("retention", expire_before=200.0)
        # Records before t=200 are gone from the session's evidence.
        evidence = StreamingPairEvidence(mr.config)
        for t, x, y in query:
            if t >= 200.0:
                evidence.insert(Record(t, x, y), SOURCE_P)
        for t, x, y in cand:
            if t >= 200.0:
                evidence.insert(Record(t, x, y), SOURCE_Q)
        (decision,) = response["decisions"]
        assert decision["n_mutual"] == evidence.n_mutual
        assert decision["n_incompatible"] == evidence.n_incompatible

    def test_idle_ttl_expiry_equals_fresh_batch_decision(
        self, engine, pool, fitted_models
    ):
        """After TTL expiry a reused session id starts from zero evidence:
        its decision equals a fresh batch-path decision on only the new
        records."""
        mr, ma = fitted_models
        clock = FakeClock()
        state = ServiceState(
            engine=engine, pool=pool, options=LinkOptions(phi_r=0.05),
            session_ttl_s=100.0, clock=clock,
        )
        old_query, old_cand = _session_records(base_t=0.0)
        state.ingest("case", old_query, {"c1": old_cand})
        assert state.sessions["case"].linker.n_query_records == 6

        clock.advance(101.0)
        expired = state.expire_idle_sessions()
        assert expired == ["case"]
        assert "case" not in state.sessions

        new_query, new_cand = _session_records(base_t=10_000.0)
        entry = state.ingest("case", new_query, {"c1": new_cand})
        decision = entry.linker.decision("c1")
        assert entry.linker.n_query_records == len(new_query)

        q_traj = Trajectory([r[0] for r in new_query],
                            [r[1] for r in new_query],
                            [r[2] for r in new_query], "q")
        c_traj = Trajectory([r[0] for r in new_cand],
                            [r[1] for r in new_cand],
                            [r[2] for r in new_cand], "c1")
        assert_matches_batch_nb(
            vars(decision), mr, ma, q_traj, c_traj, phi_r=0.05
        )
        assert state.metrics.counter("sessions_expired_total") == 1

    def test_touch_refreshes_ttl(self, engine, pool):
        clock = FakeClock()
        state = ServiceState(
            engine=engine, pool=pool, options=LinkOptions(),
            session_ttl_s=100.0, clock=clock,
        )
        state.ingest("alive", [(0.0, 0.0, 0.0)], {})
        clock.advance(60.0)
        state.ingest("alive", [(60.0, 5.0, 5.0)], {})  # touch
        clock.advance(60.0)
        assert state.expire_idle_sessions() == []
        assert state.sessions["alive"].linker.n_query_records == 2
        clock.advance(101.0)
        assert state.expire_idle_sessions() == ["alive"]


class TestGracefulDrain:
    def test_stop_completes_inflight_requests(self, engine, pool, queries):
        config = ServerConfig(port=0, max_wait_ms=20.0, max_batch_size=4)
        background = BackgroundServer(engine, pool, config=config).start()
        expected = engine.link_batch(queries[:1], pool)[0]
        results: list[object] = []

        def worker() -> None:
            with ServiceClient(*background.address, timeout_s=60) as c:
                try:
                    results.append(c.link(queries[0]))
                except RemoteServiceError as exc:
                    results.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.01)
        background.stop()  # graceful drain
        for t in threads:
            t.join(timeout=60)
        assert len(results) == 4
        for result in results:
            # Each request either completed exactly (drain) or was
            # refused with structured backpressure -- never dropped.
            if isinstance(result, RemoteServiceError):
                assert result.status == 503
            else:
                assert result == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_clean_stop_logs_no_error(
        self, engine, pool, queries, workers, caplog
    ):
        """A stop with an idle keep-alive connection open closes that
        connection and lets its handler return: no cancelled handler,
        so no asyncio ERROR record."""
        config = ServerConfig(port=0, max_wait_ms=1.0, workers=workers)
        background = BackgroundServer(engine, pool, config=config).start()
        client = ServiceClient(*background.address)
        try:
            assert client.link(queries[0]) == engine.link(queries[0], pool)
            background.stop()
        finally:
            client.close()
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [], [r.getMessage() for r in errors]

    def test_server_address_requires_start(self, engine, pool):
        server = LinkServer(engine, pool)
        with pytest.raises(ValidationError, match="not started"):
            server.address


class TestMetricsRegistry:
    def test_counters_and_latency(self):
        metrics = Metrics()
        metrics.inc("a")
        metrics.inc("a", 2)
        metrics.observe("lat", 0.002)
        metrics.observe("lat", 0.004)
        snap = metrics.to_dict()
        assert snap["counters"]["a"] == 3
        assert snap["latency"]["lat"]["count"] == 2
        assert snap["latency"]["lat"]["p50_ms"] > 0

    def test_histogram_percentiles_are_monotone(self):
        from repro.service.state import Histogram

        hist = Histogram()
        for ms in (1, 2, 3, 5, 8, 13, 100):
            hist.observe(ms / 1e3)
        assert hist.count == 7
        assert hist.quantile(0.5) <= hist.quantile(0.9) <= hist.quantile(0.99)
        with pytest.raises(ValidationError):
            hist.quantile(1.5)


class TestBenchSmoke:
    def test_service_bench_smoke(self, tmp_path):
        """Tiny run of the load benchmark, emitting BENCH_service.json."""
        from benchmarks.bench_service_load import run_service_load_benchmark

        out = tmp_path / "BENCH_service.json"
        report = run_service_load_benchmark(
            n_candidates=8,
            n_queries=3,
            concurrency_levels=(1, 2),
            requests_per_client=2,
            seed=5,
            sharded_concurrency=2,
            sharded_workers=2,
            out_path=out,
        )
        written = json.loads(out.read_text())
        assert written["n_candidates"] == report["n_candidates"] == 8
        for level in ("1", "2"):
            for mode in ("micro", "batch1"):
                row = written["levels"][level][mode]
                assert row["n_errors"] == 0
                assert row["throughput_rps"] > 0
        overhead = written["span_overhead"]
        for label in ("spans_on", "spans_off"):
            assert overhead[label]["n_errors"] == 0
            assert overhead[label]["throughput_rps"] > 0
        assert "regression_pct" in overhead
        sharded = written["sharded_scaling"]
        assert sharded["n_workers"] == 2
        assert sharded["cpu_count"] >= 1
        for row in sharded["workers"].values():
            assert row["n_errors"] == 0
            assert row["throughput_rps"] > 0
        sustained = written["sustained_ingest"]
        assert sustained["n_updates"] >= sustained["rounds"]
        assert sustained["records_per_s"] > 0
        assert sustained["staleness_p99_ms"] >= sustained["staleness_p50_ms"]
        assert (
            sustained["rescored_pairs_total"]
            < sustained["full_recompute_pairs"]
        )


class TestStoreBackedService:
    """Provenance reporting and ingest-session flushes into a store."""

    def test_health_reports_in_memory_without_store(self, client):
        health = client.healthz()
        assert health["data_source"] == {"source": "in-memory"}

    def test_health_reports_store_provenance(self, engine, pool, small_pair,
                                             tmp_path):
        from repro.store import build_store

        store = build_store(tmp_path / "q-store", small_pair.q_db)
        provenance = {
            "source": "store",
            "path": str(store.path),
            "format_version": store.manifest.format_version,
            "generation": store.generation,
        }
        config = ServerConfig(port=0)
        with BackgroundServer(engine, pool, config=config, store=store,
                              provenance=provenance) as background:
            with ServiceClient(*background.address) as c:
                health = c.healthz()
        assert health["data_source"]["source"] == "store"
        assert health["data_source"]["path"] == str(store.path)
        assert health["data_source"]["generation"] == 1

    def test_flush_appends_buffered_records_to_store(self, engine, pool,
                                                     tmp_path):
        from repro.store import TrajectoryStore, open_store

        store = TrajectoryStore.create(tmp_path / "s")
        state = ServiceState(
            engine=engine, pool=pool, options=LinkOptions(),
            clock=FakeClock(), store=store,
        )
        query, cand = _session_records()
        state.serve_ingest(_ingest("flushy", query, {"c1": cand[:4]}))
        state.serve_ingest(
            _ingest("flushy", [], {"c1": cand[4:], "c2": cand[:2]})
        )
        flushed = state.flush_session("flushy")
        assert flushed == len(cand) + 2
        persisted = open_store(tmp_path / "s").load()
        assert sorted(map(str, persisted.ids())) == ["c1", "c2"]
        assert len(persisted["c1"]) == len(cand)
        # a second flush with nothing new buffered is a no-op
        assert state.flush_session("flushy") == 0
        assert state.metrics.counter("store_flushes_total") == 1
        assert state.metrics.counter("store_flushed_records_total") == flushed

    def test_flush_requires_store_and_known_session(self, engine, pool,
                                                    tmp_path):
        from repro.store import TrajectoryStore

        bare = ServiceState(engine=engine, pool=pool, options=LinkOptions(),
                            clock=FakeClock())
        with pytest.raises(ValidationError, match="no trajectory store"):
            bare.flush_session("any")
        stored = ServiceState(
            engine=engine, pool=pool, options=LinkOptions(),
            clock=FakeClock(),
            store=TrajectoryStore.create(tmp_path / "s"),
        )
        with pytest.raises(ValidationError, match="unknown ingest session"):
            stored.flush_session("ghost")

    def test_ttl_expiry_auto_flushes_to_store(self, engine, pool, tmp_path):
        from repro.store import TrajectoryStore, open_store

        clock = FakeClock()
        state = ServiceState(
            engine=engine, pool=pool, options=LinkOptions(),
            session_ttl_s=100.0, clock=clock,
            store=TrajectoryStore.create(tmp_path / "s"),
        )
        query, cand = _session_records()
        state.serve_ingest(_ingest("drop-me", query, {"c9": cand}))
        clock.advance(101.0)
        assert state.expire_idle_sessions() == ["drop-me"]
        persisted = open_store(tmp_path / "s").load()
        assert list(map(str, persisted.ids())) == ["c9"]
        assert len(persisted["c9"]) == len(cand)

    def test_ingest_expires_idle_sessions_by_flushing_them(
        self, engine, pool, tmp_path
    ):
        """The lazy expiry on ingest is the sweeper's: session B's
        ingest expires idle session A, and A's buffered records reach
        the store instead of being dropped."""
        from repro.store import TrajectoryStore

        clock = FakeClock()
        store = TrajectoryStore.create(tmp_path / "s")
        state = ServiceState(
            engine=engine, pool=pool, options=LinkOptions(),
            session_ttl_s=100.0, clock=clock, store=store,
        )
        query, cand = _session_records()
        state.ingest("A", query, {"cA": cand})
        flushes = state.metrics.counter("store_flushes_total")
        clock.advance(101.0)
        state.ingest("B", query, {})
        assert "A" not in state.sessions
        persisted = store.load()
        assert list(map(str, persisted.ids())) == ["cA"]
        assert len(persisted["cA"]) == len(cand)
        assert state.metrics.counter("store_flushes_total") == flushes + 1

    def test_flush_over_http(self, engine, pool, tmp_path):
        from repro.store import TrajectoryStore, open_store

        store = TrajectoryStore.create(tmp_path / "s")
        config = ServerConfig(port=0)
        query, cand = _session_records()
        with BackgroundServer(engine, pool, config=config,
                              store=store) as background:
            with ServiceClient(*background.address) as c:
                first = c.ingest("wire", query_records=query,
                                 candidate_records={"c1": cand},
                                 decide=False)
                assert "flushed_records" not in first
                second = c.ingest("wire", decide=False, flush=True)
                assert second["flushed_records"] == len(cand)
        persisted = open_store(tmp_path / "s").load()
        assert len(persisted["c1"]) == len(cand)

    def test_records_not_buffered_without_store(self, engine, pool):
        state = ServiceState(engine=engine, pool=pool, options=LinkOptions(),
                             clock=FakeClock())
        query, cand = _session_records()
        state.ingest("plain", query, {"c1": cand})
        assert state.sessions["plain"].pending == {}

    def test_ttl_expiry_counters_and_flushed_records_reach_link(
        self, engine, small_pair, tmp_path
    ):
        """Idle-TTL expiry bumps the expected counters, and the expired
        session's auto-flushed records become linkable: after reloading
        the pool from the store, a subsequent ``/link``-path call over
        the resident pool ranks the flushed candidate."""
        from repro.core.engine import LinkRequest
        from repro.store import build_store

        store = build_store(tmp_path / "q-store", small_pair.q_db)
        clock = FakeClock()
        state = ServiceState(
            engine=engine, pool=list(store.load()), options=RANKING,
            session_ttl_s=100.0, clock=clock, store=store,
        )
        query, cand = _session_records(base_t=5_000.0)
        state.serve_ingest(_ingest("expiring", query, {"flushed-cand": cand}))
        before = {
            name: state.metrics.counter(name)
            for name in ("sessions_expired_total", "store_flushes_total",
                         "store_flushed_records_total", "pool_refreshes_total")
        }

        clock.advance(101.0)
        assert state.expire_idle_sessions() == ["expiring"]
        counters = state.metrics
        assert counters.counter("sessions_expired_total") == (
            before["sessions_expired_total"] + 1
        )
        assert counters.counter("store_flushes_total") == (
            before["store_flushes_total"] + 1
        )
        assert counters.counter("store_flushed_records_total") == (
            before["store_flushed_records_total"] + len(cand)
        )

        # Not in the resident pool until it is refreshed from the store.
        assert all(t.traj_id != "flushed-cand" for t in state.pool)
        state.pool[:] = list(state.store.load())
        state.metrics.inc("pool_refreshes_total")
        n = len(state.pool)
        assert n == len(state.pool)
        assert counters.counter("pool_refreshes_total") == (
            before["pool_refreshes_total"] + 1
        )
        assert any(str(t.traj_id) == "flushed-cand" for t in state.pool)

        # The serving path (link_requests over the refreshed resident
        # pool, exactly what /link executes) now ranks the candidate.
        probe = Trajectory([r[0] for r in cand], [r[1] for r in cand],
                           [r[2] for r in cand], "probe")
        (result,) = state.engine.link_requests(
            [LinkRequest(query=probe)], default_pool=state.pool,
            options=RANKING,
        )
        assert "flushed-cand" in [str(c.candidate_id) for c in result.candidates]


class TestModelHotSwap:
    """/v1/admin/model: artifact-backed serving and atomic hot-swap."""

    @pytest.fixture
    def model_store(self, small_pair, tmp_path):
        """A store over the SB-mini candidate pool holding two distinct
        fitted artifacts, the first one active."""
        import numpy as np

        from repro.config import FTLConfig
        from repro.store import build_store, fit_model_artifact

        store = build_store(tmp_path / "q-store", small_pair.q_db)
        ftl_config = FTLConfig()
        first = fit_model_artifact(
            [small_pair.q_db], ftl_config, np.random.default_rng(0),
            fitted_at=100.0,
        )
        second = fit_model_artifact(
            [small_pair.q_db], ftl_config, np.random.default_rng(1),
            max_pairs=5, fitted_at=200.0,
        )
        assert first.artifact_id != second.artifact_id
        store.save_model(first, created_at=100.0, activate=True)
        store.save_model(second, created_at=200.0)
        return store, first, second

    def _serve(self, store, artifact, workers=1):
        engine = LinkEngine(
            artifact.rejection, artifact.acceptance, options=RANKING
        )
        config = ServerConfig(port=0, workers=workers, max_wait_ms=1.0)
        return BackgroundServer(
            engine, list(store.load()), config=config, store=store,
            model_artifact_id=artifact.artifact_id,
        )

    def test_info_reports_serving_and_registry(self, model_store):
        store, first, second = model_store
        with self._serve(store, first) as background:
            with ServiceClient(*background.address) as c:
                info = c.model_info()
                health = c.healthz()
        assert info["serving_artifact"] == first.artifact_id
        assert info["store_active_model"] == first.artifact_id
        assert {a["id"] for a in info["artifacts"]} == {
            first.artifact_id, second.artifact_id
        }
        assert health["model_artifact"] == first.artifact_id

    def test_swap_without_store_is_conflict(self, client):
        with pytest.raises(RemoteServiceError) as exc:
            client.swap_model()
        assert exc.value.status == 409
        assert "store-backed" in str(exc.value)

    def test_swap_unknown_artifact_rejected(self, model_store):
        store, first, _second = model_store
        with self._serve(store, first) as background:
            with ServiceClient(*background.address) as c:
                with pytest.raises(RemoteServiceError) as exc:
                    c.swap_model("m-0000000000000000")
                assert exc.value.status == 400
                # the failed swap leaves the serving model untouched
                assert c.healthz()["model_artifact"] == first.artifact_id

    def test_swap_is_noop_when_already_serving(self, model_store):
        store, first, _second = model_store
        with self._serve(store, first) as background:
            with ServiceClient(*background.address) as c:
                out = c.swap_model(first.artifact_id)
        assert out["swapped"] is False
        assert out["artifact"] == first.artifact_id

    def test_sharded_swap_serves_bit_identical_rankings(
        self, model_store, small_pair
    ):
        """The acceptance criterion: after hot-swapping a 2-worker
        sharded daemon onto a refit artifact, /v1/link responses are
        bit-identical (ids AND scores) to a fresh single-process engine
        built from the same artifact."""
        store, first, second = model_store
        queries = [
            small_pair.p_db[qid] for qid in sorted(small_pair.truth)[:3]
        ]
        fresh = LinkEngine(
            second.rejection, second.acceptance, options=RANKING
        )
        with self._serve(store, first, workers=2) as background:
            with ServiceClient(*background.address) as c:
                out = c.swap_model(second.artifact_id)
                assert out["swapped"] is True
                assert out["previous"] == first.artifact_id
                assert out["provenance"]["dataset_hash"] == \
                    second.provenance.dataset_hash
                assert c.healthz()["model_artifact"] == second.artifact_id
                for query in queries:
                    wire = c.link(query, options=RANKING)
                    local = fresh.link(
                        query, list(small_pair.q_db), options=RANKING
                    )
                    assert [str(x.candidate_id) for x in wire.candidates] \
                        == [str(x.candidate_id) for x in local.candidates]
                    assert [x.score for x in wire.candidates] \
                        == [x.score for x in local.candidates]

    def test_in_process_swap_then_flush_matches_fresh_engine(
        self, model_store, small_pair
    ):
        """One-process store-backed daemon: link Q, hot-swap, flush new
        records onto Q's top candidate, link Q again.  The last reply
        is bit-identical to a fresh engine built from the swapped-in
        artifact, linking over the final pool — so the in-process shard
        serves the live pool on the engine whose profile cache the
        flush invalidated."""
        from repro.store import open_store

        store, first, second = model_store
        query = small_pair.p_db[sorted(small_pair.truth)[0]]

        def fresh_link(pool):
            # A new engine each time: profiles are cached by id, so a
            # reused engine would itself answer from a stale profile.
            engine = LinkEngine(
                second.rejection, second.acceptance, options=RANKING
            )
            return engine.link(query, pool, options=RANKING)

        pool_before = list(store.load())
        with self._serve(store, first) as background:
            with ServiceClient(*background.address) as c:
                top = c.link(query, options=RANKING).candidates[0]
                assert c.swap_model(second.artifact_id)["swapped"] is True
                # Caches the top candidate's profile on the new engine.
                swapped = c.link(query, options=RANKING)
                assert swapped == fresh_link(pool_before)
                records = [
                    [float(t) + 1.0, float(x) + 1.0, float(y)]
                    for t, x, y in zip(query.ts[:5], query.xs[:5],
                                       query.ys[:5])
                ]
                out = c.ingest(
                    "touch",
                    candidate_records={str(top.candidate_id): records},
                    decide=False,
                    flush=True,
                )
                assert out["flushed_records"] == len(records)
                after = c.link(query, options=RANKING)
        expected = fresh_link(list(open_store(store.path).load()))
        # The flush changed the answer, so a stale profile would show.
        assert expected != swapped
        assert after == expected

    def test_swap_to_store_active_artifact(self, model_store):
        """POST {} re-reads the manifest: an ``ftl model activate`` run
        by another process is picked up without naming the id."""
        store, first, second = model_store
        with self._serve(store, first) as background:
            store.activate_model(second.artifact_id)
            with ServiceClient(*background.address) as c:
                out = c.swap_model()
                assert out["swapped"] is True
                assert out["artifact"] == second.artifact_id
                assert c.healthz()["model_artifact"] == second.artifact_id

    def test_no_requests_dropped_during_swap(self, model_store, small_pair):
        """Clients hammering /v1/link through a swap see only 200s or
        the documented 503 + Retry-After drain signal — never a dropped
        connection or 5xx crash; and the swap itself succeeds."""
        store, first, second = model_store
        query = small_pair.p_db[sorted(small_pair.truth)[0]]
        stop = threading.Event()
        outcomes: list = []

        def hammer():
            with ServiceClient(*background.address) as c:
                while not stop.is_set():
                    try:
                        c.link(query, options=RANKING)
                        outcomes.append(200)
                    except RemoteServiceError as exc:
                        outcomes.append(exc.status)
                        time.sleep(0.01)

        with self._serve(store, first, workers=2) as background:
            threads = [threading.Thread(target=hammer) for _ in range(3)]
            for t in threads:
                t.start()
            try:
                time.sleep(0.1)
                with ServiceClient(*background.address) as admin:
                    out = admin.swap_model(second.artifact_id)
                time.sleep(0.1)
            finally:
                stop.set()
                for t in threads:
                    t.join()
        assert out["swapped"] is True
        assert outcomes.count(200) > 0
        assert set(outcomes) <= {200, 503}

    def test_drift_gauges_in_exposition(self, model_store, small_pair):
        """ftl_model_drift{model=...} renders (sharded path included)
        and the exposition stays valid; traffic populates the evidence
        histograms that feed it."""
        from repro.obs.prometheus import validate_exposition

        store, first, _second = model_store
        query = small_pair.p_db[sorted(small_pair.truth)[0]]
        with self._serve(store, first, workers=2) as background:
            with ServiceClient(*background.address) as c:
                for _ in range(3):
                    c.link(query, options=RANKING)
                text = c.metrics_text()
        assert 'ftl_model_drift{model="rejection"}' in text
        assert 'ftl_model_drift{model="acceptance"}' in text
        assert validate_exposition(text) == []
        drift = {
            line.split(" ")[0]: float(line.split(" ")[1])
            for line in text.splitlines()
            if line.startswith("ftl_model_drift{")
        }
        for value in drift.values():
            assert 0.0 <= value <= 1.0
