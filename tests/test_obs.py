"""Observability: trace IDs, stage timers, Prometheus exposition, retries.

Unit-level coverage of :mod:`repro.obs` plus end-to-end checks against
a live daemon: every ``/link`` response carries a trace ID that appears
in the structured log, ``/metrics`` serves a validating Prometheus
document with all six pipeline-stage histograms, and the client's
retry policy replays only what is safe to replay.
"""

import io
import json
import logging

import pytest

from repro import obs
from repro.core.engine import LinkEngine, LinkOptions
from repro.errors import RemoteServiceError, ValidationError
from repro.obs import (
    STAGES,
    JsonLogFormatter,
    MetricsSpanSink,
    StageAccumulator,
    render_exposition,
    validate_exposition,
)
from repro.obs.spans import STAGE_METRIC_PREFIX
from repro.service.client import ServiceClient
from repro.service.server import BackgroundServer, ServerConfig
from repro.service.state import Histogram, Metrics, ServiceState

RANKING = LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0)


# ----------------------------------------------------------------------
# Trace IDs
# ----------------------------------------------------------------------
class TestTrace:
    def test_ids_are_unique_hex(self):
        ids = {obs.new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        for tid in ids:
            assert len(tid) == 16
            int(tid, 16)

    def test_trace_context_manager_binds_and_restores(self):
        assert obs.current_trace_id() is None
        with obs.trace() as outer:
            assert obs.current_trace_id() == outer
            with obs.trace("explicit-id") as inner:
                assert inner == "explicit-id"
                assert obs.current_trace_id() == "explicit-id"
            assert obs.current_trace_id() == outer
        assert obs.current_trace_id() is None

    def test_set_and_reset(self):
        token = obs.set_trace_id("abc123")
        try:
            assert obs.current_trace_id() == "abc123"
        finally:
            obs.reset_trace_id(token)
        assert obs.current_trace_id() is None


class TestStructuredLogging:
    def _capture(self):
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.setFormatter(JsonLogFormatter())
        logger = logging.getLogger("ftl.test-capture")
        logger.setLevel(logging.INFO)
        logger.addHandler(handler)
        return logger, handler, stream

    def test_log_event_carries_fields_and_trace_id(self):
        logger, handler, stream = self._capture()
        try:
            with obs.trace("feedbeef0000aaaa"):
                obs.log_event(logger, "request", path="/link", status=200)
        finally:
            logger.removeHandler(handler)
        record = json.loads(stream.getvalue().strip())
        assert record["event"] == "request"
        assert record["trace_id"] == "feedbeef0000aaaa"
        assert record["path"] == "/link"
        assert record["status"] == 200
        assert record["level"] == "info"

    def test_log_event_without_trace_omits_id(self):
        logger, handler, stream = self._capture()
        try:
            obs.log_event(logger, "tick")
        finally:
            logger.removeHandler(handler)
        record = json.loads(stream.getvalue().strip())
        assert "trace_id" not in record

    def test_configure_json_logging_is_idempotent(self):
        stream = io.StringIO()
        first = obs.configure_json_logging(stream=stream)
        try:
            assert obs.configure_json_logging(stream=stream) is first
        finally:
            logging.getLogger("ftl").removeHandler(first)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_span_without_sink_is_noop(self):
        assert obs.current_sink() is None
        with obs.span("prefilter"):
            pass  # must not raise, must not record anywhere

    def test_use_sink_scopes_recording(self):
        acc = StageAccumulator()
        with obs.use_sink(acc):
            assert obs.current_sink() is acc
            with obs.span("rank"):
                pass
        assert obs.current_sink() is None
        assert acc.calls("rank") == 1
        assert acc.total_s("rank") >= 0.0

    def test_span_records_on_exception(self):
        acc = StageAccumulator()
        with obs.use_sink(acc):
            with pytest.raises(RuntimeError):
                with obs.span("pb_test"):
                    raise RuntimeError("boom")
        assert acc.calls("pb_test") == 1

    def test_metrics_span_sink_feeds_stage_histograms(self):
        metrics = Metrics()
        sink = MetricsSpanSink(metrics)
        with obs.use_sink(sink):
            with obs.span("profile"):
                pass
        snap = metrics.to_dict()
        assert STAGE_METRIC_PREFIX + "profile" in snap["latency"]
        assert snap["latency"][STAGE_METRIC_PREFIX + "profile"]["count"] == 1

    def test_accumulator_table_and_dict(self):
        acc = StageAccumulator()
        acc.record("profile", 0.030)
        acc.record("profile", 0.010)
        acc.record("rank", 0.001)
        assert acc.stages == ["profile", "rank"]
        as_dict = acc.to_dict()
        assert as_dict["profile"]["calls"] == 2
        assert as_dict["profile"]["total_ms"] == pytest.approx(40.0)
        assert as_dict["profile"]["max_ms"] == pytest.approx(30.0)
        table = acc.table(wall_s=0.050)
        assert "profile" in table and "rank" in table
        assert "share" in table

    def test_engine_stages_recorded_by_link_batch(self, fitted_models, small_pair):
        mr, ma = fitted_models
        engine = LinkEngine(mr, ma, options=RANKING)
        pool = list(small_pair.q_db)
        query = small_pair.p_db[sorted(small_pair.truth)[0]]
        acc = StageAccumulator()
        with obs.use_sink(acc):
            engine.link_batch([query], iter(pool))
        for stage in ("blocking", "profile", "pb_test", "rank"):
            assert acc.calls(stage) >= 1, f"stage {stage} never recorded"


# ----------------------------------------------------------------------
# Histogram quantile boundaries (satellite bugfix)
# ----------------------------------------------------------------------
class TestHistogramQuantileBoundaries:
    def test_q0_is_zero_not_first_bucket_bound(self):
        hist = Histogram()
        hist.observe(0.5)
        assert hist.quantile(0.0) == 0.0

    def test_empty_histogram_all_quantiles_zero(self):
        hist = Histogram()
        for q in (0.0, 0.5, 1.0):
            assert hist.quantile(q) == 0.0

    def test_single_observation_boundaries(self):
        hist = Histogram()
        hist.observe(0.005)
        assert hist.quantile(0.0) == 0.0
        # q=1 lands in the bucket holding the single sample: its upper
        # bound must cover the observed value.
        assert hist.quantile(1.0) >= 0.005
        assert hist.quantile(0.5) == hist.quantile(1.0)

    def test_q1_of_overflow_sample_is_observed_max(self):
        hist = Histogram()
        hist.observe(99.0)  # beyond the last bucket bound
        assert hist.quantile(1.0) == 99.0

    def test_out_of_range_rejected(self):
        hist = Histogram()
        with pytest.raises(ValidationError):
            hist.quantile(-0.1)
        with pytest.raises(ValidationError):
            hist.quantile(1.1)


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class TestPrometheusExposition:
    def test_render_validates_clean(self):
        hist = Histogram()
        for v in (0.0002, 0.004, 0.004, 2.5):
            hist.observe(v)
        text = render_exposition(
            {"requests_total": 7},
            {"stage_profile": hist.snapshot()},
            {"queue_depth": 3},
        )
        assert validate_exposition(text) == []
        assert "# TYPE ftl_requests_total counter" in text
        assert "# TYPE ftl_stage_profile_seconds histogram" in text
        assert 'ftl_stage_profile_seconds_bucket{le="+Inf"} 4' in text
        assert "ftl_stage_profile_seconds_count 4" in text
        assert "# TYPE ftl_queue_depth gauge" in text

    def test_buckets_are_cumulative(self):
        hist = Histogram()
        hist.observe(0.0002)
        hist.observe(0.9)
        text = render_exposition({}, {"lat": hist.snapshot()})
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("ftl_lat_seconds_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 2

    def test_validator_rejects_untyped_sample(self):
        assert validate_exposition("ftl_orphan 1\n")

    def test_validator_rejects_missing_trailing_newline(self):
        errors = validate_exposition("# TYPE x counter\nx 1")
        assert any("newline" in e for e in errors)

    def test_validator_rejects_non_cumulative_histogram(self):
        doc = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1.0\n"
            "h_count 3\n"
        )
        assert any("cumulative" in e for e in validate_exposition(doc))

    def test_validator_rejects_missing_inf_bucket(self):
        doc = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 1\n'
            "h_sum 0.05\n"
            "h_count 1\n"
        )
        assert any("+Inf" in e for e in validate_exposition(doc))

    def test_validator_rejects_inf_count_mismatch(self):
        doc = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 2\n'
            "h_sum 0.05\n"
            "h_count 3\n"
        )
        assert any("_count" in e for e in validate_exposition(doc))

    def test_validator_rejects_garbage_lines(self):
        assert validate_exposition("not a metric line at all !!\n")

    def test_metrics_to_prometheus_round_trip(self):
        metrics = Metrics()
        metrics.inc("requests_total", 3)
        metrics.observe("request_link", 0.012)
        text = metrics.to_prometheus(gauges={"queue_depth": 0})
        assert validate_exposition(text) == []
        assert "ftl_requests_total 3" in text


# ----------------------------------------------------------------------
# Client retry policy (satellite bugfix)
# ----------------------------------------------------------------------
class _FakeResponse:
    def __init__(self, status=200, body=b'{"ok": true}'):
        self.status = status
        self._body = body

    def read(self):
        return self._body


class _FakeConnection:
    """Scripted transport: fail on connect / on the n-th request."""

    def __init__(self, fail_connect=False, fail_requests_at=()):
        self.fail_connect = fail_connect
        self.fail_requests_at = set(fail_requests_at)
        self.requests = []
        self.closed = False

    def connect(self):
        if self.fail_connect:
            raise ConnectionRefusedError("connection refused")

    def request(self, method, path, body=None, headers=None):
        self.requests.append((method, path, body))
        if len(self.requests) in self.fail_requests_at:
            raise ConnectionResetError("connection reset")

    def getresponse(self):
        return _FakeResponse()

    def close(self):
        self.closed = True


class _FakeFactory:
    def __init__(self, connections):
        self._connections = list(connections)
        self.n_created = 0

    def __call__(self, host, port, timeout=None):
        self.n_created += 1
        return self._connections.pop(0)


def _client(factory, **kwargs):
    sleeps = []
    client = ServiceClient(
        "127.0.0.1",
        1,
        sleep=sleeps.append,
        connection_factory=factory,
        **kwargs,
    )
    return client, sleeps


class TestClientRetries:
    def test_connect_failure_retried_for_idempotent_path(self):
        factory = _FakeFactory([
            _FakeConnection(fail_connect=True),
            _FakeConnection(),
        ])
        client, sleeps = _client(factory)
        assert client.request("GET", "/v1/healthz") == {"ok": True}
        assert factory.n_created == 2
        assert sleeps == [0.05]

    def test_backoff_doubles_per_retry(self):
        factory = _FakeFactory([
            _FakeConnection(fail_connect=True),
            _FakeConnection(fail_connect=True),
            _FakeConnection(),
        ])
        client, sleeps = _client(factory)
        assert client.request("GET", "/v1/metrics") == {"ok": True}
        assert sleeps == [0.05, 0.10]

    def test_connect_failure_not_retried_for_ingest(self):
        factory = _FakeFactory([
            _FakeConnection(fail_connect=True),
            _FakeConnection(),
        ])
        client, sleeps = _client(factory)
        with pytest.raises(ConnectionRefusedError):
            client.request("POST", "/v1/ingest", {"session": "s"})
        assert factory.n_created == 1
        assert sleeps == []

    def test_post_send_failure_on_fresh_connection_never_retried(self):
        # The request went out on a brand-new connection: the server may
        # have processed it, so even idempotent paths must not replay
        # blindly (only reused keep-alive sockets get that grace).
        factory = _FakeFactory([
            _FakeConnection(fail_requests_at=(1,)),
            _FakeConnection(),
        ])
        client, sleeps = _client(factory)
        with pytest.raises(ConnectionResetError):
            client.request("POST", "/v1/link", {"query": {}})
        assert factory.n_created == 1
        assert sleeps == []

    def test_stale_keepalive_retried_for_idempotent_path(self):
        stale = _FakeConnection(fail_requests_at=(2,))
        fresh = _FakeConnection()
        factory = _FakeFactory([stale, fresh])
        client, sleeps = _client(factory)
        assert client.request("POST", "/v1/link", {"query": {}}) == {"ok": True}
        # Second call reuses the kept-alive socket, which dies mid-send.
        assert client.request("POST", "/v1/link", {"query": {}}) == {"ok": True}
        assert stale.closed
        assert factory.n_created == 2
        assert len(fresh.requests) == 1
        assert sleeps == [0.05]

    def test_stale_keepalive_failure_not_retried_for_ingest(self):
        stale = _FakeConnection(fail_requests_at=(2,))
        factory = _FakeFactory([stale, _FakeConnection()])
        client, _sleeps = _client(factory)
        assert client.request("POST", "/v1/ingest", {"session": "s"}) == {"ok": True}
        with pytest.raises(ConnectionResetError):
            client.request("POST", "/v1/ingest", {"session": "s"})
        assert factory.n_created == 1

    def test_retry_budget_exhausted_raises(self):
        factory = _FakeFactory([
            _FakeConnection(fail_connect=True),
            _FakeConnection(fail_connect=True),
        ])
        client, sleeps = _client(factory, max_retries=1)
        with pytest.raises(ConnectionRefusedError):
            client.request("GET", "/v1/healthz")
        assert factory.n_created == 2
        assert sleeps == [0.05]

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValidationError):
            ServiceClient("127.0.0.1", 1, max_retries=-1)


# ----------------------------------------------------------------------
# End to end against a live daemon
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def obs_server(fitted_models, small_pair):
    mr, ma = fitted_models
    engine = LinkEngine(mr, ma, options=RANKING)
    pool = list(small_pair.q_db)
    config = ServerConfig(port=0, max_wait_ms=1.0)
    with BackgroundServer(engine, pool, config=config) as background:
        yield background


@pytest.fixture(scope="module")
def obs_queries(small_pair):
    ids = sorted(small_pair.truth)[:2]
    return [small_pair.p_db[qid] for qid in ids]


class TestEndToEndObservability:
    def test_link_response_trace_id_appears_in_log(
        self, obs_server, obs_queries
    ):
        from repro.service.protocol import trajectory_to_wire

        stream = io.StringIO()
        handler = obs.configure_json_logging(stream=stream)
        try:
            with ServiceClient(*obs_server.address) as client:
                body = client.link_raw(
                    {"query": trajectory_to_wire(obs_queries[0])}
                )
        finally:
            logging.getLogger("ftl").removeHandler(handler)
        trace_id = body.get("trace_id")
        assert trace_id, "/link response must carry a trace ID"
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        request_events = [
            e
            for e in events
            if e["event"] == "request" and e.get("trace_id") == trace_id
        ]
        assert request_events, (
            f"no structured request log carried trace ID {trace_id}"
        )
        assert request_events[0]["path"] == "/v1/link"
        assert request_events[0]["status"] == 200
        batch_events = [
            e
            for e in events
            if e["event"] == "batch" and trace_id in e.get("trace_ids", ())
        ]
        assert batch_events, "batch log must list the member trace IDs"

    def test_error_response_also_carries_trace_id(self, obs_server):
        with ServiceClient(*obs_server.address) as client:
            with pytest.raises(RemoteServiceError) as exc:
                client.request("GET", "/nope")
        assert exc.value.payload.get("trace_id")

    def test_metrics_default_is_valid_prometheus(self, obs_server, obs_queries):
        with ServiceClient(*obs_server.address) as client:
            client.link(obs_queries[0])
            text = client.metrics_text()
        assert validate_exposition(text) == [], validate_exposition(text)
        for stage in STAGES:
            assert f"# TYPE ftl_stage_{stage}_seconds histogram" in text, (
                f"stage histogram {stage} missing from /metrics"
            )
        # Serving work actually landed in the stage timers.
        assert "ftl_stage_profile_seconds_count 0" not in text
        assert "ftl_stage_queue_wait_seconds_count 0" not in text
        assert "ftl_queue_depth" in text

    def test_unknown_metrics_format_is_structured_error(self, obs_server):
        # ``json`` is unknown too: the text exposition is the only format.
        for fmt in ("yaml", "json"):
            with ServiceClient(*obs_server.address) as client:
                with pytest.raises(RemoteServiceError) as exc:
                    client.request("GET", f"/v1/metrics?format={fmt}")
            assert exc.value.status == 400

    def test_spans_disabled_leaves_stage_histograms_empty(
        self, fitted_models, small_pair, obs_queries
    ):
        mr, ma = fitted_models
        engine = LinkEngine(mr, ma, options=RANKING)
        pool = list(small_pair.q_db)
        config = ServerConfig(port=0, max_wait_ms=1.0, spans=False)
        with BackgroundServer(engine, pool, config=config) as background:
            with ServiceClient(*background.address) as client:
                client.link(obs_queries[0])
                text = client.metrics_text()
        assert validate_exposition(text) == []
        # queue_wait is measured by the batcher itself (not a span), so
        # it still populates; the engine-side stages must stay empty.
        assert "ftl_stage_profile_seconds_count 0" in text
        assert "ftl_stage_rank_seconds_count 0" in text

    def test_stage_histograms_preregistered_in_state(self, fitted_models):
        mr, ma = fitted_models
        engine = LinkEngine(mr, ma, options=RANKING)
        state = ServiceState(engine=engine, pool=[], options=RANKING)
        latency = state.metrics.to_dict()["latency"]
        for stage in STAGES:
            assert STAGE_METRIC_PREFIX + stage in latency
