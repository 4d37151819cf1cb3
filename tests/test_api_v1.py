"""The versioned v1 wire surface.

Every ``/v1/...`` JSON endpoint answers with the response envelope
(``api_version`` / ``shard_count`` / ``data`` / ``trace_id``); the bare
paths once served as deprecated aliases answer a structured 404.  See
docs/api-v1.md.
"""

import http.client

import pytest

from repro.core.engine import LinkEngine, LinkOptions
from repro.service.client import ServiceClient
from repro.service.protocol import (
    API_VERSION,
    ResponseEnvelope,
    ShardInfo,
    envelope_data,
    trajectory_to_wire,
)
from repro.service.server import BackgroundServer, ServerConfig

RANKING = LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0)


@pytest.fixture(scope="module")
def engine(fitted_models):
    mr, ma = fitted_models
    return LinkEngine(mr, ma, options=RANKING)


@pytest.fixture(scope="module")
def pool(small_pair):
    return list(small_pair.q_db)


@pytest.fixture(scope="module")
def queries(small_pair):
    ids = sorted(small_pair.truth)[:2]
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


def _exchange(address, method, path, body=None):
    """One raw round trip; returns (status, headers dict, parsed body)."""
    import json

    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        text = response.read().decode("utf-8")
        response_headers = dict(response.getheaders())
        content_type = response_headers.get("Content-Type", "")
        parsed = json.loads(text) if "json" in content_type else text
        return response.status, response_headers, parsed
    finally:
        conn.close()


class TestEnvelope:
    def test_shape(self, client):
        envelope = client.request("GET", "/v1/healthz")
        assert envelope["api_version"] == API_VERSION == "v1"
        assert envelope["shard_count"] == 1
        assert isinstance(envelope["data"], dict)
        assert envelope["trace_id"]
        assert "shards" not in envelope  # healthz carries no provenance

    def test_link_provenance_single_process(self, client, pool, queries):
        envelope = client.link_raw({"query": trajectory_to_wire(queries[0])})
        (shard,) = envelope["shards"]
        assert shard["shard"] == 0
        assert shard["n_candidates"] == len(pool)
        assert shard["n_matched"] == len(envelope["data"]["candidates"])
        assert shard["elapsed_ms"] >= 0.0

    def test_envelope_data_unwraps(self):
        wire = ResponseEnvelope(
            data={"x": 1},
            shard_count=2,
            shards=(ShardInfo(0, 42, 3, 1, 0.5),),
        ).to_wire()
        assert wire["api_version"] == "v1"
        assert wire["shards"][0]["pid"] == 42
        assert envelope_data(wire) == {"x": 1}

    def test_errors_are_not_enveloped(self, server):
        # Outside /v1/ a known endpoint name is just another unknown path.
        for method, path in (("GET", "/v1/nope"), ("POST", "/link")):
            status, _, body = _exchange(server.address, method, path)
            assert status == 404
            # Structured error + trace, but no envelope around it.
            assert set(body) == {"error", "trace_id"}
            assert "api_version" not in body and "data" not in body
            assert "/v1/link" in body["error"]["message"]

    def test_metrics_text_is_bare(self, server):
        status, headers, body = _exchange(server.address, "GET", "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert isinstance(body, str) and body.startswith("# HELP")


class TestLegacyAliases:
    """Bare (pre-v1) paths answer the structured 404."""

    def test_trace_header_on_both_families(self, server):
        for path in ("/healthz", "/v1/healthz"):
            _, headers, parsed = _exchange(server.address, "GET", path)
            assert headers["X-Trace-Id"] == parsed["trace_id"]
