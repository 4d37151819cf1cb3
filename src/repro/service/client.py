"""Blocking client for the linking daemon.

A thin ``http.client`` wrapper used by tests, examples and the load
generator.  Connections are kept alive across calls and transparently
re-established; server-side failures surface as
:class:`~repro.errors.RemoteServiceError` carrying the structured error
payload, so callers can switch on ``exc.status`` /
``exc.payload["error"]["type"]`` without string matching.

Retries are bounded and verb-aware.  Failures while *establishing* a
connection never reached the server, so they are retried (with
exponential backoff) for the idempotent endpoints.  Failures after the
request went out on a **reused** keep-alive connection are almost
always the server having closed the idle socket between our calls —
also safe to retry, but again only for idempotent endpoints.  A
``POST /ingest`` that may have reached the server is *never* retried:
replaying it would double-observe every record.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Iterable, Mapping, Sequence
from urllib.parse import quote

from repro.core.engine import LinkOptions, LinkResult
from repro.core.trajectory import Trajectory
from repro.errors import RemoteServiceError, ValidationError
from repro.service.protocol import (
    envelope_data,
    result_from_wire,
    trajectory_to_wire,
)

#: ``LinkOptions`` fields forwarded on the wire by :meth:`ServiceClient.link`.
_WIRE_FIELDS = ("method", "alpha1", "alpha2", "phi_r", "top_k")

#: Endpoints safe to replay: re-sending them cannot change server state
#: (``/link`` is a pure read over the pool, ``/watch`` a pure read of
#: the event buffer, and ``/queries`` register/unregister are
#: replace/remove operations whose replay converges on the same
#: state).  ``/ingest`` is absent on purpose — replaying it would
#: double-observe records.  ``/admin/model`` converges too: swapping to
#: an artifact the daemon already serves is a no-op.
_IDEMPOTENT_PATHS = (
    "/v1/link", "/v1/assign", "/v1/queries", "/v1/watch", "/v1/healthz",
    "/v1/metrics", "/v1/admin/model",
)

#: Exceptions that mean "the transport failed", as opposed to a parsed
#: HTTP error response.
_TRANSPORT_ERRORS = (ConnectionError, http.client.HTTPException, OSError)


class ServiceClient:
    """Call a running linking daemon over HTTP.

    Parameters
    ----------
    host, port:
        Where the daemon listens (e.g. ``*BackgroundServer.address``).
    timeout_s:
        Socket timeout for each call.
    max_retries:
        How many times a retryable failure is retried (on top of the
        initial attempt).  Only connection-phase failures and dropped
        keep-alive sockets on idempotent endpoints qualify; see the
        module docstring.
    backoff_s:
        Base sleep before the first retry; doubles per retry.
    sleep, connection_factory:
        Injection points for tests (fake clock, failing transports).

    The client is not thread-safe; give each thread its own instance
    (they are cheap — one lazy TCP connection each).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 30.0,
        max_retries: int = 2,
        backoff_s: float = 0.05,
        sleep=time.sleep,
        connection_factory=http.client.HTTPConnection,
    ) -> None:
        if max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0, got {max_retries}")
        self._host = host
        self._port = int(port)
        self._timeout_s = timeout_s
        self._max_retries = int(max_retries)
        self._backoff_s = float(backoff_s)
        self._sleep = sleep
        self._connection_factory = connection_factory
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self) -> tuple[http.client.HTTPConnection, bool]:
        """A live connection plus whether it is a reused keep-alive one.

        Connecting eagerly (rather than inside ``conn.request``) keeps
        connection-phase failures distinguishable from failures after
        the request bytes may already have reached the server.
        """
        if self._conn is not None:
            return self._conn, True
        conn = self._connection_factory(
            self._host, self._port, timeout=self._timeout_s
        )
        conn.connect()
        self._conn = conn
        return conn, False

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, method: str, path: str, body: object | None = None) -> dict:
        """One JSON round trip with bounded, idempotency-aware retries."""
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        idempotent = path.partition("?")[0] in _IDEMPOTENT_PATHS
        attempt = 0
        while True:
            reused = connected = False
            try:
                conn, reused = self._connection()
                connected = True
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except _TRANSPORT_ERRORS:
                self.close()
                # Connect-phase failures (``connected`` still False)
                # never reached the server; a *reused* keep-alive socket
                # failing mid-request means the server dropped the idle
                # connection between calls.  Both are safe to replay for
                # idempotent endpoints.  A fresh connection failing
                # after the request went out may have been acted on —
                # never replayed (nor is anything non-idempotent).
                retryable = idempotent and (not connected or reused)
                if not retryable or attempt >= self._max_retries:
                    raise
                self._sleep(self._backoff_s * (2 ** attempt))
                attempt += 1
        try:
            parsed = json.loads(raw.decode("utf-8")) if raw else {}
        except json.JSONDecodeError as exc:
            raise RemoteServiceError(
                response.status,
                {"error": {"type": "ProtocolError",
                           "message": f"undecodable response body: {exc}"}},
            ) from None
        if response.status >= 300:
            raise RemoteServiceError(response.status, parsed)
        return parsed

    # ------------------------------------------------------------------
    # Endpoints (v1 wire API; see docs/api-v1.md)
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        """The ``/v1/healthz`` payload (the envelope's ``data``)."""
        return envelope_data(self.request("GET", "/v1/healthz"))

    def metrics(self) -> dict[str, float]:
        """``/v1/metrics`` samples as ``{series: value}``.

        A series is the exposition's sample name plus its label set, as
        rendered: ``ftl_requests_total``,
        ``ftl_worker_up{shard="0"}``.  Parsed from
        :meth:`metrics_text`; comment lines are skipped.
        """
        samples: dict[str, float] = {}
        for line in self.metrics_text().splitlines():
            if line and not line.startswith("#"):
                series, _, value = line.rpartition(" ")
                samples[series] = float(value)
        return samples

    def metrics_text(self) -> str:
        """The raw Prometheus text exposition served at ``/v1/metrics``.

        Bypasses :meth:`request` (which decodes JSON): one GET on a
        fresh connection, returning the body verbatim.
        """
        conn = self._connection_factory(
            self._host, self._port, timeout=self._timeout_s
        )
        try:
            conn.request("GET", "/v1/metrics")
            response = conn.getresponse()
            raw = response.read()
            if response.status >= 300:
                raise RemoteServiceError(
                    response.status,
                    {"error": {"type": "RemoteServiceError",
                               "message": raw.decode("utf-8", "replace")}},
                )
            return raw.decode("utf-8")
        finally:
            conn.close()

    def link_raw(self, body: dict) -> dict:
        """POST a pre-built ``/v1/link`` body; returns the **full**
        response envelope (``data`` + ``shard_count`` + ``shards``
        provenance), for callers that want the scatter-gather detail."""
        return self.request("POST", "/v1/link", body)

    def link(
        self,
        query: Trajectory,
        candidates: Iterable[Trajectory] | None = None,
        options: LinkOptions | None = None,
        timeout_ms: float | None = None,
    ) -> LinkResult:
        """Link one query, decoding the response into a :class:`LinkResult`.

        ``candidates=None`` ranks against the daemon's resident pool.
        ``options`` fields are sent on the wire (``prefilter`` cannot
        be serialised and must be configured server-side).
        """
        if options is not None and options.prefilter is not None:
            raise ValidationError(
                "prefilter cannot be sent over the wire; configure it "
                "on the server's LinkOptions"
            )
        body: dict = {"query": trajectory_to_wire(query)}
        if candidates is not None:
            body["candidates"] = [trajectory_to_wire(c) for c in candidates]
        if options is not None:
            body["options"] = {
                field: getattr(options, field) for field in _WIRE_FIELDS
            }
        if timeout_ms is not None:
            body["timeout_ms"] = timeout_ms
        return result_from_wire(envelope_data(self.link_raw(body)))

    def assign_raw(self, body: dict) -> dict:
        """POST a pre-built ``/v1/assign`` body; returns the full
        response envelope (``data`` + scatter-gather provenance)."""
        return self.request("POST", "/v1/assign", body)

    def assign(
        self,
        queries: Iterable[Trajectory],
        options: LinkOptions | None = None,
        min_score: float | None = None,
        solver: str | None = None,
    ) -> dict:
        """Solve a global one-to-one assignment over the resident pool.

        Returns the assignment payload (``matches``, ``unassigned``,
        ``total_score``, ``solver``, component/edge counts).  Omitting
        ``options`` scores with the daemon's permissive score-all
        semantics; omitting ``solver`` picks the best available
        backend.  See ``docs/assignment.md``.
        """
        if options is not None and options.prefilter is not None:
            raise ValidationError(
                "prefilter cannot be sent over the wire; configure it "
                "on the server's LinkOptions"
            )
        body: dict = {
            "queries": [trajectory_to_wire(q) for q in queries]
        }
        if options is not None:
            body["options"] = {
                field: getattr(options, field) for field in _WIRE_FIELDS
            }
        if min_score is not None:
            body["min_score"] = min_score
        if solver is not None:
            body["solver"] = solver
        return envelope_data(self.assign_raw(body))

    def register_query(
        self,
        query: Trajectory,
        query_id: str | None = None,
        options: LinkOptions | None = None,
    ) -> dict:
        """Register (or replace) a standing query on the daemon.

        Returns the initial snapshot (``seq`` 1, full warm ranking).
        Requires a store-backed daemon (``ftl serve --store``).
        """
        if options is not None and options.prefilter is not None:
            raise ValidationError(
                "prefilter cannot be sent over the wire; configure it "
                "on the server's LinkOptions"
            )
        body: dict = {"query": trajectory_to_wire(query)}
        if query_id is not None:
            body["query_id"] = str(query_id)
        if options is not None:
            body["options"] = {
                field: getattr(options, field) for field in _WIRE_FIELDS
            }
        return envelope_data(self.request("POST", "/v1/queries", body))

    def unregister_query(self, query_id: str) -> dict:
        """Remove a standing query; ``{"removed": false}`` if unknown."""
        return envelope_data(
            self.request("POST", "/v1/queries", {"unregister": str(query_id)})
        )

    def queries(self) -> list[dict]:
        """Summaries of every registered standing query."""
        return envelope_data(self.request("GET", "/v1/queries"))["queries"]

    def watch(
        self,
        query_id: str,
        since: int = 0,
        wait_ms: float | None = None,
    ) -> dict:
        """One ``/v1/watch`` long-poll round for a standing query.

        Returns ``{"query_id", "seq", "resync", "events"}``; pass the
        returned ``seq`` back as ``since`` to resume.  ``wait_ms`` is
        how long the daemon may hold the poll open waiting for a new
        event (capped server-side); keep it below this client's
        ``timeout_s`` or the socket gives up first.
        """
        path = (
            f"/v1/watch?query={quote(str(query_id), safe='')}"
            f"&since={int(since)}"
        )
        if wait_ms is not None:
            path += f"&wait_ms={float(wait_ms)}"
        return envelope_data(self.request("GET", path))

    def model_info(self) -> dict:
        """The daemon's serving model + the store's artifact registry."""
        return envelope_data(self.request("GET", "/v1/admin/model"))

    def swap_model(self, artifact_id: str | None = None) -> dict:
        """Hot-swap the daemon onto a persisted model artifact.

        ``artifact_id=None`` swaps to the store's *active* artifact
        (re-read from disk, so an ``ftl model fit`` or ``activate`` in
        another process is picked up).  Returns ``{"swapped", "artifact",
        "previous", ...}``; requires a store-backed daemon.
        """
        body: dict = {}
        if artifact_id is not None:
            body["artifact_id"] = str(artifact_id)
        return envelope_data(self.request("POST", "/v1/admin/model", body))

    def ingest(
        self,
        session: str,
        query_records: Sequence[Sequence[float]] = (),
        candidate_records: Mapping[str, Sequence[Sequence[float]]] | None = None,
        expire_before: float | None = None,
        decide: bool = True,
        flush: bool = False,
    ) -> dict:
        """Stream records into a server-side session; returns decisions.

        Records are ``(t, x, y)`` triples (any sequence type).
        ``flush=True`` additionally persists the session's buffered
        candidate records into the daemon's trajectory store (requires
        ``ftl serve --store``); the response then carries
        ``flushed_records``.
        """
        body: dict = {
            "session": session,
            "query": [list(map(float, r)) for r in query_records],
            "candidates": {
                str(cid): [list(map(float, r)) for r in records]
                for cid, records in (candidate_records or {}).items()
            },
            "decide": decide,
        }
        if flush:
            body["flush"] = True
        if expire_before is not None:
            body["expire_before"] = expire_before
        return envelope_data(self.request("POST", "/v1/ingest", body))
