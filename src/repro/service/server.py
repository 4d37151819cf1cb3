"""The asyncio linking daemon: JSON over HTTP/1.1, stdlib only.

One event loop accepts connections and parses requests; ``/v1/link``
bodies are handed to the :class:`~repro.service.batcher.MicroBatcher`,
which coalesces them into batches.  Every batch, assign, ingest,
flush and session expiry goes through the
:class:`~repro.service.supervisor.ShardSupervisor`: with
``workers == 1`` its one shard answers in-process; with
``workers > 1`` it forks one worker process per shard *before* the
listener exists and each batch is scattered across the shards and
merged (bit-identical to the one-shard ranking; see
:mod:`repro.service.shard`).  ``/v1/ingest`` routes streaming record
updates into per-session
:class:`~repro.core.streaming.StreamingLinker` instances (queries
broadcast, candidates routed to their owning shard), and
``/v1/healthz`` + ``/v1/metrics`` expose liveness and the
counter/latency registry aggregated across shards.  A store-backed
daemon additionally runs the continuous-linkage pipeline of
:class:`~repro.stream.runtime.StreamRuntime`: ``/v1/queries``
registers standing queries whose top-k rankings are kept warm across
ingest flushes and sliding-window evictions, and ``/v1/watch``
long-polls their result deltas (see ``docs/streaming.md``).

Every v1 JSON endpoint answers with the
:class:`~repro.service.protocol.ResponseEnvelope` shape (see
``docs/api-v1.md``); paths outside ``/v1/`` answer a structured 404.

The HTTP layer is intentionally minimal: HTTP/1.1 with keep-alive and
``Content-Length`` bodies (chunked uploads are rejected), every error
answered with the structured JSON of
:func:`repro.service.protocol.error_payload`.  ``SIGTERM``/``SIGINT``
trigger a graceful drain: stop accepting, finish queued work, exit.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import logging
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from urllib.parse import parse_qs

from repro import obs
from repro.core.engine import LinkEngine, LinkOptions, LinkRequest
from repro.errors import (
    PayloadTooLargeError,
    ProtocolError,
    StateError,
    ValidationError,
)
from repro.service import protocol
from repro.service.batcher import (
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_MAX_WAIT_MS,
    DEFAULT_QUEUE_LIMIT,
    MicroBatcher,
)
from repro.service.state import DEFAULT_SESSION_TTL_S, ServiceState
from repro.service.supervisor import ShardSupervisor
from repro.stream.runtime import DEFAULT_MERGE_MIN_BLOCKS, StreamRuntime

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Cap on header lines per request (defence against header floods).
_MAX_HEADERS = 100

_LOG = logging.getLogger("ftl.server")


def _query_param(query: str, name: str) -> str | None:
    """The last value of a query parameter, or ``None`` when absent."""
    if not query:
        return None
    values = parse_qs(query, keep_blank_values=True).get(name)
    return values[-1] if values else None


@dataclass(frozen=True)
class ServerConfig:
    """Daemon knobs (everything the CLI ``ftl serve`` flags map onto).

    ``workers`` is the number of **shards**: ``1`` serves every batch
    through one in-process shard (no fork); ``N > 1`` forks ``N``
    worker processes at startup, partitions the candidate pool across
    them by home-cell consistent hashing, and scatter-gathers each
    ``/v1/link`` batch (see
    :class:`~repro.service.supervisor.ShardSupervisor`).
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_batch_size: int = DEFAULT_MAX_BATCH_SIZE
    max_wait_ms: float = DEFAULT_MAX_WAIT_MS
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    workers: int = 1
    session_ttl_s: float = DEFAULT_SESSION_TTL_S
    max_body_bytes: int = protocol.DEFAULT_MAX_BODY_BYTES
    default_timeout_ms: float | None = None
    sweep_interval_s: float = 30.0
    #: Bind a span sink in batch worker threads so engine/store stage
    #: timers feed the ``/metrics`` histograms.  Off = timers no-op.
    spans: bool = True
    #: Server-side cap on a ``/v1/watch`` long-poll's ``wait_ms``.
    watch_max_wait_ms: float = 30_000.0
    #: Threads dedicated to ``/v1/watch`` long-polls.  Watch waits can
    #: park a thread for ``watch_max_wait_ms``, so they never share the
    #: default executor with ingest/flush handlers and the sweeper —
    #: a burst of watchers would starve all other off-loop work.
    #: Watchers beyond the cap queue for a free watch thread.
    watch_concurrency: int = 32
    #: Delta blocks accumulated before the sweeper folds them into the
    #: main ST-index (see :meth:`StreamRuntime.maybe_merge`).
    merge_min_blocks: int = DEFAULT_MERGE_MIN_BLOCKS

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")
        if self.max_body_bytes < 1:
            raise ValidationError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )
        if self.sweep_interval_s <= 0:
            raise ValidationError(
                f"sweep_interval_s must be positive, got {self.sweep_interval_s}"
            )
        if self.watch_max_wait_ms < 0:
            raise ValidationError(
                f"watch_max_wait_ms must be >= 0, got {self.watch_max_wait_ms}"
            )
        if self.merge_min_blocks < 1:
            raise ValidationError(
                f"merge_min_blocks must be >= 1, got {self.merge_min_blocks}"
            )
        if self.watch_concurrency < 1:
            raise ValidationError(
                f"watch_concurrency must be >= 1, got {self.watch_concurrency}"
            )


class LinkServer:
    """The daemon: routes, batching, sessions, lifecycle.

    Parameters
    ----------
    engine:
        A fitted :class:`~repro.core.engine.LinkEngine`.
    pool:
        Resident candidate pool served to ``/link`` requests without
        their own candidates.
    options:
        Server-default :class:`LinkOptions` (falls back to the
        engine's).
    config:
        Network and scheduling knobs; see :class:`ServerConfig`.
    clock:
        Injectable monotonic clock (session-TTL tests control time).
    store:
        Optional :class:`~repro.store.TrajectoryStore` backing the
        pool; enables ingest-session flushes into its append log.
    provenance:
        Data-source descriptor surfaced by ``/healthz`` and the
        startup log (see :meth:`ServiceState.health`).
    """

    def __init__(
        self,
        engine: LinkEngine,
        pool,
        options: LinkOptions | None = None,
        config: ServerConfig = ServerConfig(),
        clock=time.monotonic,
        store=None,
        provenance: dict | None = None,
        model_artifact_id: str | None = None,
    ) -> None:
        self._config = config
        self._state = ServiceState(
            engine=engine,
            pool=list(pool),
            options=options if options is not None else engine.options,
            session_ttl_s=config.session_ttl_s,
            clock=clock,
            store=store,
            provenance=provenance,
            model_artifact_id=model_artifact_id,
        )
        self._clock = clock
        # The supervisor is built here (partitions computed) but forks
        # its workers in start(), before the asyncio listener exists,
        # so children inherit engine + pool copy-on-write and no server
        # sockets.  With one worker it forks nothing.
        self._supervisor = ShardSupervisor(
            self._state, config.workers, spans=config.spans
        )
        # A store-backed daemon is a *streaming* daemon: the runtime
        # owns the delta log, the standing-query registry and the
        # background-merge policy, and the supervisor's flush/evict
        # hooks drive it.  Changed-pair re-scoring goes to the shards
        # owning each candidate.
        if store is not None:
            self._state.stream = StreamRuntime(
                store,
                engine,
                self._state.pool,
                self._state.options,
                metrics=self._state.metrics,
                clock=clock,
                scorer=self._supervisor.score_pairs,
                engine_lock=self._state.engine_lock,
                merge_min_blocks=config.merge_min_blocks,
            )
        # Span and evidence sinks live in per-thread context, so bind
        # them inside the batch worker as it starts: coordinator stages
        # (queue wait, assign scoring and solve) accumulate into *this*
        # server's metrics, and concurrent servers in one process (the
        # test suite) never see each other's stages.  Shards bind their
        # own sinks for the engine work they run.
        self._executor = ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix="ftl-batch",
            initializer=self._bind_batch_sinks,
        )
        # /v1/watch long-polls park a thread for up to
        # watch_max_wait_ms; a dedicated pool keeps them from starving
        # the default executor that serves ingest/flush handlers and
        # the sweeper.  Threads spawn lazily, so an idle daemon (or one
        # without a store) pays nothing.
        self._watch_executor = ThreadPoolExecutor(
            max_workers=config.watch_concurrency,
            thread_name_prefix="ftl-watch",
        )
        self._batcher = MicroBatcher(
            runner=self._supervisor.link_requests,
            max_batch_size=config.max_batch_size,
            max_wait_ms=config.max_wait_ms,
            queue_limit=config.queue_limit,
            metrics=self._state.metrics,
            executor=self._executor,
            clock=clock,
        )
        self._server: asyncio.base_events.Server | None = None
        self._sweeper: asyncio.Task | None = None
        self._shutdown = asyncio.Event()
        self._draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def state(self) -> ServiceState:
        return self._state

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` requests)."""
        if self._server is None or not self._server.sockets:
            raise ValidationError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> None:
        # Fork the shard workers first: they must not inherit the
        # accept socket (or any connection state) created below.
        self._supervisor.start()
        await self._batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self._config.host, self._config.port
        )
        self._sweeper = asyncio.get_running_loop().create_task(
            self._sweep_sessions()
        )

    async def stop(self) -> None:
        """Graceful drain: stop accepting, flush the queue, release threads."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._batcher.stop()
        if self._sweeper is not None:
            self._sweeper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sweeper
            self._sweeper = None
        self._executor.shutdown(wait=True)
        # Wake parked long-polls first so the watch pool drains now,
        # not after each watcher's full wait_ms elapses.
        if self._state.stream is not None:
            self._state.stream.registry.close()
        self._watch_executor.shutdown(wait=True)
        # After the batcher drain nothing is in flight, so worker
        # shutdown loses no queued work.
        self._supervisor.stop()

    def request_shutdown(self) -> None:
        """Signal-safe trigger for :meth:`serve_until_shutdown`."""
        self._shutdown.set()

    def install_signal_handlers(self) -> None:
        """Drain on SIGTERM/SIGINT where the platform supports it."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

    async def serve_until_shutdown(
        self, shutdown_after_s: float | None = None
    ) -> None:
        """Serve until a shutdown request (or a timeout), then drain."""
        try:
            if shutdown_after_s is None:
                await self._shutdown.wait()
            else:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        self._shutdown.wait(), timeout=shutdown_after_s
                    )
        finally:
            await self.stop()

    async def _sweep_sessions(self) -> None:
        interval = min(self._config.sweep_interval_s, self._config.session_ttl_s)
        while True:
            await asyncio.sleep(interval)
            await self._off_loop(self._sweep_shards)
            if self._state.stream is not None:
                await self._off_loop(self._merge_deltas)

    def _merge_deltas(self) -> None:
        """Background fold of the delta log into the main ST-index."""
        try:
            self._state.stream.maybe_merge()
        except Exception:  # noqa: BLE001 - merge must never kill the sweeper
            _LOG.warning("background index delta merge failed", exc_info=True)

    def _sweep_shards(self) -> None:
        """Periodic shard housekeeping (off the event loop: it pings)."""
        self._supervisor.ensure_alive()
        self._supervisor.expire_idle()

    # ------------------------------------------------------------------
    # Batch execution (worker thread)
    # ------------------------------------------------------------------
    def _bind_batch_sinks(self) -> None:
        """Thread initializer for the batch executor: bind both sinks.

        The evidence sink is bound unconditionally — drift detection is
        an always-on correctness signal, not an opt-in timer — while
        the span sink follows ``config.spans``.
        """
        if self._config.spans:
            obs.bind_sink(obs.MetricsSpanSink(self._state.metrics))
        obs.bind_evidence_sink(self._state.evidence)

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except (ProtocolError, PayloadTooLargeError) as exc:
                    status, body = protocol.error_payload(exc)
                    self._write_response(writer, status, body, close=True)
                    break
                if request is None:
                    break
                method, path, query, headers, body_bytes = request
                status, body, trace_id = await self._dispatch(
                    method, path, query, body_bytes
                )
                close = (
                    self._draining
                    or headers.get("connection", "").lower() == "close"
                )
                self._write_response(
                    writer, status, body, close=close, trace_id=trace_id
                )
                await writer.drain()
                if close:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _read_request(self, reader: asyncio.StreamReader):
        """One parsed request, or ``None`` when the peer closed cleanly."""
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            raise ProtocolError("request line too long") from None
        if not line:
            return None
        parts = line.decode("latin-1", "replace").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise ProtocolError("malformed HTTP request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            try:
                hline = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                raise ProtocolError("header line too long") from None
            if hline in (b"\r\n", b"\n"):
                break
            if not hline:
                return None
            if len(headers) >= _MAX_HEADERS:
                raise ProtocolError("too many header lines")
            name, sep, value = hline.decode("latin-1", "replace").partition(":")
            if not sep:
                raise ProtocolError(f"malformed header line {hline!r}")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise ProtocolError("chunked request bodies are not supported")
        raw_length = headers.get("content-length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            raise ProtocolError(
                f"invalid Content-Length {raw_length!r}"
            ) from None
        if length < 0:
            raise ProtocolError(f"invalid Content-Length {length}")
        if length > self._config.max_body_bytes:
            raise PayloadTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{self._config.max_body_bytes} byte limit"
            )
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        return method, path, query, headers, body

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: dict | str,
        close: bool,
        trace_id: str | None = None,
    ) -> None:
        if isinstance(body, str):
            # Pre-rendered text body (the Prometheus exposition).
            payload = body.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            payload = json.dumps(body, default=str).encode("utf-8")
            content_type = "application/json"
        reason = _REASONS.get(status, "OK")
        extra = "Retry-After: 1\r\n" if status == 503 else ""
        if trace_id is not None:
            extra += f"X-Trace-Id: {trace_id}\r\n"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"{extra}\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        self._state.metrics.inc(f"responses_{status}_total")

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, query: str, body: bytes
    ) -> tuple[int, dict | str, str]:
        """Route one request under a fresh trace ID.

        The ID is bound to the task context for the request's lifetime
        (the batcher captures it at submit time), echoed in dict
        response bodies and the ``X-Trace-Id`` header, and stamped on
        the structured ``request`` log event.  Only ``/v1/...`` paths
        route; their route (``/v1/link`` -> ``/link``) also names the
        latency histogram.
        """
        self._state.metrics.inc("requests_total")
        started = self._clock()
        trace_id = obs.new_trace_id()
        token = obs.set_trace_id(trace_id)
        route = path[len("/v1"):] if path.startswith("/v1/") else ""
        try:
            status, payload = await self._route(
                method, route, path, query, body
            )
            if isinstance(payload, dict):
                payload.setdefault("trace_id", trace_id)
            obs.log_event(
                _LOG,
                "request",
                method=method,
                path=path,
                status=status,
                duration_ms=round((self._clock() - started) * 1e3, 3),
            )
            return status, payload, trace_id
        finally:
            obs.reset_trace_id(token)
            label = route.strip("/").replace("/", "_") or "root"
            self._state.metrics.observe(
                f"request_{label}", self._clock() - started
            )

    async def _route(
        self, method: str, route: str, path: str, query: str, body: bytes
    ) -> tuple[int, dict | str]:
        try:
            if route == "/healthz":
                self._require_method(method, "GET")
                return 200, self._envelope(
                    await self._off_loop(self._handle_health)
                )
            if route == "/metrics":
                self._require_method(method, "GET")
                # The Prometheus text exposition stays bare: a JSON
                # envelope is not scrapeable.
                return 200, await self._off_loop(self._handle_metrics, query)
            if route == "/link":
                self._require_method(method, "POST")
                return 200, await self._handle_link(body)
            if route == "/assign":
                self._require_method(method, "POST")
                return 200, await self._handle_assign(body)
            if route == "/ingest":
                self._require_method(method, "POST")
                return 200, self._envelope(
                    await self._off_loop(self._handle_ingest, body)
                )
            if route == "/queries":
                if method == "GET":
                    return 200, self._envelope(self._handle_queries_list())
                self._require_method(method, "POST")
                return 200, self._envelope(
                    await self._off_loop(self._handle_queries, body)
                )
            if route == "/watch":
                self._require_method(method, "GET")
                return 200, self._envelope(await self._handle_watch(query))
            if route == "/admin/model":
                if method == "GET":
                    return 200, self._envelope(
                        await self._off_loop(self._handle_model_info)
                    )
                self._require_method(method, "POST")
                return 200, self._envelope(await self._handle_admin_model(body))
            return 404, {
                "error": {
                    "type": "NotFound",
                    "message": f"unknown endpoint {path!r}; known: "
                               "/v1/link /v1/assign /v1/ingest /v1/queries "
                               "/v1/watch /v1/healthz /v1/metrics "
                               "/v1/admin/model",
                    "status": 404,
                }
            }
        except _MethodNotAllowed as exc:
            return 405, {
                "error": {
                    "type": "MethodNotAllowed",
                    "message": str(exc),
                    "status": 405,
                }
            }
        except Exception as exc:  # noqa: BLE001 - mapped, never leaked
            return protocol.error_payload(exc)

    # ------------------------------------------------------------------
    # Endpoint payloads
    # ------------------------------------------------------------------
    async def _off_loop(self, fn, *args):
        """Run a blocking handler on the default executor.

        Health/metrics/ingest make shard round trips (under the engine
        lock, for the in-process shard), and a streaming daemon's
        ingest flush runs the whole incremental pipeline (delta block
        write + standing-query re-scoring); none may park the loop.
        """
        return await asyncio.get_running_loop().run_in_executor(
            None, fn, *args
        )

    def _envelope(
        self,
        data: dict,
        shards: tuple[protocol.ShardInfo, ...] | None = None,
    ) -> dict:
        return protocol.ResponseEnvelope(
            data=data, shard_count=self._supervisor.n_shards, shards=shards
        ).to_wire()

    def _handle_health(self) -> dict:
        data = self._state.health()
        data["sessions"] = len(self._supervisor.sessions)
        data["workers"] = self._supervisor.worker_status()
        if self._state.stream is not None:
            data["standing_queries"] = len(self._state.stream.registry)
            data["index_delta_blocks"] = self._state.stream.n_delta_blocks()
        return data

    # ------------------------------------------------------------------
    # Model lifecycle (/v1/admin/model; see docs/models.md)
    # ------------------------------------------------------------------
    def _handle_model_info(self) -> dict:
        """GET /v1/admin/model: the serving model + the store registry."""
        data: dict = {
            "serving_artifact": self._state.model_artifact_id,
            "n_buckets": self._state.engine.config.n_buckets,
            "config": self._state.engine.config.to_dict(),
            "swaps": self._state.metrics.counter("model_swaps_total"),
        }
        if self._state.store is not None:
            from repro.store import open_store

            # Re-read the manifest from disk: `ftl model fit/activate`
            # in another process may have registered artifacts since
            # this daemon opened its handle.
            store = open_store(self._state.store.path)
            data["store_active_model"] = store.active_model_id
            data["artifacts"] = [
                {"id": info.artifact_id, "created_at": info.created_at}
                for info in store.list_models()
            ]
        return data

    def _load_swap_artifact(self, artifact_id: str | None):
        from repro.store import open_store

        store = open_store(self._state.store.path)
        return store.load_model(artifact_id)

    async def _handle_admin_model(self, body: bytes) -> dict:
        """POST /v1/admin/model: hot-swap the serving model pair.

        Loads the named (or active) artifact from the store, then
        swaps atomically: the micro-batcher drains — every already
        submitted request finishes under the old engine; submissions
        arriving inside the swap window get a 503 with ``Retry-After``
        rather than a half-swapped fleet — the coordinator adopts the
        new engine under the engine lock, the stream runtime and every
        shard worker are rebound, and the batcher restarts.  Sharded
        responses stay bit-identical because workers rebuild their
        engines from the same canonical count tables + config snapshot
        the coordinator serves (see ``swap_model`` in
        :mod:`repro.service.shard`).
        """
        wire = protocol.admin_model_from_wire(
            protocol.parse_json_body(body, self._config.max_body_bytes)
        )
        if self._state.store is None:
            raise StateError(
                "model hot-swap needs a store-backed daemon; "
                "start with `ftl serve --store <dir>`"
            )
        loop = asyncio.get_running_loop()
        artifact = await loop.run_in_executor(
            None, self._load_swap_artifact, wire.artifact_id
        )
        previous = self._state.model_artifact_id
        if artifact.artifact_id == previous:
            return {
                "swapped": False,
                "artifact": artifact.artifact_id,
                "previous": previous,
            }
        engine = LinkEngine(
            artifact.rejection, artifact.acceptance, options=self._state.options
        )
        self._state.metrics.inc("model_swap_requests_total")
        await self._batcher.stop()
        try:
            await loop.run_in_executor(
                None, self._swap_engine_everywhere, engine, artifact
            )
        finally:
            await self._batcher.start()
        return {
            "swapped": True,
            "artifact": artifact.artifact_id,
            "previous": previous,
            "provenance": artifact.provenance.to_dict(),
        }

    def _swap_engine_everywhere(self, engine: LinkEngine, artifact) -> None:
        """Adopt ``engine`` on the coordinator, stream and all shards.

        Runs off-loop with the batcher drained.  Coordinator first:
        a worker that crashes mid-broadcast respawns from the already
        swapped ``state.engine`` (the supervisor reads it at fork), so
        the fleet converges on the new model either way.
        """
        with self._state.engine_lock:
            self._state.adopt_engine(engine, artifact.artifact_id)
            if self._state.stream is not None:
                self._state.stream.swap_engine(engine)
            self._supervisor.broadcast_model(
                artifact.rejection.to_dict(),
                artifact.acceptance.to_dict(),
                artifact.artifact_id,
            )

    def _drift_gauge(self, evidence: dict) -> list:
        """``ftl_model_drift{model=...}`` series against the live engine."""
        engine = self._state.engine
        return [
            (
                {"model": "rejection"},
                obs.drift_against(engine.rejection_model.prob_table, evidence),
            ),
            (
                {"model": "acceptance"},
                obs.drift_against(engine.acceptance_model.prob_table, evidence),
            ),
        ]

    def _handle_metrics(self, query: str) -> str:
        """The Prometheus text exposition (the only format served)."""
        fmt = _query_param(query, "format")
        if fmt not in (None, "prometheus", "text"):
            raise ValidationError(
                f"unknown metrics format {fmt!r}; use 'prometheus'"
            )
        return self._render_sharded_metrics()

    def _render_sharded_metrics(self) -> str:
        """One exposition document aggregated across the shards.

        Histogram families carry an **unlabelled aggregate** series —
        coordinator + all workers merged on raw bucket counts via
        :func:`repro.obs.merge_histogram_snapshots` (merging cumulative
        buckets would double-count; ``validate_exposition`` guards the
        invariant) — plus one ``{shard="i"}`` series per worker.
        Worker counters appear *only* shard-labelled so a scrape's
        ``sum()`` over the coordinator's unlabelled series is never
        double-counted.
        """
        counters, histograms = self._state.metrics.snapshots()
        worker_payloads = self._supervisor.metrics_payloads()
        counter_families: dict[str, list] = {
            name: [({}, value)] for name, value in counters.items()
        }
        for shard_id, payload in sorted(worker_payloads.items()):
            for name, value in payload["counters"].items():
                counter_families.setdefault(name, []).append(
                    ({"shard": str(shard_id)}, value)
                )
        all_snaps: dict[str, list] = {
            name: [snap] for name, snap in histograms.items()
        }
        shard_series: dict[str, list] = {}
        for shard_id, payload in sorted(worker_payloads.items()):
            for name, snap in payload["histograms"].items():
                all_snaps.setdefault(name, []).append(snap)
                shard_series.setdefault(name, []).append(
                    ({"shard": str(shard_id)}, snap)
                )
        histogram_families = {
            name: [({}, obs.merge_histogram_snapshots(snaps))]
            + shard_series.get(name, [])
            for name, snaps in all_snaps.items()
        }
        # Fleet-wide drift: the engine runs inside the shards, so the
        # coordinator's own tallies (local-candidate requests) merge
        # with every shard's evidence snapshot.
        evidence = obs.merge_evidence(
            [self._state.evidence.snapshot()]
            + [
                payload["evidence"]
                for payload in worker_payloads.values()
                if "evidence" in payload
            ]
        )
        gauges = {
            "queue_depth": self._batcher.queue_depth,
            "sessions": len(self._supervisor.sessions),
            "pool_size": len(self._state.pool),
            "model_drift": self._drift_gauge(evidence),
            "shard_count": self._supervisor.n_shards,
            "shard_plan_stale": 1.0 if self._supervisor.plan_drift() else 0.0,
            "worker_up": [
                ({"shard": str(shard_id)}, 1.0 if shard_id in worker_payloads else 0.0)
                for shard_id in range(self._supervisor.n_shards)
            ],
        }
        if self._state.stream is not None:
            gauges.update(self._state.stream.gauges())
        return obs.render_exposition(counter_families, histogram_families, gauges)

    @staticmethod
    def _require_method(method: str, expected: str) -> None:
        if method != expected:
            raise _MethodNotAllowed(
                f"method {method} is not allowed here; use {expected}"
            )

    async def _handle_link(self, body: bytes) -> dict:
        wire = protocol.link_request_from_wire(
            protocol.parse_json_body(body, self._config.max_body_bytes),
            self._state.options,
        )
        request = LinkRequest(
            query=wire.query, candidates=wire.candidates, options=wire.options
        )
        timeout_ms = (
            wire.timeout_ms
            if wire.timeout_ms is not None
            else self._config.default_timeout_ms
        )
        self._state.metrics.inc("link_requests_total")
        result, shards = await self._batcher.submit(
            request, timeout_ms=timeout_ms
        )
        return self._envelope(protocol.result_to_wire(result), shards=shards)

    async def _handle_assign(self, body: bytes) -> dict:
        wire = protocol.assign_request_from_wire(
            protocol.parse_json_body(body, self._config.max_body_bytes),
            self._state.options,
        )
        self._state.metrics.inc("assign_requests_total")
        # Scoring a |Q| x |pool| batch is the heaviest request the
        # daemon serves; it runs on the batch executor (where the span
        # sink is bound, so edge_scoring/component_split/solve land in
        # the stage histograms) rather than inline on the loop.
        data, shards = await asyncio.get_running_loop().run_in_executor(
            self._executor, self._assign_compute, wire
        )
        return self._envelope(data, shards=shards)

    def _assign_compute(
        self, wire: protocol.AssignWireRequest
    ) -> tuple[dict, tuple[protocol.ShardInfo, ...]]:
        """Score the edge set, then solve the global matching.

        Under ``--workers N`` each shard scores its home-cell slice of
        the pool and ``merge_partials`` restores the exact one-shard
        ranking per query (property-tested in ``tests/test_shard.py``),
        so the coordinator's solve sees the same edges — and returns
        the same matching — whatever the shard count.
        """
        from repro.assign import graph_from_link_results, solve

        requests = [
            LinkRequest(query=q, options=wire.options) for q in wire.queries
        ]
        pool_ids = [t.traj_id for t in self._state.pool]
        with obs.span("edge_scoring"):
            scattered = self._supervisor.link_requests(requests)
        results = [result for result, _ in scattered]
        shards = self._aggregate_shards(
            info for _, infos in scattered for info in infos
        )
        graph = graph_from_link_results(
            results,
            [q.traj_id for q in wire.queries],
            pool_ids,
            wire.min_score,
            len(pool_ids) * len(requests),
        )
        assignment = solve(graph, backend=wire.solver)
        data = assignment.to_dict()
        data["unassigned"] = assignment.unassigned(graph.query_ids)
        data["density"] = graph.density
        return data, shards

    @staticmethod
    def _aggregate_shards(
        infos,
    ) -> tuple[protocol.ShardInfo, ...]:
        """Per-shard totals across an assign request's scattered batches."""
        agg: dict[int, dict] = {}
        for info in infos:
            cur = agg.setdefault(
                info.shard,
                {
                    "pid": info.pid,
                    "n_candidates": 0,
                    "n_matched": 0,
                    "elapsed_ms": 0.0,
                },
            )
            cur["n_candidates"] += info.n_candidates
            cur["n_matched"] += info.n_matched
            cur["elapsed_ms"] = max(cur["elapsed_ms"], info.elapsed_ms)
        return tuple(
            protocol.ShardInfo(shard=shard, **agg[shard])
            for shard in sorted(agg)
        )

    def _handle_ingest(self, body: bytes) -> dict:
        wire = protocol.ingest_request_from_wire(
            protocol.parse_json_body(body, self._config.max_body_bytes)
        )
        return self._supervisor.ingest(wire)

    # ------------------------------------------------------------------
    # Standing queries (/queries + /watch; see docs/streaming.md)
    # ------------------------------------------------------------------
    def _require_stream(self) -> StreamRuntime:
        stream = self._state.stream
        if stream is None:
            raise StateError(
                "standing queries need a store-backed daemon; "
                "start with `ftl serve --store <dir>`"
            )
        return stream

    def _handle_queries(self, body: bytes) -> dict:
        wire = protocol.standing_query_from_wire(
            protocol.parse_json_body(body, self._config.max_body_bytes),
            self._state.options,
        )
        stream = self._require_stream()
        if wire.unregister is not None:
            removed = stream.unregister_query(wire.unregister)
            return {"unregistered": wire.unregister, "removed": removed}
        return stream.register_query(
            wire.query, query_id=wire.query_id, options=wire.options
        )

    def _handle_queries_list(self) -> dict:
        stream = self._require_stream()
        return {"queries": stream.registry.summaries()}

    async def _handle_watch(self, query: str) -> dict:
        """One ``/v1/watch`` long-poll round.

        The wait blocks on the registry's condition variable, so it
        runs in the dedicated watch executor — a long-poll must never
        park the event loop, and must not occupy the shared default
        executor that serves ingest/flush handlers and the sweeper.
        """
        stream = self._require_stream()
        query_id = _query_param(query, "query")
        if not query_id:
            raise ValidationError(
                "watch needs a ?query=<standing query id> parameter"
            )
        raw_since = _query_param(query, "since") or "0"
        try:
            since = int(raw_since)
        except ValueError:
            raise ValidationError(
                f"since must be an integer sequence number, got {raw_since!r}"
            ) from None
        raw_wait = _query_param(query, "wait_ms")
        if raw_wait is None:
            wait_ms = 0.0
        else:
            try:
                wait_ms = float(raw_wait)
            except ValueError:
                raise ValidationError(
                    f"wait_ms must be a number, got {raw_wait!r}"
                ) from None
            if wait_ms < 0:
                raise ValidationError(f"wait_ms must be >= 0, got {wait_ms}")
        wait_ms = min(wait_ms, self._config.watch_max_wait_ms)
        return await asyncio.get_running_loop().run_in_executor(
            self._watch_executor,
            functools.partial(
                stream.registry.wait_events,
                query_id,
                since=since,
                timeout_s=wait_ms / 1e3,
            ),
        )


class _MethodNotAllowed(Exception):
    """Internal routing signal; rendered as a structured 405."""


class BackgroundServer:
    """Run a :class:`LinkServer` on a dedicated thread and event loop.

    The blocking harness used by tests, examples and the load
    benchmark::

        with BackgroundServer(engine, pool, config=ServerConfig(port=0)) as bg:
            client = ServiceClient(*bg.address)
            ...

    ``port=0`` binds an ephemeral port; :attr:`address` reports the
    real one once :meth:`start` returns.
    """

    def __init__(
        self,
        engine: LinkEngine,
        pool,
        options: LinkOptions | None = None,
        config: ServerConfig = ServerConfig(),
        clock=time.monotonic,
        store=None,
        provenance: dict | None = None,
        model_artifact_id: str | None = None,
    ) -> None:
        self._args = (
            engine, pool, options, config, clock, store, provenance,
            model_artifact_id,
        )
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._address: tuple[str, int] | None = None
        self._error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: LinkServer | None = None

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise ValidationError("server is not started")
        return self._address

    @property
    def server(self) -> LinkServer:
        if self._server is None:
            raise ValidationError("server is not started")
        return self._server

    def start(self) -> "BackgroundServer":
        if self._thread is not None:
            raise ValidationError("server already started")
        self._thread = threading.Thread(
            target=self._thread_main, name="ftl-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            raise self._error
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._server is not None:
            self._loop.call_soon_threadsafe(self._server.request_shutdown)
        self._thread.join(timeout=30)
        self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        (engine, pool, options, config, clock, store, provenance,
         model_artifact_id) = self._args
        server = LinkServer(engine, pool, options=options, config=config,
                            clock=clock, store=store, provenance=provenance,
                            model_artifact_id=model_artifact_id)
        await server.start()
        self._server = server
        self._loop = asyncio.get_running_loop()
        self._address = server.address
        self._ready.set()
        await server.serve_until_shutdown()
