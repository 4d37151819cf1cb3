"""Wire protocol of the linking daemon: JSON schemas and error mapping.

Everything here is pure (bytes/dicts in, dataclasses/dicts out) so the
protocol is testable without opening a socket.  The daemon speaks JSON
over HTTP/1.1; the schemas are documented in ``docs/service.md``.

Design rules:

* every request failure maps to a *structured* error body
  ``{"error": {"type", "message", "status"}}`` via :func:`error_payload`
  — a traceback is never put on the wire;
* the error type names come from :mod:`repro.errors`, so a client can
  switch on them without parsing messages;
* floats survive the round trip bit-exactly: ``json`` emits
  ``repr``-shortest forms, which parse back to the identical float64,
  so a ``/link`` response equals the in-process
  :meth:`~repro.core.engine.LinkEngine.link_batch` result bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.engine import Candidate, LinkOptions, LinkResult
from repro.core.trajectory import Trajectory
from repro.errors import (
    DeadlineExceededError,
    FTLError,
    NotFittedError,
    PayloadTooLargeError,
    ProtocolError,
    ServiceOverloadedError,
    StateError,
    ValidationError,
)

#: Default cap on request body size (bytes); larger bodies get HTTP 413.
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

#: The current wire API version; endpoints live under ``/v1/...``.
API_VERSION = "v1"

#: ``LinkOptions`` fields settable over the wire.  ``prefilter`` is
#: deliberately absent: it is a live object, not a serialisable value.
WIRE_OPTION_KEYS = ("method", "alpha1", "alpha2", "phi_r", "top_k")


# ----------------------------------------------------------------------
# Body parsing
# ----------------------------------------------------------------------
def parse_json_body(raw: bytes, max_bytes: int = DEFAULT_MAX_BODY_BYTES):
    """Decode a request body, mapping every failure to a protocol error."""
    if len(raw) > max_bytes:
        raise PayloadTooLargeError(
            f"request body of {len(raw)} bytes exceeds the {max_bytes} byte limit"
        )
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"request body is not valid UTF-8: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request body is not valid JSON: {exc}") from None


def _require_object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"{what} must be a JSON object, got {type(obj).__name__}"
        )
    return obj


# ----------------------------------------------------------------------
# Trajectories
# ----------------------------------------------------------------------
def trajectory_to_wire(trajectory: Trajectory) -> dict:
    """``{"traj_id": ..., "records": [[t, x, y], ...]}``."""
    return {
        "traj_id": trajectory.traj_id,
        "records": [
            [float(t), float(x), float(y)]
            for t, x, y in zip(trajectory.ts, trajectory.xs, trajectory.ys)
        ],
    }


def records_from_wire(obj, what: str = "records") -> list[list[float]]:
    """Validate a ``[[t, x, y], ...]`` array (shared by /link and /ingest)."""
    if not isinstance(obj, list):
        raise ProtocolError(f"{what} must be an array of [t, x, y] triples")
    for i, item in enumerate(obj):
        if (
            not isinstance(item, list)
            or len(item) != 3
            or not all(isinstance(v, (int, float)) for v in item)
        ):
            raise ProtocolError(
                f"{what}[{i}] must be a numeric [t, x, y] triple, got {item!r}"
            )
    return obj


def trajectory_from_wire(obj, what: str = "trajectory") -> Trajectory:
    """Parse and validate one wire trajectory."""
    body = _require_object(obj, what)
    unknown = set(body) - {"traj_id", "records"}
    if unknown:
        raise ProtocolError(f"{what} has unknown keys: {sorted(unknown)}")
    records = records_from_wire(body.get("records"), f"{what}.records")
    ts = [r[0] for r in records]
    xs = [r[1] for r in records]
    ys = [r[2] for r in records]
    try:
        return Trajectory(ts, xs, ys, body.get("traj_id"), sort=True)
    except ValidationError as exc:
        raise ProtocolError(f"invalid {what}: {exc}") from None


# ----------------------------------------------------------------------
# Options
# ----------------------------------------------------------------------
def options_from_wire(obj, base: LinkOptions) -> LinkOptions:
    """Apply a wire ``options`` object on top of the server defaults.

    Unknown keys are rejected (the caller is probably misspelling a
    knob, and a silently ignored knob is worse than an error); known
    keys are validated by ``LinkOptions`` itself, so an unknown
    ``method`` or out-of-range alpha surfaces as a 400.
    """
    body = _require_object(obj, "options")
    unknown = set(body) - set(WIRE_OPTION_KEYS)
    if unknown:
        raise ProtocolError(
            f"options has unknown keys: {sorted(unknown)}; "
            f"settable: {list(WIRE_OPTION_KEYS)}"
        )
    if not body:
        return base
    if "method" in body and not isinstance(body["method"], str):
        raise ProtocolError(f"options.method must be a string, got {body['method']!r}")
    for key in ("alpha1", "alpha2", "phi_r"):
        if key in body and not isinstance(body[key], (int, float)):
            raise ProtocolError(
                f"options.{key} must be a number, got {body[key]!r}"
            )
    top_k = body.get("top_k")
    if top_k is not None and not isinstance(top_k, int):
        raise ProtocolError(f"options.top_k must be an integer, got {top_k!r}")
    return base.with_updates(**body)


# ----------------------------------------------------------------------
# /link
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinkWireRequest:
    """A parsed ``/link`` request body."""

    query: Trajectory
    candidates: tuple[Trajectory, ...] | None
    options: LinkOptions
    timeout_ms: float | None


def link_request_from_wire(obj, base_options: LinkOptions) -> LinkWireRequest:
    """Parse and validate one ``/link`` body.

    Schema::

        {"query": {"traj_id": ..., "records": [[t, x, y], ...]},
         "candidates": [<trajectory>, ...],   # optional; default: pool
         "options": {"method": ..., ...},     # optional
         "timeout_ms": 250}                   # optional deadline
    """
    body = _require_object(obj, "request")
    unknown = set(body) - {"query", "candidates", "options", "timeout_ms"}
    if unknown:
        raise ProtocolError(f"request has unknown keys: {sorted(unknown)}")
    if "query" not in body:
        raise ProtocolError("request is missing the required 'query' field")
    query = trajectory_from_wire(body["query"], "query")
    candidates = None
    if body.get("candidates") is not None:
        raw = body["candidates"]
        if not isinstance(raw, list):
            raise ProtocolError("candidates must be an array of trajectories")
        candidates = tuple(
            trajectory_from_wire(c, f"candidates[{i}]") for i, c in enumerate(raw)
        )
    options = (
        options_from_wire(body["options"], base_options)
        if body.get("options") is not None
        else base_options
    )
    timeout_ms = body.get("timeout_ms")
    if timeout_ms is not None:
        if not isinstance(timeout_ms, (int, float)) or timeout_ms <= 0:
            raise ProtocolError(
                f"timeout_ms must be a positive number, got {timeout_ms!r}"
            )
        timeout_ms = float(timeout_ms)
    return LinkWireRequest(
        query=query, candidates=candidates, options=options, timeout_ms=timeout_ms
    )


def result_to_wire(result: LinkResult) -> dict:
    """Serialise a :class:`LinkResult` (exactly its ``to_dict`` shape)."""
    return result.to_dict()


def result_from_wire(obj) -> LinkResult:
    """Rebuild a :class:`LinkResult` from its wire form (client side)."""
    body = _require_object(obj, "result")
    try:
        candidates = tuple(
            Candidate(
                candidate_id=c["candidate_id"],
                score=float(c["score"]),
                p_rejection=float(c["p_rejection"]),
                p_acceptance=float(c["p_acceptance"]),
                n_mutual=int(c["n_mutual"]),
                n_incompatible=int(c["n_incompatible"]),
            )
            for c in body["candidates"]
        )
        return LinkResult(
            query_id=body["query_id"],
            method=body["method"],
            candidates=candidates,
        )
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed link result on the wire: {exc}") from None


# ----------------------------------------------------------------------
# /assign
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AssignWireRequest:
    """A parsed ``/assign`` request body."""

    queries: tuple[Trajectory, ...]
    options: LinkOptions
    min_score: float
    solver: str


def assign_request_from_wire(obj, base_options: LinkOptions) -> AssignWireRequest:
    """Parse and validate one ``/assign`` body.

    Schema::

        {"queries": [<trajectory>, ...],     # required, non-empty
         "options": {"method": ..., ...},    # optional; default scores
                                             #   every pair (see below)
         "min_score": 1e-6,                  # optional edge threshold
         "solver": "auto"}                   # optional assign backend

    When ``options`` is absent the daemon scores with the subsystem's
    permissive score-all semantics
    (:data:`repro.assign.graph.PERMISSIVE_LINK_OPTIONS`) so the solver
    sees every positive-score edge; an explicit ``options`` object is
    applied on top of the server defaults, exactly like ``/link``
    (``top_k`` is forced off either way — a truncated ranking would
    silently drop edges).
    """
    from repro.assign.graph import PERMISSIVE_LINK_OPTIONS
    from repro.assign.solver import BACKENDS

    body = _require_object(obj, "request")
    unknown = set(body) - {"queries", "options", "min_score", "solver"}
    if unknown:
        raise ProtocolError(f"request has unknown keys: {sorted(unknown)}")
    raw = body.get("queries")
    if not isinstance(raw, list) or not raw:
        raise ProtocolError(
            "request needs a non-empty 'queries' array of trajectories"
        )
    queries = tuple(
        trajectory_from_wire(q, f"queries[{i}]") for i, q in enumerate(raw)
    )
    ids = [q.traj_id for q in queries]
    if any(i is None for i in ids):
        raise ProtocolError(
            "every assign query needs a traj_id (it keys the matching)"
        )
    if len(set(ids)) != len(ids):
        raise ProtocolError("assign queries have duplicate traj_ids")
    options = (
        options_from_wire(body["options"], base_options)
        if body.get("options") is not None
        else PERMISSIVE_LINK_OPTIONS
    )
    if options.top_k is not None:
        options = options.with_updates(top_k=None)
    min_score = body.get("min_score", 1e-6)
    if not isinstance(min_score, (int, float)) or min_score < 0:
        raise ProtocolError(
            f"min_score must be a number >= 0, got {min_score!r}"
        )
    solver = body.get("solver", "auto")
    if not isinstance(solver, str) or solver not in BACKENDS:
        raise ProtocolError(
            f"solver must be one of {list(BACKENDS)}, got {solver!r}"
        )
    return AssignWireRequest(
        queries=queries,
        options=options,
        min_score=float(min_score),
        solver=solver,
    )


# ----------------------------------------------------------------------
# /ingest
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IngestWireRequest:
    """A parsed ``/ingest`` request body."""

    session: str
    query_records: list[list[float]]
    candidate_records: dict[str, list[list[float]]]
    expire_before: float | None
    decide: bool
    flush: bool


def ingest_request_from_wire(obj) -> IngestWireRequest:
    """Parse and validate one ``/ingest`` body.

    Schema::

        {"session": "case-42",
         "query": [[t, x, y], ...],                  # optional
         "candidates": {"cand-1": [[t, x, y], ...]}, # optional
         "expire_before": 1700000000.0,              # optional
         "decide": true,                             # optional (default)
         "flush": false}                             # optional: persist the
                                                     # session to the store
    """
    body = _require_object(obj, "request")
    unknown = set(body) - {
        "session", "query", "candidates", "expire_before", "decide", "flush"
    }
    if unknown:
        raise ProtocolError(f"request has unknown keys: {sorted(unknown)}")
    session = body.get("session")
    if not isinstance(session, str) or not session:
        raise ProtocolError("request needs a non-empty string 'session' id")
    query_records = records_from_wire(body.get("query", []), "query")
    raw_candidates = body.get("candidates", {})
    if not isinstance(raw_candidates, dict):
        raise ProtocolError("candidates must map candidate id -> record array")
    candidate_records = {
        cid: records_from_wire(recs, f"candidates[{cid!r}]")
        for cid, recs in raw_candidates.items()
    }
    expire_before = body.get("expire_before")
    if expire_before is not None and not isinstance(expire_before, (int, float)):
        raise ProtocolError(
            f"expire_before must be a number, got {expire_before!r}"
        )
    decide = body.get("decide", True)
    if not isinstance(decide, bool):
        raise ProtocolError(f"decide must be a boolean, got {decide!r}")
    flush = body.get("flush", False)
    if not isinstance(flush, bool):
        raise ProtocolError(f"flush must be a boolean, got {flush!r}")
    return IngestWireRequest(
        session=session,
        query_records=query_records,
        candidate_records=candidate_records,
        expire_before=None if expire_before is None else float(expire_before),
        decide=decide,
        flush=flush,
    )


# ----------------------------------------------------------------------
# /admin/model (model lifecycle; see docs/models.md)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdminModelWireRequest:
    """A parsed ``POST /v1/admin/model`` body."""

    artifact_id: str | None


def admin_model_from_wire(obj) -> AdminModelWireRequest:
    """Parse and validate one ``/admin/model`` swap body.

    Schema::

        {"artifact_id": "m-1a2b3c4d5e6f7a8b"}   # optional; default: the
                                                # store's active artifact

    An empty object requests a swap to whatever artifact the store's
    manifest currently marks active (the ``ftl model activate`` +
    ``POST {}`` two-step).
    """
    body = _require_object(obj, "request")
    unknown = set(body) - {"artifact_id"}
    if unknown:
        raise ProtocolError(f"request has unknown keys: {sorted(unknown)}")
    artifact_id = body.get("artifact_id")
    if artifact_id is not None and (
        not isinstance(artifact_id, str) or not artifact_id
    ):
        raise ProtocolError(
            f"artifact_id must be a non-empty string, got {artifact_id!r}"
        )
    return AdminModelWireRequest(artifact_id=artifact_id)


# ----------------------------------------------------------------------
# /queries (standing queries; see docs/streaming.md)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StandingQueryWireRequest:
    """A parsed ``/queries`` request body.

    Exactly one of ``query`` (register/replace) or ``unregister`` is
    set; the parser rejects bodies carrying both.
    """

    query: Trajectory | None
    query_id: str | None
    options: LinkOptions
    unregister: str | None


def standing_query_from_wire(
    obj, base_options: LinkOptions
) -> StandingQueryWireRequest:
    """Parse and validate one ``/queries`` body.

    Schema::

        {"query": {"traj_id": ..., "records": [[t, x, y], ...]},
         "query_id": "watch-42",              # optional; default traj_id
         "options": {"top_k": 5, ...}}        # optional

    or, to remove a standing query::

        {"unregister": "watch-42"}
    """
    body = _require_object(obj, "request")
    unknown = set(body) - {"query", "query_id", "options", "unregister"}
    if unknown:
        raise ProtocolError(f"request has unknown keys: {sorted(unknown)}")
    unregister = body.get("unregister")
    if unregister is not None:
        if not isinstance(unregister, str) or not unregister:
            raise ProtocolError(
                "unregister must be a non-empty standing-query id string"
            )
        if "query" in body or "query_id" in body or "options" in body:
            raise ProtocolError(
                "request cannot both register and unregister a standing query"
            )
        return StandingQueryWireRequest(
            query=None, query_id=None, options=base_options,
            unregister=unregister,
        )
    if "query" not in body:
        raise ProtocolError(
            "request needs 'query' (register) or 'unregister' (remove)"
        )
    query = trajectory_from_wire(body["query"], "query")
    query_id = body.get("query_id")
    if query_id is not None and (not isinstance(query_id, str) or not query_id):
        raise ProtocolError(
            f"query_id must be a non-empty string, got {query_id!r}"
        )
    options = (
        options_from_wire(body["options"], base_options)
        if body.get("options") is not None
        else base_options
    )
    return StandingQueryWireRequest(
        query=query, query_id=query_id, options=options, unregister=None
    )


# ----------------------------------------------------------------------
# v1 response envelope
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardInfo:
    """Per-shard execution provenance attached to a ``/v1/link`` response.

    ``shard`` is the shard index (``-1`` when the request carried its
    own candidates and executed on the coordinator), ``pid`` the
    process that did the work, ``n_candidates`` the size of the pool
    slice the shard scanned, ``n_matched`` how many entries its partial
    ranking contributed, and ``elapsed_ms`` the shard-local link time.
    """

    shard: int
    pid: int
    n_candidates: int
    n_matched: int
    elapsed_ms: float

    def to_wire(self) -> dict:
        return {
            "shard": self.shard,
            "pid": self.pid,
            "n_candidates": self.n_candidates,
            "n_matched": self.n_matched,
            "elapsed_ms": self.elapsed_ms,
        }


@dataclass(frozen=True)
class ResponseEnvelope:
    """The structured body every v1 JSON endpoint answers with.

    Wire shape::

        {"api_version": "v1",
         "shard_count": 2,
         "shards": [{"shard": 0, "pid": ..., ...}, ...],  # /v1/link only
         "data": {...},            # the endpoint's payload
         "trace_id": "..."}        # stamped by the dispatcher

    Error responses are **not** enveloped: they keep the bare
    ``{"error": {...}}`` shape of :func:`error_payload`.
    """

    data: dict
    shard_count: int
    shards: tuple[ShardInfo, ...] | None = None
    api_version: str = field(default=API_VERSION)

    def to_wire(self) -> dict:
        body = {
            "api_version": self.api_version,
            "shard_count": self.shard_count,
            "data": self.data,
        }
        if self.shards is not None:
            body["shards"] = [s.to_wire() for s in self.shards]
        return body


def envelope_data(body: dict) -> dict:
    """Unwrap a v1 envelope body (client side), validating its shape."""
    wrapped = _require_object(body, "response")
    if "data" not in wrapped:
        raise ProtocolError(
            "response is not a v1 envelope (missing 'data'); "
            f"keys: {sorted(wrapped)}"
        )
    return _require_object(wrapped["data"], "response.data")


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
def status_for(exc: BaseException) -> int:
    """The HTTP status an exception maps to.

    The mapping walks the :mod:`repro.errors` hierarchy most-specific
    first; anything unrecognised is an internal error.
    """
    if isinstance(exc, PayloadTooLargeError):
        return 413
    if isinstance(exc, ServiceOverloadedError):
        return 503
    if isinstance(exc, DeadlineExceededError):
        return 504
    if isinstance(exc, (ProtocolError, ValidationError)):
        return 400
    if isinstance(exc, (NotFittedError, StateError)):
        return 409
    return 500


def error_payload(exc: BaseException) -> tuple[int, dict]:
    """``(status, body)`` for an exception; never leaks a traceback.

    Library errors (:class:`~repro.errors.FTLError` subclasses) expose
    their type name and message — they are user-input diagnoses.  Any
    other exception is an internal bug: the body says only
    ``InternalError`` so implementation details stay out of responses.
    """
    status = status_for(exc)
    if isinstance(exc, FTLError) and status != 500:
        kind, message = type(exc).__name__, str(exc)
    else:
        kind, message = "InternalError", "internal server error"
    return status, {"error": {"type": kind, "message": message, "status": status}}
