"""The FTL linking daemon: JSON-over-HTTP serving of the batch engine.

A stdlib-only asyncio subsystem that turns the in-process
:class:`~repro.core.engine.LinkEngine` and
:class:`~repro.core.streaming.StreamingLinker` into a network service:

* :mod:`repro.service.protocol` — wire schemas (the versioned ``/v1``
  response envelope included), parsing, and the mapping from
  :mod:`repro.errors` to structured error responses;
* :mod:`repro.service.state` — shared daemon state: engine, resident
  candidate pool, streaming ingest sessions with idle-TTL expiry, and
  the metrics registry;
* :mod:`repro.service.batcher` — the micro-batching scheduler that
  coalesces concurrent ``/v1/link`` requests into single batches;
* :mod:`repro.service.shard` — consistent-hash pool partitioning, the
  worker wire protocol, the in-process shard, and the scatter-gather
  merge (bit-identical to one-shard ranking);
* :mod:`repro.service.supervisor` — the shard supervisor, the one
  serving path: an in-process shard for one worker, forked workers
  (crash detection, respawn) for more; scatter-gather ``/v1/link``,
  ingest routing, store flushes and session expiry;
* :mod:`repro.service.server` — the asyncio HTTP/1.1 daemon
  (``/v1/link``, ``/v1/ingest``, ``/v1/healthz``, ``/v1/metrics``, ...)
  with bounded queues, 503 backpressure, per-request deadlines and
  graceful drain;
* :mod:`repro.service.client` — a thin blocking client (speaks v1) for
  tests, examples and load generation.

See ``docs/service.md`` and ``docs/api-v1.md`` for the endpoint and
schema reference.
"""

from repro.service.batcher import MicroBatcher
from repro.service.client import ServiceClient
from repro.service.protocol import (
    API_VERSION,
    DEFAULT_MAX_BODY_BYTES,
    ResponseEnvelope,
    ShardInfo,
    envelope_data,
    error_payload,
    link_request_from_wire,
    options_from_wire,
    result_from_wire,
    result_to_wire,
    trajectory_from_wire,
    trajectory_to_wire,
)
from repro.service.server import BackgroundServer, LinkServer, ServerConfig
from repro.service.shard import HashRing, merge_partials, partition_pool
from repro.service.state import IngestSession, Metrics, ServiceState
from repro.service.supervisor import ShardSupervisor

__all__ = [
    "API_VERSION",
    "BackgroundServer",
    "DEFAULT_MAX_BODY_BYTES",
    "HashRing",
    "IngestSession",
    "LinkServer",
    "Metrics",
    "MicroBatcher",
    "ResponseEnvelope",
    "ServerConfig",
    "ServiceClient",
    "ServiceState",
    "ShardInfo",
    "ShardSupervisor",
    "envelope_data",
    "error_payload",
    "link_request_from_wire",
    "merge_partials",
    "options_from_wire",
    "partition_pool",
    "result_from_wire",
    "result_to_wire",
    "trajectory_from_wire",
    "trajectory_to_wire",
]
