"""Serve a sharded linking daemon and query it concurrently over HTTP.

Builds a small two-service scenario, fits the FTL models, starts the
JSON-over-HTTP linking daemon on an ephemeral port with **two shard
worker processes** (the pool is partitioned by home cell and every
``/v1/link`` is a scatter-gather; ``workers=1`` would serve the same
bytes in-process), then fires a burst of concurrent queries at it from
worker threads — exactly how a deployment would call the service.
Each response is decoded back into a
:class:`~repro.core.engine.LinkResult` and the top-ranked candidates
are printed with the ground truth marked.

The client speaks the versioned v1 wire API (docs/api-v1.md): JSON
responses arrive in an envelope carrying ``api_version``,
``shard_count`` and per-shard scatter provenance next to the ``data``
payload; ``ServiceClient`` unwraps it.  Sharded or not, the responses
are bit-identical to calling the engine in-process; the daemon adds
batching, sharding, backpressure and metrics, not approximation.

Run:  python examples/serve_and_query.py
"""

import threading

import numpy as np

from repro.config import FTLConfig
from repro.core.engine import LinkEngine, LinkOptions
from repro.core.models import CompatibilityModel
from repro.geo.units import days_to_seconds
from repro.service.client import ServiceClient
from repro.service.server import BackgroundServer, ServerConfig
from repro.synth import (
    CityModel,
    GaussianNoise,
    ObservationService,
    generate_population,
    make_paired_databases,
)


def main() -> None:
    rng = np.random.default_rng(11)

    # 1. A scenario: two services observing the same 30 taxis for 3 days.
    city = CityModel.generate(rng)
    agents = generate_population(
        city, n_agents=30, duration_s=days_to_seconds(3), rng=rng,
        mobility="taxi",
    )
    service_p = ObservationService("P", rate_per_hour=0.8, noise=GaussianNoise(50.0))
    service_q = ObservationService("Q", rate_per_hour=0.4, noise=GaussianNoise(50.0))
    pair = make_paired_databases(agents, service_p, service_q, rng)

    # 2. Fit the models and build the serving engine.
    config = FTLConfig()
    mr = CompatibilityModel.fit_rejection([pair.p_db, pair.q_db], config)
    ma = CompatibilityModel.fit_acceptance([pair.p_db, pair.q_db], config, rng)
    options = LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0,
                          top_k=3)
    engine = LinkEngine(mr, ma, options=options)
    pool = list(pair.q_db)

    # 3. Serve the Q database across two forked shard workers; port=0
    #    binds an ephemeral port.
    server_config = ServerConfig(port=0, max_batch_size=16, max_wait_ms=2.0,
                                 workers=2)
    query_ids = pair.sample_queries(8, rng)
    results: dict[object, object] = {}
    lock = threading.Lock()

    with BackgroundServer(engine, pool, options=options,
                          config=server_config) as background:
        host, port = background.address
        print(f"daemon listening on http://{host}:{port} "
              f"(pool={len(pool)} candidates)\n")

        # 4. Concurrent clients, one thread each (ServiceClient is
        #    cheap but not thread-safe — one instance per thread).
        def query_worker(pid: object) -> None:
            with ServiceClient(host, port) as client:
                result = client.link(pair.p_db[pid])
            with lock:
                results[pid] = result

        threads = [
            threading.Thread(target=query_worker, args=(pid,))
            for pid in query_ids
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # 5. Report: top-k candidates per query, ground truth starred.
        hits = 0
        for pid in query_ids:
            result = results[pid]
            truth = pair.truth[pid]
            ranked = [
                f"{c.candidate_id}{'*' if c.candidate_id == truth else ''}"
                f" (v={c.score:.3f})"
                for c in result.candidates
            ]
            hits += any(c.candidate_id == truth for c in result.candidates)
            print(f"query {pid}: true={truth} -> {ranked or '(no match)'}")
        print(f"\ntruth in top-{options.top_k}: {hits}/{len(query_ids)} queries")

        # 6. The v1 envelope exposes the scatter: which shard scanned
        #    how many candidates, and the worker fleet's health.
        from repro.service.protocol import trajectory_to_wire

        with ServiceClient(host, port) as client:
            envelope = client.link_raw(
                {"query": trajectory_to_wire(pair.p_db[query_ids[0]])}
            )
            health = client.healthz()
            metrics = client.metrics()
        scatter = ", ".join(
            f"shard {s['shard']}: {s['n_candidates']} candidates "
            f"in {s['elapsed_ms']:.1f}ms"
            for s in envelope["shards"]
        )
        print(f"\nscatter across {envelope['shard_count']} shards -> {scatter}")
        for worker in health["workers"]:
            print(f"worker {worker['shard']}: pid={worker['pid']} "
                  f"alive={worker['alive']} pool={worker['pool_size']}")
        print(f"served {metrics.get('ftl_link_requests_total', 0):.0f} "
              f"/v1/link requests in "
              f"{metrics.get('ftl_batches_total', 0):.0f} batches")
    print("daemon drained; bye")


if __name__ == "__main__":
    main()
