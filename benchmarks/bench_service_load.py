"""Service load bench: micro-batched serving vs batch-size-1 serving.

A closed-loop load generator drives a real :class:`BackgroundServer`
over TCP at several concurrency levels, once with the micro-batching
scheduler enabled (``max_batch_size=16``) and once degenerated to
per-request serving (``max_batch_size=1``), and reports throughput and
p50/p99 latency for each.

The workload is the 200-candidate *ranking* setting (alpha-filter with
``alpha1=0, alpha2=1``: every candidate scored and ranked).  The engine
is pre-warmed with one direct ``link_batch`` pass over the query set so
both configurations serve from hot profile/tail caches; what remains —
and what the two configurations differ in — is the per-request serving
overhead (event-loop wakeups, executor handoffs, response scheduling)
that micro-batching amortises over up to 16 requests per engine call.
Correctness is asserted before any timing is recorded: each mode's
first response must equal the direct in-process
:meth:`~repro.core.engine.LinkEngine.link_batch` result bit for bit.

The report also measures the **observability overhead**: the same
workload at the highest concurrency with the per-stage span timers
enabled (the default) vs disabled (``ServerConfig(spans=False)``),
reported as ``span_overhead.regression_pct``.  The full-size bench
asserts it stays under 5%.

``sharded_scaling`` measures the prefork scatter-gather
(``ServerConfig(workers=N)``, see :mod:`repro.service.supervisor`):
the ranking workload at high concurrency served in-process
(``workers=1``) vs by a 4-worker shard fleet, after asserting the
sharded responses are bit-identical.  ``cpu_count`` is recorded
alongside because the speedup is a *parallelism* claim: the full-size
bench asserts >= 2.5x at 4 workers only when the host actually has
four cores to run them on.

``sustained_ingest`` measures the **continuous-linkage** path
(:mod:`repro.stream`, see ``docs/streaming.md``): a store-backed
daemon with standing queries registered, driven by repeated
ingest-and-flush rounds.  Each flush appends to the store, writes an
index delta block, and incrementally re-scores only the affected
pairs; the section reports sustained ingest throughput (records/s)
and the update-staleness percentiles observed on ``/v1/watch``, and
asserts the incremental invariant — the total pairs re-scored stay
strictly below what per-update full recomputes would have cost.

Results are written to ``BENCH_service.json``.  Run standalone
(``python -m benchmarks.bench_service_load``, or ``--sustained`` for
just the streaming section merged into an existing report) or through
pytest; the tier-1 suite exercises a tiny smoke configuration on
every run (see ``tests/test_service.py``).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.config import FTLConfig
from repro.core.engine import LinkEngine, LinkOptions
from repro.core.models import CompatibilityModel
from repro.geo.units import days_to_seconds
from repro.service.client import ServiceClient
from repro.service.server import BackgroundServer, ServerConfig
from repro.store import TrajectoryStore
from repro.synth.city import CityModel
from repro.synth.noise import GaussianNoise
from repro.synth.observation import ObservationService
from repro.synth.population import generate_population
from repro.synth.scenario import make_paired_databases

DEFAULT_OUT = "BENCH_service.json"

#: The ranking workload: every candidate is scored and ranked.
RANKING_OPTIONS = LinkOptions(
    method="alpha-filter", alpha1=0.0, alpha2=1.0, top_k=10
)


def _build_pair(n_candidates: int, rng: np.random.Generator):
    city = CityModel.generate(rng)
    agents = generate_population(
        city, n_candidates, days_to_seconds(3), rng, mobility="taxi"
    )
    service_p = ObservationService("P", rate_per_hour=0.8, noise=GaussianNoise(50.0))
    service_q = ObservationService("Q", rate_per_hour=0.4, noise=GaussianNoise(50.0))
    return make_paired_databases(agents, service_p, service_q, rng)


def _percentile(sorted_s: list[float], q: float) -> float:
    """Nearest-rank percentile of pre-sorted samples, in seconds."""
    if not sorted_s:
        return 0.0
    rank = min(len(sorted_s) - 1, max(0, int(round(q * (len(sorted_s) - 1)))))
    return sorted_s[rank]


def _run_level(
    address: tuple[str, int],
    queries,
    concurrency: int,
    requests_per_client: int,
) -> dict:
    """Closed-loop load: each of ``concurrency`` clients issues its
    requests back to back; wall time runs from a shared barrier to the
    last response."""
    latencies: list[list[float]] = [[] for _ in range(concurrency)]
    errors = [0] * concurrency
    barrier = threading.Barrier(concurrency + 1)

    def client_main(tid: int) -> None:
        with ServiceClient(*address, timeout_s=120.0) as client:
            barrier.wait()
            for i in range(requests_per_client):
                query = queries[(tid + i) % len(queries)]
                started = time.perf_counter()
                try:
                    client.link(query)
                except Exception:  # noqa: BLE001 - tallied, not raised
                    errors[tid] += 1
                else:
                    latencies[tid].append(time.perf_counter() - started)

    threads = [
        threading.Thread(target=client_main, args=(tid,), daemon=True)
        for tid in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started

    flat = sorted(lat for per_client in latencies for lat in per_client)
    n_ok = len(flat)
    return {
        "concurrency": concurrency,
        "n_requests": n_ok,
        "n_errors": sum(errors),
        "wall_s": wall_s,
        "throughput_rps": n_ok / wall_s if wall_s > 0 else float("inf"),
        "p50_ms": _percentile(flat, 0.50) * 1e3,
        "p99_ms": _percentile(flat, 0.99) * 1e3,
    }


def _measure_span_overhead(
    engine,
    pool,
    queries,
    concurrency: int,
    requests_per_client: int,
    max_batch_size: int,
    max_wait_ms: float,
    rounds: int = 2,
) -> dict:
    """Throughput with stage timers on vs off, best of ``rounds`` each.

    Spans-on is the production default, so the regression is quoted
    relative to spans-off: ``(off - on) / off * 100`` in percent.
    Taking the best round per configuration damps scheduler noise —
    the comparison is between each configuration's ceiling.
    """
    best: dict[str, dict] = {}
    for label, spans in (("spans_on", True), ("spans_off", False)):
        server_config = ServerConfig(
            port=0,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            spans=spans,
        )
        with BackgroundServer(
            engine, pool, options=RANKING_OPTIONS, config=server_config
        ) as background:
            with ServiceClient(*background.address) as probe:
                probe.link(queries[0])
            for _ in range(rounds):
                row = _run_level(
                    background.address, queries, concurrency,
                    requests_per_client,
                )
                if (
                    label not in best
                    or row["throughput_rps"] > best[label]["throughput_rps"]
                ):
                    best[label] = row
    on_rps = best["spans_on"]["throughput_rps"]
    off_rps = best["spans_off"]["throughput_rps"]
    return {
        "spans_on": best["spans_on"],
        "spans_off": best["spans_off"],
        "regression_pct": (
            (off_rps - on_rps) / off_rps * 100.0 if off_rps > 0 else 0.0
        ),
    }


def _measure_sharded_scaling(
    engine,
    pool,
    queries,
    expected,
    concurrency: int,
    requests_per_client: int,
    workers: int,
    max_batch_size: int,
    max_wait_ms: float,
) -> dict:
    """Throughput in-process vs a ``workers``-shard prefork fleet.

    Each configuration first proves bit-identity against the direct
    ``link_batch`` results, then serves the closed-loop load.  The
    speedup is meaningful only when the host has at least ``workers``
    cores, so ``cpu_count`` is recorded for the asserting caller.
    """
    rows: dict[str, dict] = {}
    for n_workers in (1, workers):
        server_config = ServerConfig(
            port=0,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            workers=n_workers,
        )
        with BackgroundServer(
            engine, pool, options=RANKING_OPTIONS, config=server_config
        ) as background:
            with ServiceClient(*background.address) as probe:
                got = probe.link(queries[0])
                assert got == expected[0], (
                    f"sharded serving diverged from link_batch at "
                    f"workers={n_workers}"
                )
            rows[str(n_workers)] = _run_level(
                background.address, queries, concurrency, requests_per_client
            )
    base_rps = rows["1"]["throughput_rps"]
    sharded_rps = rows[str(workers)]["throughput_rps"]
    return {
        "cpu_count": os.cpu_count(),
        "concurrency": concurrency,
        "n_workers": workers,
        "workers": rows,
        "speedup": sharded_rps / base_rps if base_rps > 0 else float("inf"),
    }


def _measure_sustained_ingest(
    engine,
    pool,
    queries,
    rounds: int,
    records_per_round: int,
    n_standing: int,
) -> dict:
    """Sustained ingest against a store-backed daemon with standing
    queries registered.

    Each round flushes one new candidate whose records sit inside a
    standing query's time window, so every flush provably reaches the
    incremental path: store append -> index delta block -> affected-id
    probe -> re-score -> ``/v1/watch`` event.  Staleness is sampled
    from the events themselves (``staleness_s`` spans flush start to
    ranking refresh).  Asserts ``rescored < full``: the pairs actually
    re-scored must undercut per-update full recomputes over the pool.
    """
    n_standing = max(1, min(n_standing, len(queries)))
    staleness_s: list[float] = []
    n_records = 0
    n_updates = 0
    full_recompute_pairs = 0
    with tempfile.TemporaryDirectory(prefix="ftl-bench-stream-") as tmp:
        store = TrajectoryStore.create(Path(tmp) / "stream-store", pool)
        served = list(store.load())
        server_config = ServerConfig(
            port=0, max_wait_ms=1.0, session_ttl_s=3600.0
        )
        with BackgroundServer(
            engine, served, options=RANKING_OPTIONS, config=server_config,
            store=store,
        ) as background:
            with ServiceClient(
                *background.address, timeout_s=120.0
            ) as client:
                seqs = {
                    f"standing-{i}": client.register_query(
                        queries[i], query_id=f"standing-{i}"
                    )["seq"]
                    for i in range(n_standing)
                }
                started = time.perf_counter()
                for r in range(rounds):
                    target = f"standing-{r % n_standing}"
                    query = queries[r % n_standing]
                    records = [
                        (float(t), float(x) + 10.0 * (r + 1), float(y))
                        for t, x, y in zip(
                            query.ts[:records_per_round],
                            query.xs[:records_per_round],
                            query.ys[:records_per_round],
                        )
                    ]
                    client.ingest(
                        "sustained",
                        candidate_records={f"stream-{r:03d}": records},
                        decide=False,
                        flush=True,
                    )
                    n_records += len(records)
                    pool_size = len(served) + r + 1
                    for qid in seqs:
                        # The flush re-scores synchronously, so the
                        # targeted query's event is already buffered;
                        # the others are drained without blocking.
                        got = client.watch(
                            qid,
                            since=seqs[qid],
                            wait_ms=10_000.0 if qid == target else 0.0,
                        )
                        seqs[qid] = got["seq"]
                        for event in got["events"]:
                            if event["kind"] != "update":
                                continue
                            n_updates += 1
                            full_recompute_pairs += pool_size
                            if "staleness_s" in event:
                                staleness_s.append(event["staleness_s"])
                wall_s = time.perf_counter() - started
                metrics = client.metrics()
    rescored = int(metrics.get("ftl_standing_rescored_pairs_total", 0))
    assert n_updates >= rounds, (
        f"every flush must reach at least its targeted standing query, "
        f"got {n_updates} updates over {rounds} rounds"
    )
    assert rescored < full_recompute_pairs, (
        f"incremental re-scoring must touch fewer pairs than full "
        f"recomputes: rescored {rescored} vs full {full_recompute_pairs}"
    )
    flat = sorted(staleness_s)
    return {
        "n_pool_initial": len(pool),
        "n_standing_queries": n_standing,
        "rounds": rounds,
        "records_per_round": records_per_round,
        "n_records_flushed": n_records,
        "n_updates": n_updates,
        "wall_s": wall_s,
        "records_per_s": n_records / wall_s if wall_s > 0 else float("inf"),
        "staleness_p50_ms": _percentile(flat, 0.50) * 1e3,
        "staleness_p99_ms": _percentile(flat, 0.99) * 1e3,
        "rescored_pairs_total": rescored,
        "full_recompute_pairs": full_recompute_pairs,
        "rescored_over_full": (
            rescored / full_recompute_pairs if full_recompute_pairs else 0.0
        ),
    }


def run_service_load_benchmark(
    n_candidates: int = 200,
    n_queries: int = 10,
    concurrency_levels: tuple[int, ...] = (1, 4, 16),
    requests_per_client: int = 6,
    seed: int = 7,
    max_batch_size: int = 16,
    max_wait_ms: float = 2.0,
    sharded_concurrency: int = 64,
    sharded_workers: int = 4,
    sustained_rounds: int = 8,
    sustained_records: int = 6,
    sustained_standing: int = 2,
    out_path: str | Path | None = DEFAULT_OUT,
) -> dict:
    """Drive micro-batched vs batch-size-1 serving; write the report.

    Both modes serve the *same* pre-warmed engine over the same pool,
    so the engine-side work per request is identical; the measured
    difference is the serving architecture.  Returns (and optionally
    writes) a dict with one row per concurrency level per mode plus
    the micro/batch1 throughput ratio.
    """
    rng = np.random.default_rng(seed)
    pair = _build_pair(n_candidates, rng)
    config = FTLConfig()
    mr = CompatibilityModel.fit_rejection([pair.p_db, pair.q_db], config)
    ma = CompatibilityModel.fit_acceptance([pair.p_db, pair.q_db], config, rng)
    engine = LinkEngine(mr, ma, options=RANKING_OPTIONS)
    pool = list(pair.q_db)
    qids = pair.sample_queries(min(n_queries, len(pair.truth)), rng)
    queries = [pair.p_db[qid] for qid in qids]
    # Warm the profile cache and tail memo once, and keep the expected
    # results for the correctness assertion below.
    expected = engine.link_batch(queries, pool)

    modes = {
        "micro": ServerConfig(
            port=0, max_batch_size=max_batch_size, max_wait_ms=max_wait_ms
        ),
        "batch1": ServerConfig(port=0, max_batch_size=1, max_wait_ms=0.0),
    }
    report: dict = {
        "workload": "ranking",
        "n_candidates": len(pool),
        "n_queries": len(queries),
        "seed": seed,
        "max_batch_size": max_batch_size,
        "max_wait_ms": max_wait_ms,
        "requests_per_client": requests_per_client,
        "levels": {},
    }
    level_rows: dict[int, dict] = {c: {} for c in concurrency_levels}
    for mode, server_config in modes.items():
        with BackgroundServer(
            engine, pool, options=RANKING_OPTIONS, config=server_config
        ) as background:
            with ServiceClient(*background.address) as probe:
                got = probe.link(queries[0])
                assert got == expected[0], (
                    f"served result diverged from link_batch in mode {mode}"
                )
            for concurrency in concurrency_levels:
                level_rows[concurrency][mode] = _run_level(
                    background.address, queries, concurrency,
                    requests_per_client,
                )
            with ServiceClient(*background.address) as probe:
                level_rows_metrics = probe.metrics()
            report[f"{mode}_batches_total"] = int(
                level_rows_metrics.get("ftl_batches_total", 0)
            )
            report[f"{mode}_requests_total"] = int(
                level_rows_metrics.get("ftl_batched_requests_total", 0)
            )
    for concurrency, rows in level_rows.items():
        ratio = (
            rows["micro"]["throughput_rps"] / rows["batch1"]["throughput_rps"]
            if rows["batch1"]["throughput_rps"] > 0
            else float("inf")
        )
        report["levels"][str(concurrency)] = {
            "micro": rows["micro"],
            "batch1": rows["batch1"],
            "micro_over_batch1": ratio,
        }
    report["span_overhead"] = _measure_span_overhead(
        engine, pool, queries,
        concurrency=max(concurrency_levels),
        requests_per_client=requests_per_client,
        max_batch_size=max_batch_size,
        max_wait_ms=max_wait_ms,
    )
    report["sharded_scaling"] = _measure_sharded_scaling(
        engine, pool, queries, expected,
        concurrency=sharded_concurrency,
        requests_per_client=requests_per_client,
        workers=sharded_workers,
        max_batch_size=max_batch_size,
        max_wait_ms=max_wait_ms,
    )
    report["sustained_ingest"] = _measure_sustained_ingest(
        engine, pool, queries,
        rounds=sustained_rounds,
        records_per_round=sustained_records,
        n_standing=sustained_standing,
    )

    if out_path is not None:
        Path(out_path).write_text(json.dumps(report, indent=2) + "\n")
    return report


def run_sustained_ingest_benchmark(
    n_candidates: int = 200,
    n_queries: int = 10,
    seed: int = 7,
    rounds: int = 8,
    records_per_round: int = 6,
    n_standing: int = 2,
    out_path: str | Path | None = DEFAULT_OUT,
) -> dict:
    """Run only the ``sustained_ingest`` section (``--sustained``).

    Builds the same workload as the full bench, measures the
    continuous-linkage path, and merges the section into an existing
    ``BENCH_service.json`` without disturbing the other sections.
    """
    rng = np.random.default_rng(seed)
    pair = _build_pair(n_candidates, rng)
    config = FTLConfig()
    mr = CompatibilityModel.fit_rejection([pair.p_db, pair.q_db], config)
    ma = CompatibilityModel.fit_acceptance([pair.p_db, pair.q_db], config, rng)
    engine = LinkEngine(mr, ma, options=RANKING_OPTIONS)
    pool = list(pair.q_db)
    qids = pair.sample_queries(min(n_queries, len(pair.truth)), rng)
    queries = [pair.p_db[qid] for qid in qids]
    section = _measure_sustained_ingest(
        engine, pool, queries,
        rounds=rounds,
        records_per_round=records_per_round,
        n_standing=n_standing,
    )
    if out_path is not None:
        path = Path(out_path)
        report = json.loads(path.read_text()) if path.exists() else {}
        report["sustained_ingest"] = section
        path.write_text(json.dumps(report, indent=2) + "\n")
    return section


def _print_report(report: dict) -> None:
    print(
        f"service load — {report['n_queries']} queries x "
        f"{report['n_candidates']} candidates, ranking workload, "
        f"max_batch_size={report['max_batch_size']}"
    )
    print(
        f"{'conc':>5} {'micro rps':>10} {'batch1 rps':>11} {'ratio':>7} "
        f"{'micro p99':>10} {'batch1 p99':>11}"
    )
    for level, row in report["levels"].items():
        print(
            f"{level:>5} {row['micro']['throughput_rps']:>10.1f} "
            f"{row['batch1']['throughput_rps']:>11.1f} "
            f"{row['micro_over_batch1']:>6.2f}x "
            f"{row['micro']['p99_ms']:>9.1f}ms "
            f"{row['batch1']['p99_ms']:>10.1f}ms"
        )
    overhead = report.get("span_overhead")
    if overhead:
        print(
            f"span overhead at concurrency "
            f"{overhead['spans_on']['concurrency']}: "
            f"{overhead['spans_on']['throughput_rps']:.1f} rps on vs "
            f"{overhead['spans_off']['throughput_rps']:.1f} rps off "
            f"({overhead['regression_pct']:+.1f}%)"
        )
    sharded = report.get("sharded_scaling")
    if sharded:
        base = sharded["workers"]["1"]
        fleet = sharded["workers"][str(sharded["n_workers"])]
        print(
            f"sharded scaling at concurrency {sharded['concurrency']} "
            f"(cpu_count={sharded['cpu_count']}): "
            f"{base['throughput_rps']:.1f} rps at 1 worker vs "
            f"{fleet['throughput_rps']:.1f} rps at "
            f"{sharded['n_workers']} workers "
            f"({sharded['speedup']:.2f}x)"
        )
    sustained = report.get("sustained_ingest")
    if sustained:
        _print_sustained(sustained)


def _print_sustained(sustained: dict) -> None:
    print(
        f"sustained ingest over {sustained['rounds']} flush rounds "
        f"({sustained['n_standing_queries']} standing queries, pool "
        f"{sustained['n_pool_initial']}): "
        f"{sustained['records_per_s']:.1f} records/s, staleness "
        f"p50 {sustained['staleness_p50_ms']:.1f}ms / "
        f"p99 {sustained['staleness_p99_ms']:.1f}ms, rescored "
        f"{sustained['rescored_pairs_total']} of "
        f"{sustained['full_recompute_pairs']} full-recompute pairs "
        f"({sustained['rescored_over_full']:.3f}x)"
    )


def test_service_load_micro_batching_wins(benchmark):
    """Full-size bench: micro-batching beats batch-1 at concurrency >= 16."""
    report = benchmark.pedantic(
        run_service_load_benchmark,
        kwargs={"n_candidates": 200, "n_queries": 10},
        rounds=1,
        iterations=1,
    )
    _print_report(report)
    for level, row in report["levels"].items():
        assert row["micro"]["n_errors"] == 0
        assert row["batch1"]["n_errors"] == 0
        if int(level) >= 16:
            assert row["micro_over_batch1"] > 1.0, (
                f"micro-batching must beat batch-size-1 serving at "
                f"concurrency {level}, got {row['micro_over_batch1']:.2f}x"
            )
    overhead = report["span_overhead"]
    assert overhead["spans_on"]["n_errors"] == 0
    assert overhead["spans_off"]["n_errors"] == 0
    assert overhead["regression_pct"] < 5.0, (
        f"stage timers must cost < 5% throughput, measured "
        f"{overhead['regression_pct']:.1f}%"
    )
    sharded = report["sharded_scaling"]
    for row in sharded["workers"].values():
        assert row["n_errors"] == 0
    # The scatter-gather speedup is a parallelism claim; only assert it
    # where the 4 workers actually get 4 cores.
    if sharded["cpu_count"] is not None and sharded["cpu_count"] >= 4:
        assert sharded["speedup"] >= 2.5, (
            f"4-worker sharding must reach >= 2.5x at concurrency "
            f"{sharded['concurrency']}, measured {sharded['speedup']:.2f}x "
            f"on {sharded['cpu_count']} cores"
        )
    sustained = report["sustained_ingest"]
    assert sustained["n_updates"] >= sustained["rounds"]
    # The incremental invariant at full scale: re-scoring the affected
    # pairs must cost well under a tenth of per-update full recomputes.
    assert sustained["rescored_over_full"] < 0.1, (
        f"incremental re-scoring should be <10% of full recompute at "
        f"pool {sustained['n_pool_initial']}, measured "
        f"{sustained['rescored_over_full']:.3f}x"
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sustained", action="store_true",
        help="run only the sustained-ingest (streaming) section and "
             "merge it into the existing report",
    )
    parser.add_argument("--out", default=DEFAULT_OUT)
    cli_args = parser.parse_args()
    if cli_args.sustained:
        _print_sustained(run_sustained_ingest_benchmark(
            out_path=cli_args.out
        ))
    else:
        _print_report(run_service_load_benchmark(out_path=cli_args.out))
