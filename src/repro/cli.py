"""Command-line interface.

Installed as ``ftl`` (see ``pyproject.toml``).  Subcommands:

* ``ftl datasets`` — list catalog entries;
* ``ftl generate NAME --out DIR`` — build a catalog scenario and write
  both databases (CSV) plus the ground truth (JSON);
* ``ftl stats NAME`` — print the Table I statistics of a scenario;
* ``ftl link NAME --method M`` — run batch linking over sampled queries
  and report perceptiveness/selectiveness; ``--json PATH`` additionally
  dumps every ranked ``LinkResult`` (``-`` for stdout), ``--top-k K``
  truncates each candidate list;
* ``ftl theory --lam-p A --lam-q B`` — print the Section VI pmf table;
* ``ftl serve NAME`` / ``ftl serve --store DIR`` — run the
  JSON-over-HTTP linking daemon over a scenario's Q database or a
  persistent mmap-backed store (see ``docs/service.md``):
  micro-batched ``/v1/link``, streaming ``/v1/ingest`` sessions,
  ``/v1/healthz``, ``/v1/metrics``; store-backed daemons additionally
  serve standing queries (``/v1/queries`` + ``/v1/watch``;
  ``docs/streaming.md``);
* ``ftl store build/append/compact/stats/index/expire`` — manage
  persistent columnar trajectory stores (see ``docs/store.md``);
  ``index --incremental`` folds streaming delta blocks into the main
  blocking index and ``expire`` slides the retention window (see
  ``docs/streaming.md``);
* ``ftl model fit/inspect/diff/activate`` — manage versioned fitted
  Mr/Ma model artifacts inside a store (see ``docs/models.md``); a
  store-backed ``ftl serve`` loads the active artifact, and a running
  daemon hot-swaps refits via ``POST /v1/admin/model``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.config import FTLConfig
from repro.core.linker import FTLLinker, LinkOptions
from repro.kernels import KERNEL_BACKENDS
from repro.datasets.catalog import build_scenario, catalog, catalog_entry
from repro.io.csv_io import write_trajectories_csv
from repro.pipeline.tables import render_table1
from repro.stats.theory import (
    expected_mutual_segments,
    expected_mutual_segments_approx,
    mutual_segment_count_pmf,
    mutual_segment_count_pmf_poisson,
)
from repro.version import __version__


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftl",
        description="Fuzzy Trajectory Linking (ICDE 2016 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the dataset catalog")

    gen = sub.add_parser("generate", help="build a scenario and write it out")
    gen.add_argument("name", help="catalog entry name (see `ftl datasets`)")
    gen.add_argument("--out", required=True, help="output directory")

    stats = sub.add_parser("stats", help="print Table I statistics")
    stats.add_argument("names", nargs="+", help="catalog entry names")

    link = sub.add_parser("link", help="run FTL over sampled queries")
    link.add_argument("name", help="catalog entry name")
    link.add_argument(
        "--method", default="naive-bayes", choices=("naive-bayes", "alpha-filter")
    )
    link.add_argument("--queries", type=int, default=30)
    link.add_argument("--phi-r", type=float, default=0.05)
    link.add_argument("--alpha1", type=float, default=0.05)
    link.add_argument("--alpha2", type=float, default=0.05)
    link.add_argument("--top-k", type=int, default=None,
                      help="keep only the k best-ranked candidates per query")
    link.add_argument("--json", default=None, metavar="PATH",
                      help="write per-query LinkResult records as JSON "
                           "('-' for stdout)")
    link.add_argument("--kernel", default=None, choices=KERNEL_BACKENDS,
                      help="hot-path kernel backend "
                           "(default: auto / FTL_KERNEL_BACKEND)")
    link.add_argument("--seed", type=int, default=0)

    profile = sub.add_parser(
        "profile", help="per-stage time breakdown of batch linking"
    )
    profile.add_argument("name", help="catalog entry name")
    profile.add_argument(
        "--method", default="naive-bayes", choices=("naive-bayes", "alpha-filter")
    )
    profile.add_argument("--queries", type=int, default=30)
    profile.add_argument("--kernel", default=None, choices=KERNEL_BACKENDS,
                         help="hot-path kernel backend "
                              "(default: auto / FTL_KERNEL_BACKEND)")
    profile.add_argument("--seed", type=int, default=0)

    theory = sub.add_parser("theory", help="Section VI mutual-segment pmf")
    theory.add_argument("--lam-p", type=float, required=True)
    theory.add_argument("--lam-q", type=float, required=True)
    theory.add_argument("--max-x", type=int, default=10)

    diagnose = sub.add_parser(
        "diagnose", help="fit models on a scenario and report separability"
    )
    diagnose.add_argument("name", help="catalog entry name")
    diagnose.add_argument("--buckets", type=int, default=12,
                          help="buckets to show in the model table")
    diagnose.add_argument("--lam-p", type=float, default=None,
                          help="query-service rate per hour (feasibility)")
    diagnose.add_argument("--lam-q", type=float, default=None,
                          help="candidate-service rate per hour (feasibility)")
    diagnose.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser(
        "sweep", help="Fig. 5-style perceptiveness/selectiveness tradeoff"
    )
    sweep.add_argument("name", help="catalog entry name")
    sweep.add_argument("--queries", type=int, default=30)
    sweep.add_argument("--seed", type=int, default=0)

    assign = sub.add_parser(
        "assign", help="global one-to-one linking of all queries"
    )
    assign.add_argument("name", help="catalog entry name")
    assign.add_argument(
        "--method", default="optimal",
        choices=("greedy", "optimal", "auto", "sparse", "reference"),
        help="'optimal' picks the exact solver (sparse scipy LSA, or "
             "the dense networkx reference without scipy); the rest "
             "name repro.assign backends directly",
    )
    assign.add_argument("--min-score", type=float, default=1e-6)
    assign.add_argument("--no-blocking", action="store_true",
                        help="score the dense |Q| x |C| pool instead of "
                             "only ST-index-blocked pairs")
    assign.add_argument("--json", action="store_true",
                        help="print the evaluation report as JSON")
    assign.add_argument("--seed", type=int, default=0)

    holdout = sub.add_parser(
        "holdout", help="train/test split: do the models generalise?"
    )
    holdout.add_argument("name", help="catalog entry name")
    holdout.add_argument("--test-fraction", type=float, default=0.3)
    holdout.add_argument("--phi-r", type=float, default=0.1)
    holdout.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve", help="run the linking daemon over a scenario's Q database "
                      "or a persistent store"
    )
    serve.add_argument("name", nargs="?", default=None,
                       help="catalog entry name (pool + model fit); "
                            "omit when passing --store")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="serve from a persistent trajectory store "
                            "(mmap-backed; see `ftl store`)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 binds an ephemeral port)")
    serve.add_argument("--workers", type=int, default=1,
                       help="shard worker processes: 1 serves in-process; "
                            "N>1 forks N workers, partitions the pool by "
                            "home cell and scatter-gathers /v1/link")
    serve.add_argument(
        "--method", default="naive-bayes", choices=("naive-bayes", "alpha-filter")
    )
    serve.add_argument("--phi-r", type=float, default=0.05)
    serve.add_argument("--alpha1", type=float, default=0.05)
    serve.add_argument("--alpha2", type=float, default=0.05)
    serve.add_argument("--top-k", type=int, default=None)
    serve.add_argument("--max-batch-size", type=int, default=16,
                       help="most /link requests coalesced per engine call")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="how long to wait for more requests per batch")
    serve.add_argument("--queue-limit", type=int, default=128,
                       help="pending-request bound; beyond it /link gets 503")
    serve.add_argument("--timeout-ms", type=float, default=None,
                       help="default per-request deadline (504 past it)")
    serve.add_argument("--session-ttl", type=float, default=900.0,
                       help="idle seconds before an /ingest session is dropped")
    serve.add_argument("--watch-max-wait-ms", type=float, default=30_000.0,
                       help="longest a /v1/watch long-poll is held open")
    serve.add_argument("--watch-concurrency", type=int, default=32,
                       help="threads dedicated to /v1/watch long-polls "
                            "(watchers beyond it queue for a free thread)")
    serve.add_argument("--merge-min-blocks", type=int, default=4,
                       help="index delta blocks accumulated before the "
                            "background merge folds them (store-backed only)")
    serve.add_argument("--max-body-mb", type=float, default=8.0,
                       help="request body cap in MiB (413 beyond it)")
    serve.add_argument("--shutdown-after", type=float, default=None,
                       help="serve for N seconds then drain (smoke/testing)")
    serve.add_argument("--no-spans", action="store_true",
                       help="disable per-stage timers in batch workers "
                            "(/metrics stage histograms stay empty)")
    serve.add_argument("--kernel", default=None, choices=KERNEL_BACKENDS,
                       help="hot-path kernel backend "
                            "(default: auto / FTL_KERNEL_BACKEND)")
    serve.add_argument("--seed", type=int, default=0)

    store = sub.add_parser(
        "store", help="manage persistent mmap-backed trajectory stores"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    st_build = store_sub.add_parser(
        "build", help="create a store from a file or a catalog scenario"
    )
    st_build.add_argument("dir", help="store directory to create")
    st_build.add_argument("--from", dest="source", default=None, metavar="PATH",
                          help="trajectory file in any registered format "
                               "(csv/jsonl/sqlite/store)")
    st_build.add_argument("--scenario", default=None, metavar="NAME",
                          help="catalog entry; stores its Q database")
    st_build.add_argument("--name", default="",
                          help="database name recorded in the manifest")

    st_append = store_sub.add_parser(
        "append", help="append trajectories (or record deltas) to a store"
    )
    st_append.add_argument("dir", help="existing store directory")
    st_append.add_argument("--from", dest="source", required=True,
                           metavar="PATH", help="trajectory file to append")

    st_compact = store_sub.add_parser(
        "compact", help="merge all segments into one snapshot segment"
    )
    st_compact.add_argument("dir", help="existing store directory")

    st_stats = store_sub.add_parser(
        "stats", help="print store statistics as JSON"
    )
    st_stats.add_argument("dir", help="existing store directory")

    st_index = store_sub.add_parser(
        "index", help="build the persisted spatio-temporal blocking index"
    )
    st_index.add_argument("dir", help="existing store directory")
    st_index.add_argument("--cell-size", type=float, default=None,
                          help="geo-grid cell size in metres "
                               "(default: the reachability radius)")
    st_index.add_argument("--vmax", type=float, default=120.0,
                          help="max plausible speed in km/h")
    st_index.add_argument("--reach-gap", type=float, default=3600.0,
                          help="max time gap in seconds for reachability "
                               "dilation")
    st_index.add_argument("--incremental", action="store_true",
                          help="fold the streaming delta log into the "
                               "existing index instead of rebuilding "
                               "(requires a prior full `ftl store index`)")

    st_expire = store_sub.add_parser(
        "expire", help="slide the retention window: evict records older "
                       "than a cutoff"
    )
    st_expire.add_argument("dir", help="existing store directory")
    st_expire.add_argument("--before", type=float, required=True,
                           metavar="T",
                           help="drop records with timestamp strictly "
                                "below T (t == T survives)")

    model = sub.add_parser(
        "model", help="manage versioned fitted Mr/Ma model artifacts"
    )
    model_sub = model.add_subparsers(dest="model_command", required=True)

    md_fit = model_sub.add_parser(
        "fit", help="fit Mr/Ma and persist the artifact into a store"
    )
    md_fit.add_argument("dir", help="existing store directory")
    md_fit.add_argument("--scenario", default=None, metavar="NAME",
                        help="fit on a catalog scenario's P+Q databases "
                             "instead of the store's own data")
    md_fit.add_argument("--max-pairs", type=int, default=None,
                        help="acceptance-pair cap per database (default: "
                             "the config's max_acceptance_pairs)")
    md_fit.add_argument("--activate", action="store_true",
                        help="point the store's active model at the new "
                             "artifact")
    md_fit.add_argument("--seed", type=int, default=0)

    md_inspect = model_sub.add_parser(
        "inspect", help="print an artifact's config + provenance as JSON"
    )
    md_inspect.add_argument("dir", help="existing store directory")
    md_inspect.add_argument("id", nargs="?", default=None,
                            help="artifact id (default: the active one)")

    md_diff = model_sub.add_parser(
        "diff", help="compare two artifacts (config, provenance, tables)"
    )
    md_diff.add_argument("dir", help="existing store directory")
    md_diff.add_argument("a", help="first artifact id")
    md_diff.add_argument("b", help="second artifact id")

    md_activate = model_sub.add_parser(
        "activate", help="point the store's active model at an artifact"
    )
    md_activate.add_argument("dir", help="existing store directory")
    md_activate.add_argument("id", help="artifact id to activate")

    report = sub.add_parser(
        "report", help="run the mini evaluation and write a markdown report"
    )
    report.add_argument("--out", required=True, help="output markdown path")
    report.add_argument(
        "--datasets", nargs="+",
        default=["SB-mini", "SD-mini", "TB-mini", "TD-mini"],
    )
    report.add_argument("--queries", type=int, default=25)
    report.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_datasets() -> int:
    for name, entry in sorted(catalog().items()):
        print(f"{name:<12} {entry.protocol:<7} {entry.description}")
    return 0


def _cmd_generate(name: str, out: str) -> int:
    pair = build_scenario(name)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_p = write_trajectories_csv(pair.p_db, out_dir / "P.csv")
    n_q = write_trajectories_csv(pair.q_db, out_dir / "Q.csv")
    (out_dir / "truth.json").write_text(
        json.dumps({str(k): str(v) for k, v in pair.truth.items()}, indent=2)
    )
    print(f"wrote {n_p} P records, {n_q} Q records, "
          f"{len(pair.truth)} truth pairs to {out_dir}")
    return 0


def _cmd_stats(names: list[str]) -> int:
    pairs = {name: build_scenario(name) for name in names}
    durations = {
        name: (catalog_entry(name).trim_days or catalog_entry(name).duration_days)
        for name in names
    }
    print(render_table1(pairs, durations))
    return 0


def _cmd_link(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    pair = build_scenario(args.name)
    options = LinkOptions(
        method=args.method,
        alpha1=args.alpha1,
        alpha2=args.alpha2,
        phi_r=args.phi_r,
        top_k=args.top_k,
        kernel_backend=args.kernel,
    )
    linker = FTLLinker(FTLConfig(), options).fit(pair.p_db, pair.q_db, rng)
    n = min(args.queries, len(pair.matched_query_ids()))
    query_ids = pair.sample_queries(n, rng)
    results = linker.link_batch([pair.p_db[qid] for qid in query_ids])
    hits = sum(
        1
        for qid, result in zip(query_ids, results)
        if result.contains(pair.truth[qid])
    )
    returned = sum(len(result) for result in results)
    if args.json is not None:
        payload = json.dumps(
            [result.to_dict() for result in results], indent=2, default=str
        )
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n")
    print(f"dataset={args.name} method={args.method} queries={n}")
    print(f"perceptiveness = {hits / n:.3f}")
    print(f"selectiveness  = {returned / (n * len(pair.q_db)):.5f}")
    print(f"mean |Q_P|     = {returned / n:.2f}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import time

    from repro.obs import StageAccumulator, use_sink

    rng = np.random.default_rng(args.seed)
    pair = build_scenario(args.name)
    options = LinkOptions(method=args.method, kernel_backend=args.kernel)
    linker = FTLLinker(FTLConfig(), options).fit(pair.p_db, pair.q_db, rng)
    n = min(args.queries, len(pair.matched_query_ids()))
    query_ids = pair.sample_queries(n, rng)
    queries = [pair.p_db[qid] for qid in query_ids]
    accumulator = StageAccumulator()
    started = time.perf_counter()
    with use_sink(accumulator):
        linker.link_batch(queries)
    wall_s = time.perf_counter() - started
    backends = linker.engine.stage_backends()
    print(f"dataset={args.name} method={args.method} queries={n} "
          f"pool={len(pair.q_db)} wall_s={wall_s:.3f} "
          f"kernel={linker.engine.kernel_backend}")
    print(accumulator.table(wall_s=wall_s))
    print("stage backends: "
          + " ".join(f"{stage}={impl}" for stage, impl in backends.items()))
    return 0


def _cmd_theory(lam_p: float, lam_q: float, max_x: int) -> int:
    exact = mutual_segment_count_pmf(lam_p, lam_q, max_x)
    approx = mutual_segment_count_pmf_poisson(lam_p, lam_q, max_x)
    print(f"E(X) exact  = {expected_mutual_segments(lam_p, lam_q):.4f}")
    print(f"E^(X) approx = {expected_mutual_segments_approx(lam_p, lam_q):.4f}")
    print(f"{'x':>4} {'fX(x)':>10} {'Pois(E^)':>10}")
    for x in range(max_x + 1):
        print(f"{x:>4} {exact[x]:>10.5f} {approx[x]:>10.5f}")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.core.diagnostics import (
        discriminability,
        format_model_table,
        model_table,
    )
    from repro.core.models import CompatibilityModel
    from repro.stats.feasibility import assess_feasibility

    rng = np.random.default_rng(args.seed)
    pair = build_scenario(args.name)
    config = FTLConfig()
    mr = CompatibilityModel.fit_rejection([pair.p_db, pair.q_db], config)
    ma = CompatibilityModel.fit_acceptance([pair.p_db, pair.q_db], config, rng)
    print(f"dataset={args.name}  |P|={len(pair.p_db)}  |Q|={len(pair.q_db)}")
    print(format_model_table(model_table(mr, ma, max_buckets=args.buckets)))
    print(f"\ndiscriminability = {discriminability(mr, ma):.3f} nats/segment")
    if args.lam_p is not None and args.lam_q is not None:
        report = assess_feasibility(args.lam_p, args.lam_q, mr, ma)
        print(report.summary())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.pipeline.tradeoff import format_tradeoff, run_tradeoff

    rng = np.random.default_rng(args.seed)
    pair = build_scenario(args.name)
    curves = run_tradeoff(pair, FTLConfig(), rng, n_queries=args.queries)
    print(f"dataset={args.name}  |Q|={len(pair.q_db)}")
    print(format_tradeoff(curves))
    return 0


def _cmd_assign(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.assign import evaluate_assignment
    from repro.assign.solver import scipy_available

    rng = np.random.default_rng(args.seed)
    pair = build_scenario(args.name)
    config = FTLConfig()
    if args.method == "optimal":
        # Exact either way: sparse LSA with scipy, dense networkx without.
        backend = "sparse" if scipy_available() else "reference"
    elif args.method == "greedy":
        backend = "greedy"
    else:
        backend = args.method
    evaluation = evaluate_assignment(
        pair, config, rng,
        backend=backend,
        min_score=args.min_score,
        use_blocking=not args.no_blocking,
    )
    if args.json:
        report = evaluation.to_dict()
        report["dataset"] = args.name
        report["method"] = args.method
        print(json_mod.dumps(report, indent=2))
        return 0
    assignment = evaluation.assignment
    graph = evaluation.graph
    print(f"dataset={args.name} method={args.method} "
          f"solver={assignment.backend}")
    print(f"edges {graph.n_edges} of {graph.n_scored_pairs} scored pairs "
          f"(density {graph.density:.4f}), "
          f"{assignment.n_components} components")
    print(f"assigned {len(assignment)}/{len(graph.query_ids)} queries, "
          f"total score {assignment.total_score:.2f}")
    print(f"accuracy over assigned: {assignment.accuracy(pair.truth):.3f}")
    print(f"precision@1: independent={evaluation.precision_independent:.3f} "
          f"assignment={evaluation.precision_assignment:.3f} "
          f"(n={len(evaluation.evaluated_queries)})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.engine import LinkEngine, LinkOptions
    from repro.core.models import CompatibilityModel
    from repro.errors import ValidationError
    from repro.obs import configure_json_logging
    from repro.service.server import LinkServer, ServerConfig

    if (args.name is None) == (args.store is None):
        raise ValidationError(
            "pass exactly one of a scenario NAME or --store DIR"
        )
    # JSON-lines request/batch logs on stderr; each line carries the
    # trace ID echoed to the client, so slow responses grep straight to
    # their server-side records.
    configure_json_logging()

    rng = np.random.default_rng(args.seed)
    config = FTLConfig()
    store = None
    mr = ma = None
    model_artifact_id = None
    if args.store is not None:
        from repro.store import open_store

        store = open_store(args.store)
        db = store.load()
        fit_dbs = [db]
        pool = list(db)
        label = str(store.path)
        provenance = {
            "source": "store",
            "path": str(store.path),
            "format_version": store.manifest.format_version,
            "generation": store.generation,
            "n_segments": len(store.manifest.segments),
        }
        # A store with an active model artifact serves *that* pair —
        # the daemon reports which one, and /v1/admin/model can swap a
        # refit in without a restart.  Stores without one (or written
        # by the pre-artifact format) fall back to an ad-hoc fit.
        if store.active_model_id is not None:
            artifact = store.load_model()
            mr, ma = artifact.rejection, artifact.acceptance
            model_artifact_id = artifact.artifact_id
            provenance["model_artifact"] = model_artifact_id
    else:
        pair = build_scenario(args.name)
        fit_dbs = [pair.p_db, pair.q_db]
        pool = list(pair.q_db)
        label = args.name
        provenance = {
            "source": "parsed",
            "scenario": args.name,
        }
    if mr is None:
        mr = CompatibilityModel.fit_rejection(fit_dbs, config)
        ma = CompatibilityModel.fit_acceptance(fit_dbs, config, rng)
    options = LinkOptions(
        method=args.method,
        alpha1=args.alpha1,
        alpha2=args.alpha2,
        phi_r=args.phi_r,
        top_k=args.top_k,
        kernel_backend=args.kernel,
    )
    engine = LinkEngine(mr, ma, options=options)
    server_config = ServerConfig(
        host=args.host,
        port=args.port,
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        queue_limit=args.queue_limit,
        workers=args.workers,
        session_ttl_s=args.session_ttl,
        max_body_bytes=int(args.max_body_mb * 1024 * 1024),
        default_timeout_ms=args.timeout_ms,
        spans=not args.no_spans,
        watch_max_wait_ms=args.watch_max_wait_ms,
        watch_concurrency=args.watch_concurrency,
        merge_min_blocks=args.merge_min_blocks,
    )

    async def _serve() -> None:
        server = LinkServer(engine, pool, config=server_config,
                            store=store, provenance=provenance,
                            model_artifact_id=model_artifact_id)
        await server.start()
        server.install_signal_handlers()
        host, port = server.address
        source = ", ".join(f"{k}={v}" for k, v in provenance.items())
        print(
            f"serving {label} on http://{host}:{port} "
            f"(pool={len(pool)} candidates, method={args.method}, "
            f"kernel={engine.kernel_backend}, "
            f"max_batch_size={args.max_batch_size}, "
            f"max_wait_ms={args.max_wait_ms:g})",
            flush=True,
        )
        if args.workers > 1:
            print(
                f"sharded serving: {args.workers} worker processes, "
                f"pool partitioned by {engine.config.shard_cell_size_m:g} m "
                f"home cells (API under /v1/)",
                flush=True,
            )
        if store is not None:
            print(
                "streaming enabled: standing queries at /v1/queries, "
                "long-poll result deltas at /v1/watch",
                flush=True,
            )
        print(f"data source: {source}", flush=True)
        await server.serve_until_shutdown(shutdown_after_s=args.shutdown_after)
        print("drained; bye")

    asyncio.run(_serve())
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.errors import ValidationError
    from repro.io.registry import load_database
    from repro.store import TrajectoryStore, open_store

    if args.store_command == "build":
        if (args.source is None) == (args.scenario is None):
            raise ValidationError(
                "pass exactly one of --from PATH or --scenario NAME"
            )
        if args.scenario is not None:
            db = build_scenario(args.scenario).q_db
        else:
            db = load_database(args.source)
        store = TrajectoryStore.create(
            args.dir, db=db, name=args.name or db.name
        )
        stats = store.stats()
        print(f"built {args.dir}: {stats.n_trajectories} trajectories, "
              f"{stats.n_records} records, generation {stats.generation}")
        return 0
    if args.store_command == "append":
        store = open_store(args.dir)
        written = store.append(load_database(args.source))
        print(f"appended {written} records to {args.dir} "
              f"(generation {store.generation})")
        return 0
    if args.store_command == "compact":
        store = open_store(args.dir)
        before = store.stats().n_segments
        stats = store.compact()
        print(f"compacted {args.dir}: {before} -> {stats.n_segments} "
              f"segments, {stats.n_records} records, "
              f"generation {stats.generation}")
        return 0
    if args.store_command == "stats":
        print(json.dumps(open_store(args.dir).stats().to_dict(), indent=2))
        return 0
    if args.store_command == "index":
        store = open_store(args.dir)
        if args.incremental:
            from repro.stream import merge_index_deltas

            index = merge_index_deltas(store)
            params = ", ".join(
                f"{k}={v:g}" for k, v in index.params().items()
            )
            print(f"merged delta log into {args.dir} index at generation "
                  f"{store.generation} ({params})")
            return 0
        index = store.build_index(
            cell_size_m=args.cell_size,
            vmax_kph=args.vmax,
            reach_gap_s=args.reach_gap,
        )
        params = ", ".join(f"{k}={v:g}" for k, v in index.params().items())
        print(f"indexed {args.dir} at generation {store.generation} "
              f"({params})")
        return 0
    if args.store_command == "expire":
        from repro.stream import DeltaLog

        store = open_store(args.dir)
        evicted = store.expire_before(args.before)
        if evicted:
            # Keep a covering union view openable: the eviction commit
            # needs its marker in the delta log like the daemon writes.
            DeltaLog(store).record_eviction(store.generation, args.before)
        print(f"expired {evicted} records before t={args.before:g} from "
              f"{args.dir} (generation {store.generation}, "
              f"retain_after={store.manifest.retain_after:g})")
        return 0
    raise AssertionError(f"unhandled store command {args.store_command!r}")


def _cmd_model(args: argparse.Namespace) -> int:
    import time as time_mod

    from repro.store import diff_artifacts, fit_model_artifact, open_store

    store = open_store(args.dir)
    if args.model_command == "fit":
        rng = np.random.default_rng(args.seed)
        if args.scenario is not None:
            pair = build_scenario(args.scenario)
            databases = [pair.p_db, pair.q_db]
        else:
            databases = [store.load()]
        artifact = fit_model_artifact(
            databases, FTLConfig(), rng, max_pairs=args.max_pairs
        )
        info = store.save_model(
            artifact, created_at=time_mod.time(), activate=args.activate
        )
        active = " (active)" if store.active_model_id == info.artifact_id else ""
        prov = artifact.provenance
        print(f"saved {info.artifact_id}{active} in {args.dir}: "
              f"{prov.n_trajectories} trajectories, "
              f"{artifact.rejection.n_buckets} buckets, "
              f"dataset {prov.dataset_hash[:12]}")
        return 0
    if args.model_command == "inspect":
        print(json.dumps(store.load_model(args.id).summary(), indent=2))
        return 0
    if args.model_command == "diff":
        print(json.dumps(
            diff_artifacts(store.load_model(args.a), store.load_model(args.b)),
            indent=2,
        ))
        return 0
    if args.model_command == "activate":
        info = store.activate_model(args.id)
        print(f"activated {info.artifact_id} in {args.dir}")
        return 0
    raise AssertionError(f"unhandled model command {args.model_command!r}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "generate":
        return _cmd_generate(args.name, args.out)
    if args.command == "stats":
        return _cmd_stats(args.names)
    if args.command == "link":
        return _cmd_link(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "theory":
        return _cmd_theory(args.lam_p, args.lam_q, args.max_x)
    if args.command == "diagnose":
        return _cmd_diagnose(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "assign":
        return _cmd_assign(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "model":
        return _cmd_model(args)
    if args.command == "holdout":
        from repro.pipeline.crossval import format_holdout, run_holdout

        rng = np.random.default_rng(args.seed)
        pair = build_scenario(args.name)
        result = run_holdout(
            pair, FTLConfig(), rng,
            test_fraction=args.test_fraction, phi_r=args.phi_r,
        )
        print(f"dataset={args.name}")
        print(format_holdout(result))
        return 0
    if args.command == "report":
        from repro.pipeline.report import ReportSpec, write_report

        spec = ReportSpec(
            datasets=tuple(args.datasets),
            n_queries=args.queries,
            seed=args.seed,
        )
        written = write_report(args.out, spec)
        print(f"wrote {written}")
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
