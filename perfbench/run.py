"""The repository's benchmark: three wire workloads against a daemon
started in its own process, with end-to-end and per-layer metrics.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload link-2w --seed 1 --seconds 10 --trace 0

Per run: generate (or load the cached) seeded scenario, set up a store,
ST index, active model artifact and ``repro.cli serve`` daemon several
times (``setup_s`` is their median), warm up, drive ``/v1/`` from a
closed loop, check the replies against an in-process oracle built from
the same store and artifact, and print one JSON result as the last
line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics, from ``/v1/metrics`` deltas of an
untraced pass plus a second pass against the traced launcher.  See
``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()

#: Fresh set-ups per --trace 0 run; setup_s is their median and the
#: last one serves the measured ops.
N_SETUPS = 3
#: Measured /v1/link replies re-checked against the oracle per pass.
N_LINK_CHECKS = 8
#: Standing queries registered by ingest-watch; their final top-1s
#: give its precision_at_1, so fewer would make that metric coarse.
N_STANDING = 48
#: Serving options, passed explicitly to the daemon and used by the oracle.
SERVE_OPTIONS = {"method": "naive-bayes", "alpha1": 0.05, "alpha2": 0.05, "phi_r": 0.05}
WATCH_WAIT_MS = 5000.0


@dataclass(frozen=True)
class Spec:
    """A workload: daemon shape, client shape and measured ops at
    ``--seconds 10``."""

    name: str
    workers: int
    connections: int
    ops_per_10s: int
    warmup_ops: int
    extra_args: tuple[str, ...] = ()


SPECS = {
    s.name: s
    for s in (
        Spec("link-2w", workers=2, connections=2, ops_per_10s=200, warmup_ops=16),
        Spec(
            "ingest-watch", workers=1, connections=1, ops_per_10s=100, warmup_ops=10,
            # No time-driven delta merges: every run does the same work.
            extra_args=("--merge-min-blocks", "1000000", "--session-ttl", "3600"),
        ),
        # The first warm-up op also pays the solver's one-off import.
        Spec("assign-2w", workers=2, connections=1, ops_per_10s=30, warmup_ops=3),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "precision_at_1": "ratio",
}

PER_LAYER_UNITS = {
    "service.request_ms": "ms",
    "service.wire_ms": "ms",
    "service.unattributed_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.batch_size": "count",
    "engine.profile_ms": "ms",
    "engine.pb_test_ms": "ms",
    "engine.rank_ms": "ms",
    "engine.flatpool_ms": "ms",
    "engine.pairs_scored": "count",
    "kernels.pool_profile_ms": "ms",
    "kernels.pb_tail_ms": "ms",
    "shard.worker_ms": "ms",
    "shard.skew": "ratio",
    "shard.rpc_ms": "ms",
    "shard.merge_ms": "ms",
    "shard.worker_restarts": "count",
    "store.load_ms": "ms",
    "store.loads": "count",
    "store.append_ms": "ms",
    "store.segments": "count",
    "stindex.probe_ms": "ms",
    "stream.delta_block_ms": "ms",
    "stream.rescore_ms": "ms",
    "stream.rescored_over_full": "ratio",
    "stream.staleness_ms": "ms",
    "stream.merges": "count",
    "streaming.decide_ms": "ms",
    "assign.edge_scoring_ms": "ms",
    "assign.graph_ms": "ms",
    "assign.solve_ms": "ms",
    "assign.edges": "count",
    "assign.components": "count",
    "obs.tracing_overhead_pct": "%",
    "host.calib_ms": "ms",
}


def host_calib_ms() -> float:
    """A fixed pure-Python reference loop (median of 3), in ms."""
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e3


# ----------------------------------------------------------------------
# Workload inputs and oracles
# ----------------------------------------------------------------------
@dataclass
class Plan:
    """Everything one workload run sends, plus what the oracle needs."""

    initial_pool: list
    warmup: list
    measured: list
    #: Ground truth for precision: (query id, true candidate id) per
    #: link op or standing query, a list of them per assign op.
    truth: list = field(default_factory=list)


def _wire(trajectory) -> dict:
    from repro.service.protocol import trajectory_to_wire

    return trajectory_to_wire(trajectory)


def _query_order(pair, seed: int) -> list:
    import numpy as np

    ids = sorted(pair.matched_query_ids())
    perm = np.random.default_rng([seed, 13]).permutation(len(ids))
    return [ids[i] for i in perm]


def _post_op(path: str, body: bytes):
    return lambda conn: conn.post(path, body)


def plan_link(pair, seed: int, spec: Spec, n_ops: int) -> Plan:
    import wire

    qids = _query_order(pair, seed)[: spec.warmup_ops + n_ops]
    bodies = [wire.encode({"query": _wire(pair.p_db[q])}) for q in qids]
    return Plan(
        initial_pool=list(pair.q_db),
        warmup=[_post_op("/v1/link", b) for b in bodies[: spec.warmup_ops]],
        measured=[_post_op("/v1/link", b) for b in bodies[spec.warmup_ops:]],
        truth=[(q, pair.truth[q]) for q in qids[spec.warmup_ops:]],
    )


def plan_assign(pair, seed: int, spec: Spec, n_ops: int) -> Plan:
    import wire

    per_op = 2
    qids = _query_order(pair, seed)[: per_op * (spec.warmup_ops + n_ops)]
    groups = [qids[i: i + per_op] for i in range(0, len(qids), per_op)]
    ops = [
        _post_op("/v1/assign", wire.encode({"queries": [_wire(pair.p_db[q]) for q in g]}))
        for g in groups
    ]
    return Plan(
        initial_pool=list(pair.q_db),
        warmup=ops[: spec.warmup_ops],
        measured=ops[spec.warmup_ops:],
        truth=[[(q, pair.truth[q]) for q in g] for g in groups[spec.warmup_ops:]],
    )


class Replay:
    """ingest-watch state: standing-query cursors and the op factory.

    The store starts with the first half of every candidate's records.
    Each op ingests (and flushes) the second half of one candidate, in
    order of its first replayed timestamp, then long-polls ``/v1/watch``
    for a standing query whose window the flush reaches until the event
    naming that candidate arrives.
    """

    def __init__(self, standing: list, horizon_s: float) -> None:
        self.standing = standing  # [(query id, trajectory)]
        self.horizon_s = horizon_s
        self.cursors = {qid: 1 for qid, _ in standing}
        self.next_target = 0

    def _target(self, t_first: float, t_last: float) -> str:
        n = len(self.standing)
        for step in range(n):
            qid, traj = self.standing[(self.next_target + step) % n]
            if traj.ts[0] - self.horizon_s <= t_last and t_first <= traj.ts[-1] + self.horizon_s:
                self.next_target = (self.next_target + step + 1) % n
                return qid
        raise RuntimeError("no standing query overlaps the replayed records")

    def op(self, cid: str, records: list):
        import wire

        body = wire.encode({
            "session": "replay",
            "candidates": {cid: records},
            "flush": True,
            "decide": True,
        })
        t_first, t_last = records[0][0], records[-1][0]

        def run(conn):
            ingest = conn.post("/v1/ingest", body)
            target = self._target(t_first, t_last)
            deadline = time.monotonic() + WATCH_WAIT_MS / 1e3
            while True:
                got = conn.get(
                    f"/v1/watch?query={target}&since={self.cursors[target]}"
                    f"&wait_ms={WATCH_WAIT_MS:g}"
                )["data"]
                self.cursors[target] = got["seq"]
                if any(cid in e.get("changed", ()) for e in got["events"]):
                    return ingest
                if time.monotonic() > deadline:
                    raise wire.RequestFailed(f"no watch event for {cid} on {target}")

        return run


def plan_ingest(pair, seed: int, spec: Spec, n_ops: int) -> tuple[Plan, Replay]:
    from repro.config import FTLConfig
    from repro.core.trajectory import Trajectory

    order = _query_order(pair, seed)
    standing = [(f"sq-{i}", order[i]) for i in range(N_STANDING)]
    truth_q = {pair.truth[pid] for _, pid in standing}
    others = [pair.truth[p] for p in order[N_STANDING:] if pair.truth[p] not in truth_q]
    replayed = (sorted(truth_q) + others)[: spec.warmup_ops + n_ops]
    halves = {}
    for cid in replayed:
        t = pair.q_db[cid]
        h = len(t) // 2
        halves[cid] = [[float(a), float(b), float(c)] for a, b, c in zip(t.ts[h:], t.xs[h:], t.ys[h:])]
    initial = []
    for t in pair.q_db:
        if t.traj_id in halves:
            h = len(t) // 2
            t = Trajectory(t.ts[:h], t.xs[:h], t.ys[:h], t.traj_id)
        initial.append(t)
    replay = Replay(
        [(qid, pair.p_db[pid]) for qid, pid in standing], FTLConfig().horizon_s
    )
    ordered = sorted(halves, key=lambda c: (halves[c][0][0], c))
    ops = [replay.op(cid, halves[cid]) for cid in ordered]
    plan = Plan(
        initial_pool=initial,
        warmup=ops[: spec.warmup_ops],
        measured=ops[spec.warmup_ops:],
        truth=[(qid, pair.truth[pid]) for qid, pid in standing],
    )
    return plan, replay


class Oracle:
    """In-process reference answers from a store's pool and artifact."""

    def __init__(self, store_dir: Path) -> None:
        import fixture
        from repro.core.engine import LinkEngine, LinkOptions
        from repro.store import open_store

        store = open_store(store_dir)
        artifact = store.load_model()
        self.pool = list(store.load())
        self.options = LinkOptions(top_k=fixture.TOP_K, **SERVE_OPTIONS)
        self.engine = LinkEngine(artifact.rejection, artifact.acceptance, options=self.options)

    def link(self, query) -> dict:
        from repro.core.engine import LinkRequest

        result = self.engine.link_requests([LinkRequest(query)], default_pool=self.pool)[0]
        return json.loads(json.dumps(result.to_dict()))

    def assign(self, queries) -> dict:
        from repro.assign import graph_from_link_results, solve
        from repro.assign.graph import PERMISSIVE_LINK_OPTIONS
        from repro.core.engine import LinkRequest

        requests = [LinkRequest(q, options=PERMISSIVE_LINK_OPTIONS) for q in queries]
        results = self.engine.link_requests(requests, default_pool=self.pool)
        pool_ids = [t.traj_id for t in self.pool]
        graph = graph_from_link_results(
            results, [q.traj_id for q in queries], pool_ids, 1e-6,
            len(pool_ids) * len(requests),
        )
        assignment = solve(graph, backend="auto")
        data = assignment.to_dict()
        data["unassigned"] = assignment.unassigned(graph.query_ids)
        data["density"] = graph.density
        return json.loads(json.dumps(data))


_WORKER_ORACLE: Oracle | None = None


def _init_oracle(store_dir: Path) -> None:
    global _WORKER_ORACLE
    _WORKER_ORACLE = Oracle(store_dir)


def _oracle_assign(queries) -> dict:
    return _WORKER_ORACLE.assign(queries)


# ----------------------------------------------------------------------
# One pass: warm up, measure, stop; then check against the oracle
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """One daemon's measured ops and what the checks need."""

    plan: Plan
    replay: Replay | None
    store_dir: Path
    loop: object
    before: object
    after: object
    peak_rss_mib: float
    health: dict
    n_failed: int
    final_rankings: dict = field(default_factory=dict)
    traced: dict | None = None
    segments: int = 0
    correct_hits: int = 0
    n_judged: int = 0


def _traced_snapshot(daemon, trace_dir: Path, expected: int) -> dict:
    """SIGUSR1 the daemon tree; sum each process's traced totals."""
    pids = daemon.tree_pids()
    for pid in pids:
        os.kill(pid, signal.SIGUSR1)
    totals = {"calls": {}, "seconds": {}}
    deadline = time.monotonic() + 30.0
    for pid in pids:
        path = trace_dir / f"{pid}.json"
        while True:
            try:
                snap = json.loads(path.read_text())
                if snap["snapshot"] >= expected:
                    break
            except (OSError, ValueError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError(f"no trace snapshot from pid {pid}")
            time.sleep(0.01)
        for key in ("calls", "seconds"):
            for name, value in snap[key].items():
                totals[key][name] = totals[key].get(name, 0) + value
    return totals


def _traced_delta(a: dict, b: dict) -> dict:
    return {
        key: {n: v - a[key].get(n, 0) for n, v in b[key].items()}
        for key in ("calls", "seconds")
    }


def run_pass(spec, plan, replay, daemon, store_dir, trace_dir) -> Pass:
    import wire
    from repro.store import open_store

    control = wire.Conn(daemon.port)
    if replay is not None:
        for qid, traj in replay.standing:
            control.post("/v1/queries", wire.encode({"query": _wire(traj), "query_id": qid}))
    warm = wire.closed_loop(daemon.port, spec.connections, plan.warmup)
    n_failed = sum(r.error is not None for r in warm.results)
    health = control.get("/v1/healthz")["data"]
    before = wire.parse_prometheus(control.get_text("/v1/metrics"))
    snap0 = _traced_snapshot(daemon, trace_dir, 1) if trace_dir else None
    loop = wire.closed_loop(daemon.port, spec.connections, plan.measured)
    snap1 = _traced_snapshot(daemon, trace_dir, 2) if trace_dir else None
    after = wire.parse_prometheus(control.get_text("/v1/metrics"))
    rss = daemon.peak_rss_mib()
    final_rankings = {}
    if replay is not None:
        for qid, _ in replay.standing:
            got = control.get(f"/v1/watch?query={qid}&since=0&wait_ms=0")["data"]
            final_rankings[qid] = got["events"][-1]["ranking"]
    control.close()
    daemon.stop()
    return Pass(
        plan=plan, replay=replay, store_dir=store_dir, loop=loop, before=before,
        after=after, peak_rss_mib=rss, health=health, n_failed=n_failed,
        final_rankings=final_rankings,
        traced=_traced_delta(snap0, snap1) if trace_dir else None,
        segments=open_store(store_dir).stats().n_segments,
    )


def check_pass(spec, p: Pass, pair, oracle_cache: dict) -> None:
    """Count failed ops and oracle mismatches into ``p.n_failed`` and
    score ``p.correct_hits`` / ``p.n_judged`` for precision_at_1."""
    for r in p.loop.results:
        if r.error is not None:
            p.n_failed += 1
            print(f"op failed: {r.error}", file=sys.stderr)

    built: list = []

    def reference(key, compute):
        """The cached oracle answer for ``key``: a --trace 1 run replays
        the same ops on two identical stores."""
        if key not in oracle_cache:
            if not built:
                built.append(Oracle(p.store_dir))
            oracle_cache[key] = compute(built[0])
        return oracle_cache[key]

    if spec.name.startswith("link"):
        step = max(1, len(p.loop.results) // N_LINK_CHECKS)
        for i, (r, (qid, true_id)) in enumerate(zip(p.loop.results, p.plan.truth)):
            if r.error is not None:
                continue
            data = r.reply["data"]
            p.n_judged += 1
            top = data["candidates"][0]["candidate_id"] if data["candidates"] else None
            p.correct_hits += top == true_id
            if i % step == 0:
                expected = reference(("link", qid), lambda o: o.link(pair.p_db[qid]))
                if data != expected:
                    p.n_failed += 1
                    print(f"link mismatch for {qid}", file=sys.stderr)
    elif spec.name.startswith("assign"):
        groups = [tuple(q for q, _ in g) for g in p.plan.truth]
        missing = [g for g in groups if ("assign", g) not in oracle_cache]
        if missing:
            # Dense scoring is as costly in the oracle as in the daemon,
            # so the check runs on two processes once the daemon is down.
            # Forked, not spawned: spawning also starts a resource-tracker
            # process that outlives the run.
            with ProcessPoolExecutor(
                2, mp_context=multiprocessing.get_context("fork"),
                initializer=_init_oracle, initargs=(p.store_dir,),
            ) as pool:
                answers = pool.map(_oracle_assign, [[pair.p_db[q] for q in g] for g in missing])
                for g, answer in zip(missing, answers):
                    oracle_cache[("assign", g)] = answer
        for r, group, g in zip(p.loop.results, p.plan.truth, groups):
            if r.error is not None:
                continue
            data = r.reply["data"]
            assigned = {m["query_id"]: m["candidate_id"] for m in data["matches"]}
            for qid, true_id in group:
                p.n_judged += 1
                p.correct_hits += assigned.get(qid) == true_id
            if data != oracle_cache[("assign", g)]:
                p.n_failed += 1
                print(f"assign mismatch for {g}", file=sys.stderr)
    else:
        for (qid, traj), (_, true_id) in zip(p.replay.standing, p.plan.truth):
            ranking = p.final_rankings[qid]
            p.n_judged += 1
            p.correct_hits += bool(ranking) and ranking[0]["candidate_id"] == true_id
            expected = reference(("standing", qid), lambda o: o.link(traj)["candidates"])
            if ranking != expected:
                p.n_failed += 1
                print(f"standing query {qid} diverged from a fresh link", file=sys.stderr)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _percentile(values: list, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def _ops_per_s(p: Pass) -> float:
    ok = sum(r.error is None for r in p.loop.results)
    return ok / p.loop.wall_s


def end_to_end(p: Pass, setup_samples: list) -> dict:
    latencies = [r.latency_s * 1e3 for r in p.loop.results]
    return {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": p.peak_rss_mib,
        "ops_per_s": _ops_per_s(p),
        "op_p50_ms": _percentile(latencies, 50),
        "op_p90_ms": _percentile(latencies, 90),
        "precision_at_1": p.correct_hits / max(1, p.n_judged),
    }


def _shard_rows(p: Pass) -> list:
    rows = []
    for r in p.loop.results:
        if r.error is None and isinstance(r.reply, dict) and "shards" in r.reply:
            rows.append([s["elapsed_ms"] for s in r.reply["shards"]])
    return rows


def per_layer(spec: Spec, p: Pass, traced: Pass, calib_ms: float) -> dict:
    import wire

    d = wire.scrape_delta(p.before, p.after)
    n = len(p.loop.results)

    def ms(seconds: float) -> float:
        return seconds * 1e3 / n

    def stage(name: str) -> float:
        return d.hist(f"stage_{name}")[0]

    request_s = sum(d.hist(f"request_{r}")[0] for r in ("link", "assign", "ingest", "watch"))
    client_ms = statistics.fmean(r.latency_s * 1e3 for r in p.loop.results)
    shard_rows = _shard_rows(p)
    skews = [max(row) / statistics.fmean(row) for row in shard_rows if sum(row) > 0]
    worker_ms = sum(max(row) for row in shard_rows) / n if shard_rows else 0.0
    engine_s = sum(stage(s) for s in ("blocking", "prefilter", "profile", "pb_test", "rank"))
    # Critical path the stage timers account for.  Shard workers run in
    # parallel, so a sharded daemon's engine time is its slowest worker.
    if stage("edge_scoring") > 0:
        critical_ms = ms(stage("edge_scoring"))
    elif spec.workers > 1:
        critical_ms = worker_ms
    else:
        critical_ms = ms(engine_s)
    attributed_ms = (
        ms(stage("queue_wait")) + critical_ms
        + ms(stage("component_split") + stage("solve"))
    )
    batches = d.counter("batches_total")
    updates = d.hist("standing_staleness")[1]
    staleness_s = d.hist("standing_staleness")[0]
    rescored = d.counter("standing_rescored_pairs_total")
    pool_size = d.gauge("pool_size")
    if spec.name == "ingest-watch":
        pairs = rescored
    else:
        pairs = sum(
            s["n_candidates"] for r in p.loop.results if r.error is None
            for s in r.reply.get("shards", ())
        )
    t = traced.traced
    tsec, tcalls = t["seconds"], t["calls"]
    nt = len(traced.loop.results)

    def tms(*names: str) -> float:
        return sum(tsec.get(x, 0.0) for x in names) * 1e3 / nt

    assign_data = [
        r.reply["data"] for r in p.loop.results
        if r.error is None and spec.name.startswith("assign")
    ]
    untraced_rate, traced_rate = _ops_per_s(p), _ops_per_s(traced)
    return {
        "service.request_ms": ms(request_s),
        "service.wire_ms": client_ms - ms(request_s),
        "service.unattributed_ms": ms(request_s) - attributed_ms,
        "service.queue_wait_ms": ms(stage("queue_wait")),
        "service.batch_size": d.counter("batched_requests_total") / batches if batches else 0.0,
        "engine.profile_ms": ms(stage("profile")),
        "engine.pb_test_ms": ms(stage("pb_test")),
        "engine.rank_ms": ms(stage("rank")),
        "engine.flatpool_ms": tms("flatpool"),
        "engine.pairs_scored": float(pairs),
        "kernels.pool_profile_ms": tms("pool_profile"),
        "kernels.pb_tail_ms": tms("pb_tail"),
        "shard.worker_ms": worker_ms,
        "shard.skew": statistics.fmean(skews) if skews else 0.0,
        "shard.rpc_ms": tms("rpc") - tms("merge") if tcalls.get("rpc") else 0.0,
        "shard.merge_ms": tms("merge"),
        "shard.worker_restarts": d.counter("worker_restarts_total"),
        "store.load_ms": tms("store_load"),
        "store.loads": float(tcalls.get("store_load", 0)),
        "store.append_ms": tms("store_append"),
        "store.segments": float(p.segments),
        "stindex.probe_ms": ms(stage("index_probe") + stage("mmap_read")) + tms("stindex_probe"),
        "stream.delta_block_ms": tms("delta_block"),
        "stream.rescore_ms": tms("rescore"),
        "stream.rescored_over_full": rescored / (updates * pool_size) if updates and pool_size else 0.0,
        "stream.staleness_ms": staleness_s * 1e3 / updates if updates else 0.0,
        "stream.merges": d.counter("stream_delta_merges_total"),
        "streaming.decide_ms": tms("decide"),
        "assign.edge_scoring_ms": ms(stage("edge_scoring")),
        "assign.graph_ms": tms("assign_graph"),
        "assign.solve_ms": ms(stage("component_split") + stage("solve")),
        "assign.edges": float(sum(x["n_edges"] for x in assign_data)),
        "assign.components": float(sum(x["n_components"] for x in assign_data)),
        "obs.tracing_overhead_pct": (untraced_rate - traced_rate) / untraced_rate * 100.0,
        "host.calib_ms": calib_ms,
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _fingerprint(health: dict) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": health.get("kernel_backend"),
        "stage_backends": health.get("stage_backends"),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="scales the fixed op count (ops_per_10s * seconds / 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print("error: run from the root of a source checkout (src/repro missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import fixture

    # Turn SIGTERM into SystemExit so the finally below stops the daemons.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    fixture.adopt_orphans()

    spec = SPECS[args.workload]
    n_ops = max(1, round(spec.ops_per_10s * args.seconds / 10.0))
    calib_before = host_calib_ms()
    pair = fixture.generate_scenario(args.seed)
    work = fixture.fresh_dir(fixture.WORK_DIR / f"{spec.name}-{os.getpid()}")
    oracle_cache: dict = {}

    def make_plan():
        if spec.name.startswith("link"):
            return plan_link(pair, args.seed, spec, n_ops), None
        if spec.name.startswith("assign"):
            return plan_assign(pair, args.seed, spec, n_ops), None
        return plan_ingest(pair, args.seed, spec, n_ops)

    def set_up(tag: str, trace_dir: Path | None = None):
        plan, replay = make_plan()
        store_dir = work / f"store-{tag}"
        started = time.perf_counter()
        fixture.build_store(store_dir, plan.initial_pool, [pair.p_db, pair.q_db], args.seed)
        extra = spec.extra_args + tuple(
            x for k, v in SERVE_OPTIONS.items() for x in (f"--{k.replace('_', '-')}", str(v))
        )
        daemon = fixture.Daemon(
            store_dir, spec.workers, work / f"daemon-{tag}.log", extra, trace_dir=trace_dir
        )
        try:
            daemon.wait_ready()
        except BaseException:
            daemon.stop()
            raise
        return time.perf_counter() - started, daemon, store_dir, plan, replay

    daemons = []
    setup_samples: list = []
    try:
        if args.trace == 0:
            for i in range(N_SETUPS):
                elapsed, daemon, store_dir, plan, replay = set_up(str(i))
                daemons.append(daemon)
                setup_samples.append(elapsed)
                if i < N_SETUPS - 1:
                    daemon.stop()
            passes = [run_pass(spec, plan, replay, daemon, store_dir, None)]
        else:
            _, daemon, store_dir, plan, replay = set_up("plain")
            daemons.append(daemon)
            plain = run_pass(spec, plan, replay, daemon, store_dir, None)
            trace_dir = fixture.fresh_dir(work / "trace")
            _, daemon, store_dir, plan, replay = set_up("traced", trace_dir)
            daemons.append(daemon)
            traced = run_pass(spec, plan, replay, daemon, store_dir, trace_dir)
            passes = [plain, traced]
        for p in passes:
            check_pass(spec, p, pair, oracle_cache)
    finally:
        for daemon in daemons:
            daemon.stop()
        fixture.reap_children()
        shutil.rmtree(work, ignore_errors=True)
    calib_after = host_calib_ms()
    if args.trace == 0:
        metrics, units = end_to_end(passes[0], setup_samples), END_TO_END_UNITS
    else:
        calib = (calib_before + calib_after) / 2
        metrics, units = per_layer(spec, passes[0], passes[1], calib), PER_LAYER_UNITS

    env = _fingerprint(passes[0].health)
    env.update({
        "workload": spec.name, "seed": args.seed, "n_ops": n_ops, "trace": args.trace,
        "host_calib_ms": [calib_before, calib_after],
        "setup_samples_s": setup_samples,
        "measured_wall_s": [p.loop.wall_s for p in passes],
    })
    print(json.dumps({"env": env}))
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.4f} {units[name]}")
    attempted = sum(len(p.loop.results) for p in passes)
    failed = min(attempted, sum(p.n_failed for p in passes))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
