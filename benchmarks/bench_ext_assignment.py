"""Extension bench: global one-to-one assignment vs. per-query top-1.

When both databases cover the same population, per-query decisions can
hand one candidate to several queries; a maximum-weight bipartite
matching over the Eq. 2 scores resolves conflicts globally.  This bench
quantifies the gain on a sparse config (where conflicts actually
happen) and compares the greedy 1/2-approximation against the exact
matching.
"""

import numpy as np

from benchmarks.conftest import cached_scenario, print_header, scale_name
from repro.assign import PERMISSIVE_LINK_OPTIONS, build_cost_graph, solve
from repro.core.engine import LinkEngine
from repro.pipeline.experiment import fit_model_pair


def _dense_graph(pair, mr, ma, qids):
    """Every (query, candidate) Eq. 2 score above 1e-6, in one engine pass."""
    engine = LinkEngine(mr, ma, options=PERMISSIVE_LINK_OPTIONS)
    queries = [pair.p_db[qid] for qid in qids]
    return build_cost_graph(engine, queries, list(pair.q_db), min_score=1e-6)


def test_assignment_vs_top1(benchmark, config):
    pair = cached_scenario(scale_name("SD"))  # the sparsest S config
    rng = np.random.default_rng(29)
    mr, ma = fit_model_pair(pair, config, rng)
    qids = pair.sample_queries(min(30, len(pair.truth)), rng)

    graph = benchmark.pedantic(
        _dense_graph, args=(pair, mr, ma, qids), rounds=1, iterations=1
    )

    evidence = LinkEngine(mr, ma).evidence(
        [pair.p_db[qid] for qid in qids], pair.q_db
    )
    top1_hits = sum(
        1
        for qid, qe in zip(qids, evidence)
        if qe.candidate_ids[np.argsort(-qe.scores(), kind="stable")[0]]
        == pair.truth[qid]
    )
    greedy = solve(graph, backend="greedy")
    optimal = solve(graph, backend="reference")

    def hits(assignment):
        return sum(
            1 for qid in qids if assignment.pairs.get(qid) == pair.truth[qid]
        )

    print_header("Global assignment vs per-query top-1 (SD config)")
    print(f"{'strategy':<22} {'correct':>8} {'assigned':>9} {'total score':>12}")
    print(f"{'independent top-1':<22} {top1_hits:>8} {len(qids):>9} {'-':>12}")
    print(f"{'greedy assignment':<22} {hits(greedy):>8} {len(greedy):>9} "
          f"{greedy.total_score:>12.3f}")
    print(f"{'optimal assignment':<22} {hits(optimal):>8} {len(optimal):>9} "
          f"{optimal.total_score:>12.3f}")

    assert optimal.total_score >= greedy.total_score - 1e-9
    assert hits(optimal) >= top1_hits - 1  # global view must not hurt


def test_assign_queries_api(benchmark, config):
    pair = cached_scenario(scale_name("SD"))
    rng = np.random.default_rng(31)
    mr, ma = fit_model_pair(pair, config, rng)
    qids = pair.sample_queries(min(20, len(pair.truth)), rng)
    assignment = benchmark.pedantic(
        lambda: solve(_dense_graph(pair, mr, ma, qids), backend="reference"),
        rounds=1,
        iterations=1,
    )
    print_header("build_cost_graph() + solve() accuracy")
    print(f"accuracy over assigned queries: "
          f"{assignment.accuracy(pair.truth):.2f} "
          f"({len(assignment)}/{len(qids)} assigned)")
    assert assignment.accuracy(pair.truth) >= 0.5
