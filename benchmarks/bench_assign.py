"""Assignment bench: sparse component-wise solve vs the dense reference.

Three legs back :mod:`repro.assign`:

* **Solver scaling** — a clustered blocked cost graph at 5k x 5k
  (components of ~8x8, global density well under 5%) solved by the
  sparse scipy backend and by the networkx ``reference`` backend (the
  seed's dense solver behind the new API).  Both are exact, so the
  matchings must agree bit-for-bit; the sparse path must be >= 5x
  faster at full scale.
* **Legacy path** — at a size where it is still feasible, the genuine
  old pipeline (one networkx ``reference`` matching over the *full*
  edge list, no component decomposition) against the component-wise
  sparse solve, to show the decomposition is where the speedup lives.
* **Scenario precision** — :func:`repro.assign.evaluate.evaluate_assignment`
  on a catalog scenario: global assignment precision@1 must not trail
  independent per-query ranking.

Results are written to ``BENCH_assign.json``.  Run standalone
(``python -m benchmarks.bench_assign``) or through pytest; the tier-1
suite exercises a tiny smoke configuration on every run.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

from repro.assign import (
    CostGraph,
    evaluate_assignment,
    resolve_backend,
    scipy_available,
    solve,
    split_components,
)
from repro.assign.solver import _Component, _solve_reference
from repro.config import FTLConfig
from repro.datasets.catalog import build_scenario

DEFAULT_OUT = "BENCH_assign.json"


def build_clustered_graph(
    n_queries: int,
    n_candidates: int,
    rng: np.random.Generator,
    component_size: int = 8,
    edge_prob: float = 0.8,
) -> CostGraph:
    """A blocked-looking bipartite graph: dense inside ~8x8 clusters.

    Mirrors what spatio-temporal blocking produces on co-located
    populations — each query only has edges to the candidates of its
    own spatial cluster — so global density shrinks as 1/n while
    per-component structure stays constant.
    """
    edges: list[tuple[int, int, float]] = []
    for block_start in range(0, n_queries, component_size):
        q_block = range(block_start, min(block_start + component_size, n_queries))
        c_block = range(
            block_start, min(block_start + component_size, n_candidates)
        )
        for qi in q_block:
            for ci in c_block:
                if rng.random() < edge_prob:
                    edges.append((qi, ci, float(rng.uniform(0.05, 1.0))))
    edges.sort(key=lambda e: (e[0], e[1]))
    return CostGraph(
        query_ids=tuple(f"q{i}" for i in range(n_queries)),
        candidate_ids=tuple(f"c{i}" for i in range(n_candidates)),
        edges=tuple(edges),
        min_score=0.0,
        n_scored_pairs=n_queries * n_candidates,
    )


def _best_of(fn, repeats: int):
    best = math.inf
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_assign_benchmark(
    solver_pool: int = 5_000,
    legacy_pool: int = 300,
    scenario: str = "SB-mini",
    component_size: int = 8,
    edge_prob: float = 0.8,
    repeats: int = 3,
    seed: int = 7,
    out_path: str | Path | None = DEFAULT_OUT,
) -> dict:
    """Time the solver legs and score the scenario leg.

    Returns (and optionally writes as JSON) a dict with a ``solver``
    section (sparse vs reference on the clustered graph), a ``legacy``
    section (whole-graph networkx reference vs component-wise
    solve) and a ``scenario`` section (precision@1 comparison).
    """
    rng = np.random.default_rng(seed)
    report: dict = {
        "seed": seed,
        "repeats": repeats,
        "scipy": scipy_available(),
        "auto_backend": resolve_backend("auto"),
    }

    # --- solver scaling: sparse vs per-component dense reference -----
    graph = build_clustered_graph(
        solver_pool, solver_pool, rng,
        component_size=component_size, edge_prob=edge_prob,
    )
    exact_backend = "sparse" if scipy_available() else "greedy"
    sparse_s, sparse_asg = _best_of(
        lambda: solve(graph, backend=exact_backend), repeats
    )
    reference_s, reference_asg = _best_of(
        lambda: solve(graph, backend="reference"), repeats
    )
    assert sparse_asg is not None and reference_asg is not None
    report["solver"] = {
        "n_queries": solver_pool,
        "n_candidates": solver_pool,
        "component_size": component_size,
        "n_edges": graph.n_edges,
        "density": graph.density,
        "n_components": len(split_components(graph)),
        "sparse_backend": exact_backend,
        "sparse_s": sparse_s,
        "reference_s": reference_s,
        "speedup": reference_s / sparse_s if sparse_s > 0 else float("inf"),
        "sparse_total_score": sparse_asg.total_score,
        "reference_total_score": reference_asg.total_score,
        "matchings_identical": sparse_asg.pairs == reference_asg.pairs,
    }

    # --- legacy path: one dense networkx call over the whole graph ---
    small = build_clustered_graph(
        legacy_pool, legacy_pool, rng,
        component_size=component_size, edge_prob=edge_prob,
    )
    # The whole graph as one component: the reference matcher without
    # the decomposition.
    whole = _Component(
        query_indices=tuple(range(len(small.query_ids))),
        candidate_indices=tuple(range(len(small.candidate_ids))),
        edges=small.edges,
    )
    legacy_s, legacy_matched = _best_of(
        lambda: _solve_reference(whole), repeats
    )
    new_s, new_asg = _best_of(
        lambda: solve(small, backend=exact_backend), repeats
    )
    assert legacy_matched is not None and new_asg is not None
    legacy_total = sum(score for _, _, score in legacy_matched)
    report["legacy"] = {
        "n_queries": legacy_pool,
        "n_candidates": legacy_pool,
        "n_edges": small.n_edges,
        "legacy_whole_graph_s": legacy_s,
        "componentwise_s": new_s,
        "speedup": legacy_s / new_s if new_s > 0 else float("inf"),
        "legacy_total_score": legacy_total,
        "componentwise_total_score": new_asg.total_score,
        "total_scores_match": math.isclose(
            legacy_total, new_asg.total_score,
            rel_tol=1e-9, abs_tol=1e-9,
        ),
    }

    # --- scenario precision@1: assignment vs independent ranking -----
    pair = build_scenario(scenario)
    evaluation = evaluate_assignment(
        pair, FTLConfig(), np.random.default_rng(seed)
    )
    report["scenario"] = {"name": scenario, **evaluation.to_dict()}

    if out_path is not None:
        Path(out_path).write_text(json.dumps(report, indent=2) + "\n")
    return report


def _print_report(report: dict) -> None:
    solver = report["solver"]
    legacy = report["legacy"]
    scenario = report["scenario"]
    print(
        f"assignment solvers — scipy={report['scipy']}, "
        f"auto -> {report['auto_backend']}"
    )
    print(
        f"{solver['n_queries']}x{solver['n_candidates']} clustered graph: "
        f"{solver['n_edges']} edges (density {solver['density']:.4%}), "
        f"{solver['n_components']} components"
    )
    print(
        f"  {solver['sparse_backend']:<10} {solver['sparse_s']:>9.4f}s   "
        f"reference {solver['reference_s']:>9.4f}s   "
        f"speedup {solver['speedup']:>6.1f}x   "
        f"identical={solver['matchings_identical']}"
    )
    print(
        f"{legacy['n_queries']}x{legacy['n_candidates']} legacy whole-graph: "
        f"{legacy['legacy_whole_graph_s']:.4f}s vs component-wise "
        f"{legacy['componentwise_s']:.4f}s "
        f"({legacy['speedup']:.1f}x, scores match={legacy['total_scores_match']})"
    )
    p = scenario["precision_at_1"]
    print(
        f"scenario {scenario['name']}: precision@1 "
        f"independent={p['independent']:.3f} "
        f"assignment={p['assignment']:.3f} "
        f"(n={scenario['n_evaluated']}, solver={scenario['solver']})"
    )


def test_assign_benchmark(benchmark):
    """Full-size leg: 5k x 5k, sparse >= 5x over the dense reference."""
    report = benchmark.pedantic(
        run_assign_benchmark,
        kwargs={"solver_pool": 5_000, "legacy_pool": 300},
        rounds=1,
        iterations=1,
    )
    _print_report(report)
    solver = report["solver"]
    assert solver["density"] < 0.05
    assert solver["matchings_identical"]
    if report["scipy"]:
        assert solver["speedup"] >= 5.0, solver["speedup"]
    assert report["legacy"]["total_scores_match"]
    p = report["scenario"]["precision_at_1"]
    assert p["assignment"] >= p["independent"]


if __name__ == "__main__":
    _print_report(run_assign_benchmark())
