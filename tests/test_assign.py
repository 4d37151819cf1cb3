"""The sparse global assignment subsystem (`repro.assign`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign import (
    PERMISSIVE_LINK_OPTIONS,
    CostGraph,
    build_cost_graph,
    evaluate_assignment,
    graph_from_link_results,
    independent_top1,
    resolve_backend,
    scipy_available,
    solve,
    split_components,
)
from repro.assign.graph import edge_scoring_options
from repro.config import FTLConfig
from repro.core.engine import LinkEngine, LinkOptions, LinkRequest
from repro.core.models import CompatibilityModel
from repro.errors import ValidationError
from repro.geo.units import days_to_seconds
from repro.store.stindex import SpatioTemporalIndex
from repro.synth.noise import GaussianNoise
from repro.synth.observation import ObservationService
from repro.synth.population import generate_population
from repro.synth.scenario import make_paired_databases


def make_graph(edges, n_q=None, n_c=None):
    """A CostGraph over integer-labelled queries/candidates."""
    n_q = n_q if n_q is not None else max((e[0] for e in edges), default=-1) + 1
    n_c = n_c if n_c is not None else max((e[1] for e in edges), default=-1) + 1
    return CostGraph(
        query_ids=tuple(f"q{i}" for i in range(n_q)),
        candidate_ids=tuple(f"c{i}" for i in range(n_c)),
        edges=tuple(sorted(edges, key=lambda e: (e[0], e[1]))),
        min_score=0.0,
        n_scored_pairs=n_q * n_c,
    )


def brute_force_max_weight(n_q, n_c, edges):
    """Exact maximum-weight matching total by bitmask DP (n_c <= 16)."""
    from functools import lru_cache

    by_q = {qi: [] for qi in range(n_q)}
    for qi, ci, score in edges:
        by_q[qi].append((ci, score))

    @lru_cache(maxsize=None)
    def best(qi: int, used: int) -> float:
        if qi == n_q:
            return 0.0
        out = best(qi + 1, used)
        for ci, score in by_q[qi]:
            if not used >> ci & 1:
                out = max(out, score + best(qi + 1, used | (1 << ci)))
        return out

    return best(0, 0)


# ----------------------------------------------------------------------
# Components
# ----------------------------------------------------------------------
class TestComponents:
    def test_disjoint_edges_split(self):
        graph = make_graph([(0, 0, 0.9), (1, 0, 0.8), (2, 2, 0.5)], n_c=3)
        comps = split_components(graph)
        assert [(c.query_indices, c.candidate_indices) for c in comps] == [
            ((0, 1), (0,)),
            ((2,), (2,)),
        ]

    def test_chain_merges_into_one(self):
        # q0-c0, q1-c0, q1-c1, q2-c1: all one component via shared nodes.
        graph = make_graph(
            [(0, 0, 0.5), (1, 0, 0.5), (1, 1, 0.5), (2, 1, 0.5)]
        )
        comps = split_components(graph)
        assert len(comps) == 1
        assert comps[0].query_indices == (0, 1, 2)

    def test_isolated_nodes_in_no_component(self):
        graph = make_graph([(0, 0, 0.9)], n_q=5, n_c=5)
        comps = split_components(graph)
        assert len(comps) == 1
        assert comps[0].query_indices == (0,)

    def test_empty_graph(self):
        assert split_components(make_graph([], n_q=3, n_c=3)) == []


# ----------------------------------------------------------------------
# Solvers
# ----------------------------------------------------------------------
class TestSolvers:
    def test_backend_resolution(self):
        assert resolve_backend("greedy") == "greedy"
        assert resolve_backend("reference") == "reference"
        with pytest.raises(ValidationError):
            resolve_backend("simplex")

    def test_auto_prefers_sparse_with_scipy(self):
        if scipy_available():
            assert resolve_backend("auto") == "sparse"

    def test_no_scipy_env_forces_greedy_fallback(self, monkeypatch):
        monkeypatch.setenv("FTL_NO_SCIPY", "1")
        assert not scipy_available()
        assert resolve_backend("auto") == "greedy"
        with pytest.raises(ValidationError):
            resolve_backend("sparse")
        graph = make_graph([(0, 0, 0.9), (0, 1, 0.8), (1, 0, 0.7)])
        assert solve(graph).backend == "greedy"

    def test_exact_beats_greedy_on_conflict(self):
        # Greedy grabs (q0, c0) and strands q1; exact swaps.
        graph = make_graph([(0, 0, 0.9), (0, 1, 0.8), (1, 0, 0.85)])
        exact = solve(graph, backend="reference")
        assert exact.pairs == {"q0": "c1", "q1": "c0"}
        greedy = solve(graph, backend="greedy")
        assert greedy.pairs == {"q0": "c0"}
        assert exact.total_score > greedy.total_score

    def test_greedy_tie_break_is_index_order(self):
        # Equal scores: lowest (query_index, candidate_index) wins.
        graph = make_graph([(0, 1, 0.5), (0, 0, 0.5), (1, 0, 0.5)])
        result = solve(graph, backend="greedy")
        assert result.pairs == {"q0": "c0"}

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(7)
        edges = [
            (qi, ci, float(rng.uniform(0.1, 1.0)))
            for qi in range(12)
            for ci in range(12)
            if rng.random() < 0.3
        ]
        graph = make_graph(edges, n_q=12, n_c=12)
        for backend in ("greedy", "reference") + (
            ("sparse",) if scipy_available() else ()
        ):
            first = solve(graph, backend=backend)
            second = solve(graph, backend=backend)
            assert first.pairs == second.pairs
            assert first.total_score == second.total_score

    @pytest.mark.skipif(not scipy_available(), reason="needs scipy")
    def test_sparse_matches_reference_bit_for_bit(self):
        """Satellite parity pin: same pairs, same scores, same totals."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n_q, n_c = rng.integers(1, 25, size=2)
            edges = [
                (qi, ci, float(rng.uniform(0.05, 1.0)))
                for qi in range(n_q)
                for ci in range(n_c)
                if rng.random() < 0.2
            ]
            graph = make_graph(edges, n_q=n_q, n_c=n_c)
            sparse = solve(graph, backend="sparse")
            reference = solve(graph, backend="reference")
            assert sparse.pairs == reference.pairs
            assert dict(sparse.scores) == dict(reference.scores)
            assert sparse.total_score == reference.total_score
            assert sparse.n_components == reference.n_components

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_componentwise_solve_equals_brute_force(self, data):
        """Sparse (and reference) totals equal brute-force max weight."""
        n_q = data.draw(st.integers(1, 8), label="n_q")
        n_c = data.draw(st.integers(1, 8), label="n_c")
        cells = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, n_q - 1),
                    st.integers(0, n_c - 1),
                    st.integers(1, 100),
                ),
                max_size=24,
                unique_by=lambda t: (t[0], t[1]),
            ),
            label="edges",
        )
        edges = [(qi, ci, s / 100.0) for qi, ci, s in cells]
        graph = make_graph(edges, n_q=n_q, n_c=n_c)
        want = brute_force_max_weight(n_q, n_c, edges)
        backends = ["reference"] + (["sparse"] if scipy_available() else [])
        for backend in backends:
            got = solve(graph, backend=backend)
            assert got.total_score == pytest.approx(want, abs=1e-9)
        greedy = solve(graph, backend="greedy")
        assert greedy.total_score <= want + 1e-9

    def test_result_shape_and_accuracy(self):
        graph = make_graph([(0, 0, 0.9), (1, 1, 0.8)])
        result = solve(graph, backend="greedy")
        assert len(result) == 2
        assert result.scores == {"q0": 0.9, "q1": 0.8}
        assert result.unassigned(graph.query_ids) == []
        assert result.accuracy({"q0": "c0", "q1": "c9"}) == 0.5
        wire = result.to_dict()
        assert wire["total_score"] == pytest.approx(1.7)
        assert {m["query_id"] for m in wire["matches"]} == {"q0", "q1"}


# ----------------------------------------------------------------------
# Graph construction
# ----------------------------------------------------------------------
class TestGraphConstruction:
    @pytest.fixture(scope="class")
    def engine(self, fitted_models):
        mr, ma = fitted_models
        return LinkEngine(mr, ma, options=PERMISSIVE_LINK_OPTIONS)

    def test_graph_edges_match_engine_scores(
        self, engine, small_pair
    ):
        queries = [small_pair.p_db[qid] for qid in sorted(small_pair.truth)[:5]]
        pool = list(small_pair.q_db)
        graph = build_cost_graph(engine, queries, pool, min_score=1e-6)
        assert graph.query_ids == tuple(q.traj_id for q in queries)
        assert graph.candidate_ids == tuple(t.traj_id for t in pool)
        by_query = {}
        for qid, cid, score in graph.triples():
            by_query.setdefault(qid, {})[cid] = score
        for query in queries:
            expected = {
                c.candidate_id: c.score
                for c in engine.link(query, pool).candidates
                if c.score > 1e-6
            }
            assert by_query.get(query.traj_id, {}) == expected

    def test_edges_canonically_sorted(self, engine, small_pair):
        queries = [small_pair.p_db[qid] for qid in sorted(small_pair.truth)[:5]]
        graph = build_cost_graph(engine, queries, list(small_pair.q_db))
        assert list(graph.edges) == sorted(
            graph.edges, key=lambda e: (e[0], e[1])
        )

    def test_top_k_is_forced_off(self, engine, small_pair):
        queries = [small_pair.p_db[qid] for qid in sorted(small_pair.truth)[:3]]
        pool = list(small_pair.q_db)
        truncated = build_cost_graph(
            engine,
            queries,
            pool,
            options=PERMISSIVE_LINK_OPTIONS.with_updates(top_k=1),
        )
        full = build_cost_graph(engine, queries, pool)
        assert truncated.edges == full.edges

    def test_blocked_graph_is_edge_subset_with_equal_scores(
        self, engine, small_pair, config
    ):
        queries = [small_pair.p_db[qid] for qid in sorted(small_pair.truth)[:5]]
        pool = list(small_pair.q_db)
        index = SpatioTemporalIndex.build(
            small_pair.q_db,
            vmax_kph=config.vmax_kph,
            reach_gap_s=config.horizon_s,
        )
        dense = build_cost_graph(engine, queries, pool)
        blocked = build_cost_graph(engine, queries, blocking=index)
        dense_scores = dict(
            ((q, c), s) for q, c, s in dense.triples()
        )
        blocked_scores = dict(
            ((q, c), s) for q, c, s in blocked.triples()
        )
        assert set(blocked_scores) <= set(dense_scores)
        for key, score in blocked_scores.items():
            assert score == dense_scores[key]

    def test_validation(self, engine, small_pair):
        queries = [small_pair.p_db[qid] for qid in sorted(small_pair.truth)[:2]]
        with pytest.raises(ValidationError):
            build_cost_graph(engine, queries)  # no pool, no blocking
        with pytest.raises(ValidationError):
            build_cost_graph(
                engine, queries, list(small_pair.q_db), min_score=-0.5
            )
        with pytest.raises(ValidationError):
            build_cost_graph(
                engine, queries + [queries[0]], list(small_pair.q_db)
            )

    def test_graph_from_results_rejects_mismatch(self):
        with pytest.raises(ValidationError):
            graph_from_link_results([], ["q0"], ["c0"], 0.0, 0)


class TestEdgeScoringFloor:
    """Edge scoring floors alpha1 at ``min_score``; the graph is unchanged."""

    def test_options(self):
        floored = edge_scoring_options(
            PERMISSIVE_LINK_OPTIONS.with_updates(top_k=3), 1e-6
        )
        assert floored == PERMISSIVE_LINK_OPTIONS.with_updates(alpha1=1e-6)
        strict = LinkOptions(method="alpha-filter", alpha1=0.05, alpha2=0.05)
        assert edge_scoring_options(strict, 1e-6) == strict
        assert edge_scoring_options(strict, 2.0).alpha1 == 1.0
        nb = LinkOptions(method="naive-bayes", phi_r=0.1, top_k=5)
        assert edge_scoring_options(nb, 0.5) == nb.with_updates(top_k=None)

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_floored_graph_equals_permissive_scoring(self, city, seed, data):
        """On a random scenario and model fit, ``build_cost_graph`` (which
        skips ``p2`` below the floor) equals scoring every pair with
        ``PERMISSIVE_LINK_OPTIONS``: same edges, bit-equal scores, same
        ``n_scored_pairs`` and ``density``, at ``min_score`` 0, 1e-12,
        1e-6 and a value equal to some pair's exact ``p1``."""
        rng = np.random.default_rng(seed)
        agents = generate_population(
            city, 12, days_to_seconds(2), rng, mobility="taxi"
        )
        pair = make_paired_databases(
            agents,
            ObservationService("P", rate_per_hour=1.0, noise=GaussianNoise(50.0)),
            ObservationService("Q", rate_per_hour=0.5, noise=GaussianNoise(50.0)),
            rng,
        )
        config = FTLConfig()
        mr = CompatibilityModel.fit_rejection([pair.p_db, pair.q_db], config)
        ma = CompatibilityModel.fit_acceptance(
            [pair.p_db, pair.q_db], config, rng
        )
        queries = data.draw(
            st.lists(
                st.sampled_from(list(pair.p_db)),
                min_size=1,
                max_size=4,
                unique_by=lambda t: t.traj_id,
            )
        )
        pool = list(pair.q_db)
        p1 = {
            float(v) for ev in LinkEngine(mr, ma).evidence(queries, pool)
            for v in ev.p1
        }
        exact = data.draw(
            st.sampled_from(sorted({v for v in p1 if 0.0 < v < 1.0} or p1))
        )
        query_ids = [q.traj_id for q in queries]
        pool_ids = [c.traj_id for c in pool]
        for min_score in (0.0, 1e-12, 1e-6, exact):
            graph = build_cost_graph(
                LinkEngine(mr, ma, options=PERMISSIVE_LINK_OPTIONS),
                queries,
                pool,
                min_score=min_score,
            )
            scored = LinkEngine(mr, ma).link_requests(
                [LinkRequest(q, options=PERMISSIVE_LINK_OPTIONS) for q in queries],
                default_pool=pool,
            )
            expected = graph_from_link_results(
                scored, query_ids, pool_ids, min_score,
                len(queries) * len(pool),
            )
            assert graph == expected
            assert [e[2].hex() for e in graph.edges] == [
                e[2].hex() for e in expected.edges
            ]
            assert graph.density == expected.density


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
class TestEvaluation:
    def test_independent_top1_uses_ranking_key(self):
        graph = make_graph([(0, 2, 0.5), (0, 1, 0.5), (0, 0, 0.4)], n_c=3)
        # Tie on score: lowest candidate index wins (engine pool order).
        assert independent_top1(graph) == {"q0": "c1"}

    def test_assignment_not_worse_than_independent_on_catalog(self):
        from repro.datasets.catalog import build_scenario

        pair = build_scenario("SB-mini")
        evaluation = evaluate_assignment(
            pair, FTLConfig(), np.random.default_rng(0)
        )
        assert (
            evaluation.precision_assignment
            >= evaluation.precision_independent
        )
        assert evaluation.precision_assignment >= 0.9

    def test_report_shape(self, small_pair, config):
        evaluation = evaluate_assignment(
            small_pair, config, np.random.default_rng(1), use_blocking=False
        )
        report = evaluation.to_dict()
        assert report["n_queries"] == len(small_pair.p_db)
        assert 0.0 <= report["density"] <= 1.0
        assert set(report["precision_at_1"]) == {"independent", "assignment"}
        assert evaluation.assignment.accuracy(small_pair.truth) >= 0.8


# ----------------------------------------------------------------------
# Bench smoke
# ----------------------------------------------------------------------
class TestBenchSmoke:
    def test_assign_bench_smoke(self, tmp_path):
        """Tiny run of the assignment benchmark, emitting BENCH_assign.json."""
        import json

        from benchmarks.bench_assign import run_assign_benchmark

        out = tmp_path / "BENCH_assign.json"
        report = run_assign_benchmark(
            solver_pool=96, legacy_pool=48, scenario="SB-mini",
            repeats=1, seed=3, out_path=out,
        )
        written = json.loads(out.read_text())
        assert written["solver"]["matchings_identical"]
        assert written["solver"]["density"] < 0.15
        assert written["legacy"]["total_scores_match"]
        p = report["scenario"]["precision_at_1"]
        assert p["assignment"] >= p["independent"]
