"""Global one-to-one assignment: toy cases and end-to-end accuracy.

Toy score tables go through the production edge filter (the
``graph_of`` fixture) and the component solvers of
:func:`repro.assign.solve`; ``reference`` is the exact
networkx matcher, ``greedy`` the 1/2-approximation.
"""

import numpy as np
import pytest

from repro.assign import (
    PERMISSIVE_LINK_OPTIONS,
    GlobalAssignment,
    build_cost_graph,
    solve,
)
from repro.core.engine import LinkEngine
from repro.errors import ValidationError

TOY_SCORES = [
    ("p1", "c1", 0.9),
    ("p1", "c2", 0.8),
    ("p2", "c1", 0.85),
    ("p2", "c2", 0.1),
]


@pytest.fixture
def assign(graph_of):
    def solve_table(triples, backend, min_score=0.0):
        return solve(graph_of(triples, min_score), backend=backend)

    return solve_table


class TestGreedy:
    def test_takes_best_first(self, assign):
        result = assign(TOY_SCORES, "greedy")
        # Greedy: (p1,c1,0.9) first, then p2 can only take c2.
        assert result.pairs == {"p1": "c1", "p2": "c2"}
        assert result.total_score == pytest.approx(1.0)

    def test_min_score_excludes(self, assign):
        result = assign(TOY_SCORES, "greedy", min_score=0.5)
        assert result.pairs == {"p1": "c1"}  # p2's only remaining option < 0.5

    def test_empty(self, assign):
        result = assign([], "greedy")
        assert len(result) == 0
        assert result.total_score == 0.0

    def test_negative_min_score_rejected(self, graph_of):
        with pytest.raises(ValidationError):
            graph_of(TOY_SCORES, min_score=-1.0)

    def test_one_to_one(self, assign):
        rng = np.random.default_rng(0)
        scores = [
            (f"p{i}", f"c{j}", float(rng.random()))
            for i in range(10)
            for j in range(10)
        ]
        result = assign(scores, "greedy")
        assert len(set(result.pairs.keys())) == len(result.pairs)
        assert len(set(result.pairs.values())) == len(result.pairs)


class TestOptimal:
    def test_beats_greedy_on_conflict(self, assign):
        # Optimal: p1->c2 (0.8) + p2->c1 (0.85) = 1.65 > greedy 1.0.
        result = assign(TOY_SCORES, "reference")
        assert result.pairs == {"p1": "c2", "p2": "c1"}
        assert result.total_score == pytest.approx(1.65)

    def test_never_worse_than_greedy(self, assign):
        rng = np.random.default_rng(1)
        for trial in range(5):
            scores = [
                (f"p{i}", f"c{j}", float(rng.random()))
                for i in range(8)
                for j in range(8)
            ]
            greedy = assign(scores, "greedy")
            optimal = assign(scores, "reference")
            assert optimal.total_score >= greedy.total_score - 1e-9

    def test_min_score_respected(self, assign):
        result = assign(TOY_SCORES, "reference", min_score=0.82)
        assert set(result.pairs.values()) <= {"c1"}

    def test_empty(self, assign):
        assert len(assign([], "reference")) == 0


class TestAccuracy:
    @staticmethod
    def assignment(pairs):
        return GlobalAssignment(
            pairs=pairs,
            scores={qid: 0.5 for qid in pairs},
            total_score=0.5 * len(pairs),
            backend="greedy",
            n_components=len(pairs),
            n_edges=len(pairs),
            n_queries=len(pairs),
            n_candidates=len(pairs),
        )

    def test_accuracy_metric(self):
        assignment = self.assignment({"p1": "c1", "p2": "c9"})
        truth = {"p1": "c1", "p2": "c2"}
        assert assignment.accuracy(truth) == 0.5

    def test_empty_assignment_zero(self):
        assert self.assignment({}).accuracy({}) == 0.0


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def engine(self, fitted_models):
        mr, ma = fitted_models
        return LinkEngine(mr, ma, options=PERMISSIVE_LINK_OPTIONS)

    @staticmethod
    def graph(engine, pair, qids):
        queries = [pair.p_db[qid] for qid in qids]
        return build_cost_graph(engine, queries, list(pair.q_db))

    def test_score_all_pairs_shape(self, small_pair, engine):
        qids = list(small_pair.truth)[:5]
        graph = self.graph(engine, small_pair, qids)
        assert graph.n_scored_pairs == 5 * len(small_pair.q_db)
        assert graph.n_possible_pairs == graph.n_scored_pairs
        assert graph.query_ids == tuple(qids)

    @pytest.mark.parametrize(
        "backend", ["greedy", "reference"], ids=["greedy", "optimal"]
    )
    def test_assignment_accuracy_high(self, small_pair, engine, backend):
        rng = np.random.default_rng(0)
        qids = small_pair.sample_queries(12, rng)
        assignment = solve(self.graph(engine, small_pair, qids), backend)
        assert assignment.accuracy(small_pair.truth) >= 0.8

    def test_unknown_method_rejected(self, small_pair, engine):
        graph = self.graph(engine, small_pair, list(small_pair.truth)[:2])
        with pytest.raises(ValidationError):
            solve(graph, backend="magic")

    def test_assignment_at_least_as_good_as_top1(self, small_pair, engine):
        """Global assignment should not be worse than independent top-1."""
        rng = np.random.default_rng(1)
        qids = small_pair.sample_queries(15, rng)
        evidence = engine.evidence(
            [small_pair.p_db[qid] for qid in qids], small_pair.q_db
        )
        top1_hits = sum(
            1
            for qid, qe in zip(qids, evidence)
            if qe.candidate_ids[np.argsort(-qe.scores(), kind="stable")[0]]
            == small_pair.truth[qid]
        )
        assignment = solve(self.graph(engine, small_pair, qids), "reference")
        assigned_hits = sum(
            1 for qid in qids if assignment.pairs.get(qid) == small_pair.truth[qid]
        )
        assert assigned_hits >= top1_hits - 1
