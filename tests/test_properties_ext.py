"""Property-based invariants for the extension modules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign import solve
from repro.core.database import TrajectoryDatabase
from repro.core.prefilter import TimeOverlapPrefilter
from repro.core.trajectory import Trajectory
from repro.store.stindex import SpatioTemporalIndex
from repro.stats.bootstrap import bootstrap_ci
from repro.pipeline.score_analysis import auc_from_scores


def score_tables(max_side=6):
    """Dense random ``(query_id, candidate_id, score)`` tables."""

    @st.composite
    def build(draw):
        n_q = draw(st.integers(1, max_side))
        n_c = draw(st.integers(1, max_side))
        return [
            (f"p{i}", f"c{j}", draw(st.floats(0.0, 1.0, allow_nan=False)))
            for i in range(n_q)
            for j in range(n_c)
        ]

    return build()


class TestAssignmentProperties:
    @given(score_tables())
    @settings(max_examples=40, deadline=None)
    def test_optimal_never_below_greedy(self, graph_of, triples):
        graph = graph_of(triples)
        greedy = solve(graph, backend="greedy")
        optimal = solve(graph, backend="reference")
        assert optimal.total_score >= greedy.total_score - 1e-9

    @given(score_tables())
    @settings(max_examples=40, deadline=None)
    def test_greedy_is_half_approximation(self, graph_of, triples):
        graph = graph_of(triples)
        greedy = solve(graph, backend="greedy")
        optimal = solve(graph, backend="reference")
        assert greedy.total_score >= 0.5 * optimal.total_score - 1e-9

    @given(score_tables())
    @settings(max_examples=40, deadline=None)
    def test_both_are_matchings(self, graph_of, triples):
        graph = graph_of(triples)
        for backend in ("greedy", "reference"):
            result = solve(graph, backend=backend)
            assert len(set(result.pairs.keys())) == len(result.pairs)
            assert len(set(result.pairs.values())) == len(result.pairs)

    @given(score_tables(), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_min_score_respected(self, graph_of, triples, min_score):
        graph = graph_of(triples, min_score=min_score)
        scores = {(q, c): s for q, c, s in triples}
        for backend in ("greedy", "reference"):
            result = solve(graph, backend=backend)
            for q, c in result.pairs.items():
                assert scores[(q, c)] > min_score


class TestAucProperties:
    @given(
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=30),
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_auc_in_unit_interval(self, a, b):
        auc = auc_from_scores(np.array(a), np.array(b))
        assert 0.0 <= auc <= 1.0

    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=20),
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_auc_antisymmetric(self, a, b):
        a_arr, b_arr = np.array(a), np.array(b)
        assert auc_from_scores(a_arr, b_arr) + auc_from_scores(
            b_arr, a_arr
        ) == pytest.approx(1.0)

    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_fully_separated_population_wins(self, base):
        low = np.array(base)
        # Shift past the whole range so every high beats every low.
        high = low + (low.max() - low.min()) + 1.0
        assert auc_from_scores(high, low) == 1.0


class TestBootstrapProperties:
    @given(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=40),
        st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_interval_brackets_estimate(self, values, seed):
        rng = np.random.default_rng(seed)
        ci = bootstrap_ci(values, rng, n_boot=100)
        assert ci.low <= ci.estimate + 1e-12
        assert ci.estimate <= ci.high + 1e-12

    @given(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=40),
        st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_interval_within_data_range(self, values, seed):
        rng = np.random.default_rng(seed)
        ci = bootstrap_ci(values, rng, n_boot=100)
        assert min(values) - 1e-12 <= ci.low
        assert ci.high <= max(values) + 1e-12


class TestBlockingProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1e4, allow_nan=False),
                st.floats(1.0, 1e4, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        ),
        st.floats(0, 1e4),
        st.floats(1.0, 1e4),
        st.floats(0, 5e3),
    )
    @settings(max_examples=40, deadline=None)
    def test_index_equals_linear_scan(self, windows, q_start, q_len, min_overlap):
        db = TrajectoryDatabase()
        for i, (start, length) in enumerate(windows):
            ts = np.array([start, start + length])
            db.add(Trajectory(ts, np.zeros(2), np.zeros(2), f"t{i}"))
        index = SpatioTemporalIndex.build(db)
        query = Trajectory(
            np.array([q_start, q_start + q_len]), np.zeros(2), np.zeros(2), "q"
        )
        from_index = set(index.temporal_ids_for(query, min_overlap_s=min_overlap))
        linear = {
            t.traj_id
            for t in db
            if min(t.end_time, query.end_time)
            - max(t.start_time, query.start_time)
            >= min_overlap
        }
        assert from_index == linear

    def test_prefilter_consistency_random(self):
        rng = np.random.default_rng(0)
        db = TrajectoryDatabase()
        for i in range(20):
            start = rng.uniform(0, 1e4)
            ts = np.sort(rng.uniform(start, start + 5e3, 5))
            db.add(Trajectory(ts, np.zeros(5), np.zeros(5), f"t{i}"))
        index = SpatioTemporalIndex.build(db)
        prefilter = TimeOverlapPrefilter(min_overlap_s=1000.0)
        for _ in range(10):
            start = rng.uniform(0, 1e4)
            ts = np.sort(rng.uniform(start, start + 4e3, 4))
            query = Trajectory(ts, np.zeros(4), np.zeros(4), "q")
            kept = {c.traj_id for c in db if prefilter.keep(query, c)}
            indexed = set(index.temporal_ids_for(query, min_overlap_s=1000.0))
            assert kept <= indexed
