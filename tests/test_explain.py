"""Linking-decision explanations."""

import pytest

from repro.core.engine import LinkEngine
from repro.core.explain import explain_pair
from repro.errors import ValidationError


@pytest.fixture(scope="module")
def pair_and_models(small_pair, fitted_models):
    mr, ma = fitted_models
    pid = next(iter(small_pair.truth))
    qid = small_pair.truth[pid]
    other = next(q for q in small_pair.q_db.ids() if q != qid)
    return small_pair, mr, ma, pid, qid, other


class TestFaithfulness:
    def test_contributions_sum_to_matcher_llr(self, pair_and_models):
        pair, mr, ma, pid, qid, other = pair_and_models
        engine = LinkEngine(mr, ma)
        for cid in (qid, other):
            explanation = explain_pair(
                pair.p_db[pid], pair.q_db[cid], mr, ma
            )
            [evidence] = engine.evidence([pair.p_db[pid]], [pair.q_db[cid]])
            assert explanation.total_llr == pytest.approx(
                evidence.llr[0], abs=1e-9
            )
            assert explanation.n_mutual == evidence.n_mutual[0]
            assert explanation.n_incompatible == evidence.n_incompatible[0]

    def test_segment_sum_matches_total(self, pair_and_models):
        pair, mr, ma, pid, qid, _other = pair_and_models
        explanation = explain_pair(pair.p_db[pid], pair.q_db[qid], mr, ma)
        assert sum(
            s.llr_contribution for s in explanation.segments
        ) == pytest.approx(explanation.total_llr, abs=1e-9)


class TestInterpretation:
    def test_true_pair_leans_same_person(self, pair_and_models):
        pair, mr, ma, pid, qid, other = pair_and_models
        true_expl = explain_pair(pair.p_db[pid], pair.q_db[qid], mr, ma)
        false_expl = explain_pair(pair.p_db[pid], pair.q_db[other], mr, ma)
        assert true_expl.total_llr > false_expl.total_llr

    def test_segments_sorted_by_magnitude(self, pair_and_models):
        pair, mr, ma, pid, qid, _other = pair_and_models
        explanation = explain_pair(pair.p_db[pid], pair.q_db[qid], mr, ma)
        magnitudes = [abs(s.llr_contribution) for s in explanation.segments]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_supporting_opposing_partition(self, pair_and_models):
        pair, mr, ma, pid, _qid, other = pair_and_models
        explanation = explain_pair(pair.p_db[pid], pair.q_db[other], mr, ma)
        zero = [
            s for s in explanation.segments if s.llr_contribution == 0.0
        ]
        assert (
            len(explanation.supporting())
            + len(explanation.opposing())
            + len(zero)
            == len(explanation.segments)
        )

    def test_incompatible_segments_oppose_for_true_pairs(self, pair_and_models):
        # Under the fitted models, incompatible segments always argue
        # against the same-person hypothesis (p_r < p_a).
        pair, mr, ma, pid, qid, _other = pair_and_models
        explanation = explain_pair(pair.p_db[pid], pair.q_db[qid], mr, ma)
        for segment in explanation.segments:
            if not segment.compatible and segment.prob_rejection < segment.prob_acceptance:
                assert segment.llr_contribution < 0

    def test_top_k(self, pair_and_models):
        pair, mr, ma, pid, qid, _other = pair_and_models
        explanation = explain_pair(pair.p_db[pid], pair.q_db[qid], mr, ma)
        assert len(explanation.top(3)) == min(3, len(explanation.segments))
        with pytest.raises(ValidationError):
            explanation.top(-1)

    def test_summary_text(self, pair_and_models):
        pair, mr, ma, pid, qid, _other = pair_and_models
        explanation = explain_pair(pair.p_db[pid], pair.q_db[qid], mr, ma)
        text = explanation.summary(3)
        assert "mutual segments" in text
        assert "nats" in text

    def test_describe_line(self, pair_and_models):
        pair, mr, ma, pid, qid, _other = pair_and_models
        explanation = explain_pair(pair.p_db[pid], pair.q_db[qid], mr, ma)
        if explanation.segments:
            line = explanation.segments[0].describe()
            assert "min" in line and "km" in line


class TestEdgeCases:
    def test_disjoint_pair_single_segment(self, fitted_models):
        from repro.core.trajectory import Trajectory

        mr, ma = fitted_models
        p = Trajectory([0.0, 60.0], [0.0, 10.0], [0.0, 0.0], "p")
        q = Trajectory([1e7, 1e7 + 60.0], [0.0, 10.0], [0.0, 0.0], "q")
        explanation = explain_pair(p, q, mr, ma)
        # The junction segment is far beyond the horizon: no evidence.
        assert explanation.n_mutual == 0
        assert explanation.total_llr == 0.0

    def test_empty_candidate(self, fitted_models):
        from repro.core.trajectory import Trajectory

        mr, ma = fitted_models
        p = Trajectory([0.0], [0.0], [0.0], "p")
        explanation = explain_pair(p, Trajectory.empty("q"), mr, ma)
        assert explanation.n_mutual == 0
