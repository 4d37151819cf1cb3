"""Candidate ranking (paper Section V, Eq. 2).

Scores are ``QueryEvidence.scores()``; a whole-pool ranking is their
stable descending order, which keeps zero-score candidates.
"""

import numpy as np
import pytest

from repro.core.alignment import MutualSegmentProfile
from repro.core.engine import LinkEngine, LinkOptions, LinkResult
from repro.errors import ValidationError


def profile(n, k):
    return MutualSegmentProfile(
        np.full(n, 1, dtype=np.int64),
        np.array([True] * k + [False] * (n - k), dtype=bool),
    )


def ranked(fitted_models, query, candidates):
    """``(candidate_id, score)`` of every candidate, best first."""
    [evidence] = LinkEngine(*fitted_models).evidence([query], candidates)
    scores = evidence.scores()
    order = np.argsort(-scores, kind="stable")
    return [(evidence.candidate_ids[i], float(scores[i])) for i in order]


class TestScoreCandidate:
    def test_score_is_eq2(self, fitted_models, oracle_evidence):
        evidence = oracle_evidence([profile(15, 0)], *fitted_models)
        assert evidence.scores()[0] == pytest.approx(
            evidence.p1[0] * (1 - evidence.p2[0])
        )

    def test_score_in_unit_interval(self, fitted_models, oracle_evidence):
        profiles = [profile(15, k) for k in range(0, 16, 5)]
        scores = oracle_evidence(profiles, *fitted_models).scores()
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_compatible_scores_higher(self, fitted_models, oracle_evidence):
        good, bad = oracle_evidence(
            [profile(15, 0), profile(15, 12)], *fitted_models
        ).scores()
        assert good > bad

    def test_model_kinds_validated(self, fitted_models):
        mr, ma = fitted_models
        with pytest.raises(ValidationError):
            LinkEngine(ma, mr)


class TestRankCandidates:
    def test_true_match_ranks_first_usually(self, small_pair, fitted_models):
        rng = np.random.default_rng(0)
        qids = small_pair.sample_queries(10, rng)
        top1_hits = 0
        for pid in qids:
            order = ranked(fitted_models, small_pair.p_db[pid], small_pair.q_db)
            if order[0][0] == small_pair.truth[pid]:
                top1_hits += 1
        assert top1_hits >= 7

    def test_scores_non_increasing(self, small_pair, fitted_models):
        pid = next(iter(small_pair.truth))
        order = ranked(fitted_models, small_pair.p_db[pid], small_pair.q_db)
        scores = [score for _cid, score in order]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_all_candidates_scored(self, small_pair, fitted_models):
        pid = next(iter(small_pair.truth))
        order = ranked(fitted_models, small_pair.p_db[pid], small_pair.q_db)
        assert len(order) == len(small_pair.q_db)

    def test_true_match_beats_median(self, small_pair, fitted_models):
        pid = next(iter(small_pair.truth))
        order = ranked(fitted_models, small_pair.p_db[pid], small_pair.q_db)
        position = next(
            i for i, (cid, _score) in enumerate(order)
            if cid == small_pair.truth[pid]
        )
        assert position < len(order) // 2


class TestTopK:
    def test_prefix(self, small_pair, fitted_models):
        engine = LinkEngine(
            *fitted_models,
            LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0),
        )
        pid = next(iter(small_pair.truth))
        result = engine.link(small_pair.p_db[pid], small_pair.q_db)
        assert result.top(3) == result.candidates[:3]

    def test_k_larger_than_list(self):
        assert LinkResult("q", "naive-bayes", ()).top(5) == ()

    def test_negative_k(self):
        with pytest.raises(ValueError):
            LinkResult("q", "naive-bayes", ()).top(-1)
