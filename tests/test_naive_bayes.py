"""Naive-Bayes matching (paper Section IV-E)."""

import math

import numpy as np
import pytest

from repro.config import FTLConfig
from repro.core.alignment import MutualSegmentProfile
from repro.core.hypothesis import log_likelihood_arrays as _log_likelihood
from repro.core.models import ACCEPTANCE, REJECTION, BucketCounts, CompatibilityModel
from repro.core.naive_bayes import NaiveBayesMatcher
from repro.errors import ValidationError


def model_with_prob(kind, prob, config):
    counts = BucketCounts.zeros(config.n_buckets)
    counts.total[:] = 1000
    counts.incompatible[:] = int(round(prob * 1000))
    return CompatibilityModel(kind, counts, config)


def profile(n, k, bucket=1):
    return MutualSegmentProfile(
        np.full(n, bucket, dtype=np.int64),
        np.array([True] * k + [False] * (n - k), dtype=bool),
    )


@pytest.fixture
def config():
    return FTLConfig(smoothing=0.0, min_bucket_count=1)


@pytest.fixture
def matcher(config):
    mr = model_with_prob(REJECTION, 0.02, config)
    ma = model_with_prob(ACCEPTANCE, 0.8, config)
    return NaiveBayesMatcher(mr, ma, phi_r=0.05)


class TestLogLikelihood:
    def test_hand_computed(self):
        ps = np.array([0.2, 0.7])
        incompatible = np.array([True, False])
        expected = math.log(0.2) + math.log(0.3)
        assert _log_likelihood(ps, incompatible, 1e-12) == pytest.approx(expected)

    def test_zero_prob_clamped(self):
        ps = np.array([0.0])
        incompatible = np.array([True])
        value = _log_likelihood(ps, incompatible, 1e-9)
        assert value == pytest.approx(math.log(1e-9))

    def test_empty_is_zero(self):
        assert _log_likelihood(np.array([]), np.array([], dtype=bool), 1e-9) == 0.0


class TestConstruction:
    def test_phi_bounds(self, config):
        mr = model_with_prob(REJECTION, 0.02, config)
        ma = model_with_prob(ACCEPTANCE, 0.8, config)
        for bad in (0.0, 1.0, -0.1, 1.3):
            with pytest.raises(ValidationError):
                NaiveBayesMatcher(mr, ma, phi_r=bad)

    def test_phi_a_complement(self, matcher):
        assert matcher.phi_a == pytest.approx(1.0 - matcher.phi_r)


class TestDecide:
    def test_compatible_pattern_is_same_person(self, matcher):
        decision = matcher.decide_profile(profile(20, 0), candidate_id="c")
        assert decision.same_person
        assert decision.log_posterior_ratio > 0
        assert decision.candidate_id == "c"

    def test_incompatible_pattern_is_different(self, matcher):
        decision = matcher.decide_profile(profile(20, 16))
        assert not decision.same_person
        assert decision.log_posterior_ratio < 0

    def test_likelihoods_consistent_with_ratio(self, matcher):
        decision = matcher.decide_profile(profile(10, 2))
        expected = (
            math.log(matcher.phi_r)
            + decision.log_likelihood_rejection
            - math.log(matcher.phi_a)
            - decision.log_likelihood_acceptance
        )
        assert decision.log_posterior_ratio == pytest.approx(expected)

    def test_no_evidence_decided_by_prior(self, config):
        mr = model_with_prob(REJECTION, 0.02, config)
        ma = model_with_prob(ACCEPTANCE, 0.8, config)
        empty = profile(0, 0)
        assert not NaiveBayesMatcher(mr, ma, 0.3).decide_profile(empty).same_person
        assert NaiveBayesMatcher(mr, ma, 0.7).decide_profile(empty).same_person

    def test_counts_recorded(self, matcher):
        decision = matcher.decide_profile(profile(12, 3))
        assert decision.n_mutual == 12
        assert decision.n_incompatible == 3


class TestPriorMonotonicity:
    """Paper: larger phi_r loosens candidate selection."""

    @pytest.mark.parametrize("k", [0, 2, 5, 8])
    def test_larger_phi_never_flips_to_reject(self, config, k):
        mr = model_with_prob(REJECTION, 0.1, config)
        ma = model_with_prob(ACCEPTANCE, 0.6, config)
        prof = profile(15, k)
        strict = NaiveBayesMatcher(mr, ma, 0.001).decide_profile(prof).same_person
        loose = NaiveBayesMatcher(mr, ma, 0.5).decide_profile(prof).same_person
        assert loose or not strict


class TestQueryAPI:
    def test_query_returns_positives_only(self, small_pair, fitted_models):
        mr, ma = fitted_models
        matcher = NaiveBayesMatcher(mr, ma, phi_r=0.05)
        pid = next(iter(small_pair.truth))
        results = matcher.query(small_pair.p_db[pid], small_pair.q_db)
        assert all(d.same_person for d in results)

    def test_query_high_perceptiveness(self, small_pair, fitted_models):
        mr, ma = fitted_models
        matcher = NaiveBayesMatcher(mr, ma, phi_r=0.1)
        rng = np.random.default_rng(0)
        qids = small_pair.sample_queries(15, rng)
        hits = sum(
            1
            for pid in qids
            if any(
                d.candidate_id == small_pair.truth[pid]
                for d in matcher.query(small_pair.p_db[pid], small_pair.q_db)
            )
        )
        assert hits >= 11

    def test_query_selective(self, small_pair, fitted_models):
        mr, ma = fitted_models
        matcher = NaiveBayesMatcher(mr, ma, phi_r=0.05)
        rng = np.random.default_rng(0)
        qids = small_pair.sample_queries(10, rng)
        total = sum(
            len(matcher.query(small_pair.p_db[pid], small_pair.q_db))
            for pid in qids
        )
        assert total / 10 < 0.2 * len(small_pair.q_db)

    def test_agrees_with_trajectory_level_decide(self, small_pair, fitted_models):
        mr, ma = fitted_models
        matcher = NaiveBayesMatcher(mr, ma, phi_r=0.05)
        pid = next(iter(small_pair.truth))
        qid = small_pair.truth[pid]
        decision = matcher.decide(small_pair.p_db[pid], small_pair.q_db[qid])
        assert decision.candidate_id == qid
        assert decision.same_person  # true pair should be matched
