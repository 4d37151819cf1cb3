"""Naive-Bayes matching (paper Section IV-E).

Pair-level cases apply ``QueryEvidence.naive_bayes_mask`` to oracle
evidence of hand-made profiles; pool-level cases link through
``LinkEngine`` with ``method="naive-bayes"``.
"""

import math

import numpy as np
import pytest

from repro.config import FTLConfig
from repro.core.alignment import MutualSegmentProfile
from repro.core.engine import LinkEngine, LinkOptions, QueryEvidence
from repro.core.hypothesis import log_likelihood_arrays as _log_likelihood
from repro.core.models import ACCEPTANCE, REJECTION, BucketCounts, CompatibilityModel
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


def naive_bayes(mr, ma, phi_r):
    return LinkEngine(mr, ma, LinkOptions(method="naive-bayes", phi_r=phi_r))


@pytest.fixture
def models(config):
    return (
        model_with_prob(REJECTION, 0.02, config),
        model_with_prob(ACCEPTANCE, 0.8, config),
    )


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
    def test_phi_bounds(self, models, oracle_evidence):
        evidence = oracle_evidence([profile(5, 1)], *models)
        for bad in (0.0, 1.0, -0.1, 1.3):
            with pytest.raises(ValidationError):
                LinkOptions(method="naive-bayes", phi_r=bad)
            with pytest.raises(ValidationError):
                evidence.naive_bayes_mask(bad)

    def test_phi_a_complement(self):
        options = LinkOptions(method="naive-bayes", phi_r=0.05)
        assert options.phi_a == pytest.approx(1.0 - options.phi_r)


class TestDecide:
    def test_compatible_pattern_is_same_person(self, models, oracle_evidence):
        evidence = oracle_evidence([profile(20, 0)], *models, ["c"])
        assert evidence.naive_bayes_mask(0.05).tolist() == [True]
        assert evidence.llr[0] > math.log(0.95) - math.log(0.05)
        assert evidence.candidate_ids == ("c",)

    def test_incompatible_pattern_is_different(self, models, oracle_evidence):
        evidence = oracle_evidence([profile(20, 16)], *models)
        assert evidence.naive_bayes_mask(0.05).tolist() == [False]
        assert evidence.llr[0] < math.log(0.95) - math.log(0.05)

    def test_likelihoods_consistent_with_ratio(self, models, oracle_evidence):
        evidence = oracle_evidence([profile(10, 2)], *models)
        mr, ma = models
        ll_r, ll_a = evidence.ll_rejection[0], evidence.ll_acceptance[0]
        assert ll_r == pytest.approx(
            2 * math.log(mr.prob(1)) + 8 * math.log1p(-mr.prob(1))
        )
        assert ll_a == pytest.approx(
            2 * math.log(ma.prob(1)) + 8 * math.log1p(-ma.prob(1))
        )
        posterior_r = math.log(0.05) + ll_r
        posterior_a = math.log(0.95) + ll_a
        assert evidence.naive_bayes_mask(0.05)[0] == (posterior_r >= posterior_a)

    def test_no_evidence_decided_by_prior(self, models, oracle_evidence):
        evidence = oracle_evidence([profile(0, 0)], *models)
        assert evidence.naive_bayes_mask(0.3).tolist() == [False]
        assert evidence.naive_bayes_mask(0.7).tolist() == [True]

    def test_counts_recorded(self, models, oracle_evidence):
        evidence = oracle_evidence([profile(12, 3)], *models)
        assert evidence.n_mutual.tolist() == [12]
        assert evidence.n_incompatible.tolist() == [3]

    def test_boundary_pair_agrees_with_engine_rule(self):
        """One float form of the rule: the mask equals the engine's.

        At these values ``llr >= log(phi_a / phi_r)`` is False while the
        engine's ``log(phi_r) + ll_r >= log(phi_a) + ll_a`` is True.
        """
        phi_r = 0.1
        ll_r, ll_a = -49.418028324663055, -51.61525290199927
        engine_rule = (math.log(phi_r) + ll_r) - (math.log(1 - phi_r) + ll_a)
        assert engine_rule >= 0.0
        evidence = QueryEvidence(
            query_id="q",
            candidate_ids=("c",),
            p1=np.ones(1),
            p2=np.ones(1),
            ll_rejection=np.array([ll_r]),
            ll_acceptance=np.array([ll_a]),
            n_mutual=np.zeros(1, dtype=np.int64),
            n_incompatible=np.zeros(1, dtype=np.int64),
        )
        assert evidence.naive_bayes_mask(phi_r).tolist() == [True]


class TestPriorMonotonicity:
    """Paper: larger phi_r loosens candidate selection."""

    @pytest.mark.parametrize("k", [0, 2, 5, 8])
    def test_larger_phi_never_flips_to_reject(self, config, oracle_evidence, k):
        mr = model_with_prob(REJECTION, 0.1, config)
        ma = model_with_prob(ACCEPTANCE, 0.6, config)
        evidence = oracle_evidence([profile(15, k)], mr, ma)
        strict = evidence.naive_bayes_mask(0.001)
        loose = evidence.naive_bayes_mask(0.5)
        assert np.all(loose | ~strict)


class TestQueryAPI:
    def test_query_returns_positives_only(self, small_pair, fitted_models):
        engine = naive_bayes(*fitted_models, 0.05)
        pid = next(iter(small_pair.truth))
        query = small_pair.p_db[pid]
        result = engine.link(query, small_pair.q_db)
        [evidence] = engine.evidence([query], small_pair.q_db)
        same = evidence.naive_bayes_mask(0.05)
        assert set(result.candidate_ids()) == {
            cid for cid, ok in zip(evidence.candidate_ids, same) if ok
        }

    def test_query_high_perceptiveness(self, small_pair, fitted_models):
        engine = naive_bayes(*fitted_models, 0.1)
        rng = np.random.default_rng(0)
        qids = small_pair.sample_queries(15, rng)
        hits = sum(
            1
            for pid in qids
            if engine.link(small_pair.p_db[pid], small_pair.q_db).contains(
                small_pair.truth[pid]
            )
        )
        assert hits >= 11

    def test_query_selective(self, small_pair, fitted_models):
        engine = naive_bayes(*fitted_models, 0.05)
        rng = np.random.default_rng(0)
        qids = small_pair.sample_queries(10, rng)
        total = sum(
            len(engine.link(small_pair.p_db[pid], small_pair.q_db))
            for pid in qids
        )
        assert total / 10 < 0.2 * len(small_pair.q_db)

    def test_agrees_with_trajectory_level_decide(self, small_pair, fitted_models):
        engine = naive_bayes(*fitted_models, 0.05)
        pid = next(iter(small_pair.truth))
        qid = small_pair.truth[pid]
        [evidence] = engine.evidence([small_pair.p_db[pid]], [small_pair.q_db[qid]])
        assert evidence.candidate_ids == (qid,)
        # the true pair is matched, alone and within the whole pool
        assert evidence.naive_bayes_mask(0.05).tolist() == [True]
        assert engine.link(small_pair.p_db[pid], small_pair.q_db).contains(qid)
