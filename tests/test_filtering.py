"""(alpha1, alpha2)-filtering (paper Section IV-D).

Pair-level cases apply ``QueryEvidence.alpha_filter_mask`` to oracle
evidence of hand-made profiles; pool-level cases link through
``LinkEngine`` with ``method="alpha-filter"``.
"""

import numpy as np
import pytest

from repro.config import FTLConfig
from repro.core.alignment import MutualSegmentProfile
from repro.core.engine import LinkEngine, LinkOptions
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


def alpha_filter(mr, ma, alpha1, alpha2):
    options = LinkOptions(method="alpha-filter", alpha1=alpha1, alpha2=alpha2)
    return LinkEngine(mr, ma, options)


@pytest.fixture
def config():
    return FTLConfig(smoothing=0.0, min_bucket_count=1)


@pytest.fixture
def models(config):
    return (
        model_with_prob(REJECTION, 0.02, config),
        model_with_prob(ACCEPTANCE, 0.8, config),
    )


class TestConstruction:
    def test_alpha_bounds(self):
        with pytest.raises(ValidationError):
            LinkOptions(method="alpha-filter", alpha1=1.5)
        with pytest.raises(ValidationError):
            LinkOptions(method="alpha-filter", alpha2=-0.1)

    def test_properties(self):
        options = LinkOptions(method="alpha-filter")
        assert options.alpha1 == 0.05
        assert options.alpha2 == 0.05


class TestDecideProfile:
    def test_same_person_accepted(self, models, oracle_evidence):
        evidence = oracle_evidence([profile(20, 0)], *models, ["c"])
        assert evidence.alpha_filter_mask(0.05, 0.05).tolist() == [True]
        assert evidence.candidate_ids == ("c",)
        assert evidence.p1[0] > 0.05
        assert evidence.p2[0] < 0.05

    def test_different_person_rejected_phase1(self, models, oracle_evidence):
        evidence = oracle_evidence([profile(20, 16)], *models)
        assert evidence.alpha_filter_mask(0.05, 0.05).tolist() == [False]
        assert evidence.p1[0] < 0.05
        # Phase 1 alone decides: no alpha2 accepts a pruned pair.
        assert evidence.alpha_filter_mask(0.05, 1.0).tolist() == [False]

    def test_ambiguous_survives_phase1_fails_phase2(self, config, oracle_evidence):
        # Moderate incompatibility: passes rejection but not acceptance.
        mr = model_with_prob(REJECTION, 0.3, config)
        ma = model_with_prob(ACCEPTANCE, 0.5, config)
        evidence = oracle_evidence([profile(20, 8)], mr, ma)
        assert evidence.alpha_filter_mask(0.05, 0.01).tolist() == [False]
        assert evidence.p1[0] >= 0.05

    def test_no_evidence_never_accepted(self, models, oracle_evidence):
        evidence = oracle_evidence([profile(0, 0)], *models)
        assert evidence.alpha_filter_mask(0.05, 0.05).tolist() == [False]
        assert evidence.p1[0] == 1.0
        assert evidence.p2[0] == 1.0

    def test_counts_recorded(self, models, oracle_evidence):
        evidence = oracle_evidence([profile(15, 3)], *models)
        assert evidence.n_mutual.tolist() == [15]
        assert evidence.n_incompatible.tolist() == [3]


class TestStrictnessMonotonicity:
    """Paper: raising alpha1 or lowering alpha2 is stricter."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_alpha1_monotone(self, config, oracle_evidence, k):
        mr = model_with_prob(REJECTION, 0.1, config)
        ma = model_with_prob(ACCEPTANCE, 0.8, config)
        evidence = oracle_evidence([profile(20, k)], mr, ma)
        loose = evidence.alpha_filter_mask(0.001, 0.2)
        strict = evidence.alpha_filter_mask(0.5, 0.2)
        assert np.all(loose | ~strict)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_alpha2_monotone(self, config, oracle_evidence, k):
        mr = model_with_prob(REJECTION, 0.1, config)
        ma = model_with_prob(ACCEPTANCE, 0.8, config)
        evidence = oracle_evidence([profile(20, k)], mr, ma)
        loose = evidence.alpha_filter_mask(0.01, 0.5)
        strict = evidence.alpha_filter_mask(0.01, 0.001)
        assert np.all(loose | ~strict)


class TestQueryAPI:
    def test_decide_on_trajectories(self, small_pair, fitted_models):
        engine = alpha_filter(*fitted_models, 0.01, 0.1)
        pid = next(iter(small_pair.truth))
        [evidence] = engine.evidence(
            [small_pair.p_db[pid]], [small_pair.q_db[small_pair.truth[pid]]]
        )
        assert evidence.query_id == pid
        assert evidence.candidate_ids == (small_pair.truth[pid],)

    def test_query_returns_only_accepted(self, small_pair, fitted_models):
        engine = alpha_filter(*fitted_models, 0.01, 0.1)
        pid = next(iter(small_pair.truth))
        query = small_pair.p_db[pid]
        result = engine.link(query, small_pair.q_db)
        [evidence] = engine.evidence([query], small_pair.q_db)
        accepted = evidence.alpha_filter_mask(0.01, 0.1)
        assert set(result.candidate_ids()) == {
            cid for cid, ok in zip(evidence.candidate_ids, accepted) if ok
        }
        for candidate in result.candidates:
            assert candidate.p_rejection >= 0.01
            assert candidate.p_acceptance < 0.1

    def test_query_finds_true_match_mostly(self, small_pair, fitted_models):
        engine = alpha_filter(*fitted_models, 0.01, 0.2)
        rng = np.random.default_rng(0)
        hits = 0
        qids = small_pair.sample_queries(15, rng)
        for pid in qids:
            result = engine.link(small_pair.p_db[pid], small_pair.q_db)
            if result.contains(small_pair.truth[pid]):
                hits += 1
        assert hits >= 10  # most true matches survive both phases

    def test_query_is_selective(self, small_pair, fitted_models):
        engine = alpha_filter(*fitted_models, 0.01, 0.1)
        rng = np.random.default_rng(0)
        total = 0
        qids = small_pair.sample_queries(10, rng)
        for pid in qids:
            total += len(engine.link(small_pair.p_db[pid], small_pair.q_db))
        # far fewer than |Q| candidates per query on average
        assert total / 10 < 0.2 * len(small_pair.q_db)
