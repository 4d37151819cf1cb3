"""Cross-module property-based invariants (hypothesis).

These tie together alignment, models, hypothesis testing and matching
on randomly generated inputs, checking the statistical invariants the
algorithms rely on rather than specific values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FTLConfig
from repro.core.alignment import MutualSegmentProfile, mutual_segment_profile
from repro.core.hypothesis import acceptance_pvalue, rejection_pvalue
from repro.core.models import (
    ACCEPTANCE,
    REJECTION,
    BucketCounts,
    CompatibilityModel,
)
from repro.core.trajectory import Trajectory
from repro.stats.poisson_binomial import PoissonBinomial

CONFIG = FTLConfig(smoothing=0.0, min_bucket_count=1)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def trajectory_strategy(max_len=25, span=2e4, extent=3e4):
    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_len))
        ts = sorted(
            draw(
                st.lists(
                    st.floats(0, span, allow_nan=False), min_size=n, max_size=n
                )
            )
        )
        seed = draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0, extent, n)
        ys = rng.uniform(0, extent, n)
        return Trajectory(ts, xs, ys)

    return build()


def model_pair_strategy():
    @st.composite
    def build(draw):
        n = CONFIG.n_buckets
        # Rejection probabilities small-ish, acceptance larger.
        base_r = draw(st.floats(0.0, 0.3))
        base_a = draw(st.floats(0.3, 1.0))
        counts_r = BucketCounts.zeros(n)
        counts_r.total[:] = 100
        counts_r.incompatible[:] = int(round(base_r * 100))
        counts_a = BucketCounts.zeros(n)
        counts_a.total[:] = 100
        counts_a.incompatible[:] = int(round(base_a * 100))
        return (
            CompatibilityModel(REJECTION, counts_r, CONFIG),
            CompatibilityModel(ACCEPTANCE, counts_a, CONFIG),
        )

    return build()


def profile_strategy(max_len=30):
    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_len))
        buckets = draw(
            st.lists(st.integers(0, 70), min_size=n, max_size=n)
        )
        incompatible = draw(
            st.lists(st.booleans(), min_size=n, max_size=n)
        )
        return MutualSegmentProfile(
            np.asarray(buckets, dtype=np.int64),
            np.asarray(incompatible, dtype=bool),
        )

    return build()


# ----------------------------------------------------------------------
# Profile invariants
# ----------------------------------------------------------------------
class TestProfileInvariants:
    @given(trajectory_strategy(), trajectory_strategy())
    @settings(max_examples=40, deadline=None)
    def test_profile_counts_bounded(self, p, q):
        profile = mutual_segment_profile(p, q, CONFIG)
        assert profile.n_incompatible <= profile.n_total
        assert profile.n_total <= max(len(p) + len(q) - 1, 0)

    @given(trajectory_strategy(), trajectory_strategy())
    @settings(max_examples=40, deadline=None)
    def test_profile_symmetric_counts_distinct_times(self, p, q):
        # Symmetry holds when no timestamps coincide; with ties the
        # paper's fixed P-before-Q tie order makes the alignment (and
        # therefore the count) order-dependent by construction.
        all_ts = np.concatenate([p.ts, q.ts])
        if np.unique(all_ts).size != all_ts.size:
            return
        a = mutual_segment_profile(p, q, CONFIG)
        b = mutual_segment_profile(q, p, CONFIG)
        assert a.n_total == b.n_total
        assert a.n_incompatible == b.n_incompatible

    @given(trajectory_strategy())
    @settings(max_examples=40, deadline=None)
    def test_identical_copy_fully_compatible(self, p):
        # A trajectory aligned with an exact copy of itself can only
        # produce compatible mutual segments under a loose speed cap:
        # coincident records have dist 0, and consecutive distinct
        # records satisfy any sufficiently large Vmax.  Trajectories
        # with repeated timestamps at different places are excluded —
        # those are self-incompatible regardless of Vmax (the paper's
        # "inaccuracy" case).
        if len(p) > 1 and np.any(np.diff(p.ts) < 1e-3):
            return
        loose = CONFIG.with_updates(vmax_kph=1e12)
        profile = mutual_segment_profile(p, p.with_id("copy"), loose)
        assert profile.n_incompatible == 0

    @given(trajectory_strategy(), trajectory_strategy())
    @settings(max_examples=40, deadline=None)
    def test_stricter_vmax_never_reduces_incompatibilities(self, p, q):
        strict = mutual_segment_profile(
            p, q, CONFIG.with_updates(vmax_kph=30.0)
        )
        loose = mutual_segment_profile(
            p, q, CONFIG.with_updates(vmax_kph=300.0)
        )
        assert strict.n_incompatible >= loose.n_incompatible


# ----------------------------------------------------------------------
# P-value invariants
# ----------------------------------------------------------------------
class TestPvalueInvariants:
    @given(profile_strategy(), model_pair_strategy())
    @settings(max_examples=50, deadline=None)
    def test_pvalues_in_unit_interval(self, profile, models):
        mr, ma = models
        p1 = rejection_pvalue(profile, mr)
        p2 = acceptance_pvalue(profile, ma)
        assert 0.0 <= p1 <= 1.0
        assert 0.0 <= p2 <= 1.0

    @given(profile_strategy(), model_pair_strategy())
    @settings(max_examples=50, deadline=None)
    def test_pvalue_tails_complementary(self, profile, models):
        """p1 (upper tail at k) + lower tail at k-1 == 1 under one model."""
        mr, _ma = models
        within = profile.within_horizon(mr.n_buckets)
        if within.n_total == 0:
            return
        ps = mr.probs_for(within.buckets)
        k = within.n_incompatible
        pb = PoissonBinomial(ps)
        assert pb.sf(k) + pb.cdf(k - 1) == pytest.approx(1.0, abs=1e-9)

    @given(model_pair_strategy(), st.integers(1, 25))
    @settings(max_examples=50, deadline=None)
    def test_score_monotone_in_incompatibilities(self, models, n):
        """Eq. 2 score never increases as incompatibilities increase."""
        mr, ma = models
        scores = []
        for k in range(n + 1):
            profile = MutualSegmentProfile(
                np.full(n, 1, dtype=np.int64),
                np.array([True] * k + [False] * (n - k), dtype=bool),
            )
            p1 = rejection_pvalue(profile, mr)
            p2 = acceptance_pvalue(profile, ma)
            scores.append(p1 * (1.0 - p2))
        assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))


# ----------------------------------------------------------------------
# Matcher consistency
# ----------------------------------------------------------------------
class TestMatcherConsistency:
    @given(profile_strategy(), model_pair_strategy(),
           st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_alpha_filter_decision_formula(
        self, oracle_evidence, profile, models, a1, a2
    ):
        mr, ma = models
        [accepted] = oracle_evidence([profile], mr, ma).alpha_filter_mask(a1, a2)
        p1 = rejection_pvalue(profile, mr)
        if p1 < a1:
            assert not accepted
        else:
            p2 = acceptance_pvalue(profile, ma)
            assert accepted == (p2 < a2)

    @given(profile_strategy(), model_pair_strategy(), st.floats(0.01, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_nb_decision_equals_llr_threshold(
        self, oracle_evidence, profile, models, phi_r
    ):
        mr, ma = models
        evidence = oracle_evidence([profile], mr, ma)
        [same_person] = evidence.naive_bayes_mask(phi_r)
        # Sec. IV-E: compare the two log posteriors (float-exactly the
        # sign of their difference, which is what the engine tests).
        posterior_r = math.log(phi_r) + evidence.ll_rejection[0]
        posterior_a = math.log(1.0 - phi_r) + evidence.ll_acceptance[0]
        assert same_person == (posterior_r >= posterior_a)

    @given(profile_strategy(), model_pair_strategy())
    @settings(max_examples=50, deadline=None)
    def test_nb_loose_prior_superset(self, oracle_evidence, profile, models):
        evidence = oracle_evidence([profile], *models)
        [strict] = evidence.naive_bayes_mask(0.01)
        [loose] = evidence.naive_bayes_mask(0.6)
        assert loose or not strict


# ----------------------------------------------------------------------
# Model fitting invariants
# ----------------------------------------------------------------------
class TestModelFitInvariants:
    @given(st.lists(trajectory_strategy(max_len=15), min_size=2, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_fitted_probs_valid(self, trajs):
        from repro.core.database import TrajectoryDatabase

        db = TrajectoryDatabase(
            (t.with_id(i) for i, t in enumerate(trajs))
        )
        config = FTLConfig()  # with smoothing
        mr = CompatibilityModel.fit_rejection([db], config)
        probs = mr.probs_for(np.arange(mr.n_buckets))
        assert np.all(probs >= 0.0)
        assert np.all(probs <= 1.0)

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_acceptance_fit_deterministic_given_seed(self, seed):
        from repro.core.database import TrajectoryDatabase

        rng = np.random.default_rng(3)
        trajs = []
        for i in range(6):
            n = 10
            ts = np.sort(rng.uniform(0, 1e4, n))
            trajs.append(
                Trajectory(ts, rng.uniform(0, 1e4, n), rng.uniform(0, 1e4, n), i)
            )
        db = TrajectoryDatabase(trajs)
        a = CompatibilityModel.fit_acceptance(
            [db], CONFIG, np.random.default_rng(seed)
        )
        b = CompatibilityModel.fit_acceptance(
            [db], CONFIG, np.random.default_rng(seed)
        )
        assert np.array_equal(a.counts.total, b.counts.total)
        assert np.array_equal(a.counts.incompatible, b.counts.incompatible)
