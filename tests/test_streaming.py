"""Streaming/incremental linking: equivalence with the batch path."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FTLConfig
from repro.core.alignment import mutual_segment_profile
from repro.core.engine import LinkEngine, _clipped_log_tables, _log_posterior_ratio
from repro.core.records import Record
from repro.core.streaming import (
    SOURCE_P,
    SOURCE_Q,
    StreamingLinker,
    StreamingPairEvidence,
)
from repro.core.trajectory import Trajectory
from repro.errors import ValidationError


def random_traj(rng, n, traj_id=None, span=2e4, extent=3e4):
    ts = np.sort(rng.uniform(0, span, n))
    return Trajectory(ts, rng.uniform(0, extent, n), rng.uniform(0, extent, n),
                      traj_id)


@pytest.fixture
def config():
    return FTLConfig()


class TestStreamingPairEvidence:
    def test_matches_batch_profile_counts(self, config):
        rng = np.random.default_rng(0)
        for trial in range(5):
            p = random_traj(rng, 20)
            q = random_traj(rng, 15)
            evidence = StreamingPairEvidence(config)
            evidence.extend(p, SOURCE_P)
            evidence.extend(q, SOURCE_Q)
            batch = mutual_segment_profile(p, q, config).within_horizon(
                config.n_buckets
            )
            assert evidence.n_mutual == batch.n_total
            assert evidence.n_incompatible == batch.n_incompatible

    def test_interleaved_insertion_order_invariant(self, config):
        rng = np.random.default_rng(1)
        p = random_traj(rng, 12)
        q = random_traj(rng, 12)
        in_order = StreamingPairEvidence(config)
        in_order.extend(p, SOURCE_P)
        in_order.extend(q, SOURCE_Q)
        shuffled = StreamingPairEvidence(config)
        records = [(r, SOURCE_P) for r in p] + [(r, SOURCE_Q) for r in q]
        rng.shuffle(records)
        for record, source in records:
            shuffled.insert(record, source)
        assert np.array_equal(
            in_order.bucket_counts(), shuffled.bucket_counts()
        )

    def test_empty_state(self, config):
        evidence = StreamingPairEvidence(config)
        assert evidence.n_records == 0
        assert evidence.n_mutual == 0
        assert evidence.n_incompatible == 0

    def test_single_record(self, config):
        evidence = StreamingPairEvidence(config)
        evidence.insert(Record(0.0, 1.0, 2.0), SOURCE_P)
        assert evidence.n_records == 1
        assert evidence.n_mutual == 0

    def test_bad_source_rejected(self, config):
        evidence = StreamingPairEvidence(config)
        with pytest.raises(ValidationError):
            evidence.insert(Record(0.0, 0.0, 0.0), 7)

    def test_bucketing_matches_batch_at_half_bucket_boundary(self, config):
        """Streaming must bucket dt exactly like ``FTLConfig.buckets_of``.

        Pinned at dt = 1.5 x time_unit_s — the half-bucket boundary
        where the old local ``int(round(...))`` could diverge from the
        batch path's np.rint bucketing.  Both co-located records, so the
        segment is compatible; only the bucket tally position matters.
        """
        dt = 1.5 * config.time_unit_s
        p = Trajectory([0.0], [100.0], [100.0], "p")
        q = Trajectory([dt], [100.0], [100.0], "q")
        evidence = StreamingPairEvidence(config)
        evidence.extend(p, SOURCE_P)
        evidence.extend(q, SOURCE_Q)
        batch = mutual_segment_profile(p, q, config).within_horizon(
            config.n_buckets
        )
        expected = np.zeros((2, config.n_buckets), dtype=np.int64)
        for bucket, incompatible in zip(batch.buckets, batch.incompatible):
            expected[int(incompatible), int(bucket)] += 1
        assert np.array_equal(
            evidence.bucket_counts(), expected
        ), "streaming bucket tallies diverged from the batch profile"
        expected_bucket = int(config.buckets_of(np.asarray([dt]))[0])
        assert evidence.bucket_counts()[0, expected_bucket] == 1

    def test_llr_matches_batch_nb(self, config, fitted_models):
        mr, ma = fitted_models
        rng = np.random.default_rng(3)
        p = random_traj(rng, 18)
        q = random_traj(rng, 22)
        evidence = StreamingPairEvidence(config)
        evidence.extend(p, SOURCE_P)
        evidence.extend(q, SOURCE_Q)
        [batch] = LinkEngine(mr, ma).evidence([p.with_id("p")], [q.with_id("q")])
        tables = (_clipped_log_tables(mr), _clipped_log_tables(ma))
        ll_r, ll_a = evidence.log_likelihoods(tables)
        assert ll_r - ll_a == pytest.approx(batch.llr[0], abs=1e-9)

    def test_expire_before_matches_fresh_build(self, config):
        rng = np.random.default_rng(5)
        p = random_traj(rng, 20)
        q = random_traj(rng, 20)
        evidence = StreamingPairEvidence(config)
        evidence.extend(p, SOURCE_P)
        evidence.extend(q, SOURCE_Q)
        cutoff = 1e4
        removed = evidence.expire_before(cutoff)
        assert removed > 0

        fresh = StreamingPairEvidence(config)
        fresh.extend(p.slice_time(cutoff, np.inf), SOURCE_P)
        fresh.extend(q.slice_time(cutoff, np.inf), SOURCE_Q)
        assert np.array_equal(evidence.bucket_counts(), fresh.bucket_counts())
        assert evidence.n_records == fresh.n_records

    def test_expire_everything(self, config):
        rng = np.random.default_rng(6)
        evidence = StreamingPairEvidence(config)
        evidence.extend(random_traj(rng, 10), SOURCE_P)
        assert evidence.expire_before(1e18) == 10
        assert evidence.n_records == 0
        assert evidence.n_mutual == 0

    def test_expire_noop_on_old_cutoff(self, config):
        rng = np.random.default_rng(7)
        evidence = StreamingPairEvidence(config)
        evidence.extend(random_traj(rng, 10), SOURCE_P)
        assert evidence.expire_before(-1.0) == 0
        assert evidence.n_records == 10

    @given(st.integers(0, 2**31), st.integers(2, 15), st.integers(2, 15))
    @settings(max_examples=25, deadline=None)
    def test_property_counts_match_batch(self, seed, n_p, n_q):
        config = FTLConfig()
        rng = np.random.default_rng(seed)
        p = random_traj(rng, n_p)
        q = random_traj(rng, n_q)
        evidence = StreamingPairEvidence(config)
        evidence.extend(p, SOURCE_P)
        evidence.extend(q, SOURCE_Q)
        batch = mutual_segment_profile(p, q, config).within_horizon(
            config.n_buckets
        )
        assert evidence.n_mutual == batch.n_total
        assert evidence.n_incompatible == batch.n_incompatible


class TestStreamingLinker:
    @pytest.fixture
    def setup(self, small_pair, fitted_models):
        mr, ma = fitted_models
        linker = StreamingLinker(mr, ma, phi_r=0.1)
        pid = next(iter(small_pair.truth))
        qid = small_pair.truth[pid]
        return small_pair, linker, pid, qid

    def test_streaming_equals_batch_decision(self, setup, fitted_models):
        pair, linker, pid, qid = setup
        mr, ma = fitted_models
        other = next(c for c in pair.q_db.ids() if c != qid)
        linker.add_candidate(qid)
        linker.add_candidate(other)
        for record in pair.p_db[pid]:
            linker.observe_query(record)
        for record in pair.q_db[qid]:
            linker.observe_candidate(qid, record)
        for record in pair.q_db[other]:
            linker.observe_candidate(other, record)

        engine = LinkEngine(mr, ma)
        for cid in (qid, other):
            stream = linker.decision(cid)
            [batch] = engine.evidence([pair.p_db[pid]], [pair.q_db[cid]])
            assert stream.same_person == batch.naive_bayes_mask(0.1)[0]
            assert stream.log_posterior_ratio == pytest.approx(
                batch.llr[0] + math.log(0.1) - math.log(0.9), abs=1e-9
            )

    def test_boundary_pair_takes_engine_rule(self, fitted_models, monkeypatch):
        """The stream decides with the engine's float form of the NB rule.

        At these log-likelihoods ``llr + log(phi_r) - log(phi_a)`` is
        negative while the engine's ``(log(phi_r) + ll_r) - (log(phi_a)
        + ll_a)`` is not, so only one rule can say same person.
        """
        mr, ma = fitted_models
        ll_r, ll_a = -49.418028324663055, -51.61525290199927
        monkeypatch.setattr(
            StreamingPairEvidence, "log_likelihoods", lambda *_: (ll_r, ll_a)
        )
        linker = StreamingLinker(mr, ma, phi_r=0.1)
        linker.add_candidate("c")
        decision = linker.decision("c")
        assert decision.log_posterior_ratio == (
            (math.log(0.1) + ll_r) - (math.log(0.9) + ll_a)
        )
        assert decision.same_person

    def test_decisions_equal_engine_rule_on_the_counts(
        self, small_pair, fitted_models
    ):
        """Each decision is the engine's ``_log_posterior_ratio`` of the
        log-likelihoods of the pair's tallies, recomputed here from the
        models' clipped per-bucket probabilities, bit for bit."""
        mr, ma = fitted_models
        config = mr.config
        floor = config.prob_floor
        buckets = np.arange(config.n_buckets)
        p_r = np.clip(mr.probs_for(buckets), floor, 1 - floor)
        p_a = np.clip(ma.probs_for(buckets), floor, 1 - floor)
        pid = sorted(small_pair.truth)[0]
        linker = StreamingLinker(mr, ma, phi_r=0.1)
        cids = list(small_pair.q_db.ids())[:12]
        for cid in cids:
            linker.add_candidate(cid)
            for record in small_pair.q_db[cid]:
                linker.observe_candidate(cid, record)
        for record in small_pair.p_db[pid]:
            linker.observe_query(record)
        decisions = linker.decisions()
        assert [d.candidate_id for d in decisions] == cids
        for decision in decisions:
            counts = linker._pairs[decision.candidate_id].bucket_counts()
            compat, incompat = counts[0], counts[1]
            ll_r = float(
                (incompat * np.log(p_r)).sum() + (compat * np.log1p(-p_r)).sum()
            )
            ll_a = float(
                (incompat * np.log(p_a)).sum() + (compat * np.log1p(-p_a)).sum()
            )
            ratio = _log_posterior_ratio(ll_r, ll_a, 0.1)
            assert decision.log_posterior_ratio == ratio
            assert decision.same_person == (ratio >= 0.0)

    def test_true_match_emerges(self, setup):
        pair, linker, pid, qid = setup
        linker.add_candidate(qid)
        # Interleave arrivals in time order (a realistic feed).
        events = [(r.t, r, "P") for r in pair.p_db[pid]] + [
            (r.t, r, "Q") for r in pair.q_db[qid]
        ]
        events.sort(key=lambda item: item[0])
        for _t, record, side in events:
            if side == "P":
                linker.observe_query(record)
            else:
                linker.observe_candidate(qid, record)
        assert linker.decision(qid).same_person
        assert [d.candidate_id for d in linker.matches()] == [qid]

    def test_late_candidate_registration_replays_query(self, setup):
        pair, linker, pid, qid = setup
        for record in pair.p_db[pid]:
            linker.observe_query(record)
        linker.add_candidate(qid)  # after the query stream
        for record in pair.q_db[qid]:
            linker.observe_candidate(qid, record)
        assert linker.decision(qid).same_person

    def test_unknown_candidate_rejected(self, setup):
        _pair, linker, _pid, _qid = setup
        with pytest.raises(ValidationError):
            linker.observe_candidate("ghost", Record(0.0, 0.0, 0.0))
        with pytest.raises(ValidationError):
            linker.decision("ghost")

    def test_duplicate_candidate_rejected(self, setup):
        _pair, linker, _pid, qid = setup
        linker.add_candidate(qid)
        with pytest.raises(ValidationError):
            linker.add_candidate(qid)

    def test_phi_validation(self, fitted_models):
        mr, ma = fitted_models
        with pytest.raises(ValidationError):
            StreamingLinker(mr, ma, phi_r=0.0)


class TestStreamingLinkerLifecycle:
    """Session-reuse hooks added for the serving daemon."""

    @pytest.fixture
    def setup(self, small_pair, fitted_models):
        mr, ma = fitted_models
        linker = StreamingLinker(mr, ma, phi_r=0.1)
        pid = next(iter(small_pair.truth))
        qid = small_pair.truth[pid]
        return small_pair, linker, pid, qid

    def test_introspection(self, setup):
        pair, linker, pid, qid = setup
        assert linker.n_candidates == 0
        assert linker.candidate_ids() == []
        linker.add_candidate(qid)
        linker.add_candidate("other")
        assert linker.n_candidates == 2
        assert linker.candidate_ids() == [qid, "other"]
        assert linker.has_candidate(qid)
        assert not linker.has_candidate("ghost")
        for record in pair.p_db[pid]:
            linker.observe_query(record)
        assert linker.n_query_records == len(pair.p_db[pid])

    def test_discard_candidate(self, setup):
        _pair, linker, _pid, qid = setup
        linker.add_candidate(qid)
        linker.discard_candidate(qid)
        assert not linker.has_candidate(qid)
        assert linker.decisions() == []
        with pytest.raises(ValidationError, match="unknown candidate"):
            linker.discard_candidate(qid)
        # Re-registration after discard is allowed.
        linker.add_candidate(qid)
        assert linker.has_candidate(qid)

    def test_expire_before_equals_fresh_linker(self, setup, fitted_models):
        """After expiry, decisions equal a fresh linker fed only the
        surviving records."""
        pair, linker, pid, qid = setup
        mr, ma = fitted_models
        linker.add_candidate(qid)
        p_records = list(pair.p_db[pid])
        q_records = list(pair.q_db[qid])
        for record in p_records:
            linker.observe_query(record)
        for record in q_records:
            linker.observe_candidate(qid, record)

        all_ts = sorted(r.t for r in p_records + q_records)
        cutoff = all_ts[len(all_ts) // 2]
        # Drops are counted per structure: the pair evidence holds both
        # streams, the query history holds the P records again.
        n_evidence = sum(t < cutoff for t in all_ts)
        n_history = sum(r.t < cutoff for r in p_records)
        assert linker.expire_before(cutoff) == n_evidence + n_history

        fresh = StreamingLinker(mr, ma, phi_r=0.1)
        fresh.add_candidate(qid)
        for record in p_records:
            if record.t >= cutoff:
                fresh.observe_query(record)
        for record in q_records:
            if record.t >= cutoff:
                fresh.observe_candidate(qid, record)

        expired, clean = linker.decision(qid), fresh.decision(qid)
        assert expired.n_mutual == clean.n_mutual
        assert expired.n_incompatible == clean.n_incompatible
        assert expired.same_person == clean.same_person
        assert expired.log_posterior_ratio == pytest.approx(
            clean.log_posterior_ratio, abs=1e-9
        )

    def test_expire_trims_query_history_for_late_candidates(self, setup):
        pair, linker, pid, qid = setup
        p_records = list(pair.p_db[pid])
        for record in p_records:
            linker.observe_query(record)
        cutoff = p_records[len(p_records) // 2].t
        linker.expire_before(cutoff)
        surviving = [r for r in p_records if r.t >= cutoff]
        assert linker.n_query_records == len(surviving)
        # A candidate registered after expiry replays only survivors.
        linker.add_candidate(qid)
        for record in pair.q_db[qid]:
            linker.observe_candidate(qid, record)
        fresh = StreamingPairEvidence(linker._config)
        for record in surviving:
            fresh.insert(record, SOURCE_P)
        for record in pair.q_db[qid]:
            fresh.insert(record, SOURCE_Q)
        decision = linker.decision(qid)
        assert decision.n_mutual == fresh.n_mutual
        assert decision.n_incompatible == fresh.n_incompatible

    def test_expire_everything(self, setup):
        pair, linker, pid, qid = setup
        linker.add_candidate(qid)
        for record in pair.p_db[pid]:
            linker.observe_query(record)
        removed = linker.expire_before(float("inf"))
        # Once from the pair evidence, once from the query history.
        assert removed == 2 * len(pair.p_db[pid])
        assert linker.n_query_records == 0
        assert linker.decision(qid).n_mutual == 0


class TestExpireBoundarySemantics:
    """Sliding-window edge cases shared with the store's watermark.

    The contract everywhere (``StreamingPairEvidence.expire_before``,
    ``StreamingLinker.expire_before``, ``TrajectoryStore.expire_before``)
    is *strict*: records with ``t < cutoff`` drop, a record at exactly
    the cutoff survives.
    """

    def test_record_at_exact_cutoff_survives(self, config):
        evidence = StreamingPairEvidence(config)
        evidence.insert(Record(100.0, 0.0, 0.0), SOURCE_P)
        evidence.insert(Record(200.0, 10.0, 10.0), SOURCE_Q)
        assert evidence.expire_before(100.0) == 0
        assert evidence.n_records == 2
        assert evidence.expire_before(100.0 + 1e-9) == 1
        assert evidence.n_records == 1

    def test_cutoff_on_segment_join_removes_exactly_that_segment(
        self, config
    ):
        """Expiring the older endpoint of a segment deletes exactly the
        tally joining it to its successor, no neighbours."""
        dt = 0.5 * config.time_unit_s  # all three joins in-horizon
        evidence = StreamingPairEvidence(config)
        evidence.insert(Record(0.0, 0.0, 0.0), SOURCE_P)
        evidence.insert(Record(dt, 0.0, 0.0), SOURCE_Q)
        evidence.insert(Record(2 * dt, 0.0, 0.0), SOURCE_P)
        evidence.insert(Record(3 * dt, 0.0, 0.0), SOURCE_Q)
        assert evidence.n_mutual == 3
        # cutoff exactly at the second record: only the first drops, and
        # with it exactly one mutual segment (0 -> dt).
        assert evidence.expire_before(dt) == 1
        assert evidence.n_mutual == 2

    def test_tallies_at_boundary_match_batch_over_survivors(
        self, config
    ):
        """Property over random cutoffs pinned to record timestamps."""
        rng = np.random.default_rng(11)
        for trial in range(6):
            p = random_traj(rng, 14)
            q = random_traj(rng, 12)
            evidence = StreamingPairEvidence(config)
            evidence.extend(p, SOURCE_P)
            evidence.extend(q, SOURCE_Q)
            all_ts = np.sort(np.concatenate([p.ts, q.ts]))
            # an exact record time: the boundary case merge-on-read and
            # the store watermark must agree on
            cutoff = float(all_ts[int(rng.integers(1, len(all_ts)))])
            evidence.expire_before(cutoff)
            batch = StreamingPairEvidence(config)
            batch.extend(p.slice_time(cutoff, np.inf), SOURCE_P)
            batch.extend(q.slice_time(cutoff, np.inf), SOURCE_Q)
            assert np.array_equal(
                evidence.bucket_counts(), batch.bucket_counts()
            ), f"boundary expiry diverged (trial {trial}, cutoff {cutoff})"
