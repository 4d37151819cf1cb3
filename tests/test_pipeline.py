"""Experiment pipeline: evidence, tradeoff, ranking, runtime, tables."""

import math

import numpy as np
import pytest

from repro.config import FTLConfig
from repro.core.engine import LinkEngine, LinkOptions
from repro.errors import ValidationError
from repro.pipeline.experiment import (
    collect_evidence,
    fit_model_pair,
    perceptiveness_selectiveness,
)
from repro.pipeline.ranking_eval import format_ranking, ranking_from_evidence
from repro.pipeline.runtime_eval import RuntimeResult, format_runtime, run_runtime_eval
from repro.pipeline.tables import format_table, render_table1, table1_column
from repro.pipeline.tradeoff import (
    DEFAULT_ALPHA_LADDER,
    DEFAULT_PHI_LADDER,
    format_tradeoff,
    tradeoff_from_evidence,
)


@pytest.fixture(scope="module")
def evidence_bundle(small_pair):
    rng = np.random.default_rng(0)
    config = FTLConfig()
    mr, ma = fit_model_pair(small_pair, config, rng)
    query_ids = small_pair.sample_queries(12, rng)
    evidence = collect_evidence(small_pair, query_ids, mr, ma)
    return small_pair, mr, ma, query_ids, evidence


class TestEvidence:
    def test_shape(self, evidence_bundle):
        pair, _mr, _ma, qids, evidence = evidence_bundle
        assert len(evidence) == len(qids)
        assert evidence.n_candidates == len(pair.q_db)
        for qe in evidence:
            assert qe.p1.shape == (evidence.n_candidates,)
            assert qe.p2.shape == (evidence.n_candidates,)
            assert qe.llr.shape == (evidence.n_candidates,)

    def test_pvalues_in_unit_interval(self, evidence_bundle):
        _pair, _mr, _ma, _qids, evidence = evidence_bundle
        for qe in evidence:
            assert np.all((qe.p1 >= 0) & (qe.p1 <= 1))
            assert np.all((qe.p2 >= 0) & (qe.p2 <= 1))

    @staticmethod
    def linked_ids(pair, mr, ma, qe, options):
        result = LinkEngine(mr, ma, options).link(pair.p_db[qe.query_id], pair.q_db)
        return sorted(result.candidate_ids())

    @staticmethod
    def masked_ids(qe, mask):
        return sorted(cid for cid, keep in zip(qe.candidate_ids, mask) if keep)

    def test_alpha_mask_matches_matcher(self, evidence_bundle):
        pair, mr, ma, _qids, evidence = evidence_bundle
        options = LinkOptions(method="alpha-filter", alpha1=0.01, alpha2=0.1)
        for qe in evidence:
            assert self.masked_ids(
                qe, qe.alpha_filter_mask(0.01, 0.1)
            ) == self.linked_ids(pair, mr, ma, qe, options)

    def test_nb_mask_matches_matcher(self, evidence_bundle):
        pair, mr, ma, _qids, evidence = evidence_bundle
        options = LinkOptions(method="naive-bayes", phi_r=0.05)
        for qe in evidence:
            assert self.masked_ids(
                qe, qe.naive_bayes_mask(0.05)
            ) == self.linked_ids(pair, mr, ma, qe, options)

    def test_nb_mask_phi_validation(self, evidence_bundle):
        _pair, _mr, _ma, _qids, evidence = evidence_bundle
        with pytest.raises(ValidationError):
            evidence.queries[0].naive_bayes_mask(0.0)

    def test_scores_formula(self, evidence_bundle):
        _pair, _mr, _ma, _qids, evidence = evidence_bundle
        qe = evidence.queries[0]
        assert np.allclose(qe.scores(), qe.p1 * (1 - qe.p2))

    def test_empty_queries_rejected(self, evidence_bundle):
        pair, mr, ma, _qids, _evidence = evidence_bundle
        with pytest.raises(ValidationError):
            collect_evidence(pair, [], mr, ma)

    def test_perceptiveness_selectiveness(self, evidence_bundle):
        pair, _mr, _ma, _qids, evidence = evidence_bundle
        masks = [qe.naive_bayes_mask(0.1) for qe in evidence]
        perc, sel = perceptiveness_selectiveness(evidence, pair.truth, masks)
        assert 0.0 <= perc <= 1.0
        assert 0.0 <= sel <= 1.0

    def test_mask_count_mismatch(self, evidence_bundle):
        pair, _mr, _ma, _qids, evidence = evidence_bundle
        with pytest.raises(ValidationError):
            perceptiveness_selectiveness(evidence, pair.truth, [])


class TestTradeoff:
    def test_curve_structure(self, evidence_bundle):
        pair, _mr, _ma, _qids, evidence = evidence_bundle
        curves = tradeoff_from_evidence(evidence, pair.truth)
        assert set(curves) == {"alpha-filter", "naive-bayes"}
        assert len(curves["alpha-filter"]) == len(DEFAULT_ALPHA_LADDER)
        assert len(curves["naive-bayes"]) == len(DEFAULT_PHI_LADDER)

    def test_looser_settings_never_reduce_perceptiveness(self, evidence_bundle):
        pair, _mr, _ma, _qids, evidence = evidence_bundle
        curves = tradeoff_from_evidence(evidence, pair.truth)
        nb = curves["naive-bayes"]
        percs = [p.perceptiveness for p in nb]
        sels = [p.selectiveness for p in nb]
        # phi ladder is strict -> loose: both metrics non-decreasing.
        assert all(a <= b + 1e-12 for a, b in zip(percs, percs[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(sels, sels[1:]))

    def test_format(self, evidence_bundle):
        pair, _mr, _ma, _qids, evidence = evidence_bundle
        text = format_tradeoff(tradeoff_from_evidence(evidence, pair.truth))
        assert "naive-bayes" in text
        assert "phi_r" in text


class TestRankingEval:
    def test_curves(self, evidence_bundle):
        pair, _mr, _ma, _qids, evidence = evidence_bundle
        curves = ranking_from_evidence(evidence, pair.truth, ks=[1, 5, 10, 20])
        for curve in curves.values():
            assert curve.ks == (1, 5, 10, 20)
            hits = list(curve.hits)
            assert hits == sorted(hits)  # non-decreasing in k
            assert hits[-1] <= curve.n_queries

    def test_format(self, evidence_bundle):
        pair, _mr, _ma, _qids, evidence = evidence_bundle
        text = format_ranking(
            ranking_from_evidence(evidence, pair.truth, ks=[1, 5])
        )
        assert "top-k" in text


class TestRuntimeEval:
    def test_runs_and_reports(self, small_pair):
        rng = np.random.default_rng(0)
        result = run_runtime_eval(
            small_pair, FTLConfig(), rng, n_queries=3, dataset="small"
        )
        assert result.dataset == "small"
        assert result.alpha_filter_s > 0
        assert result.naive_bayes_s > 0
        assert result.n_queries == 3

    def test_speedup(self):
        result = RuntimeResult("x", alpha_filter_s=0.2, naive_bayes_s=0.1,
                               n_queries=5)
        assert result.speedup == pytest.approx(2.0)
        zero = RuntimeResult("x", 0.1, 0.0, 5)
        assert math.isinf(zero.speedup)

    def test_format(self):
        text = format_runtime([RuntimeResult("SB", 0.01, 0.002, 10)])
        assert "SB" in text and "5.0x" in text


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["name", "v"], [["a", 1], ["bb", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]

    def test_format_table_row_mismatch(self):
        with pytest.raises(ValidationError):
            format_table(["a", "b"], [["only-one"]])

    def test_table1_column_values(self, small_pair):
        column = table1_column(small_pair, 5.0)
        assert column[0] == 5.0
        assert column[1] == pytest.approx(
            np.mean([len(t) for t in small_pair.p_db])
        )

    def test_render_table1(self, small_pair):
        text = render_table1({"X": small_pair}, {"X": 5.0})
        assert "mean of |P|" in text
        assert "X" in text

    def test_render_table1_empty_rejected(self):
        with pytest.raises(ValidationError):
            render_table1({}, {})
