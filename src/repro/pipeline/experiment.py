"""Shared experiment machinery: model fitting and pairwise evidence.

Several experiments sweep *parameters* (alpha levels, priors) over a
fixed set of (query, candidate) pairs.  The expensive part — aligning
each pair, evaluating both Poisson-Binomial p-values and the
Naive-Bayes log-likelihood ratio — does not depend on those parameters,
so :func:`collect_evidence` computes it once per pair and the sweeps
reduce to thresholding:

* (alpha1, alpha2)-filtering accepts a pair iff
  ``p1 >= alpha1 and p2 < alpha2``;
* Naive-Bayes with prior ``phi_r`` declares *same person* iff
  ``llr >= log(phi_a) - log(phi_r)`` where ``llr`` is the
  prior-free log-likelihood ratio ``log L(Mr) - log L(Ma)``.

This mirrors exactly what the per-pair matcher classes compute; the
equivalence is covered by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import FTLConfig
from repro.core.alignment import mutual_segment_profile
from repro.core.hypothesis import acceptance_pvalue, rejection_pvalue
from repro.core.models import CompatibilityModel
from repro.core.naive_bayes import NaiveBayesMatcher
from repro.errors import ValidationError
from repro.synth.scenario import ScenarioPair


def fit_model_pair(
    pair: ScenarioPair, config: FTLConfig, rng: np.random.Generator
) -> tuple[CompatibilityModel, CompatibilityModel]:
    """Fit (Mr, Ma) on a scenario's two databases."""
    mr = CompatibilityModel.fit_rejection([pair.p_db, pair.q_db], config)
    ma = CompatibilityModel.fit_acceptance([pair.p_db, pair.q_db], config, rng)
    return mr, ma


@dataclass(frozen=True)
class QueryEvidence:
    """Per-candidate evidence for one query.

    ``p1[i]`` / ``p2[i]`` / ``llr[i]`` refer to ``candidate_ids[i]``.
    """

    query_id: object
    candidate_ids: tuple[object, ...]
    p1: np.ndarray
    p2: np.ndarray
    llr: np.ndarray

    def alpha_filter_mask(self, alpha1: float, alpha2: float) -> np.ndarray:
        """Accepted-candidate mask under (alpha1, alpha2)-filtering."""
        return (self.p1 >= alpha1) & (self.p2 < alpha2)

    def naive_bayes_mask(self, phi_r: float) -> np.ndarray:
        """Same-person mask under Naive-Bayes with prior ``phi_r``."""
        if not 0.0 < phi_r < 1.0:
            raise ValidationError(f"phi_r must be in (0, 1), got {phi_r}")
        threshold = math.log(1.0 - phi_r) - math.log(phi_r)
        return self.llr >= threshold

    def scores(self) -> np.ndarray:
        """Eq. 2 ranking scores ``v = p1 * (1 - p2)`` per candidate."""
        return self.p1 * (1.0 - self.p2)


@dataclass(frozen=True)
class PairEvidence:
    """Evidence for a set of queries against one candidate database."""

    queries: tuple[QueryEvidence, ...]
    n_candidates: int

    def __iter__(self):
        return iter(self.queries)

    def __len__(self) -> int:
        return len(self.queries)


def collect_evidence(
    pair: ScenarioPair,
    query_ids: Sequence[object],
    mr: CompatibilityModel,
    ma: CompatibilityModel,
) -> PairEvidence:
    """Compute (p1, p2, llr) for every (query, candidate) combination."""
    if not query_ids:
        raise ValidationError("need at least one query id")
    config = mr.config
    matcher = NaiveBayesMatcher(mr, ma)
    candidates = list(pair.q_db)
    candidate_ids = tuple(c.traj_id for c in candidates)
    queries: list[QueryEvidence] = []
    for qid in query_ids:
        query = pair.p_db[qid]
        p1 = np.empty(len(candidates))
        p2 = np.empty(len(candidates))
        llr = np.empty(len(candidates))
        for i, candidate in enumerate(candidates):
            profile = mutual_segment_profile(query, candidate, config)
            p1[i] = rejection_pvalue(profile, mr)
            p2[i] = acceptance_pvalue(profile, ma)
            decision = matcher.decide_profile(profile)
            llr[i] = (
                decision.log_likelihood_rejection
                - decision.log_likelihood_acceptance
            )
        queries.append(
            QueryEvidence(
                query_id=qid,
                candidate_ids=candidate_ids,
                p1=p1,
                p2=p2,
                llr=llr,
            )
        )
    return PairEvidence(queries=tuple(queries), n_candidates=len(candidates))


def perceptiveness_selectiveness(
    evidence: PairEvidence,
    truth,
    masks_by_query: Sequence[np.ndarray],
) -> tuple[float, float]:
    """Metrics for one operating point given per-query accept masks."""
    if len(masks_by_query) != len(evidence):
        raise ValidationError("one mask per query is required")
    hits = 0
    returned = 0
    for qe, mask in zip(evidence, masks_by_query):
        accepted = {cid for cid, keep in zip(qe.candidate_ids, mask) if keep}
        returned += len(accepted)
        if truth.get(qe.query_id) in accepted:
            hits += 1
    n_queries = len(evidence)
    return hits / n_queries, returned / (n_queries * evidence.n_candidates)
