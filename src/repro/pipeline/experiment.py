"""Shared experiment machinery: model fitting and pairwise evidence.

Several experiments sweep *parameters* (alpha levels, priors) over a
fixed set of (query, candidate) pairs.  The expensive part — aligning
each pair, evaluating both Poisson-Binomial p-values and the
Naive-Bayes log-likelihoods — does not depend on those parameters, so
:func:`collect_evidence` extracts it once per pair with
:meth:`~repro.core.engine.LinkEngine.evidence` and the sweeps reduce to
thresholding its :class:`~repro.core.engine.QueryEvidence`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import FTLConfig
from repro.core.engine import LinkEngine, QueryEvidence
from repro.core.models import CompatibilityModel
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
    queries = [pair.p_db[qid] for qid in query_ids]
    evidence = LinkEngine(mr, ma).evidence(queries, pair.q_db)
    return PairEvidence(queries=tuple(evidence), n_candidates=len(pair.q_db))


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
