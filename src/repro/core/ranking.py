"""Candidate ranking (paper Section V, Equation 2).

Any candidate ``Q`` of a query ``P`` is scored by

    v_PQ = p1 * (1 - p2)

where ``p1`` is the alpha1-rejection p-value (large when the pair is
consistent with the same-person model) and ``p2`` the alpha2-acceptance
p-value (small when the pair is inconsistent with the different-person
model).  Larger scores mean more likely true matches.  The same score is
applied to Naive-Bayes candidate sets, as the paper prescribes, since the
NB posterior itself needs an unavailable prior ``Pr(b_1..b_n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.alignment import MutualSegmentProfile
from repro.core.engine import LinkEngine, QueryEvidence
from repro.core.models import CompatibilityModel
from repro.core.trajectory import Trajectory


@dataclass(frozen=True)
class ScoredCandidate:
    """A candidate id with its ranking score and the underlying p-values."""

    candidate_id: object
    score: float
    p_rejection: float
    p_acceptance: float


def _scored(evidence: QueryEvidence) -> list[ScoredCandidate]:
    return [
        ScoredCandidate(
            candidate_id=cid,
            score=float(score),
            p_rejection=float(p1),
            p_acceptance=float(p2),
        )
        for cid, score, p1, p2 in zip(
            evidence.candidate_ids, evidence.scores(), evidence.p1, evidence.p2
        )
    ]


def score_candidate(
    profile: MutualSegmentProfile,
    rejection_model: CompatibilityModel,
    acceptance_model: CompatibilityModel,
) -> ScoredCandidate:
    """Score one pre-computed profile with Eq. 2 (id left as ``None``)."""
    engine = LinkEngine(rejection_model, acceptance_model)
    return _scored(engine._profile_evidence([profile], (None,)))[0]


def rank_candidates(
    query: Trajectory,
    candidates: Iterable[Trajectory],
    rejection_model: CompatibilityModel,
    acceptance_model: CompatibilityModel,
) -> list[ScoredCandidate]:
    """Score every candidate and return them sorted by non-increasing score.

    Ties are broken by candidate order (stable sort), matching the
    paper's non-increasing-likelihood examination order.
    """
    engine = LinkEngine(rejection_model, acceptance_model)
    scored = _scored(engine.evidence([query], candidates)[0])
    scored.sort(key=lambda c: -c.score)
    return scored


def top_k(ranked: Sequence[ScoredCandidate], k: int) -> list[ScoredCandidate]:
    """The first ``k`` entries of an already-ranked candidate list."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return list(ranked[:k])
