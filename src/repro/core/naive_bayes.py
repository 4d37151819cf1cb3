"""The Naive-Bayes-matching algorithm (paper Section IV-E).

Let ``(b_1, ..., b_n)`` be the incompatibility indicators of the mutual
segments of an aligned pair.  The matcher compares the two posteriors

    Pr(Mr | b) ~ phi_r * prod_i s_r^(l_i)^{b_i} (1 - s_r^(l_i))^{1-b_i}
    Pr(Ma | b) ~ phi_a * prod_i s_a^(l_i)^{b_i} (1 - s_a^(l_i))^{1-b_i}

and declares *same person* when the rejection-model posterior wins.
``phi_r`` is the prior probability that a random (P, Q) pair is of one
person; when unknown it acts as a strictness knob — larger ``phi_r``
loosens candidate selection (paper Section IV-E's discussion).

All likelihoods are computed in log space with probability clamping to
``[prob_floor, 1 - prob_floor]`` so that zero-probability buckets (e.g.
beyond-horizon segments) never produce ``-inf``; the per-pair reference
is :func:`repro.core.hypothesis.log_likelihood`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.alignment import MutualSegmentProfile
from repro.core.database import TrajectoryDatabase
from repro.core.engine import (
    LinkEngine,
    LinkOptions,
    QueryEvidence,
    _log_posterior_ratio,
)
from repro.core.models import CompatibilityModel
from repro.core.trajectory import Trajectory


@dataclass(frozen=True)
class NBDecision:
    """Outcome of Naive-Bayes-matching one (query, candidate) pair.

    Attributes
    ----------
    candidate_id:
        Id of the tested candidate.
    log_likelihood_rejection / log_likelihood_acceptance:
        Log observation likelihood under ``Mr`` / ``Ma``.
    log_posterior_ratio:
        ``log(phi_r L(Mr)) - log(phi_a L(Ma))``; positive means the
        same-person model wins.
    same_person:
        The decision (``log_posterior_ratio >= 0``).
    n_mutual, n_incompatible:
        Size of the in-horizon observation.
    """

    candidate_id: object
    log_likelihood_rejection: float
    log_likelihood_acceptance: float
    log_posterior_ratio: float
    same_person: bool
    n_mutual: int
    n_incompatible: int


class NaiveBayesMatcher:
    """Naive-Bayes matcher bound to a fitted (Mr, Ma) model pair.

    A per-pair view of a :class:`~repro.core.engine.LinkEngine`: every
    decision reads the engine's evidence.

    Parameters
    ----------
    rejection_model, acceptance_model:
        The fitted models (must share one config).
    phi_r:
        Prior probability ``Pr(M = Mr)`` that a pair is of the same
        person, in (0, 1).  ``phi_a = 1 - phi_r``.
    """

    def __init__(
        self,
        rejection_model: CompatibilityModel,
        acceptance_model: CompatibilityModel,
        phi_r: float = 0.01,
    ) -> None:
        options = LinkOptions(method="naive-bayes", phi_r=float(phi_r))
        self._engine = LinkEngine(rejection_model, acceptance_model, options)

    @property
    def phi_r(self) -> float:
        return self._engine.options.phi_r

    @property
    def phi_a(self) -> float:
        return self._engine.options.phi_a

    @property
    def config(self):
        return self._engine.config

    def decide_profile(
        self, profile: MutualSegmentProfile, candidate_id: object = None
    ) -> NBDecision:
        """Classify a pre-computed mutual-segment profile."""
        evidence = self._engine._profile_evidence([profile], (candidate_id,))
        return self._decisions(evidence)[0]

    def decide(
        self,
        query: Trajectory,
        candidate: Trajectory,
        profile: MutualSegmentProfile | None = None,
    ) -> NBDecision:
        """Classify one (query, candidate) trajectory pair.

        Pass ``profile`` when the pair's mutual-segment profile is
        already known so the pair is not aligned a second time.
        """
        if profile is not None:
            return self.decide_profile(profile, candidate_id=candidate.traj_id)
        return self._decisions(self._engine.evidence([query], [candidate])[0])[0]

    def query(
        self,
        query: Trajectory,
        candidates: TrajectoryDatabase | Iterable[Trajectory],
    ) -> list[NBDecision]:
        """Decisions for every candidate classified *same person*.

        Returned in database order; the paper ranks them separately via
        the (alpha1, alpha2)-filtering score when needed (Section V).
        """
        evidence = self._engine.evidence([query], candidates)[0]
        return [d for d in self._decisions(evidence) if d.same_person]

    def _decisions(self, evidence: QueryEvidence) -> list[NBDecision]:
        ratios = _log_posterior_ratio(
            evidence.ll_rejection, evidence.ll_acceptance, self.phi_r
        )
        return [
            NBDecision(
                candidate_id=cid,
                log_likelihood_rejection=float(ll_r),
                log_likelihood_acceptance=float(ll_a),
                log_posterior_ratio=float(ratio),
                same_person=bool(ratio >= 0.0),
                n_mutual=int(n),
                n_incompatible=int(k),
            )
            for cid, ll_r, ll_a, ratio, n, k in zip(
                evidence.candidate_ids,
                evidence.ll_rejection,
                evidence.ll_acceptance,
                ratios,
                evidence.n_mutual,
                evidence.n_incompatible,
            )
        ]
