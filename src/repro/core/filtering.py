"""The (alpha1, alpha2)-filtering algorithm (paper Section IV-D).

For a query trajectory ``P`` the algorithm starts from the full
candidate set ``Q`` and applies two phases to each candidate ``Q``:

1. **alpha1-rejection** — reject (prune) the candidate when
   ``p1 = Pr(K >= k_obs | Mr) < alpha1``: the pair shows too many
   incompatible mutual segments to be of one person.
2. **alpha2-acceptance** — accept the survivor when
   ``p2 = Pr(K <= k_obs | Ma) < alpha2``: the pair shows too few
   incompatibilities to be of two different persons.

Only candidates that survive phase 1 *and* pass phase 2 enter ``Q_P``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.alignment import MutualSegmentProfile
from repro.core.database import TrajectoryDatabase
from repro.core.engine import LinkEngine, LinkOptions, QueryEvidence
from repro.core.models import CompatibilityModel
from repro.core.trajectory import Trajectory


@dataclass(frozen=True)
class FilterDecision:
    """Outcome of testing one (query, candidate) pair.

    Attributes
    ----------
    candidate_id:
        Id of the tested candidate trajectory.
    p_rejection:
        ``p1`` — the alpha1-phase p-value under the rejection model.
    p_acceptance:
        ``p2`` — the alpha2-phase p-value under the acceptance model
        (``None`` when the pair was already pruned in phase 1, which
        skips the second, more informative test).
    accepted:
        Whether the candidate enters ``Q_P``.
    n_mutual:
        Number of in-horizon mutual segments the tests were based on.
    n_incompatible:
        How many of them were incompatible.
    """

    candidate_id: object
    p_rejection: float
    p_acceptance: float | None
    accepted: bool
    n_mutual: int
    n_incompatible: int

    @property
    def rejected_in_phase1(self) -> bool:
        return self.p_acceptance is None


class AlphaFilter:
    """(alpha1, alpha2)-filtering matcher bound to a fitted model pair.

    A per-pair view of a :class:`~repro.core.engine.LinkEngine`: every
    decision reads the engine's evidence.

    Parameters
    ----------
    rejection_model, acceptance_model:
        The fitted ``Mr`` / ``Ma`` pair (must share one config).
    alpha1:
        Significance level of the rejection phase; larger is stricter.
    alpha2:
        Significance level of the acceptance phase; smaller is stricter.
    """

    def __init__(
        self,
        rejection_model: CompatibilityModel,
        acceptance_model: CompatibilityModel,
        alpha1: float = 0.05,
        alpha2: float = 0.05,
    ) -> None:
        options = LinkOptions(
            method="alpha-filter", alpha1=float(alpha1), alpha2=float(alpha2)
        )
        self._engine = LinkEngine(rejection_model, acceptance_model, options)

    @property
    def alpha1(self) -> float:
        return self._engine.options.alpha1

    @property
    def alpha2(self) -> float:
        return self._engine.options.alpha2

    @property
    def config(self):
        return self._engine.config

    def decide_profile(
        self, profile: MutualSegmentProfile, candidate_id: object = None
    ) -> FilterDecision:
        """Run both phases on a pre-computed mutual-segment profile."""
        evidence = self._engine._profile_evidence([profile], (candidate_id,))
        return self._decisions(evidence)[0]

    def decide(
        self,
        query: Trajectory,
        candidate: Trajectory,
        profile: MutualSegmentProfile | None = None,
    ) -> FilterDecision:
        """Run both phases on one (query, candidate) trajectory pair.

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
    ) -> list[FilterDecision]:
        """Decisions for every accepted candidate in ``candidates``.

        Returns only accepted candidates (the paper's ``Q_P``), in
        database order; use :meth:`decide` for per-pair diagnostics on
        rejected candidates.
        """
        evidence = self._engine.evidence([query], candidates)[0]
        return [d for d in self._decisions(evidence) if d.accepted]

    def _decisions(self, evidence: QueryEvidence) -> list[FilterDecision]:
        alpha1, alpha2 = self.alpha1, self.alpha2
        accepted = evidence.alpha_filter_mask(alpha1, alpha2)
        return [
            FilterDecision(
                candidate_id=cid,
                p_rejection=float(p1),
                p_acceptance=None if p1 < alpha1 else float(p2),
                accepted=bool(ok),
                n_mutual=int(n),
                n_incompatible=int(k),
            )
            for cid, p1, p2, ok, n, k in zip(
                evidence.candidate_ids,
                evidence.p1,
                evidence.p2,
                accepted,
                evidence.n_mutual,
                evidence.n_incompatible,
            )
        ]
