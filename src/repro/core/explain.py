"""Explain a linking decision: where did the evidence come from?

The paper's applications put humans in the loop — a health agency or
police investigator acts on the returned candidates.  Accountable use
of such a tool needs per-decision explanations: which mutual segments
drove the match, and how much each contributed.

:func:`explain_pair` decomposes a pair's Naive-Bayes log-likelihood
ratio into per-segment contributions
``log(P(obs | Mr) / P(obs | Ma))`` and returns the segments sorted by
absolute contribution, each with its human-readable facts (times,
locations, gap, implied speed, compatibility).  The contributions sum
exactly to the matcher's prior-free LLR (tested), so the explanation is
faithful, not approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


from repro.core.alignment import align
from repro.core.models import CompatibilityModel, require_fitted_pair
from repro.core.records import Record
from repro.core.trajectory import Trajectory
from repro.errors import ValidationError
from repro.geo.distance import get_metric


@dataclass(frozen=True)
class SegmentEvidence:
    """One mutual segment's contribution to a linking decision."""

    first: Record
    second: Record
    gap_s: float
    distance_m: float
    implied_speed_kph: float
    compatible: bool
    bucket: int
    prob_rejection: float
    prob_acceptance: float
    llr_contribution: float

    def describe(self) -> str:
        """One human-readable line."""
        verdict = "compatible" if self.compatible else "INCOMPATIBLE"
        return (
            f"gap {self.gap_s / 60:.1f} min, {self.distance_m / 1000:.2f} km "
            f"({self.implied_speed_kph:.0f} kph, {verdict}): "
            f"{self.llr_contribution:+.3f} nats"
        )


@dataclass(frozen=True)
class PairExplanation:
    """The full evidence breakdown for one (query, candidate) pair."""

    segments: tuple[SegmentEvidence, ...]
    total_llr: float
    n_mutual: int
    n_incompatible: int

    def top(self, k: int = 5) -> list[SegmentEvidence]:
        """The ``k`` segments with the largest absolute contribution."""
        if k < 0:
            raise ValidationError(f"k must be >= 0, got {k}")
        return list(self.segments[:k])

    def supporting(self) -> list[SegmentEvidence]:
        """Segments arguing *for* the same-person hypothesis."""
        return [s for s in self.segments if s.llr_contribution > 0]

    def opposing(self) -> list[SegmentEvidence]:
        """Segments arguing *against* it."""
        return [s for s in self.segments if s.llr_contribution < 0]

    def summary(self, k: int = 5) -> str:
        """A short multi-line report for an investigator."""
        verdict = "same person" if self.total_llr >= 0 else "different persons"
        lines = [
            f"evidence: {self.n_mutual} mutual segments "
            f"({self.n_incompatible} incompatible), "
            f"total {self.total_llr:+.2f} nats -> leans '{verdict}'",
        ]
        for segment in self.top(k):
            lines.append("  " + segment.describe())
        return "\n".join(lines)


def explain_pair(
    query: Trajectory,
    candidate: Trajectory,
    rejection_model: CompatibilityModel,
    acceptance_model: CompatibilityModel,
) -> PairExplanation:
    """Decompose the pair's prior-free LLR into per-segment evidence.

    The contributions sum exactly to
    ``log L(Mr) - log L(Ma)`` as computed by
    :meth:`~repro.core.engine.LinkEngine.evidence` (``QueryEvidence.llr``,
    with the same probability clamping); segments beyond the model
    horizon carry zero contribution and are omitted.
    """
    mr, ma = require_fitted_pair(rejection_model, acceptance_model)
    config = mr.config
    metric = get_metric(config.metric)
    floor = config.prob_floor
    merged = align(query, candidate)

    segments: list[SegmentEvidence] = []
    total = 0.0
    n_mutual = 0
    n_incompatible = 0
    for segment in merged.mutual_segments():
        first, second = segment.first, segment.second
        gap = segment.timediff
        bucket = config.bucket_of(gap)
        if bucket >= config.n_buckets:
            continue
        n_mutual += 1
        dist = float(metric(first.x, first.y, second.x, second.y))
        compatible = dist <= config.vmax_mps * gap
        if not compatible:
            n_incompatible += 1
        p_r = min(max(mr.prob(bucket), floor), 1.0 - floor)
        p_a = min(max(ma.prob(bucket), floor), 1.0 - floor)
        if compatible:
            contribution = math.log1p(-p_r) - math.log1p(-p_a)
        else:
            contribution = math.log(p_r) - math.log(p_a)
        total += contribution
        speed_kph = (
            float("inf") if gap == 0 and dist > 0
            else (dist / gap * 3.6 if gap > 0 else 0.0)
        )
        segments.append(
            SegmentEvidence(
                first=first,
                second=second,
                gap_s=gap,
                distance_m=dist,
                implied_speed_kph=speed_kph,
                compatible=compatible,
                bucket=bucket,
                prob_rejection=p_r,
                prob_acceptance=p_a,
                llr_contribution=contribution,
            )
        )
    segments.sort(key=lambda s: -abs(s.llr_contribution))
    return PairExplanation(
        segments=tuple(segments),
        total_llr=total,
        n_mutual=n_mutual,
        n_incompatible=n_incompatible,
    )
