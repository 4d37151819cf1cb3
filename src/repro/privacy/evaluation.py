"""Defense evaluation: linkability vs utility sweeps.

Threat model: the *query* database P is published under a defense; the
adversary holds the raw candidate database Q and is **adaptive** — it
re-fits both FTL models on the defended data before attacking (a
non-adaptive attacker, fitted on clean data, would be even weaker).
For each defense strength the sweep reports:

* **linkability** — the adversary's perceptiveness with a fixed
  Naive-Bayes prior;
* **mean candidates** — how many candidates the adversary must sift;
* the defense's spatial/temporal **distortion** (utility loss).

A good defense pushes linkability toward the random-guess floor while
keeping distortion small; the sweep quantifies that tradeoff exactly as
the paper's future-work question asks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import FTLConfig
from repro.core.engine import LinkEngine, LinkOptions
from repro.core.models import CompatibilityModel
from repro.errors import ValidationError
from repro.privacy.defenses import Defense
from repro.synth.scenario import ScenarioPair


@dataclass(frozen=True)
class DefensePoint:
    """The sweep outcome at one defense strength."""

    defense: str
    strength: float
    linkability: float
    mean_candidates: float
    spatial_distortion_m: float
    temporal_distortion_s: float
    n_queries: int


def _attack(
    pair: ScenarioPair,
    config: FTLConfig,
    query_ids: Sequence[object],
    phi_r: float,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Adaptive attacker's (perceptiveness, mean candidate count)."""
    mr = CompatibilityModel.fit_rejection([pair.p_db, pair.q_db], config)
    ma = CompatibilityModel.fit_acceptance([pair.p_db, pair.q_db], config, rng)
    engine = LinkEngine(mr, ma, LinkOptions(method="naive-bayes", phi_r=phi_r))
    usable = [
        qid
        for qid in query_ids
        if (query := pair.p_db.get(qid)) is not None and len(query) > 0
    ]
    if not usable:
        return 0.0, 0.0
    results = engine.link_batch([pair.p_db[qid] for qid in usable], pair.q_db)
    hits = sum(
        pair.truth.get(qid) in result.candidate_ids()
        for qid, result in zip(usable, results)
    )
    returned = sum(len(result) for result in results)
    return hits / len(usable), returned / len(usable)


def evaluate_defense_sweep(
    pair: ScenarioPair,
    defenses: Sequence[Defense],
    config: FTLConfig,
    rng: np.random.Generator,
    n_queries: int = 30,
    phi_r: float = 0.2,
) -> list[DefensePoint]:
    """Attack the published data under each defense in turn.

    The first returned point is always the undefended baseline
    (``defense="none"``, strength 0) so callers can normalise.
    """
    if n_queries < 1:
        raise ValidationError(f"n_queries must be >= 1, got {n_queries}")
    if not defenses:
        raise ValidationError("need at least one defense")
    n = min(n_queries, len(pair.matched_query_ids()))
    query_ids = pair.sample_queries(n, rng)

    points: list[DefensePoint] = []
    base_link, base_cands = _attack(pair, config, query_ids, phi_r, rng)
    points.append(
        DefensePoint(
            defense="none",
            strength=0.0,
            linkability=base_link,
            mean_candidates=base_cands,
            spatial_distortion_m=0.0,
            temporal_distortion_s=0.0,
            n_queries=n,
        )
    )
    for defense in defenses:
        defended = ScenarioPair(
            p_db=defense.apply_db(pair.p_db, rng),
            q_db=pair.q_db,
            truth=pair.truth,
        )
        link, cands = _attack(defended, config, query_ids, phi_r, rng)
        points.append(
            DefensePoint(
                defense=type(defense).__name__,
                strength=defense.strength,
                linkability=link,
                mean_candidates=cands,
                spatial_distortion_m=defense.spatial_distortion_m(),
                temporal_distortion_s=defense.temporal_distortion_s(),
                n_queries=n,
            )
        )
    return points


def format_defense_sweep(points: Sequence[DefensePoint]) -> str:
    """Monospace rendering of a defense sweep."""
    lines = [
        f"{'defense':<22} {'strength':>9} {'linkability':>12} "
        f"{'cands/query':>12} {'spatial m':>10} {'temporal s':>11}"
    ]
    for point in points:
        lines.append(
            f"{point.defense:<22} {point.strength:>9g} "
            f"{point.linkability:>12.3f} {point.mean_candidates:>12.2f} "
            f"{point.spatial_distortion_m:>10.1f} "
            f"{point.temporal_distortion_s:>11.1f}"
        )
    return "\n".join(lines)
