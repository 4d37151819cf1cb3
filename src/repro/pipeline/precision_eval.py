"""Fig. 8: FTL vs trajectory-similarity baselines under sparsity.

Protocol (Section VII-E): a query set of taxis is matched against a
candidate pool (containing the true matches) at decreasing sampling
rates.  For each similarity baseline (P2T, DTW, LCSS, EDR), a query
counts as *found* when its true match is inside the measure's top-10
candidates.  FTL (Naive-Bayes) counts a query as found when the true
match is among its positive decisions — the paper notes over 90% of
queries return a single positive, so FTL takes no top-10 advantage.
Precision is the found fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.baselines.common import SimilarityRetriever
from repro.baselines.dtw import dtw_distance
from repro.baselines.edr import edr_distance
from repro.baselines.lcss import lcss_distance
from repro.baselines.p2t import p2t_distance
from repro.config import FTLConfig
from repro.core.engine import LinkEngine, LinkOptions
from repro.errors import ValidationError
from repro.pipeline.experiment import fit_model_pair
from repro.synth.downsample import downsample_pair
from repro.synth.scenario import ScenarioPair

#: The Fig. 8(a) high-rate grid and Fig. 8(b) low-rate grid.
HIGH_RATE_GRID = (1.0, 0.8, 0.6, 0.4, 0.2, 0.1)
LOW_RATE_GRID = (0.08, 0.06, 0.04, 0.02)

BASELINE_NAMES = ("P2T", "DTW", "LCSS", "EDR")


@dataclass(frozen=True)
class PrecisionResult:
    """Precision of every method at one sampling rate."""

    rate: float
    precision: Mapping[str, float]  # method name -> found fraction
    n_queries: int
    n_candidates: int


def _make_retrievers(
    max_points: int, eps_m: float, band: int | None
) -> dict[str, SimilarityRetriever]:
    return {
        "P2T": SimilarityRetriever(p2t_distance, max_points=max_points),
        "DTW": SimilarityRetriever(
            lambda p, q: dtw_distance(p, q, band=band), max_points=max_points
        ),
        "LCSS": SimilarityRetriever(
            lambda p, q: lcss_distance(p, q, eps_m=eps_m), max_points=max_points
        ),
        "EDR": SimilarityRetriever(
            lambda p, q: edr_distance(p, q, eps_m=eps_m), max_points=max_points
        ),
    }


def evaluate_at_rate(
    base_pair: ScenarioPair,
    rate: float,
    query_ids: Sequence[object],
    config: FTLConfig,
    rng: np.random.Generator,
    top_k: int = 10,
    max_points: int = 100,
    eps_m: float = 300.0,
    band: int | None = None,
    phi_r: float = 0.05,
) -> PrecisionResult:
    """One Fig. 8 column: all five methods at one sampling rate."""
    if not 0.0 < rate <= 1.0:
        raise ValidationError(f"rate must be in (0, 1], got {rate}")
    pair = (
        base_pair
        if rate == 1.0
        else downsample_pair(base_pair, rate, rate, rng)
    )
    valid_queries = [
        qid
        for qid in query_ids
        if qid in pair.p_db and pair.truth.get(qid) in pair.q_db
    ]
    if not valid_queries:
        raise ValidationError(
            f"no usable queries remain at rate {rate}; the data is too sparse"
        )
    precision: dict[str, float] = {}

    # FTL (Naive-Bayes): found iff the true match is a positive decision.
    mr, ma = fit_model_pair(pair, config, rng)
    engine = LinkEngine(mr, ma, LinkOptions(method="naive-bayes", phi_r=phi_r))
    results = engine.link_batch([pair.p_db[qid] for qid in valid_queries], pair.q_db)
    hits = sum(
        pair.truth[qid] in result.candidate_ids()
        for qid, result in zip(valid_queries, results)
    )
    precision["FTL"] = hits / len(valid_queries)

    # Similarity baselines: found iff the true match is in the top-k.
    for name, retriever in _make_retrievers(max_points, eps_m, band).items():
        hits = 0
        for qid in valid_queries:
            top = retriever.top_k(pair.p_db[qid], pair.q_db, top_k)
            if pair.truth[qid] in top:
                hits += 1
        precision[name] = hits / len(valid_queries)

    return PrecisionResult(
        rate=rate,
        precision=precision,
        n_queries=len(valid_queries),
        n_candidates=len(pair.q_db),
    )


def run_precision_comparison(
    base_pair: ScenarioPair,
    config: FTLConfig,
    rng: np.random.Generator,
    rates: Sequence[float] = HIGH_RATE_GRID,
    n_queries: int = 100,
    **eval_kwargs,
) -> list[PrecisionResult]:
    """The full Fig. 8 sweep over a sampling-rate grid."""
    if n_queries < 1:
        raise ValidationError(f"n_queries must be >= 1, got {n_queries}")
    n = min(n_queries, len(base_pair.matched_query_ids()))
    query_ids = base_pair.sample_queries(n, rng)
    return [
        evaluate_at_rate(base_pair, rate, query_ids, config, rng, **eval_kwargs)
        for rate in rates
    ]


def format_precision(results: Sequence[PrecisionResult]) -> str:
    """Monospace rendering: rows = rates, columns = methods (like Fig. 8)."""
    methods = ["FTL", *BASELINE_NAMES]
    header = f"{'rate':>6} " + " ".join(f"{m:>6}" for m in methods)
    lines = [header]
    for result in results:
        row = f"{result.rate:>6.2f} " + " ".join(
            f"{100 * result.precision[m]:>5.0f}%" for m in methods
        )
        lines.append(row)
    return "\n".join(lines)
