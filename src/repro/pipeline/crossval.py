"""Held-out evaluation: do the fitted models generalise?

The paper fits ``Mr`` / ``Ma`` on the same databases it queries — fine
for its threat analysis, but a production deployment wants to know the
models transfer to *unseen* users.  This module splits the agent
population into train/test folds, fits the models on the training
trajectories only, and evaluates linking on the held-out queries,
reporting in-sample vs out-of-sample perceptiveness side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import FTLConfig
from repro.core.engine import LinkEngine, LinkOptions
from repro.core.models import CompatibilityModel
from repro.errors import ValidationError
from repro.synth.scenario import ScenarioPair


@dataclass(frozen=True)
class HoldoutResult:
    """In-sample vs held-out linking quality under one model fit."""

    train_perceptiveness: float
    test_perceptiveness: float
    train_selectiveness: float
    test_selectiveness: float
    n_train_queries: int
    n_test_queries: int

    @property
    def generalisation_gap(self) -> float:
        """Train minus test perceptiveness (small = good transfer)."""
        return self.train_perceptiveness - self.test_perceptiveness


def _split_ids(
    ids: list, test_fraction: float, rng: np.random.Generator
) -> tuple[list, list]:
    n_test = max(1, int(round(test_fraction * len(ids))))
    if n_test >= len(ids):
        raise ValidationError("test_fraction leaves no training data")
    order = rng.permutation(len(ids))
    test = [ids[i] for i in order[:n_test]]
    train = [ids[i] for i in order[n_test:]]
    return train, test


def _evaluate(
    engine: LinkEngine,
    pair: ScenarioPair,
    query_ids: list,
) -> tuple[float, float]:
    results = engine.link_batch([pair.p_db[qid] for qid in query_ids], pair.q_db)
    hits = sum(
        pair.truth[qid] in result.candidate_ids()
        for qid, result in zip(query_ids, results)
    )
    returned = sum(len(result) for result in results)
    n = len(query_ids)
    return hits / n, returned / (n * len(pair.q_db))


def run_holdout(
    pair: ScenarioPair,
    config: FTLConfig,
    rng: np.random.Generator,
    test_fraction: float = 0.3,
    phi_r: float = 0.1,
    max_queries_per_fold: int = 40,
) -> HoldoutResult:
    """Fit models on a training split and evaluate on held-out queries.

    The split is by *query identity*: the trajectories of held-out
    queries (both their P and Q sides) are excluded from model fitting,
    so the test queries are entirely unseen users.  The candidate pool
    for both folds is the full Q database — exactly the deployment
    situation.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValidationError(
            f"test_fraction must be in (0, 1), got {test_fraction}"
        )
    matched = pair.matched_query_ids()
    if len(matched) < 4:
        raise ValidationError("need at least 4 matched queries to split")
    train_ids, test_ids = _split_ids(matched, test_fraction, rng)

    held_out_q = {pair.truth[qid] for qid in test_ids}
    train_p = pair.p_db.subset(train_ids, name="train-P")
    train_q = pair.q_db.subset(
        [qid for qid in pair.q_db.ids() if qid not in held_out_q],
        name="train-Q",
    )
    mr = CompatibilityModel.fit_rejection([train_p, train_q], config)
    ma = CompatibilityModel.fit_acceptance([train_p, train_q], config, rng)
    engine = LinkEngine(mr, ma, LinkOptions(method="naive-bayes", phi_r=phi_r))

    def cap(ids: list) -> list:
        if len(ids) <= max_queries_per_fold:
            return ids
        chosen = rng.choice(len(ids), size=max_queries_per_fold, replace=False)
        return [ids[i] for i in chosen]

    train_eval = cap(train_ids)
    test_eval = cap(test_ids)
    train_perc, train_sel = _evaluate(engine, pair, train_eval)
    test_perc, test_sel = _evaluate(engine, pair, test_eval)
    return HoldoutResult(
        train_perceptiveness=train_perc,
        test_perceptiveness=test_perc,
        train_selectiveness=train_sel,
        test_selectiveness=test_sel,
        n_train_queries=len(train_eval),
        n_test_queries=len(test_eval),
    )


def format_holdout(result: HoldoutResult) -> str:
    """Monospace rendering of a holdout evaluation."""
    return "\n".join(
        [
            f"{'fold':<8} {'queries':>8} {'perceptiveness':>15} "
            f"{'selectiveness':>14}",
            f"{'train':<8} {result.n_train_queries:>8} "
            f"{result.train_perceptiveness:>15.3f} "
            f"{result.train_selectiveness:>14.5f}",
            f"{'test':<8} {result.n_test_queries:>8} "
            f"{result.test_perceptiveness:>15.3f} "
            f"{result.test_selectiveness:>14.5f}",
            f"generalisation gap: {result.generalisation_gap:+.3f}",
        ]
    )
