"""Fig. 7: per-query runtime of the two algorithms.

The paper measures the mean wall-clock time to answer one query (one
pass over all of ``Q``) for each dataset config, finding Naive-Bayes
much faster than (alpha1, alpha2)-filtering (the latter evaluates two
Poisson-Binomial tail probabilities per pair; the former only a linear
log-likelihood).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import FTLConfig
from repro.core.engine import LinkEngine, LinkOptions
from repro.errors import ValidationError
from repro.pipeline.experiment import fit_model_pair
from repro.synth.scenario import ScenarioPair


#: Timed runs per method, alternating which goes first; reporting the
#: medians keeps one slow moment of a shared host from flipping them.
RUNTIME_REPEATS = 3


@dataclass(frozen=True)
class RuntimeResult:
    """Median seconds per query for both methods on one dataset config."""

    dataset: str
    alpha_filter_s: float
    naive_bayes_s: float
    n_queries: int

    @property
    def speedup(self) -> float:
        """How many times faster Naive-Bayes is."""
        if self.naive_bayes_s == 0:
            return float("inf")
        return self.alpha_filter_s / self.naive_bayes_s


def run_runtime_eval(
    pair: ScenarioPair,
    config: FTLConfig,
    rng: np.random.Generator,
    n_queries: int = 200,
    dataset: str = "",
    alpha: tuple[float, float] = (0.05, 0.05),
    phi_r: float = 0.05,
) -> RuntimeResult:
    """Time both methods' ``link_batch`` over the same random query set.

    Each method runs ``RUNTIME_REPEATS`` times, alternating which goes
    first; the result holds the median seconds per query of each.
    """
    if n_queries < 1:
        raise ValidationError(f"n_queries must be >= 1, got {n_queries}")
    mr, ma = fit_model_pair(pair, config, rng)
    n = min(n_queries, len(pair.matched_query_ids()))
    query_ids = pair.sample_queries(n, rng)
    queries = [pair.p_db[qid] for qid in query_ids]

    def seconds_per_query(options: LinkOptions) -> float:
        # A fresh engine per timing: no run is served from another's
        # profile cache or tail memo.
        start = time.perf_counter()
        LinkEngine(mr, ma, options).link_batch(queries, pair.q_db)
        return (time.perf_counter() - start) / n

    alpha_opts = LinkOptions(
        method="alpha-filter", alpha1=alpha[0], alpha2=alpha[1]
    )
    nb_opts = LinkOptions(method="naive-bayes", phi_r=phi_r)
    alpha_runs: list[float] = []
    nb_runs: list[float] = []
    for repeat in range(RUNTIME_REPEATS):
        order = [(alpha_opts, alpha_runs), (nb_opts, nb_runs)]
        for options, runs in order if repeat % 2 == 0 else reversed(order):
            runs.append(seconds_per_query(options))
    return RuntimeResult(
        dataset=dataset,
        alpha_filter_s=statistics.median(alpha_runs),
        naive_bayes_s=statistics.median(nb_runs),
        n_queries=n,
    )


def format_runtime(results: Sequence[RuntimeResult]) -> str:
    """Monospace rendering: one row per dataset config."""
    lines = [
        f"{'dataset':<10} {'alpha-filter s/query':>21} "
        f"{'naive-bayes s/query':>20} {'speedup':>9}"
    ]
    for result in results:
        lines.append(
            f"{result.dataset:<10} {result.alpha_filter_s:>21.4f} "
            f"{result.naive_bayes_s:>20.4f} {result.speedup:>8.1f}x"
        )
    return "\n".join(lines)
