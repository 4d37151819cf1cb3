"""Fig. 7: per-query runtime of both algorithms across all configs.

Reproduces the paper's finding that Naive-Bayes-matching answers
queries much faster than (alpha1, alpha2)-filtering (which evaluates
two Poisson-Binomial tails per candidate), and that runtime grows with
trajectory duration and update frequency.
"""

import numpy as np
import pytest

from benchmarks.conftest import (
    cached_scenario,
    is_full_scale,
    print_header,
    scale_name,
)
from repro.pipeline.runtime_eval import format_runtime, run_runtime_eval

GROUPS = [
    ("Fig. 7(a): S-data", ["SA", "SB", "SC", "SD", "SE", "SF"]),
    ("Fig. 7(b): T-data", ["TA", "TB", "TC", "TD", "TE", "TF"]),
]


@pytest.mark.parametrize("title,names", GROUPS)
def test_fig7_runtime(benchmark, config, title, names):
    n_queries = 200 if is_full_scale() else 15
    results = []

    def run_all():
        collected = []
        for name in names:
            scaled = scale_name(name)
            pair = cached_scenario(scaled)
            rng = np.random.default_rng(7)
            collected.append(
                run_runtime_eval(
                    pair, config, rng, n_queries=n_queries, dataset=scaled
                )
            )
        return collected

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_header(title)
    print(format_runtime(results))

    # Paper claim: NB is faster than alpha-filtering on every config.
    # Each figure is a median of alternating repeats (run_runtime_eval).
    for result in results:
        assert result.naive_bayes_s < result.alpha_filter_s, result
