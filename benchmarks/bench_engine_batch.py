"""Engine bench: profile-once batch linking vs the seed per-candidate loop.

The seed ``FTLLinker.link()`` computed every ``(query, candidate)``
mutual-segment profile twice — once inside the decision rule's
``decide()`` and again when re-scoring the matched set — and paid the
Poisson-Binomial tails twice for every matched candidate.
``_seed_link_loop`` below reproduces that exact per-candidate code path
as the baseline; :class:`~repro.core.engine.LinkEngine` is the batch
replacement.  Results are asserted bit-identical before any timing is
reported.

Two workloads are timed:

* **ranking** — alpha-filter with ``alpha1=0, alpha2=1`` (every
  candidate is scored and ranked, the exhaustive-retrieval setting
  where the seed's double computation bites hardest);
* **naive-bayes** — the default matcher, where only the matched few are
  re-scored by the seed.

A second bench, :func:`run_profile_kernel_benchmark`, isolates the
mutual-segment profile stage and times both kernel backends (the
pure-python per-pair reference and the batched NumPy kernel) over the
same pool, asserting token-identical profile output and identical
``link_batch`` rankings before reporting.

Timings are written to ``BENCH_engine.json`` (each bench merges its own
section, so running one never clobbers the other).  Run standalone
(``python -m benchmarks.bench_engine_batch``) or through pytest; the
tier-1 suite exercises a tiny smoke configuration on every run.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.config import FTLConfig
from repro.core.alignment import (
    FlatPool,
    batch_mutual_segment_profiles,
    mutual_segment_profile,
)
from repro.core.engine import Candidate, LinkEngine, LinkOptions, LinkResult
from repro.core.hypothesis import acceptance_pvalue, log_likelihood, rejection_pvalue
from repro.core.models import CompatibilityModel
from repro.geo.units import days_to_seconds
from repro.synth.city import CityModel
from repro.synth.noise import GaussianNoise
from repro.synth.observation import ObservationService
from repro.synth.population import generate_population
from repro.synth.scenario import make_paired_databases

DEFAULT_OUT = "BENCH_engine.json"


def _merge_into(out_path: str | Path, updates: dict) -> None:
    """Merge ``updates`` into the JSON report at ``out_path``.

    Top-level merge so the engine bench and the kernel bench can each
    refresh their own section without erasing the other's numbers.
    """
    path = Path(out_path)
    data: dict = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (ValueError, OSError):
            data = {}
    data.update(updates)
    path.write_text(json.dumps(data, indent=2) + "\n")


def _seed_decides(query, candidate, mr, ma, options: LinkOptions) -> bool:
    """One pair's decision from its own fresh profile, on the oracle."""
    profile = mutual_segment_profile(query, candidate, mr.config)
    if options.method == "alpha-filter":
        return (
            rejection_pvalue(profile, mr) >= options.alpha1
            and acceptance_pvalue(profile, ma) < options.alpha2
        )
    ratio = (math.log(options.phi_r) + log_likelihood(profile, mr)) - (
        math.log(options.phi_a) + log_likelihood(profile, ma)
    )
    return ratio >= 0.0


def _seed_link_loop(query, pool, mr, ma, options: LinkOptions) -> LinkResult:
    """The seed per-candidate path: decide per pair, then re-score matches.

    Built only on the per-pair reference functions of
    :mod:`repro.core.hypothesis`, so the bit-identity check compares the
    engine with an independent oracle.
    """
    config = mr.config
    matched = [c for c in pool if _seed_decides(query, c, mr, ma, options)]
    scored = []
    for candidate in matched:
        profile = mutual_segment_profile(query, candidate, config)
        within = profile.within_horizon(mr.n_buckets)
        p1 = rejection_pvalue(profile, mr)
        p2 = acceptance_pvalue(profile, ma)
        scored.append(
            Candidate(
                candidate_id=candidate.traj_id,
                score=p1 * (1.0 - p2),
                p_rejection=p1,
                p_acceptance=p2,
                n_mutual=within.n_total,
                n_incompatible=within.n_incompatible,
            )
        )
    scored.sort(key=lambda c: -c.score)
    return LinkResult(query.traj_id, options.method, tuple(scored))


def _build_pair(n_candidates: int, rng: np.random.Generator):
    city = CityModel.generate(rng)
    agents = generate_population(
        city, n_candidates, days_to_seconds(3), rng, mobility="taxi"
    )
    service_p = ObservationService("P", rate_per_hour=0.8, noise=GaussianNoise(50.0))
    service_q = ObservationService("Q", rate_per_hour=0.4, noise=GaussianNoise(50.0))
    return make_paired_databases(agents, service_p, service_q, rng)


def run_engine_benchmark(
    n_candidates: int = 200,
    n_queries: int = 10,
    seed: int = 7,
    repeats: int = 3,
    out_path: str | Path | None = DEFAULT_OUT,
) -> dict:
    """Time seed loop vs batch engine on both workloads; verify bit-identity.

    Each side is timed ``repeats`` times and the minimum is reported
    (min-of-N discards OS scheduling noise, which dominates on small
    shared machines).  The engine is rebuilt per repeat so the profile
    cache and tail memo start cold every time.

    Returns (and optionally writes as JSON) a dict with per-workload
    seconds, speedups, and the profile-cache counters proving the
    engine computed each pair's profile exactly once.
    """
    rng = np.random.default_rng(seed)
    pair = _build_pair(n_candidates, rng)
    config = FTLConfig()
    mr = CompatibilityModel.fit_rejection([pair.p_db, pair.q_db], config)
    ma = CompatibilityModel.fit_acceptance([pair.p_db, pair.q_db], config, rng)
    qids = pair.sample_queries(min(n_queries, len(pair.truth)), rng)
    queries = [pair.p_db[qid] for qid in qids]
    pool = list(pair.q_db)

    workloads = {
        "ranking": LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0),
        "naive-bayes": LinkOptions(method="naive-bayes", phi_r=0.05),
    }
    report: dict = {
        "n_candidates": len(pool),
        "n_queries": len(queries),
        "seed": seed,
        "repeats": repeats,
        "workloads": {},
    }
    for name, options in workloads.items():
        seed_s = math.inf
        expected = None
        for _ in range(repeats):
            start = time.perf_counter()
            got = [_seed_link_loop(q, pool, mr, ma, options) for q in queries]
            seed_s = min(seed_s, time.perf_counter() - start)
            expected = got

        engine_s = math.inf
        stats = None
        for _ in range(repeats):
            engine = LinkEngine(mr, ma, options=options)
            start = time.perf_counter()
            got = engine.link_batch(queries, pool)
            engine_s = min(engine_s, time.perf_counter() - start)
            stats = engine.cache.stats
            for a, b in zip(got, expected):
                assert a == b, f"engine diverged from seed path on {name}"

        assert stats.n_computed == len(queries) * len(pool), (
            "engine must compute each (query, candidate) profile exactly once"
        )
        report["workloads"][name] = {
            "seed_per_candidate_s": seed_s,
            "engine_batch_s": engine_s,
            "speedup": seed_s / engine_s if engine_s > 0 else float("inf"),
            "profiles_computed": stats.n_computed,
            "profile_cache_hits": stats.hits,
        }

    if out_path is not None:
        _merge_into(out_path, report)
    return report


def run_profile_kernel_benchmark(
    n_candidates: int = 200,
    n_queries: int = 20,
    seed: int = 7,
    repeats: int = 5,
    out_path: str | Path | None = DEFAULT_OUT,
) -> dict:
    """Time the mutual-segment profile stage under each kernel backend.

    The timed region mirrors exactly what ``LinkEngine.link_batch``
    does per batch and backend: flatten the candidate pool once, then
    compute every query's profiles against the full pool through
    :func:`repro.core.alignment.batch_mutual_segment_profiles` (one
    kernel invocation per query on the batched backends, one call per
    pair on the ``python`` reference).  Before any timing is reported,
    every backend's profiles are checked token-identical against the
    pure-python per-pair reference, and a full ``link_batch`` run per
    backend is checked to produce identical rankings.

    Results land in ``BENCH_engine.json`` under ``"profile_kernel"``.
    """
    rng = np.random.default_rng(seed)
    pair = _build_pair(n_candidates, rng)
    config = FTLConfig()
    qids = pair.sample_queries(min(n_queries, len(pair.truth)), rng)
    queries = [pair.p_db[qid] for qid in qids]
    pool = list(pair.q_db)

    backends = ["python", "numpy"]

    # Correctness gate 1: token-identical profiles versus the reference.
    reference = {
        q.traj_id: batch_mutual_segment_profiles(q, pool, config, backend="python")
        for q in queries
    }
    for backend in backends[1:]:
        flat = FlatPool(pool)
        for q in queries:
            got = batch_mutual_segment_profiles(
                q, pool, config, backend=backend, flat=flat
            )
            for have, want in zip(got, reference[q.traj_id]):
                assert np.array_equal(have.buckets, want.buckets), (
                    f"{backend} bucket mismatch vs python for query {q.traj_id}"
                )
                assert np.array_equal(have.incompatible, want.incompatible), (
                    f"{backend} flag mismatch vs python for query {q.traj_id}"
                )

    # Correctness gate 2: identical end-to-end rankings per backend.
    mr = CompatibilityModel.fit_rejection([pair.p_db, pair.q_db], config)
    ma = CompatibilityModel.fit_acceptance([pair.p_db, pair.q_db], config, rng)
    # The models' config names the kernel backend an engine runs on.
    rank_options = LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0)
    rankings = {}
    for backend in backends:
        models = [
            CompatibilityModel(
                m.kind, m.counts, replace(m.config, kernel_backend=backend)
            )
            for m in (mr, ma)
        ]
        engine = LinkEngine(*models, options=rank_options)
        rankings[backend] = engine.link_batch(queries, pool)
    for backend in backends[1:]:
        assert rankings[backend] == rankings["python"], (
            f"link_batch ranking diverged between {backend} and python"
        )

    # Timing: min-of-N with the pool flattened inside the timed region,
    # once per repeat, exactly as the engine amortises it per batch.
    # Backends are interleaved within each repeat so machine-load drift
    # hits all of them alike.
    results: dict = {backend: {"profile_stage_s": math.inf} for backend in backends}
    for _ in range(repeats):
        for backend in backends:
            start = time.perf_counter()
            if backend == "python":
                for q in queries:
                    batch_mutual_segment_profiles(q, pool, config, backend=backend)
            else:
                flat = FlatPool(pool)
                for q in queries:
                    batch_mutual_segment_profiles(
                        q, pool, config, backend=backend, flat=flat
                    )
            elapsed = time.perf_counter() - start
            row = results[backend]
            row["profile_stage_s"] = min(row["profile_stage_s"], elapsed)
    for backend in backends:
        row = results[backend]
        row["per_query_ms"] = row["profile_stage_s"] / len(queries) * 1e3
    for backend in backends:
        results[backend]["speedup_vs_python"] = (
            results["python"]["profile_stage_s"]
            / results[backend]["profile_stage_s"]
        )

    section = {
        "n_candidates": len(pool),
        "n_queries": len(queries),
        "seed": seed,
        "repeats": repeats,
        "rankings_identical": True,
        "backends": results,
    }
    if out_path is not None:
        _merge_into(out_path, {"profile_kernel": section})
    return section


def _print_report(report: dict) -> None:
    print(
        f"engine batch vs seed loop — {report['n_queries']} queries x "
        f"{report['n_candidates']} candidates "
        f"(min of {report['repeats']} repeats)"
    )
    print(f"{'workload':<14} {'seed (s)':>10} {'engine (s)':>11} {'speedup':>9}")
    for name, row in report["workloads"].items():
        print(
            f"{name:<14} {row['seed_per_candidate_s']:>10.3f} "
            f"{row['engine_batch_s']:>11.3f} {row['speedup']:>8.2f}x"
        )


def _print_kernel_report(section: dict) -> None:
    print(
        f"profile kernel backends — {section['n_queries']} queries x "
        f"{section['n_candidates']} candidates "
        f"(min of {section['repeats']} repeats)"
    )
    print(f"{'backend':<10} {'stage (ms)':>11} {'per query (ms)':>15} {'speedup':>9}")
    for backend, row in section["backends"].items():
        print(
            f"{backend:<10} {row['profile_stage_s'] * 1e3:>11.2f} "
            f"{row['per_query_ms']:>15.3f} {row['speedup_vs_python']:>8.2f}x"
        )


def test_engine_batch_speedup(benchmark):
    """Full-size bench: >= 2x on the ranking workload at 200 candidates."""
    report = benchmark.pedantic(
        run_engine_benchmark,
        kwargs={"n_candidates": 200, "n_queries": 10, "repeats": 5},
        rounds=1,
        iterations=1,
    )
    _print_report(report)
    assert report["workloads"]["ranking"]["speedup"] >= 2.0
    # The NB workload re-scores only matched candidates, so the gain is
    # smaller; it must still never be slower than the seed loop.
    assert report["workloads"]["naive-bayes"]["speedup"] >= 1.0


def test_profile_kernel_speedup(benchmark):
    """The batched NumPy kernel must beat pure python >= 10x at 200 cands."""
    section = benchmark.pedantic(
        run_profile_kernel_benchmark,
        kwargs={"n_candidates": 200, "n_queries": 20, "repeats": 5},
        rounds=1,
        iterations=1,
    )
    _print_kernel_report(section)
    assert section["rankings_identical"]
    assert section["backends"]["numpy"]["speedup_vs_python"] >= 10.0


if __name__ == "__main__":
    _print_report(run_engine_benchmark())
    _print_kernel_report(run_profile_kernel_benchmark())
