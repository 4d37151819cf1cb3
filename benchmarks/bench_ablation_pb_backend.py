"""Ablation: Poisson-Binomial backend accuracy and speed.

Compares the exact convolution DP (the production backend), the paper's
Eq. 1 recursion, and the refined normal approximation on profiles of
growing length, quantifying (a) tail-probability error versus the DP
and (b) evaluation time.  This motivates DESIGN.md's choice of the DP
as the default: the recursion's alternating sum loses precision as n or
the odds grow, and the normal approximation trades a small bias for
O(1) tail evaluation.

A second bench times the DP under each *kernel* backend —
``pb_pmf_batch`` routed through the pure-python loop and the
vectorised NumPy state-matrix convolution — over an engine-shaped
batch of profiles, asserting bit-identical pmf values
before timing.  Results merge into ``BENCH_engine.json`` under
``"pb_backends"``.
"""

import math
import time

import numpy as np
import pytest

from benchmarks.bench_engine_batch import DEFAULT_OUT, _merge_into
from benchmarks.conftest import print_header
from repro.stats.poisson_binomial import PoissonBinomial, pb_pmf_batch

SIZES = (20, 100, 400)


def _profile_probs(n: int, rng: np.random.Generator) -> np.ndarray:
    """FTL-like probability profiles: a few large, mostly small."""
    small = rng.uniform(0.001, 0.1, size=int(0.8 * n))
    large = rng.uniform(0.3, 0.95, size=n - small.size)
    return np.concatenate([small, large])


@pytest.mark.parametrize("n", SIZES)
def test_pb_backend_ablation(benchmark, n):
    rng = np.random.default_rng(n)
    ps = _profile_probs(n, rng)
    k = int(ps.sum())  # a tail point near the mean

    exact = PoissonBinomial(ps, backend="dp")
    benchmark(lambda: PoissonBinomial(ps, backend="dp").sf(k))

    rows = []
    for backend in ("dp", "recursive", "normal"):
        start = time.perf_counter()
        try:
            value = PoissonBinomial(ps, backend=backend).sf(k)
            elapsed = time.perf_counter() - start
            error = abs(value - exact.sf(k))
            rows.append((backend, value, error, elapsed))
        except Exception as exc:  # the recursion may degrade, not crash
            rows.append((backend, float("nan"), float("nan"), 0.0))
            raise AssertionError(f"{backend} failed at n={n}: {exc}") from exc

    print_header(f"PB backend ablation, n={n}, k={k}")
    print(f"{'backend':<11} {'P(K>=k)':>12} {'abs err':>12} {'seconds':>10}")
    for backend, value, error, elapsed in rows:
        print(f"{backend:<11} {value:>12.6g} {error:>12.3g} {elapsed:>10.5f}")

    # The normal approximation must stay within 1% absolute at these sizes.
    normal_error = rows[2][2]
    assert normal_error < 0.01
    # The recursion is exact-in-theory; at small n it must agree tightly.
    if n <= 20:
        assert rows[1][2] < 1e-6


def run_pb_kernel_benchmark(
    n_profiles: int = 200,
    seed: int = 11,
    repeats: int = 5,
    out_path=DEFAULT_OUT,
) -> dict:
    """Time ``pb_pmf_batch`` per kernel backend on an engine-shaped batch.

    One batch of ``n_profiles`` probability vectors with FTL-like
    lengths (most short, a heavy tail of long profiles), matching what
    one ``link_batch`` query submits.  Every backend's pmfs must be
    bit-identical to the python loop before timings are reported.
    """
    rng = np.random.default_rng(seed)
    lengths = np.clip(rng.geometric(0.08, size=n_profiles), 1, 400)
    probs = [_profile_probs(int(n), rng) for n in lengths]

    kernels = ["python", "numpy"]
    reference = pb_pmf_batch(probs, kernel="python")
    results: dict = {}
    for kernel in kernels:
        pmfs = pb_pmf_batch(probs, kernel=kernel)
        for have, want in zip(pmfs, reference):
            assert np.array_equal(have, want), (
                f"pb_pmf_batch kernel={kernel} diverged from the python loop"
            )
        best = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            pb_pmf_batch(probs, kernel=kernel)
            best = min(best, time.perf_counter() - start)
        results[kernel] = {"batch_s": best}
    for kernel in kernels:
        results[kernel]["speedup_vs_python"] = (
            results["python"]["batch_s"] / results[kernel]["batch_s"]
        )

    section = {
        "n_profiles": n_profiles,
        "mean_length": float(np.mean(lengths)),
        "max_length": int(np.max(lengths)),
        "seed": seed,
        "repeats": repeats,
        "kernels": results,
    }
    if out_path is not None:
        _merge_into(out_path, {"pb_backends": section})
    return section


def test_pb_kernel_backends(benchmark):
    """Kernel-routed DP: bit-identical pmfs, batched >= python loop."""
    section = benchmark.pedantic(
        run_pb_kernel_benchmark, rounds=1, iterations=1
    )
    print_header(
        f"PB kernel backends, {section['n_profiles']} profiles "
        f"(mean n={section['mean_length']:.0f}, max n={section['max_length']})"
    )
    print(f"{'kernel':<10} {'batch (ms)':>11} {'speedup':>9}")
    for kernel, row in section["kernels"].items():
        print(
            f"{kernel:<10} {row['batch_s'] * 1e3:>11.2f} "
            f"{row['speedup_vs_python']:>8.2f}x"
        )
    assert section["kernels"]["numpy"]["speedup_vs_python"] >= 1.0


if __name__ == "__main__":
    run_pb_kernel_benchmark()
