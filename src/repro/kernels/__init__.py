"""Hot-path kernels of the linking pipeline.

``repro.kernels`` hosts the hot kernels of the FTL pipeline — the
time-sorted merge + mutual-segment extraction fused with the distance
and Vmax speed test (:mod:`repro.kernels.profile`) — on two
bit-identical backends: batched ``numpy`` (the default) and the
per-pair ``python`` reference.  The Poisson-Binomial convolution DP
takes the same backend names
(:func:`repro.stats.poisson_binomial.pb_pmf_batch`).  See
:mod:`repro.kernels.backend` for the selection rules and
``docs/performance.md`` for benchmarks and equivalence guarantees.
"""

from repro.kernels.backend import KERNEL_BACKENDS, resolve_kernel_backend
from repro.kernels.profile import pair_profile_arrays, pool_profile_arrays

__all__ = [
    "KERNEL_BACKENDS",
    "pair_profile_arrays",
    "pool_profile_arrays",
    "resolve_kernel_backend",
]
