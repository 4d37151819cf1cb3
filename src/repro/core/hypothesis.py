"""Per-pair reference statistics: the p-values and NB log-likelihoods.

Under either model, the number ``K`` of incompatible mutual segments in
an aligned pair follows a Poisson-Binomial law parameterised by the
model's per-bucket probabilities ``(s^(l_1), ..., s^(l_n))`` (paper
Section IV-D).

The two tests look at opposite tails:

* **rejection p-value** ``p1 = Pr(K >= k_obs | Mr)`` — small when the
  observed pair has *more* incompatibilities than a same-person pair
  can explain; the alpha1-rejection phase prunes when ``p1 < alpha1``.
* **acceptance p-value** ``p2 = Pr(K <= k_obs | Ma)`` — small when the
  pair has *fewer* incompatibilities than different persons would
  produce; the alpha2-acceptance phase accepts when ``p2 < alpha2``.

This tail choice makes the paper's monotonicity statements hold
(raising alpha1 or lowering alpha2 is stricter) and makes the ranking
score ``v = p1 * (1 - p2)`` largest for true matches.

Mutual segments at or beyond the model horizon are excluded: both
models give them incompatibility probability 0, so they carry no
information (they are almost surely compatible in the data as well
whenever ``horizon >= city diameter / Vmax``).

The per-profile functions here are the reference oracle: the batch
:class:`~repro.core.engine.LinkEngine` computes the same values for a
whole candidate pool, and the tests compare it against these bit for
bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.alignment import MutualSegmentProfile
from repro.core.models import CompatibilityModel
from repro.errors import ValidationError
from repro.stats.poisson_binomial import PoissonBinomial, pb_pmf_batch


def _test_arrays(
    profile: MutualSegmentProfile, model: CompatibilityModel
) -> tuple[np.ndarray, int]:
    """Per-segment model probabilities and the observed count, in-horizon."""
    within = profile.within_horizon(model.n_buckets)
    ps = model.probs_for(within.buckets)
    return ps, within.n_incompatible


def rejection_pvalue_arrays(ps: np.ndarray, k_obs: int, backend: str) -> float:
    """``p1 = Pr(K >= k_obs)`` from pre-gathered per-segment probabilities.

    The array form used by the batch engine: ``ps`` are the rejection
    model's in-horizon probabilities of one pair, in segment order.
    Returns 1.0 for an empty observation (vacuous: nothing contradicts
    the same-person hypothesis).
    """
    if ps.size == 0:
        return 1.0
    return PoissonBinomial(ps, backend=backend).sf(k_obs)


def acceptance_pvalue_arrays(ps: np.ndarray, k_obs: int, backend: str) -> float:
    """``p2 = Pr(K <= k_obs)`` from pre-gathered per-segment probabilities.

    Returns 1.0 for an empty observation: with no evidence the
    different-person hypothesis can never be rejected, so such pairs
    are never accepted.
    """
    if ps.size == 0:
        return 1.0
    return PoissonBinomial(ps, backend=backend).cdf(k_obs)


def rejection_pvalue_batch(
    ps_list: list[np.ndarray],
    k_obs: list[int],
    backend: str,
    kernel: str | None = None,
) -> list[float]:
    """``p1`` for many pairs at once; bit-identical to the scalar loop.

    With the exact ``"dp"`` backend all Poisson-Binomial pmfs are run
    through one batched convolution (``pb_pmf_batch`` on the given
    ``kernel``) and each tail is then read off with the same slice-sum
    as ``PoissonBinomial.sf``; other backends fall back to the per-pair
    path (their tails are not pmf-slice sums).
    """
    if backend != "dp":
        return [
            rejection_pvalue_arrays(ps, k, backend)
            for ps, k in zip(ps_list, k_obs)
        ]
    pmfs = pb_pmf_batch(ps_list, backend="dp", kernel=kernel)
    out = []
    for ps, pmf, k in zip(ps_list, pmfs, k_obs):
        n = ps.size
        if n == 0:
            out.append(1.0)
        elif k <= 0:
            out.append(1.0)
        elif k > n:
            out.append(0.0)
        else:
            out.append(float(min(pmf[k:].sum(), 1.0)))
    return out


def acceptance_pvalue_batch(
    ps_list: list[np.ndarray],
    k_obs: list[int],
    backend: str,
    kernel: str | None = None,
) -> list[float]:
    """``p2`` for many pairs at once; bit-identical to the scalar loop."""
    if backend != "dp":
        return [
            acceptance_pvalue_arrays(ps, k, backend)
            for ps, k in zip(ps_list, k_obs)
        ]
    pmfs = pb_pmf_batch(ps_list, backend="dp", kernel=kernel)
    out = []
    for ps, pmf, k in zip(ps_list, pmfs, k_obs):
        n = ps.size
        if n == 0:
            out.append(1.0)
        elif k < 0:
            out.append(0.0)
        elif k >= n:
            out.append(1.0)
        else:
            out.append(float(min(pmf[: k + 1].sum(), 1.0)))
    return out


def log_likelihood_arrays(
    ps: np.ndarray, incompatible: np.ndarray, floor: float
) -> float:
    """``sum_i log(p_i)`` over incompatible plus ``log(1-p_i)`` over compatible.

    Probabilities are clamped to ``[floor, 1 - floor]`` so that
    zero-probability buckets never produce ``-inf``.
    """
    clamped = np.clip(ps, floor, 1.0 - floor)
    return float(
        np.log(clamped[incompatible]).sum()
        + np.log1p(-clamped[~incompatible]).sum()
    )


def log_likelihood(profile: MutualSegmentProfile, model: CompatibilityModel) -> float:
    """Log-likelihood of a pair's in-horizon observation under ``model``."""
    within = profile.within_horizon(model.n_buckets)
    return log_likelihood_arrays(
        model.probs_for(within.buckets), within.incompatible, model.config.prob_floor
    )


def rejection_pvalue(
    profile: MutualSegmentProfile,
    rejection_model: CompatibilityModel,
    backend: str | None = None,
) -> float:
    """``p1 = Pr(K >= k_obs)`` under the rejection model.

    Returns 1.0 for pairs with no in-horizon mutual segments (vacuous
    observation: nothing contradicts the same-person hypothesis).
    """
    if rejection_model.kind != "rejection":
        raise ValidationError("rejection_pvalue needs a rejection model")
    ps, k_obs = _test_arrays(profile, rejection_model)
    used = backend if backend is not None else rejection_model.config.pb_backend
    return rejection_pvalue_arrays(ps, k_obs, used)


def acceptance_pvalue(
    profile: MutualSegmentProfile,
    acceptance_model: CompatibilityModel,
    backend: str | None = None,
) -> float:
    """``p2 = Pr(K <= k_obs)`` under the acceptance model.

    Returns 1.0 for pairs with no in-horizon mutual segments: with no
    evidence, the different-person hypothesis can never be rejected, so
    such pairs are never accepted.
    """
    if acceptance_model.kind != "acceptance":
        raise ValidationError("acceptance_pvalue needs an acceptance model")
    ps, k_obs = _test_arrays(profile, acceptance_model)
    used = backend if backend is not None else acceptance_model.config.pb_backend
    return acceptance_pvalue_arrays(ps, k_obs, used)
