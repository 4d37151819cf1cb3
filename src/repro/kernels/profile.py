"""Merge-alignment + Vmax compatibility kernels.

One query trajectory against a whole candidate pool: for every
``(query, candidate)`` pair, merge the two time-sorted record sequences
(``P`` before ``Q`` at equal timestamps), walk the mutual segments in
merged order, and emit each segment's time bucket and Vmax
compatibility.  The output layout is flat — ``(buckets, incompatible,
seg_offsets)`` where candidate ``i`` owns
``flat[seg_offsets[i]:seg_offsets[i + 1]]`` in merged-segment order —
exactly the layout :class:`repro.core.engine._PoolEvidence` consumes.

Two implementations (see :mod:`repro.kernels.backend`):

* ``python`` — one reference call per pair (the historical
  ``mutual_segment_profile`` code path: concatenate + stable argsort).
* ``numpy`` — the whole pool in ~20 NumPy dispatches.  The merge is
  replaced by one ``searchsorted`` of all candidate timestamps into the
  query: a candidate record is preceded (followed) by a query record in
  the merged sequence exactly when its insertion index advances past
  its neighbour's, which identifies every mutual segment and its query
  endpoint without materialising the merge.  Distances are computed by
  the same vectorised metric functions over gathered endpoint arrays;
  both registered metrics are bit-exactly symmetric in their point
  arguments, so the merged endpoint order need not be reconstructed and
  results are bit-identical to the reference.

Why the ``numpy`` ordering is exact: with ``side="right"`` search
positions ``idx``, candidate record ``j`` sits at merged position
``idx[j] + j``.  Its *before*-segment (query record ``idx[j] - 1``,
then record ``j``) starts at merged position ``idx[j] + j - 1`` and its
*after*-segment at ``idx[j] + j``; consecutive candidate records'
segment positions are strictly increasing, so emitting ``(before,
after)`` per record in record order reproduces the merged segment order
exactly.  Every mutual segment has exactly one candidate endpoint, so
the enumeration is complete and duplicate-free.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.geo.distance import get_metric

_EMPTY_BUCKETS = np.empty(0, dtype=np.int64)
_EMPTY_INCOMPAT = np.empty(0, dtype=bool)

#: Relative half-width of the ambiguous band in the squared-distance
#: speed test (see ``_pool_profiles_numpy``).  Outside the band the
#: comparison of squared quantities provably agrees with the reference's
#: ``hypot(dx, dy) > vmax * dt``: squaring perturbs each side by at most
#: ~3 ulp (≈7e-16 relative) and libm ``hypot`` is within ~1 ulp, so any
#: relative gap above ~1e-15 cannot flip the predicate.  1e-12 leaves
#: three orders of magnitude of slack while keeping the exact-fallback
#: band empty for all practical inputs.
_SQ_MARGIN = 1e-12

#: Metrics the kernels accept.
_METRICS = ("euclidean", "haversine")


def pair_profile_arrays(
    p_ts: np.ndarray,
    p_xs: np.ndarray,
    p_ys: np.ndarray,
    q_ts: np.ndarray,
    q_xs: np.ndarray,
    q_ys: np.ndarray,
    metric: str,
    vmax_mps: float,
    time_unit_s: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference single-pair kernel (the ``python`` backend).

    The historical ``mutual_segment_profile`` hot path, verbatim:
    concatenate, stable argsort (``P`` records precede equal-time ``Q``
    records), take adjacent source changes as mutual segments, compute
    distances only for those.
    """
    n_p, n_q = p_ts.size, q_ts.size
    if n_p == 0 or n_q == 0:
        return _EMPTY_BUCKETS, _EMPTY_INCOMPAT
    ts = np.concatenate([p_ts, q_ts])
    sources = np.empty(n_p + n_q, dtype=np.int8)
    sources[:n_p] = 0
    sources[n_p:] = 1
    order = np.argsort(ts, kind="stable")
    ts_sorted = ts[order]
    src_sorted = sources[order]

    mutual_mask = src_sorted[1:] != src_sorted[:-1]
    if not np.any(mutual_mask):
        return _EMPTY_BUCKETS, _EMPTY_INCOMPAT

    first_idx = np.nonzero(mutual_mask)[0]
    second_idx = first_idx + 1
    dts = ts_sorted[second_idx] - ts_sorted[first_idx]

    xs = np.concatenate([p_xs, q_xs])[order]
    ys = np.concatenate([p_ys, q_ys])[order]
    metric_fn = get_metric(metric)
    dists = metric_fn(xs[first_idx], ys[first_idx], xs[second_idx], ys[second_idx])

    buckets = np.rint(dts / time_unit_s).astype(np.int64)
    incompatible = dists > vmax_mps * dts
    return buckets, incompatible


def _pool_profiles_python(
    p_ts, p_xs, p_ys, c_ts, c_xs, c_ys, offsets, metric, vmax_mps, time_unit_s,
    c_sort=None,
):
    """Per-pair reference loop over the pool (``c_sort`` is unused)."""
    n_pool = offsets.size - 1
    bucket_parts = []
    incompat_parts = []
    seg_offsets = np.zeros(n_pool + 1, dtype=np.int64)
    for i in range(n_pool):
        s, e = offsets[i], offsets[i + 1]
        buckets, incompatible = pair_profile_arrays(
            p_ts, p_xs, p_ys,
            c_ts[s:e], c_xs[s:e], c_ys[s:e],
            metric, vmax_mps, time_unit_s,
        )
        seg_offsets[i + 1] = seg_offsets[i] + buckets.size
        bucket_parts.append(buckets)
        incompat_parts.append(incompatible)
    if not bucket_parts:
        return _EMPTY_BUCKETS, _EMPTY_INCOMPAT, seg_offsets
    return (
        np.concatenate(bucket_parts) if seg_offsets[-1] else _EMPTY_BUCKETS,
        np.concatenate(incompat_parts) if seg_offsets[-1] else _EMPTY_INCOMPAT,
        seg_offsets,
    )


def _pool_profiles_numpy(
    p_ts, p_xs, p_ys, c_ts, c_xs, c_ys, offsets, metric, vmax_mps, time_unit_s,
    c_sort=None,
):
    """Whole-pool vectorised kernel; bit-identical to the reference."""
    n_pool = offsets.size - 1
    n_p = p_ts.size
    n_flat = c_ts.size
    seg_offsets = np.zeros(n_pool + 1, dtype=np.int64)
    if n_p == 0 or n_flat == 0:
        return _EMPTY_BUCKETS, _EMPTY_INCOMPAT, seg_offsets

    # idx[m]: how many query records precede candidate record m in the
    # merged sequence (side="right" puts equal-time P records first).
    # int32 throughout — the values are bounded by len(query), and the
    # narrower scans/cumsums are measurably faster at pool scale.
    if c_sort is None:
        idx = np.searchsorted(p_ts, c_ts, side="right").astype(np.int32)
        starts = offsets[:-1]
        last_of = offsets[1:] - 1  # last flat index per cand (start-1 if empty)
        valid_starts = starts[starts < n_flat]
        valid_lasts = last_of[last_of >= starts]
    else:
        # With the pool's global time order precomputed (amortised over
        # the query batch), rank the query's few timestamps against the
        # sorted pool instead: pool record j (in time order) is preceded
        # by exactly #{k: p_ts[k] <= ts_sorted[j]} query records, a
        # cumulative histogram of the queries' insertion points.
        ts_sorted, inv, valid_starts, valid_lasts = c_sort
        bounds = np.searchsorted(ts_sorted, p_ts, side="left")
        hist = np.bincount(bounds, minlength=n_flat + 1)
        idx = np.cumsum(hist[:n_flat], dtype=np.int32)[inv]

    # The record before (after) m in its pair's merge is a query record
    # iff the insertion index advanced past the previous (next)
    # candidate record's; candidate boundaries are patched explicitly.
    # Empty candidates contribute no records; their patch indices
    # coincide with a neighbour's and re-assign the same value.
    prev_is_p = np.empty(n_flat, dtype=bool)
    np.greater(idx[1:], idx[:-1], out=prev_is_p[1:])
    next_is_p = np.empty(n_flat, dtype=bool)
    next_is_p[:-1] = prev_is_p[1:]  # copy before the boundary patches
    prev_is_p[valid_starts] = idx[valid_starts] > 0
    next_is_p[valid_lasts] = idx[valid_lasts] < n_p

    # Slot 2m is record m's before-segment, slot 2m+1 its after-segment;
    # compressing in slot order yields the merged segment order.  The
    # query endpoint is record idx-1 for a before-segment (low bit 0)
    # and idx for an after-segment (low bit 1).
    has = np.empty(2 * n_flat, dtype=bool)
    has[0::2] = prev_is_p
    has[1::2] = next_is_p
    keep = np.nonzero(has)[0]
    if keep.size == 0:
        return _EMPTY_BUCKETS, _EMPTY_INCOMPAT, seg_offsets
    # Candidate i's segments occupy slots [2 * offsets[i], 2 * offsets[i+1]).
    seg_offsets = np.searchsorted(keep, offsets * 2, side="left")
    m_of = keep >> 1
    p_idx = idx[m_of] + (keep & 1) - 1

    # |t_p - t_c| equals the reference's second-minus-first exactly
    # (IEEE negation is exact), and both metrics are bit-exactly
    # symmetric in their point arguments (hypot is sign-invariant;
    # sin is odd and squared, multiplication commutes), so neither
    # needs the merged endpoint order.
    dts = np.abs(p_ts[p_idx] - c_ts[m_of])
    scaled = dts / time_unit_s
    np.rint(scaled, out=scaled)
    buckets = scaled.astype(np.int64)
    thr = dts  # dts is dead past this point; reuse as the speed cap
    np.multiply(thr, vmax_mps, out=thr)

    px, py = p_xs[p_idx], p_ys[p_idx]
    cx, cy = c_xs[m_of], c_ys[m_of]
    if metric == "euclidean":
        # Speed test on squared quantities: dx²+dy² vs (vmax·dt)² skips
        # the libm hypot call that dominates the distance cost.  The
        # squared comparison provably matches ``hypot > thr`` whenever
        # the two sides differ by more than _SQ_MARGIN relative; the
        # (practically empty) ambiguous band — including exact ties such
        # as 3-4-5 triangles, dt == 0, and any NaN/overflow oddities —
        # is re-decided with the reference metric on identical inputs,
        # keeping the output bit-identical.
        dx = px - cx
        np.multiply(dx, dx, out=dx)
        dy = py - cy
        np.multiply(dy, dy, out=dy)
        dx += dy  # dx = squared distance
        t2 = thr * thr
        incompatible = dx > t2
        # Negated so NaNs (all comparisons False) land in the exact path.
        near = ~(np.abs(dx - t2) > t2 * _SQ_MARGIN)
        if np.any(near):
            amb = np.nonzero(near)[0]
            dists = get_metric(metric)(px[amb], py[amb], cx[amb], cy[amb])
            incompatible[amb] = dists > thr[amb]
    else:
        dists = get_metric(metric)(px, py, cx, cy)
        incompatible = dists > thr
    return buckets, incompatible, seg_offsets


_POOL_IMPLS = {
    "python": _pool_profiles_python,
    "numpy": _pool_profiles_numpy,
}


def pool_profile_arrays(
    p_ts: np.ndarray,
    p_xs: np.ndarray,
    p_ys: np.ndarray,
    c_ts: np.ndarray,
    c_xs: np.ndarray,
    c_ys: np.ndarray,
    offsets: np.ndarray,
    metric: str,
    vmax_mps: float,
    time_unit_s: float,
    backend: str,
    c_sort: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mutual-segment evidence of one query against a flat candidate pool.

    Parameters
    ----------
    p_ts, p_xs, p_ys:
        The query trajectory's columns (time-sorted).
    c_ts, c_xs, c_ys, offsets:
        The pool's columns concatenated candidate-by-candidate;
        candidate ``i`` owns ``c_*[offsets[i]:offsets[i + 1]]``.
    metric, vmax_mps, time_unit_s:
        Distance metric name, speed cap (m/s), bucket width (s).
    backend:
        A **concrete** backend name (``python`` / ``numpy``); resolve
        ``"auto"`` first via
        :func:`repro.kernels.resolve_kernel_backend`.
    c_sort:
        Optional precomputed pool merge cache — ``(c_ts[order], inv,
        valid_starts, valid_lasts)`` as built by
        :meth:`repro.core.alignment.FlatPool.merge_cache` (``numpy``
        backend only); lets a batch of queries against one pool
        amortise every query-independent cost.

    Returns
    -------
    ``(buckets, incompatible, seg_offsets)``: int64 bucket indices and
    boolean Vmax-incompatibility flags over all pairs' mutual segments
    in merged order, plus per-candidate slice offsets.
    """
    if metric not in _METRICS:
        raise ValidationError(f"unknown metric {metric!r}; known: {_METRICS}")
    try:
        impl = _POOL_IMPLS[backend]
    except KeyError:
        raise ValidationError(
            f"not a concrete kernel backend: {backend!r}; "
            f"known: {tuple(_POOL_IMPLS)}"
        ) from None
    return impl(
        p_ts, p_xs, p_ys, c_ts, c_xs, c_ys, offsets,
        metric, vmax_mps, time_unit_s, c_sort,
    )
