"""Mutual-segment compatibility (paper Definition 3).

A segment formed by two records is *compatible* when a person could have
travelled between its endpoints without exceeding the speed cap:

    dist(w_i, w_{i+1}) / timediff(w_i, w_{i+1}) <= Vmax

Zero time difference is handled by the equivalent multiplicative form
``dist <= Vmax * dt``: two simultaneous observations are compatible only
if they coincide spatially.

The scalar helpers resolve the distance metric through
:attr:`repro.config.FTLConfig.metric_fn` (cached on the config) rather
than re-dispatching :func:`repro.geo.distance.get_metric` per record
pair; batch paths should use the ``*_many`` functions, which take flat
coordinate arrays and pay the metric resolution exactly once.
"""

from __future__ import annotations

import numpy as np

from repro.config import FTLConfig
from repro.core.records import Record


def implied_speed(a: Record, b: Record, config: FTLConfig) -> float:
    """Speed in m/s implied by travelling between two records.

    Returns ``inf`` for distinct locations at identical timestamps and
    ``0.0`` for coincident records.
    """
    dist = float(config.metric_fn(a.x, a.y, b.x, b.y))
    dt = abs(b.t - a.t)
    if dt == 0.0:
        return float("inf") if dist > 0.0 else 0.0
    return dist / dt


def is_compatible(a: Record, b: Record, config: FTLConfig) -> bool:
    """Whether the segment ``(a, b)`` is compatible under ``config.vmax_kph``."""
    dist = float(config.metric_fn(a.x, a.y, b.x, b.y))
    dt = abs(b.t - a.t)
    return dist <= config.vmax_mps * dt


def compatibility_many(
    dists_m: np.ndarray, dts_s: np.ndarray, config: FTLConfig
) -> np.ndarray:
    """Vectorised compatibility of segments given distances and time gaps.

    Parameters
    ----------
    dists_m:
        Segment endpoint distances in metres.
    dts_s:
        Non-negative segment time differences in seconds.

    Returns
    -------
    Boolean array: ``True`` where the segment is compatible.
    """
    return np.asarray(dists_m) <= config.vmax_mps * np.asarray(dts_s)


def incompatibility_many(
    dists_m: np.ndarray, dts_s: np.ndarray, config: FTLConfig
) -> np.ndarray:
    """Vectorised *incompatibility* indicator (the models' success event)."""
    return ~compatibility_many(dists_m, dts_s, config)
