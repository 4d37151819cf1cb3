"""Global configuration for the FTL algorithms.

A single frozen :class:`FTLConfig` carries every tunable the paper
exposes (``Vmax``, time-unit length, model horizon) plus implementation
knobs (metric, smoothing, Poisson–Binomial backend).  Passing one config
through the whole pipeline keeps experiments reproducible: the bucketing
of time differences, the speed threshold and the statistical backend are
all decided in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Any, Mapping

import numpy as np

from repro.errors import ValidationError
from repro.geo.distance import MetricFn, get_metric, metric_names
from repro.geo.units import kph_to_mps
from repro.kernels.backend import KERNEL_BACKENDS

#: Poisson-Binomial evaluation backends (see :mod:`repro.stats.poisson_binomial`).
PB_BACKENDS = ("dp", "recursive", "normal")


@dataclass(frozen=True)
class FTLConfig:
    """Parameters shared by model building, filtering and matching.

    Parameters
    ----------
    vmax_kph:
        Maximum plausible travel speed in km/h (paper Definition 3 uses
        ``Vmax``; 120 kph for Singapore taxi data, 140 kph as a loose
        city-wide cap).
    time_unit_s:
        Width of a time-difference bucket in seconds (paper: "half, one,
        or two minutes").  A mutual segment of gap ``dt`` is assigned to
        bucket ``round(dt / time_unit_s)``.
    horizon_s:
        Time difference beyond which any mutual segment is treated as
        always compatible (paper: "given enough time, one can always
        travel from one place to another").  One hour by default.
    metric:
        Name of the distance metric; ``"euclidean"`` for planar metres
        (default, used by the simulator) or ``"haversine"`` for lon/lat.
    smoothing:
        Pseudo-count added to both outcomes when estimating bucket
        incompatibility probabilities (Jeffreys prior by default).  Keeps
        Naive-Bayes log-likelihoods finite.
    min_bucket_count:
        Buckets with fewer observations than this are treated as empty
        and filled by interpolation between populated neighbours.
    max_acceptance_pairs:
        Cap on the number of different-person trajectory pairs sampled
        per database when building the acceptance model (Algorithm 2 is
        quadratic without a cap).
    pb_backend:
        Poisson-Binomial evaluation method: ``"dp"`` (exact convolution),
        ``"recursive"`` (the paper's Eq. 1; exact but numerically fragile
        for large n), or ``"normal"`` (refined normal approximation).
    prob_floor:
        Probabilities are clamped to ``[prob_floor, 1 - prob_floor]``
        before being used in likelihoods, guarding against log(0).
    kernel_backend:
        Hot-path kernel implementation: ``"auto"`` (the batched NumPy
        kernels), ``"numpy"``, or ``"python"`` (the per-pair reference
        path); see :mod:`repro.kernels`.
    shard_cell_size_m:
        Geo-grid cell side (metres) used by the multi-worker daemon to
        assign each candidate a *home cell* for consistent-hash shard
        routing (see :mod:`repro.service.shard`).  Finer than the
        blocking index's reachability cell on purpose: shard placement
        only needs a stable spatial key, not a pruning guarantee, and a
        ~1 km cell spreads a city across shards evenly.
    """

    vmax_kph: float = 120.0
    time_unit_s: float = 60.0
    horizon_s: float = 3600.0
    metric: str = "euclidean"
    smoothing: float = 0.5
    min_bucket_count: int = 3
    max_acceptance_pairs: int = 200
    pb_backend: str = "dp"
    prob_floor: float = 1e-9
    kernel_backend: str = "auto"
    shard_cell_size_m: float = 1000.0

    def __post_init__(self) -> None:
        if not self.vmax_kph > 0:
            raise ValidationError(f"vmax_kph must be positive, got {self.vmax_kph}")
        if not self.time_unit_s > 0:
            raise ValidationError(f"time_unit_s must be positive, got {self.time_unit_s}")
        if not self.horizon_s >= self.time_unit_s:
            raise ValidationError(
                f"horizon_s ({self.horizon_s}) must be at least one time unit "
                f"({self.time_unit_s})"
            )
        if self.metric not in metric_names():
            raise ValidationError(
                f"unknown metric {self.metric!r}; known: {metric_names()}"
            )
        if self.smoothing < 0:
            raise ValidationError(f"smoothing must be >= 0, got {self.smoothing}")
        if self.min_bucket_count < 0:
            raise ValidationError(
                f"min_bucket_count must be >= 0, got {self.min_bucket_count}"
            )
        if self.max_acceptance_pairs < 1:
            raise ValidationError(
                f"max_acceptance_pairs must be >= 1, got {self.max_acceptance_pairs}"
            )
        if self.pb_backend not in PB_BACKENDS:
            raise ValidationError(
                f"unknown pb_backend {self.pb_backend!r}; known: {PB_BACKENDS}"
            )
        if not 0 < self.prob_floor < 0.5:
            raise ValidationError(
                f"prob_floor must be in (0, 0.5), got {self.prob_floor}"
            )
        if self.kernel_backend not in KERNEL_BACKENDS:
            raise ValidationError(
                f"unknown kernel_backend {self.kernel_backend!r}; "
                f"known: {KERNEL_BACKENDS}"
            )
        if not self.shard_cell_size_m > 0:
            raise ValidationError(
                f"shard_cell_size_m must be positive, got {self.shard_cell_size_m}"
            )

    @property
    def vmax_mps(self) -> float:
        """The speed cap in metres/second."""
        return kph_to_mps(self.vmax_kph)

    @cached_property
    def metric_fn(self) -> MetricFn:
        """The resolved vectorised metric function (cached per config).

        Hot paths call this instead of re-resolving
        :func:`repro.geo.distance.get_metric` per record pair; the
        cache lives in the instance ``__dict__`` and does not affect
        equality or hashing (both are field-based).
        """
        return get_metric(self.metric)

    @property
    def n_buckets(self) -> int:
        """Number of time buckets covered by the models (bucket 0 included).

        Bucket indices run ``0 .. n_buckets - 1``; gaps that round to a
        bucket at or beyond the horizon are "beyond the model" and always
        compatible.
        """
        return int(math.ceil(self.horizon_s / self.time_unit_s))

    def bucket_of(self, dt_s: float) -> int:
        """Bucket index of a single non-negative time difference."""
        if dt_s < 0:
            raise ValidationError(f"time difference must be >= 0, got {dt_s}")
        return int(round(dt_s / self.time_unit_s))

    def buckets_of(self, dt_s: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`bucket_of` (no negativity check; hot path)."""
        return np.rint(np.asarray(dt_s, dtype=np.float64) / self.time_unit_s).astype(
            np.int64
        )

    def with_updates(self, **changes: Any) -> "FTLConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-serialisable snapshot of every dataclass field.

        The single authoritative config serialisation: iterating
        :func:`dataclasses.fields` means a field added to the dataclass
        is serialised automatically — the snapshot can never silently
        drift from the class the way a hand-maintained dict can.
        (``metric_fn`` is a ``cached_property`` living in the instance
        ``__dict__``, not a field, so it is naturally excluded.)
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FTLConfig":
        """Rebuild a config saved by :meth:`to_dict`.

        Missing keys take the dataclass defaults (snapshots written by
        *older* versions load cleanly).  Unknown keys are rejected with
        an error that names them — a snapshot carrying fields this
        version does not know about was written by a *newer* version,
        and silently dropping its settings would load a different
        config than the one saved.
        """
        if not isinstance(payload, Mapping):
            raise ValidationError(
                f"config snapshot must be a mapping, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValidationError(
                f"config snapshot has unknown field(s) {unknown}; it was "
                "saved by a newer version of this software — upgrade before "
                "loading it"
            )
        try:
            return cls(**dict(payload))
        except TypeError as exc:
            raise ValidationError(f"malformed config snapshot: {exc}") from exc


#: Paper default for the Singapore taxi evaluation (Section VII-B).
DEFAULT_CONFIG = FTLConfig()
