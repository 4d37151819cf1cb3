"""Core FTL machinery: data model, alignment, models, the linking engine, metrics."""

from repro.core.alignment import (
    AlignedTrajectory,
    MutualSegmentProfile,
    Segment,
    align,
    mutual_segment_profile,
)
from repro.core.compatibility import (
    is_compatible,
    compatibility_many,
    implied_speed,
)
from repro.core.database import TrajectoryDatabase
from repro.core.engine import (
    CacheStats,
    LinkEngine,
    LinkOptions,
    ProfileCache,
)
from repro.core.diagnostics import (
    bucket_divergence,
    discriminability,
    format_model_table,
    model_table,
)
from repro.core.hypothesis import acceptance_pvalue, rejection_pvalue
from repro.core.linker import Candidate, FTLLinker, LinkResult
from repro.core.metrics import (
    hits_within_topk,
    perceptiveness,
    precision_at_k,
    selectiveness,
)
from repro.core.models import CompatibilityModel
from repro.core.prefilter import (
    MutualSegmentCountPrefilter,
    NullPrefilter,
    TimeOverlapPrefilter,
)
from repro.core.records import Record
from repro.core.trajectory import Trajectory

__all__ = [
    "AlignedTrajectory",
    "CacheStats",
    "Candidate",
    "CompatibilityModel",
    "FTLLinker",
    "LinkEngine",
    "LinkOptions",
    "LinkResult",
    "ProfileCache",
    "MutualSegmentCountPrefilter",
    "MutualSegmentProfile",
    "NullPrefilter",
    "Record",
    "Segment",
    "TimeOverlapPrefilter",
    "Trajectory",
    "TrajectoryDatabase",
    "acceptance_pvalue",
    "align",
    "bucket_divergence",
    "compatibility_many",
    "discriminability",
    "format_model_table",
    "hits_within_topk",
    "implied_speed",
    "is_compatible",
    "model_table",
    "mutual_segment_profile",
    "perceptiveness",
    "precision_at_k",
    "rejection_pvalue",
    "selectiveness",
]
