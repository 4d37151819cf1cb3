"""Fuzzy Trajectory Linking (FTL).

A reproduction of *"Fuzzy Trajectory Linking"* (Wu, Xue, Cao, Karras,
Ng, Koo — ICDE 2016): linking trajectories of the same person across two
independent spatiotemporal databases via the statistical *compatibility*
of mutual segments, rather than trajectory similarity.

Quickstart::

    import numpy as np
    from repro import FTLConfig, FTLLinker
    from repro.datasets import build_catalog_pair

    rng = np.random.default_rng(7)
    pair = build_catalog_pair("SB-mini", rng)
    linker = FTLLinker(FTLConfig()).fit(pair.p_db, pair.q_db, rng)
    result = linker.link(next(iter(pair.p_db)), method="naive-bayes")

See ``DESIGN.md`` for the architecture and ``EXPERIMENTS.md`` for the
paper-vs-measured comparison of every table and figure.
"""

from repro.config import DEFAULT_CONFIG, FTLConfig
from repro.core.alignment import (
    AlignedTrajectory,
    MutualSegmentProfile,
    Segment,
    align,
    mutual_segment_profile,
)
from repro.core.compatibility import implied_speed, is_compatible
from repro.core.database import TrajectoryDatabase
from repro.core.engine import (
    CacheStats,
    LinkEngine,
    LinkOptions,
    ProfileCache,
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
from repro.core.records import Record
from repro.core.trajectory import Trajectory
from repro.errors import FTLError, NotFittedError, ValidationError
from repro.io.registry import load_database, save_database
from repro.stats.poisson_binomial import PoissonBinomial
from repro.store import TrajectoryStore, build_store, open_store
from repro.version import __version__

__all__ = [
    "AlignedTrajectory",
    "CacheStats",
    "Candidate",
    "CompatibilityModel",
    "DEFAULT_CONFIG",
    "FTLConfig",
    "FTLError",
    "FTLLinker",
    "LinkEngine",
    "LinkOptions",
    "LinkResult",
    "ProfileCache",
    "MutualSegmentProfile",
    "NotFittedError",
    "PoissonBinomial",
    "Record",
    "Segment",
    "Trajectory",
    "TrajectoryDatabase",
    "TrajectoryStore",
    "ValidationError",
    "__version__",
    "acceptance_pvalue",
    "align",
    "build_store",
    "hits_within_topk",
    "implied_speed",
    "is_compatible",
    "load_database",
    "mutual_segment_profile",
    "open_store",
    "perceptiveness",
    "precision_at_k",
    "rejection_pvalue",
    "save_database",
    "selectiveness",
]
