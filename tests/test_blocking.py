"""Time-only blocking: :meth:`SpatioTemporalIndex.temporal_ids_for`.

Every fixture trajectory sits at the origin, so the spatial screen of
``candidates_for`` keeps them all and only the time test decides.
"""

import numpy as np
import pytest

from repro.core.database import TrajectoryDatabase
from repro.core.prefilter import TimeOverlapPrefilter
from repro.core.trajectory import Trajectory
from repro.errors import ValidationError
from repro.store.stindex import SpatioTemporalIndex


def traj(start, end, traj_id, n=5):
    ts = np.linspace(start, end, n)
    return Trajectory(ts, np.zeros(n), np.zeros(n), traj_id)


@pytest.fixture
def db():
    return TrajectoryDatabase(
        [
            traj(0, 100, "early"),
            traj(50, 200, "overlap"),
            traj(500, 700, "late"),
            traj(0, 1000, "always"),
        ]
    )


@pytest.fixture
def index(db):
    return SpatioTemporalIndex.build(db)


class TestCandidateIndex:
    """The time-only candidate index, served by ``SpatioTemporalIndex``."""

    def test_len(self, index):
        assert len(index) == 4

    def test_overlapping_windows_found(self, index):
        query = traj(60, 90, "q")
        ids = set(index.temporal_ids_for(query))
        assert ids == {"early", "overlap", "always"}

    def test_min_overlap_filters(self, index):
        query = traj(90, 190, "q")
        # 'early' overlaps [90,100] = 10s only.
        assert "early" in index.temporal_ids_for(query, min_overlap_s=5.0)
        assert "early" not in index.temporal_ids_for(query, min_overlap_s=20.0)

    def test_disjoint_query_empty(self, index):
        query = traj(2000, 3000, "q")
        assert index.temporal_ids_for(query, min_overlap_s=1.0) == []

    def test_empty_query(self, index):
        assert index.candidates_for(Trajectory.empty("q")) == []

    def test_empty_database(self):
        index = SpatioTemporalIndex.build(TrajectoryDatabase())
        assert index.candidates_for(traj(0, 10, "q")) == []
        with pytest.raises(ValidationError):
            index.coverage_window()

    def test_coverage_window(self, index):
        assert index.coverage_window() == (0.0, 1000.0)

    def test_negative_overlap_rejected(self, index):
        with pytest.raises(ValidationError):
            index.candidates_for(traj(0, 10, "q"), min_overlap_s=-1.0)

    def test_superset_of_prefilter(self, small_pair):
        """Contract: index results ⊇ prefilter-kept candidates."""
        index = SpatioTemporalIndex.build(small_pair.q_db)
        prefilter = TimeOverlapPrefilter(min_overlap_s=3600.0)
        rng = np.random.default_rng(0)
        for pid in small_pair.sample_queries(8, rng):
            query = small_pair.p_db[pid]
            from_index = set(index.temporal_ids_for(query, min_overlap_s=3600.0))
            from_prefilter = {
                c.traj_id
                for c in small_pair.q_db
                if prefilter.keep(query, c)
            }
            assert from_prefilter <= from_index

    def test_linking_through_index(self, small_pair, fitted_models):
        """Index-restricted linking keeps the true matches."""
        from repro.core.linker import FTLLinker

        mr, ma = fitted_models
        index = SpatioTemporalIndex.build(small_pair.q_db)
        linker = FTLLinker(mr.config, phi_r=0.1).with_models(
            mr, ma, small_pair.q_db
        )
        rng = np.random.default_rng(1)
        hits = 0
        qids = small_pair.sample_queries(10, rng)
        for pid in qids:
            query = small_pair.p_db[pid]
            pool = index.candidates_for(query, min_overlap_s=3600.0)
            result = linker.link(query, candidates=pool)
            hits += result.contains(small_pair.truth[pid])
        assert hits >= 7
