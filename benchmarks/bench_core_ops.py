"""Micro-benchmarks of the FTL hot paths.

These use pytest-benchmark's statistical timing (many rounds) on the
operations that dominate query latency: mutual-segment profile
extraction, Poisson-Binomial tail evaluation, and the single-pair
evidence both decision rules read.
"""

import numpy as np
import pytest

from repro.config import FTLConfig
from repro.core.alignment import mutual_segment_profile
from repro.core.engine import LinkEngine
from repro.core.models import CompatibilityModel
from repro.core.trajectory import Trajectory
from repro.stats.poisson_binomial import PoissonBinomial


@pytest.fixture(scope="module")
def config():
    return FTLConfig()


@pytest.fixture(scope="module")
def traj_pair():
    rng = np.random.default_rng(0)

    def make(n, tid):
        ts = np.sort(rng.uniform(0, 7 * 86400.0, n))
        return Trajectory(ts, rng.uniform(0, 45_000, n),
                          rng.uniform(0, 25_000, n), tid)

    return make(300, "p"), make(200, "q")


@pytest.fixture(scope="module")
def models(config):
    rng = np.random.default_rng(1)

    def make_db(prefix, n_traj):
        from repro.core.database import TrajectoryDatabase

        trajs = []
        for i in range(n_traj):
            n = 120
            ts = np.sort(rng.uniform(0, 5 * 86400.0, n))
            xs = 20_000 + np.cumsum(rng.normal(0, 80, n))
            ys = 12_000 + np.cumsum(rng.normal(0, 80, n))
            trajs.append(Trajectory(ts, xs, ys, f"{prefix}{i}"))
        return TrajectoryDatabase(trajs)

    p_db, q_db = make_db("p", 15), make_db("q", 15)
    mr = CompatibilityModel.fit_rejection([p_db, q_db], config)
    ma = CompatibilityModel.fit_acceptance([p_db, q_db], config, rng)
    return mr, ma


def test_mutual_segment_profile_speed(benchmark, traj_pair, config):
    p, q = traj_pair
    profile = benchmark(mutual_segment_profile, p, q, config)
    assert profile.n_total > 0


def test_pb_tail_dp_speed(benchmark):
    rng = np.random.default_rng(2)
    ps = rng.uniform(0.01, 0.6, 150)
    value = benchmark(lambda: PoissonBinomial(ps).sf(40))
    assert 0.0 <= value <= 1.0


def test_pb_tail_normal_speed(benchmark):
    rng = np.random.default_rng(2)
    ps = rng.uniform(0.01, 0.6, 150)
    value = benchmark(lambda: PoissonBinomial(ps, backend="normal").sf(40))
    assert 0.0 <= value <= 1.0


def test_pair_evidence_speed(benchmark, traj_pair, models):
    """One pair's p-values and log-likelihoods: what both rules read."""
    p, q = traj_pair
    engine = LinkEngine(*models)
    [evidence] = benchmark(engine.evidence, [p], [q])
    assert evidence.n_mutual[0] >= 0


def test_streaming_insert_speed(benchmark, traj_pair, config):
    """Per-record cost of incremental evidence maintenance."""
    from repro.core.streaming import SOURCE_P, SOURCE_Q, StreamingPairEvidence

    p, q = traj_pair

    def build():
        evidence = StreamingPairEvidence(config)
        evidence.extend(p, SOURCE_P)
        evidence.extend(q, SOURCE_Q)
        return evidence

    evidence = benchmark(build)
    assert evidence.n_records == len(p) + len(q)


def test_model_fit_speed(benchmark, config):
    rng = np.random.default_rng(3)
    from repro.core.database import TrajectoryDatabase

    trajs = []
    for i in range(30):
        n = 150
        ts = np.sort(rng.uniform(0, 5 * 86400.0, n))
        trajs.append(
            Trajectory(ts, rng.uniform(0, 45_000, n), rng.uniform(0, 25_000, n), i)
        )
    db = TrajectoryDatabase(trajs)
    model = benchmark(CompatibilityModel.fit_rejection, [db], config)
    assert model.n_segments > 0
