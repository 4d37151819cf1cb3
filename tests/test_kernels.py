"""Kernel backend selection and cross-backend bit-identity.

The contract under test (see ``docs/performance.md``): both kernel
backends — the per-pair ``python`` reference and the batched ``numpy``
kernels — produce bit-identical mutual-segment profiles,
Poisson-Binomial pmfs, and end-to-end rankings.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FTLConfig
from repro.core.alignment import (
    FlatPool,
    batch_mutual_segment_profiles,
    mutual_segment_profile,
)
from repro.core.engine import LinkEngine, LinkOptions
from repro.core.trajectory import Trajectory
from repro.errors import ValidationError
from repro.kernels import KERNEL_BACKENDS, resolve_kernel_backend
from repro.stats.poisson_binomial import pb_pmf_batch


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
class TestResolution:
    def test_none_and_auto_resolve_concrete(self):
        assert resolve_kernel_backend(None) == "numpy"
        assert resolve_kernel_backend("auto") == "numpy"

    @pytest.mark.parametrize("name", ["python", "numpy"])
    def test_explicit_backends_pass_through(self, name):
        assert resolve_kernel_backend(name) == name

    def test_numba_request_degrades_gracefully(self):
        """The deleted numba backend is refused with a typed error.

        Every entry point raises :class:`ValidationError` naming the
        remaining backends, so a caller can fall back on one of them.
        """
        for request in (
            lambda: resolve_kernel_backend("numba"),
            lambda: FTLConfig(kernel_backend="numba"),
        ):
            with pytest.raises(ValidationError, match="numpy"):
                request()

    def test_unknown_name_raises(self):
        with pytest.raises(ValidationError):
            resolve_kernel_backend("fortran")

    def test_config_and_options_validate_backend(self):
        with pytest.raises(ValidationError):
            FTLConfig(kernel_backend="fortran")
        for name in KERNEL_BACKENDS:
            FTLConfig(kernel_backend=name)
        # The config is the one backend knob: options carry none.
        with pytest.raises(TypeError):
            LinkOptions(kernel_backend="numpy")


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def trajectory_strategy(max_len=20, tie_grid=False, degrees=False):
    """Random trajectories; ``tie_grid`` forces heavy timestamp ties."""

    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_len))
        if tie_grid:
            ts = sorted(
                draw(
                    st.lists(
                        st.integers(0, 40).map(lambda k: k * 30.0),
                        min_size=n,
                        max_size=n,
                    )
                )
            )
        else:
            ts = sorted(
                draw(
                    st.lists(
                        st.floats(0, 2e4, allow_nan=False),
                        min_size=n,
                        max_size=n,
                    )
                )
            )
        rng = np.random.default_rng(draw(st.integers(0, 2**31)))
        if degrees:
            xs = rng.uniform(-0.5, 0.5, n) + 11.5
            ys = rng.uniform(-0.5, 0.5, n) + 48.0
        else:
            xs = rng.uniform(0, 3e4, n)
            ys = rng.uniform(0, 3e4, n)
        return Trajectory(ts, xs, ys, traj_id=f"t{draw(st.integers(0, 10**9))}")

    return build()


def pool_strategy(max_pool=8, **kwargs):
    return st.lists(trajectory_strategy(**kwargs), min_size=0, max_size=max_pool)


# ----------------------------------------------------------------------
# Profile kernel bit-identity
# ----------------------------------------------------------------------
class TestProfileKernels:
    @settings(max_examples=30, deadline=None)
    @given(q=trajectory_strategy(), pool=pool_strategy())
    def test_numpy_matches_python_euclidean(self, q, pool):
        config = FTLConfig()
        ref = batch_mutual_segment_profiles(q, pool, config, backend="python")
        got = batch_mutual_segment_profiles(q, pool, config, backend="numpy")
        assert [p.token for p in ref] == [p.token for p in got]

    @settings(max_examples=20, deadline=None)
    @given(
        q=trajectory_strategy(tie_grid=True),
        pool=pool_strategy(tie_grid=True),
    )
    def test_numpy_matches_python_with_timestamp_ties(self, q, pool):
        config = FTLConfig()
        ref = batch_mutual_segment_profiles(q, pool, config, backend="python")
        flat = FlatPool(pool)
        got = batch_mutual_segment_profiles(
            q, pool, config, backend="numpy", flat=flat
        )
        assert [p.token for p in ref] == [p.token for p in got]

    @settings(max_examples=15, deadline=None)
    @given(
        q=trajectory_strategy(degrees=True),
        pool=pool_strategy(degrees=True),
    )
    def test_numpy_matches_python_haversine(self, q, pool):
        config = FTLConfig(metric="haversine")
        ref = batch_mutual_segment_profiles(q, pool, config, backend="python")
        got = batch_mutual_segment_profiles(q, pool, config, backend="numpy")
        assert [p.token for p in ref] == [p.token for p in got]

    @settings(max_examples=20, deadline=None)
    @given(q=trajectory_strategy(), pool=pool_strategy())
    def test_flat_pool_cache_is_transparent(self, q, pool):
        config = FTLConfig()
        flat = FlatPool(pool)
        cached = batch_mutual_segment_profiles(
            q, pool, config, backend="numpy", flat=flat
        )
        # Reuse: the merge cache is built once and must not go stale.
        again = batch_mutual_segment_profiles(
            q, pool, config, backend="numpy", flat=flat
        )
        plain = batch_mutual_segment_profiles(q, pool, config, backend="numpy")
        assert [p.token for p in cached] == [p.token for p in plain]
        assert [p.token for p in again] == [p.token for p in plain]

    def test_exact_speed_test_ties(self):
        """dist == vmax*dt exactly (3-4-5) must match the reference."""
        config = FTLConfig(vmax_kph=3.6)  # vmax_mps == 1.0 exactly
        assert config.vmax_mps == 1.0
        q = Trajectory(
            np.array([0.0, 10.0]),
            np.array([0.0, 0.0]),
            np.array([0.0, 0.0]),
            traj_id="q",
        )
        pool = [
            # dist 5 == vmax*dt 5: compatible on the tie, both segments.
            Trajectory(np.array([5.0]), np.array([3.0]), np.array([4.0])),
            # dt == 0, dist == 0: the degenerate tie.
            Trajectory(np.array([0.0]), np.array([0.0]), np.array([0.0])),
            # dt == 0, dist > 0: incompatible against the t=0 record.
            Trajectory(np.array([0.0]), np.array([1.0]), np.array([0.0])),
            # Subnormal-scale coordinates (squared distance underflows).
            Trajectory(np.array([1e-8]), np.array([0.6e-8]), np.array([0.8e-8])),
        ]
        ref = batch_mutual_segment_profiles(q, pool, config, backend="python")
        got = batch_mutual_segment_profiles(q, pool, config, backend="numpy")
        assert [p.token for p in ref] == [p.token for p in got]
        assert got[2].incompatible.tolist() == [True, False]

    def test_single_pair_dispatch(self):
        rng = np.random.default_rng(5)
        config = FTLConfig()
        p = Trajectory(np.sort(rng.uniform(0, 1e3, 12)),
                       rng.uniform(0, 1e4, 12), rng.uniform(0, 1e4, 12))
        q = Trajectory(np.sort(rng.uniform(0, 1e3, 9)),
                       rng.uniform(0, 1e4, 9), rng.uniform(0, 1e4, 9))
        ref = mutual_segment_profile(p, q, config, backend="python")
        assert mutual_segment_profile(p, q, config, backend="numpy") == ref


# ----------------------------------------------------------------------
# Poisson-Binomial DP bit-identity
# ----------------------------------------------------------------------
def probs_list_strategy():
    prob = st.one_of(
        st.just(0.0),
        st.just(1.0),
        st.floats(1e-9, 1.0 - 1e-9, allow_nan=False),
    )
    return st.lists(
        st.lists(prob, min_size=0, max_size=30).map(np.asarray),
        min_size=0,
        max_size=10,
    )


class TestPoissonBinomialKernels:
    @settings(max_examples=30, deadline=None)
    @given(probs_list=probs_list_strategy())
    def test_numpy_matches_python(self, probs_list):
        ref = pb_pmf_batch(probs_list, kernel="python")
        got = pb_pmf_batch(probs_list, kernel="numpy")
        assert len(ref) == len(got)
        for a, b in zip(ref, got):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# End-to-end: backends are interchangeable inside the engine
# ----------------------------------------------------------------------
class TestEngineBackendIdentity:
    @pytest.mark.parametrize(
        "options",
        [
            LinkOptions(method="naive-bayes", phi_r=0.1),
            LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0),
        ],
        ids=["naive-bayes", "ranking"],
    )
    def test_link_batch_identical_across_backends(
        self, fitted_models, with_kernel_backend, small_pair, options
    ):
        mr, ma = fitted_models
        rng = np.random.default_rng(17)
        ids = small_pair.sample_queries(5, rng)
        queries = [small_pair.p_db[qid] for qid in ids]
        pool = list(small_pair.q_db)
        results = {}
        for backend in ("python", "numpy"):
            engine = LinkEngine(
                *with_kernel_backend((mr, ma), backend), options=options
            )
            assert engine.kernel_backend == resolve_kernel_backend(backend)
            results[backend] = engine.link_batch(queries, pool)
        assert results["numpy"] == results["python"]

    def test_stage_backends_surface(self, fitted_models, with_kernel_backend):
        engine = LinkEngine(*with_kernel_backend(fitted_models, "numpy"))
        stages = engine.stage_backends()
        assert stages["profile"] == "numpy"
        assert stages["pb_test"] == "dp[numpy]"

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_config_backend_reaches_engine(
        self, fitted_models, with_kernel_backend, backend
    ):
        engine = LinkEngine(*with_kernel_backend(fitted_models, backend))
        assert engine.kernel_backend == backend
