"""The batch linking engine: LinkOptions, ProfileCache, LinkEngine."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FTLConfig
from repro.core.alignment import mutual_segment_profile
from repro.core.engine import (
    DEFAULT_LINK_OPTIONS,
    LinkEngine,
    LinkOptions,
    ProfileCache,
)
from repro.core.hypothesis import (
    acceptance_pvalue,
    log_likelihood,
    rejection_pvalue,
)
from repro.core.linker import FTLLinker
from repro.core.models import ACCEPTANCE, REJECTION, BucketCounts, CompatibilityModel
from repro.core.trajectory import Trajectory
from repro.errors import ValidationError

ALL_OPTIONS = [
    LinkOptions(method="naive-bayes", phi_r=0.1),
    LinkOptions(method="alpha-filter", alpha1=0.01, alpha2=0.1),
    LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0),
]


@pytest.fixture(scope="module")
def query_set(small_pair):
    rng = np.random.default_rng(3)
    ids = small_pair.sample_queries(8, rng)
    return [small_pair.p_db[pid] for pid in ids]


def make_engine(fitted_models, options=DEFAULT_LINK_OPTIONS):
    mr, ma = fitted_models
    return LinkEngine(mr, ma, options=options)


class TestLinkOptions:
    def test_defaults_match_seed(self):
        opts = LinkOptions()
        assert opts.method == "naive-bayes"
        assert opts.alpha1 == 0.05
        assert opts.alpha2 == 0.05
        assert opts.phi_r == 0.01
        assert opts.top_k is None
        assert opts.prefilter is None

    def test_phi_a_complement(self):
        assert LinkOptions(phi_r=0.2).phi_a == pytest.approx(0.8)

    def test_with_updates(self):
        opts = LinkOptions().with_updates(method="alpha-filter", alpha1=0.2)
        assert opts.method == "alpha-filter"
        assert opts.alpha1 == 0.2
        assert opts.alpha2 == 0.05

    @pytest.mark.parametrize(
        "bad",
        [
            {"method": "magic"},
            {"alpha1": -0.1},
            {"alpha2": 1.5},
            {"phi_r": 0.0},
            {"phi_r": 1.0},
            {"top_k": 0},
            {"prefilter": object()},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValidationError):
            LinkOptions(**bad)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            LinkOptions().method = "alpha-filter"


class TestProfileCache:
    def test_miss_then_hit(self, small_pair, config):
        cache = ProfileCache(maxsize=16)
        query = next(iter(small_pair.p_db))
        candidate = next(iter(small_pair.q_db))
        first = cache.get(query, candidate, config)
        second = cache.get(query, candidate, config)
        assert first is second
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.n_computed == 1

    def test_config_is_part_of_key(self, small_pair):
        cache = ProfileCache()
        query = next(iter(small_pair.p_db))
        candidate = next(iter(small_pair.q_db))
        cache.get(query, candidate, FTLConfig())
        cache.get(query, candidate, FTLConfig(time_unit_s=30.0))
        assert cache.stats.misses == 2

    def test_eviction(self, small_pair, config):
        cache = ProfileCache(maxsize=2)
        query = next(iter(small_pair.p_db))
        candidates = list(small_pair.q_db)[:3]
        for candidate in candidates:
            cache.get(query, candidate, config)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The least recently used entry (candidate 0) was dropped.
        cache.get(query, candidates[0], config)
        assert cache.stats.misses == 4

    def test_clear(self, small_pair, config):
        cache = ProfileCache()
        query = next(iter(small_pair.p_db))
        candidate = next(iter(small_pair.q_db))
        cache.get(query, candidate, config)
        cache.clear()
        assert len(cache) == 0
        cache.get(query, candidate, config)
        assert cache.stats.misses == 2

    def test_bad_maxsize(self):
        with pytest.raises(ValidationError):
            ProfileCache(maxsize=0)

    @given(
        st.lists(st.floats(0.0, 7200.0), min_size=2, max_size=12),
        st.lists(st.floats(0.0, 7200.0), min_size=2, max_size=12),
        st.integers(0, 2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_cached_profile_equals_fresh(self, ts_p, ts_q, seed):
        """Property: a cache hit returns the same observation content."""
        rng = np.random.default_rng(seed)
        config = FTLConfig()
        p = Trajectory(
            np.sort(np.asarray(ts_p)),
            rng.uniform(0, 5000, len(ts_p)),
            rng.uniform(0, 5000, len(ts_p)),
            "p",
        )
        q = Trajectory(
            np.sort(np.asarray(ts_q)),
            rng.uniform(0, 5000, len(ts_q)),
            rng.uniform(0, 5000, len(ts_q)),
            "q",
        )
        cache = ProfileCache()
        cache.get(p, q, config)
        cached = cache.get(p, q, config)
        assert cache.stats.hits == 1
        # Content equality/hashing is defined through the profile token.
        fresh = mutual_segment_profile(p, q, config)
        assert cached == fresh
        assert hash(cached) == hash(fresh)


class TestBatchEquivalence:
    """link_batch == a loop of sequential link() calls, bit for bit."""

    @pytest.mark.parametrize("options", ALL_OPTIONS, ids=lambda o: f"{o.method}")
    def test_batch_matches_sequential(
        self, small_pair, fitted_models, query_set, options
    ):
        mr, ma = fitted_models
        pool = list(small_pair.q_db)
        batch = make_engine(fitted_models, options).link_batch(query_set, pool)
        sequential = [
            make_engine(fitted_models, options).link(q, pool) for q in query_set
        ]
        assert len(batch) == len(sequential)
        for got, want in zip(batch, sequential):
            assert got == want  # dataclass equality: ids, scores, p-values

    @pytest.mark.parametrize("options", ALL_OPTIONS, ids=lambda o: f"{o.method}")
    def test_warm_cache_never_changes_results(
        self, small_pair, fitted_models, query_set, options
    ):
        engine = make_engine(fitted_models, options)
        pool = list(small_pair.q_db)
        cold = engine.link_batch(query_set, pool)
        assert engine.cache.stats.hits == 0
        warm = engine.link_batch(query_set, pool)
        assert engine.cache.stats.hits == engine.cache.stats.misses
        assert warm == cold

    def test_each_profile_computed_exactly_once(
        self, small_pair, fitted_models, query_set
    ):
        engine = make_engine(fitted_models)
        engine.link_batch(query_set, small_pair.q_db)
        stats = engine.cache.stats
        assert stats.n_computed == len(query_set) * len(small_pair.q_db)
        assert stats.hits == 0

    def test_finds_true_matches(self, small_pair, fitted_models, query_set):
        engine = make_engine(fitted_models, LinkOptions(phi_r=0.1))
        results = engine.link_batch(query_set, small_pair.q_db)
        hits = sum(
            1 for r in results if r.contains(small_pair.truth[r.query_id])
        )
        assert hits >= len(query_set) - 2

    def test_empty_pool(self, fitted_models, query_set):
        result = make_engine(fitted_models).link(query_set[0], [])
        assert len(result) == 0
        assert result.query_id == query_set[0].traj_id

    def test_rejects_non_options(self, fitted_models, query_set):
        with pytest.raises(ValidationError):
            make_engine(fitted_models).link_batch(
                query_set, [], options={"method": "naive-bayes"}
            )


class TestEngineOptions:
    def test_top_k_truncates(self, small_pair, fitted_models, query_set):
        exhaustive = LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0)
        engine = make_engine(fitted_models, exhaustive)
        full = engine.link(query_set[0], small_pair.q_db)
        top2 = engine.link(
            query_set[0], small_pair.q_db, exhaustive.with_updates(top_k=2)
        )
        assert len(full) == len(small_pair.q_db)
        assert len(top2) == 2
        assert top2.candidates == full.candidates[:2]

    def test_prefilter_applied(self, small_pair, fitted_models, query_set):
        class KeepNothing:
            def keep(self, query, candidate):
                return False

        engine = make_engine(
            fitted_models, LinkOptions(prefilter=KeepNothing())
        )
        result = engine.link(query_set[0], small_pair.q_db)
        assert len(result) == 0
        assert engine.cache.stats.n_computed == 0


class TestLinkerFacade:
    def test_link_batch_matches_link(self, small_pair, fitted_models, query_set):
        mr, ma = fitted_models
        linker = FTLLinker(
            mr.config, LinkOptions(phi_r=0.1)
        ).with_models(mr, ma, small_pair.q_db)
        batch = linker.link_batch(query_set)
        singles = [linker.link(q) for q in query_set]
        assert batch == singles

    def test_options_property(self, fitted_models):
        opts = LinkOptions(method="alpha-filter", alpha1=0.02)
        linker = FTLLinker(FTLConfig(), opts)
        assert linker.options is opts

    def test_kwarg_shorthand_builds_options(self):
        linker = FTLLinker(FTLConfig(), alpha1=0.01, alpha2=0.2, phi_r=0.3)
        assert linker.options == LinkOptions(
            alpha1=0.01, alpha2=0.2, phi_r=0.3
        )

    def test_per_call_options_override(
        self, small_pair, fitted_models, query_set
    ):
        mr, ma = fitted_models
        linker = FTLLinker(mr.config).with_models(mr, ma, small_pair.q_db)
        ranked = linker.link(
            query_set[0],
            options=LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0),
        )
        assert len(ranked) == len(small_pair.q_db)
        assert ranked.method == "alpha-filter"

    def test_profile_cache_exposed(self, small_pair, fitted_models, query_set):
        mr, ma = fitted_models
        linker = FTLLinker(mr.config).with_models(mr, ma, small_pair.q_db)
        linker.link(query_set[0])
        assert linker.profile_cache.stats.n_computed == len(small_pair.q_db)


class TestResultSerialisation:
    @pytest.fixture(scope="class")
    def result(self, small_pair, fitted_models):
        mr, ma = fitted_models
        engine = LinkEngine(
            mr, ma, LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0)
        )
        query = next(iter(small_pair.p_db))
        return engine.link(query, small_pair.q_db)

    def test_to_dict_round_trip(self, result):
        payload = result.to_dict()
        assert payload["query_id"] == result.query_id
        assert payload["method"] == result.method
        assert len(payload["candidates"]) == len(result)
        first = payload["candidates"][0]
        assert first["candidate_id"] == result.candidates[0].candidate_id
        assert first["score"] == result.candidates[0].score
        assert set(first) == {
            "candidate_id", "score", "p_rejection", "p_acceptance",
            "n_mutual", "n_incompatible",
        }

    def test_to_dict_is_json_serialisable(self, result):
        parsed = json.loads(json.dumps(result.to_dict(), default=str))
        assert len(parsed["candidates"]) == len(result)

    def test_top_helper(self, result):
        assert result.top(3) == result.candidates[:3]
        assert result.top(10_000) == result.candidates
        with pytest.raises(ValidationError):
            result.top(-1)


class TestBenchSmoke:
    def test_engine_bench_smoke(self, tmp_path):
        """Tiny-size run of the engine benchmark, emitting BENCH_engine.json."""
        from benchmarks.bench_engine_batch import run_engine_benchmark

        out = tmp_path / "BENCH_engine.json"
        report = run_engine_benchmark(
            n_candidates=8, n_queries=3, seed=5, out_path=out
        )
        written = json.loads(out.read_text())
        assert written["n_candidates"] == report["n_candidates"] == 8
        for workload in ("ranking", "naive-bayes"):
            row = written["workloads"][workload]
            assert row["engine_batch_s"] > 0.0
            assert row["profiles_computed"] == 3 * 8


class TestLinkRequests:
    def test_bit_identical_to_link_batch(self, fitted_models, small_pair,
                                         query_set):
        engine = make_engine(fitted_models)
        pool = list(small_pair.q_db)
        from repro.core.engine import LinkRequest

        requests = [LinkRequest(query=q) for q in query_set]
        assert engine.link_requests(requests, default_pool=pool) == \
            engine.link_batch(query_set, pool)

    def test_heterogeneous_per_request_options(self, fitted_models,
                                               small_pair, query_set):
        engine = make_engine(fitted_models)
        pool = list(small_pair.q_db)
        from repro.core.engine import LinkRequest

        requests = [
            LinkRequest(query=query, options=options)
            for query, options in zip(query_set, ALL_OPTIONS)
        ]
        got = engine.link_requests(requests, default_pool=pool)
        expected = [
            engine.link(query, pool, options)
            for query, options in zip(query_set, ALL_OPTIONS)
        ]
        assert got == expected

    def test_per_request_candidates_override_pool(self, fitted_models,
                                                  small_pair, query_set):
        engine = make_engine(fitted_models)
        pool = list(small_pair.q_db)
        subset = pool[:3]
        from repro.core.engine import LinkRequest

        requests = [
            LinkRequest(query=query_set[0]),
            LinkRequest(query=query_set[1], candidates=subset),
        ]
        got = engine.link_requests(requests, default_pool=pool)
        assert got[0] == engine.link(query_set[0], pool)
        assert got[1] == engine.link(query_set[1], subset)
        assert all(c.candidate_id in {t.traj_id for t in subset}
                   for c in got[1].candidates)

    def test_no_candidates_and_no_pool_rejected(self, fitted_models,
                                                query_set):
        engine = make_engine(fitted_models)
        from repro.core.engine import LinkRequest

        with pytest.raises(ValidationError, match="no default_pool"):
            engine.link_requests([LinkRequest(query=query_set[0])])

    def test_request_validation(self, fitted_models, query_set):
        engine = make_engine(fitted_models)
        from repro.core.engine import LinkRequest

        with pytest.raises(ValidationError):
            LinkRequest(query="not a trajectory")
        with pytest.raises(ValidationError):
            LinkRequest(query=query_set[0], options="fast")
        with pytest.raises(ValidationError):
            engine.link_requests(["not a request"], default_pool=[])

    def test_candidates_coerced_to_tuple(self, small_pair, query_set):
        from repro.core.engine import LinkRequest

        pool = list(small_pair.q_db)[:2]
        request = LinkRequest(query=query_set[0], candidates=pool)
        assert isinstance(request.candidates, tuple)
        assert len(request.candidates) == 2


# ----------------------------------------------------------------------
# Differential: LinkEngine.evidence against the per-pair oracle
# ----------------------------------------------------------------------
ORACLE_CONFIG = FTLConfig(smoothing=0.0, min_bucket_count=1)


def _model_strategy(kind):
    """A model with arbitrary per-bucket probabilities, 0 and 1 included."""
    n = ORACLE_CONFIG.n_buckets
    return st.lists(st.integers(0, 100), min_size=n, max_size=n).map(
        lambda incompatible: CompatibilityModel(
            kind,
            BucketCounts(np.full(n, 100, dtype=np.int64), np.asarray(incompatible)),
            ORACLE_CONFIG,
        )
    )


def _grid_trajectory(draw, traj_id, min_len=0, max_len=12, shift=0.0):
    """Timestamps on a 30 s grid (so ties are common) over ~2 horizons."""
    n = draw(st.integers(min_len, max_len))
    ts = np.sort(draw(st.lists(st.integers(0, 240), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    return Trajectory(
        ts * 30.0 + shift,
        rng.uniform(0, 3e4, n),
        rng.uniform(0, 3e4, n),
        traj_id,
    )


@st.composite
def _query_and_pool(draw):
    """A query and a pool that always holds the edge cases.

    Besides the drawn candidates the pool has an empty trajectory (an
    empty profile), one far later in time (every mutual segment beyond
    the horizon) and one on the query's own timestamps (all ties).
    """
    query = _grid_trajectory(draw, "q", min_len=1)
    pool = [
        _grid_trajectory(draw, f"c{i}") for i in range(draw(st.integers(0, 6)))
    ]
    pool.append(Trajectory([], [], [], "empty"))
    pool.append(_grid_trajectory(draw, "far", min_len=1, shift=1e5))
    pool.append(Trajectory(query.ts, query.ys, query.xs, "ties"))
    return query, pool


class TestEvidenceOracle:
    """``LinkEngine.evidence`` equals the per-pair oracle bit for bit."""

    @given(
        _query_and_pool(),
        _model_strategy(REJECTION),
        _model_strategy(ACCEPTANCE),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_evidence_equals_oracle(
        self, with_kernel_backend, query_pool, mr, ma, alpha1
    ):
        query, pool = query_pool
        profiles = [mutual_segment_profile(query, c, ORACLE_CONFIG) for c in pool]
        within = [p.within_horizon(ORACLE_CONFIG.n_buckets) for p in profiles]
        p1 = [rejection_pvalue(p, mr) for p in profiles]
        p2 = [acceptance_pvalue(p, ma) for p in profiles]
        llr = [log_likelihood(p, mr) - log_likelihood(p, ma) for p in profiles]
        for kernel in ("numpy", "python"):
            engine = LinkEngine(*with_kernel_backend((mr, ma), kernel))
            [evidence] = engine.evidence([query], pool)
            assert evidence.query_id == "q"
            assert evidence.candidate_ids == tuple(c.traj_id for c in pool)
            assert evidence.p1.tolist() == p1
            assert evidence.p2.tolist() == p2
            assert evidence.llr.tolist() == llr
            assert evidence.n_mutual.tolist() == [w.n_total for w in within]
            assert evidence.n_incompatible.tolist() == [
                w.n_incompatible for w in within
            ]

        accepted = evidence.alpha_filter_mask(alpha1, 0.5)
        for ok, oracle_p1, oracle_p2 in zip(accepted, p1, p2):
            assert ok == (oracle_p1 >= alpha1 and oracle_p2 < 0.5)

    def test_empty_pool(self, fitted_models, query_set):
        [evidence] = make_engine(fitted_models).evidence(query_set[:1], [])
        assert evidence.candidate_ids == ()
        assert evidence.p1.shape == evidence.llr.shape == (0,)
