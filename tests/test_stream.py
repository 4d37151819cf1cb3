"""Continuous streaming linkage: delta log, union probe, standing queries.

Four contracts pin the subsystem (module docstrings of
:mod:`repro.stream.deltas`, :mod:`repro.stream.pool` and
:mod:`repro.stream.standing`):

* the :class:`StreamIndexView` union probe preserves the main index's
  property-tested superset contract across any interleaving of flushed
  delta blocks and sliding-window evictions;
* :func:`merge_index_deltas` folds the log into a main index that
  never drops an id a full rebuild would keep, and leaves the log
  empty at the store's current generation;
* the resident pool, patched in place by every flush and eviction,
  equals a fresh ``TrajectoryStore.load()`` bit for bit after each;
* standing-query rankings are **bit-identical** to a from-scratch
  engine run over the same pool state at every point of an
  ingest/evict sequence, while re-scoring strictly fewer pairs than a
  full recompute.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import TrajectoryDatabase
from repro.core.engine import LinkEngine, LinkOptions
from repro.core.prefilter import TimeOverlapPrefilter
from repro.core.trajectory import Trajectory
from repro.errors import (
    RemoteServiceError,
    StaleIndexError,
    StoreFormatError,
    ValidationError,
)
from repro.geo.units import kph_to_mps
from repro.service.client import ServiceClient
from repro.service.server import BackgroundServer, ServerConfig
from repro.service.shard import _dispatch_op
from repro.service.state import Metrics, ServiceState
from repro.service.supervisor import ShardSupervisor
from repro.store import TrajectoryStore
from repro.store.stindex import SpatioTemporalIndex
from repro.stream import (
    DeltaLog,
    StreamIndexView,
    StreamRuntime,
    merge_index_deltas,
)
from repro.stream.standing import StandingQueryRegistry

RANKING = LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0)

#: Index parameters shared by main index and delta blocks in these tests.
PARAMS = {"cell_size_m": 5_000.0, "vmax_kph": 80.0, "reach_gap_s": 300.0}


def _reachable(query, candidate, vmax_kph, reach_gap_s) -> bool:
    """Brute force: any record pair with dt <= gap and dist <= vmax*dt."""
    vmax = kph_to_mps(vmax_kph)
    for tq, xq, yq in zip(query.ts, query.xs, query.ys):
        dt = np.abs(candidate.ts - tq)
        dist = np.hypot(candidate.xs - xq, candidate.ys - yq)
        if np.any((dt <= reach_gap_s) & (dist <= vmax * dt)):
            return True
    return False


def _random_traj(rng, n, traj_id, t_lo=0.0, t_hi=2000.0, extent=30_000.0):
    return Trajectory(
        np.sort(rng.uniform(t_lo, t_hi, n)),
        rng.uniform(-extent, extent, n),
        rng.uniform(-extent, extent, n),
        traj_id,
    )


def _random_db(rng, n_traj) -> TrajectoryDatabase:
    db = TrajectoryDatabase(name="stream-prop")
    for i in range(n_traj):
        db.add(_random_traj(rng, int(rng.integers(1, 6)), f"c{i}"))
    return db


def _flush_block(store, log, deltas):
    """Append ``deltas`` to the store and log the matching delta block."""
    store.append(deltas)
    return log.append_block(deltas, generation=store.generation, **PARAMS)


# ----------------------------------------------------------------------
# Delta log bookkeeping
# ----------------------------------------------------------------------
class TestDeltaLog:
    def test_block_roundtrip(self, rng, tmp_path):
        store = TrajectoryStore.create(tmp_path / "s", _random_db(rng, 3))
        store.build_index(**PARAMS)
        log = DeltaLog(store)
        assert log.entries() == []
        block = _flush_block(store, log, [_random_traj(rng, 4, "new0")])
        assert block is not None
        [(gen, kind, path)] = log.entries()
        assert (gen, kind) == (store.generation, "block")
        assert path.name == f"delta-{store.generation:06d}"
        assert log.covered_entries() == log.entries()
        view = StreamIndexView.open(store)
        assert view.n_blocks == 1
        assert "new0" in {str(i) for i in view.ids_for(store.load()["new0"])}

    def test_duplicate_block_generation_rejected(self, rng, tmp_path):
        store = TrajectoryStore.create(tmp_path / "s", _random_db(rng, 2))
        store.build_index(**PARAMS)
        log = DeltaLog(store)
        delta = _random_traj(rng, 3, "dup")
        _flush_block(store, log, [delta])
        with pytest.raises(ValidationError, match="already exists"):
            log.append_block([delta], generation=store.generation, **PARAMS)

    def test_empty_deltas_write_nothing(self, rng, tmp_path):
        store = TrajectoryStore.create(tmp_path / "s", _random_db(rng, 2))
        log = DeltaLog(store)
        assert log.append_block(
            [Trajectory.empty("hollow")], generation=7, **PARAMS
        ) is None
        assert log.entries() == []

    def test_eviction_marker_keeps_coverage_contiguous(self, rng, tmp_path):
        store = TrajectoryStore.create(tmp_path / "s", _random_db(rng, 3))
        store.build_index(**PARAMS)
        log = DeltaLog(store)
        _flush_block(store, log, [_random_traj(rng, 3, "n0")])
        assert store.expire_before(500.0) >= 0
        log.record_eviction(store.generation, 500.0)
        kinds = [kind for _gen, kind, _path in log.covered_entries()]
        assert kinds == ["block", "evict"]
        # the view opens fine across the eviction generation
        assert StreamIndexView.open(store).n_blocks == 1

    def test_coverage_gap_raises_stale(self, rng, tmp_path):
        store = TrajectoryStore.create(tmp_path / "s", _random_db(rng, 3))
        store.build_index(**PARAMS)
        # Out-of-band append: a generation with no block and no marker.
        store.append([_random_traj(rng, 3, "rogue")])
        with pytest.raises(StaleIndexError, match="does not cover"):
            DeltaLog(store).covered_entries()
        with pytest.raises(StaleIndexError):
            StreamIndexView.open(store)

    def test_no_main_index_raises_format_error(self, rng, tmp_path):
        store = TrajectoryStore.create(tmp_path / "s", _random_db(rng, 2))
        with pytest.raises(StoreFormatError, match="no blocking index"):
            DeltaLog(store).covered_entries()

    def test_prune_through_drops_folded_entries(self, rng, tmp_path):
        store = TrajectoryStore.create(tmp_path / "s", _random_db(rng, 2))
        store.build_index(**PARAMS)
        log = DeltaLog(store)
        _flush_block(store, log, [_random_traj(rng, 2, "a")])
        store.expire_before(100.0)
        log.record_eviction(store.generation, 100.0)
        assert log.prune_through(store.generation) == 2
        assert log.entries() == []


# ----------------------------------------------------------------------
# Union-probe superset contract (hypothesis)
# ----------------------------------------------------------------------
class TestUnionProbeSuperset:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_initial=st.integers(1, 5),
        n_flushes=st.integers(1, 3),
        min_overlap_s=st.sampled_from([0.0, 50.0, 400.0]),
        evict=st.booleans(),
    )
    def test_union_probe_never_drops_reachable_candidate(
        self, tmp_path_factory, seed, n_initial, n_flushes, min_overlap_s,
        evict,
    ):
        rng = np.random.default_rng(seed)
        root = tmp_path_factory.mktemp("union")
        store = TrajectoryStore.create(root / "s", _random_db(rng, n_initial))
        store.build_index(**PARAMS)
        log = DeltaLog(store)
        for flush in range(n_flushes):
            deltas = [_random_traj(rng, int(rng.integers(1, 5)),
                                   f"f{flush}")]
            if rng.random() < 0.5:
                # record delta onto an already-stored id: the merged
                # window, not either structure's own, must screen it.
                existing = str(rng.choice(list(store.load().ids())))
                deltas.append(_random_traj(
                    rng, int(rng.integers(1, 4)), existing
                ))
            _flush_block(store, log, deltas)
        if evict:
            before = store.generation
            store.expire_before(float(rng.uniform(0.0, 1500.0)))
            if store.generation != before:
                log.record_eviction(store.generation, 0.0)
        view = StreamIndexView.open(store)
        db = store.load()
        nq = int(rng.integers(1, 5))
        query = _random_traj(rng, nq, "q")
        kept = {str(i) for i in view.ids_for(query, min_overlap_s)}
        prefilter = TimeOverlapPrefilter(min_overlap_s)
        for candidate in db:
            required = prefilter.keep(query, candidate) and _reachable(
                query, candidate, PARAMS["vmax_kph"], PARAMS["reach_gap_s"]
            )
            if required:
                assert str(candidate.traj_id) in kept, (
                    f"union probe dropped reachable candidate "
                    f"{candidate.traj_id} (seed={seed}, flushes={n_flushes},"
                    f" evict={evict})"
                )

    def test_fully_evicted_id_filtered_at_probe_time(self, rng, tmp_path):
        early = Trajectory([0.0, 50.0], [0.0, 10.0], [0.0, 10.0], "early")
        late = Trajectory([900.0, 950.0], [0.0, 10.0], [0.0, 10.0], "late")
        store = TrajectoryStore.create(
            tmp_path / "s", TrajectoryDatabase([early, late], name="d")
        )
        store.build_index(**PARAMS)
        store.expire_before(500.0)
        DeltaLog(store).record_eviction(store.generation, 500.0)
        view = StreamIndexView.open(store)
        assert len(view) == 1
        probe = Trajectory([0.0, 1000.0], [0.0, 0.0], [0.0, 0.0], "q")
        assert {str(i) for i in view.ids_for(probe)} == {"late"}


# ----------------------------------------------------------------------
# Incremental merge
# ----------------------------------------------------------------------
class TestMergeIndexDeltas:
    def _grown_store(self, rng, root):
        store = TrajectoryStore.create(root / "s", _random_db(rng, 4))
        store.build_index(**PARAMS)
        log = DeltaLog(store)
        _flush_block(store, log, [_random_traj(rng, 4, "g0")])
        _flush_block(store, log, [
            _random_traj(rng, 3, "g1"),
            _random_traj(rng, 2, "c0"),  # record delta on a stored id
        ])
        store.expire_before(300.0)
        log.record_eviction(store.generation, 300.0)
        return store

    def test_merge_matches_full_rebuild_id_universe(self, rng, tmp_path):
        store = self._grown_store(rng, tmp_path)
        merged = merge_index_deltas(store)
        rebuilt = SpatioTemporalIndex.build(store.load(), **PARAMS)
        assert set(merged.id_list) == set(rebuilt.id_list)
        # Merged windows are conservative after eviction: per query the
        # merged index may admit extra candidates but never fewer.
        for query in store.load():
            assert set(map(str, rebuilt.ids_for(query))) <= set(
                map(str, merged.ids_for(query))
            )

    def test_merge_prunes_log_and_stamps_generation(self, rng, tmp_path):
        store = self._grown_store(rng, tmp_path)
        merge_index_deltas(store)
        assert DeltaLog(store).entries() == []
        # open_index validates the persisted generation against the store
        assert len(store.open_index()) == len(store.load())
        assert StreamIndexView.open(store).n_blocks == 0

    def test_merge_noop_when_already_current(self, rng, tmp_path):
        store = TrajectoryStore.create(tmp_path / "s", _random_db(rng, 3))
        store.build_index(**PARAMS)
        index = merge_index_deltas(store)
        assert set(index.id_list) == set(map(str, store.load().ids()))

    def test_merge_refuses_parameter_drift(self, rng, tmp_path):
        store = TrajectoryStore.create(tmp_path / "s", _random_db(rng, 2))
        store.build_index(**PARAMS)
        log = DeltaLog(store)
        store.append([_random_traj(rng, 3, "drift")])
        drifted = dict(PARAMS, cell_size_m=123.0)
        log.append_block([_random_traj(rng, 3, "drift")],
                         generation=store.generation, **drifted)
        with pytest.raises(StaleIndexError, match="parameters"):
            merge_index_deltas(store)


# ----------------------------------------------------------------------
# Sliding-window eviction semantics
# ----------------------------------------------------------------------
class TestExpireBoundary:
    def _store(self, tmp_path):
        traj = Trajectory([0.0, 100.0, 200.0], [0.0, 1.0, 2.0],
                          [0.0, 1.0, 2.0], "t")
        return TrajectoryStore.create(
            tmp_path / "s", TrajectoryDatabase([traj], name="d")
        )

    def test_record_at_exact_cutoff_survives(self, tmp_path):
        store = self._store(tmp_path)
        assert store.expire_before(100.0) == 1
        loaded = store.load()["t"]
        assert list(loaded.ts) == [100.0, 200.0]
        assert store.manifest.retain_after == 100.0

    def test_compact_materialises_drop_and_clears_watermark(self, tmp_path):
        store = self._store(tmp_path)
        store.expire_before(100.0)
        store.compact()
        assert store.manifest.retain_after == 0.0
        assert list(store.load()["t"].ts) == [100.0, 200.0]

    def test_runtime_evict_noop_below_watermark(self, tmp_path,
                                                fitted_models):
        mr, ma = fitted_models
        store = self._store(tmp_path)
        engine = LinkEngine(mr, ma, options=RANKING)
        pool = list(store.load())
        runtime = StreamRuntime(store, engine, pool, RANKING)
        assert runtime.evict_before(100.0) == 1
        gen = store.generation
        # watermark already covers this cutoff: no commit, no log entry
        assert runtime.evict_before(50.0) == 0
        assert store.generation == gen
        assert len(runtime.delta_log.entries()) == 1

    def test_runtime_evict_at_window_start_drops_nothing(self, tmp_path,
                                                         fitted_models):
        mr, ma = fitted_models
        store = self._store(tmp_path)
        engine = LinkEngine(mr, ma, options=RANKING)
        pool = list(store.load())
        runtime = StreamRuntime(store, engine, pool, RANKING)
        # cutoff exactly at the earliest record: nothing strictly older
        assert runtime.evict_before(0.0) == 0
        assert len(store.load()["t"]) == 3


# ----------------------------------------------------------------------
# Atomic flush pipeline: append + delta block under one critical section
# ----------------------------------------------------------------------
class TestAppendFlushAtomicity:
    def test_concurrent_flushes_keep_coverage_contiguous(
        self, rng, tmp_path, fitted_models
    ):
        """Racing session flushes must never mis-stamp a delta block.

        Before the store append moved inside the runtime lock, two
        concurrent flushes could both read the second append's
        generation: one block got the wrong stamp (or raised
        "already exists"), leaving a permanent coverage gap that turned
        every union-view open and background merge into a
        StaleIndexError.
        """
        mr, ma = fitted_models
        store = TrajectoryStore.create(tmp_path / "s", _random_db(rng, 3))
        store.build_index(**PARAMS)
        engine = LinkEngine(mr, ma, options=RANKING)
        pool = list(store.load())
        runtime = StreamRuntime(store, engine, pool, RANKING)
        n_threads = 8
        deltas = [
            [_random_traj(np.random.default_rng(i), 3, f"race{i}")]
            for i in range(n_threads)
        ]
        barrier = threading.Barrier(n_threads)
        errors: list[Exception] = []

        def flush(i):
            barrier.wait()
            try:
                runtime.append_flush(deltas[i])
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=flush, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        log = runtime.delta_log
        assert len(log.entries()) == n_threads
        # one block per committed generation, no gaps, distinct stamps
        assert log.covered_entries() == log.entries()
        gens = [gen for gen, _kind, _path in log.entries()]
        assert len(set(gens)) == n_threads
        view = StreamIndexView.open(store)
        assert view.n_blocks == n_threads
        assert {f"race{i}" for i in range(n_threads)} <= {
            str(t.traj_id) for t in pool
        }

    def test_append_flush_returns_count_and_skips_empty(
        self, rng, tmp_path, fitted_models
    ):
        mr, ma = fitted_models
        store = TrajectoryStore.create(tmp_path / "s", _random_db(rng, 2))
        store.build_index(**PARAMS)
        engine = LinkEngine(mr, ma, options=RANKING)
        runtime = StreamRuntime(store, engine, list(store.load()), RANKING)
        generation = store.generation
        assert runtime.append_flush([Trajectory.empty("void")]) == 0
        assert runtime.delta_log.entries() == []
        assert store.generation == generation
        assert runtime.append_flush([_random_traj(rng, 3, "fresh")]) == 3
        assert store.generation == generation + 1


# ----------------------------------------------------------------------
# The resident pool: patched in place, always equal to a fresh load()
# ----------------------------------------------------------------------
_POOL_IDS = [f"c{i}" for i in range(5)] + ["n0", "n1", "n2"]
_DELTA = st.tuples(
    st.sampled_from(_POOL_IDS), st.integers(1, 4), st.floats(0.0, 1.0)
)
_STEP = st.one_of(
    st.tuples(
        st.just("flush"),
        st.lists(_DELTA, min_size=1, max_size=4, unique_by=lambda d: d[0]),
    ),
    st.tuples(st.just("evict"), st.floats(0.0, 1.0)),
)


def _assert_pool_is_load(pool, store, where):
    _assert_same_pool(pool, list(store.load()), where)


def _assert_same_pool(pool, loaded, where):
    assert [t.traj_id for t in pool] == [t.traj_id for t in loaded], where
    for got, want in zip(pool, loaded):
        for col in ("ts", "xs", "ys"):
            a, b = getattr(got, col), getattr(want, col)
            assert a.dtype == b.dtype, (where, got.traj_id, col)
            assert a.tobytes() == b.tobytes(), (where, got.traj_id, col)


class _InlineShard:
    """A forked worker's op dispatch, run on the caller's thread over
    the worker's own state (its pool slice), with no fork or socket."""

    broken = False

    def __init__(self, state, shard_id):
        self.state, self.shard_id = state, shard_id

    def call(self, op, payload=None):
        return _dispatch_op(self.state, self.shard_id, op, payload)

    def close(self):
        pass


def _pool_store(root, rng):
    db = TrajectoryDatabase(name="pool-prop")
    for i in range(5):
        traj = _random_traj(rng, int(rng.integers(1, 6)), f"c{i}")
        db.add(Trajectory(np.round(traj.ts / 50.0) * 50.0, traj.xs,
                          traj.ys, traj.traj_id, sort=True))
    return TrajectoryStore.create(root / "s", db)


def _run_step(runtime, store, rng, kind, arg):
    watermark = store.manifest.retain_after
    if kind == "flush":
        deltas = []
        for traj_id, n, where in arg:
            lo = watermark - 300.0 + where * 2_000.0
            ts = np.round(rng.uniform(lo, lo + 400.0, n) / 50.0) * 50.0
            deltas.append(Trajectory(
                np.sort(ts), rng.uniform(-1e4, 1e4, n),
                rng.uniform(-1e4, 1e4, n), traj_id,
            ))
        runtime.append_flush(deltas)
    else:
        runtime.evict_before(watermark + arg * 1_500.0)


class TestResidentPoolMatchesLoad:
    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(_STEP, min_size=1, max_size=8),
           seed=st.integers(0, 2**16))
    def test_pool_is_bit_identical_to_load_after_every_step(
        self, tmp_path_factory, fitted_models, steps, seed
    ):
        """Random flush/evict schedules: reused ids (also after their
        full eviction), records behind the watermark, whole-trajectory
        eviction, new ids, and timestamps tied across deltas (rounded
        to 50 s) so the stable merge order is exercised."""
        mr, ma = fitted_models
        rng = np.random.default_rng(seed)
        store = _pool_store(tmp_path_factory.mktemp("pool"), rng)
        pool = list(store.load())
        runtime = StreamRuntime(
            store, LinkEngine(mr, ma, options=RANKING), pool, RANKING
        )
        for step, (kind, arg) in enumerate(steps):
            _run_step(runtime, store, rng, kind, arg)
            _assert_pool_is_load(pool, store, f"step {step}: {kind}")

    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(_STEP, min_size=1, max_size=8),
           seed=st.integers(0, 2**16))
    def test_shard_slices_are_owner_filtered_load_after_every_step(
        self, tmp_path_factory, fitted_models, steps, seed
    ):
        """The same schedules through a 2-shard supervisor: each
        worker's slice, patched by the delta broadcast, equals the
        owner-filtered ``load()`` in the same order, owners never move,
        and the slices together are the coordinator's pool.  A slice
        taken afresh (what a respawned worker forks with) equals the
        patched one, and after every step one shard continues from such
        a fresh slice."""
        mr, ma = fitted_models
        rng = np.random.default_rng(seed)
        store = _pool_store(tmp_path_factory.mktemp("slices"), rng)
        engine = LinkEngine(mr, ma, options=RANKING)
        state = ServiceState(
            engine=engine, pool=list(store.load()), options=RANKING,
            store=store,
        )
        sup = ShardSupervisor(state, 2, cell_size_m=5_000.0)
        workers = [sup._worker_state(sup.shard_pool(s)) for s in range(2)]
        sup._handles = [_InlineShard(w, s) for s, w in enumerate(workers)]
        runtime = StreamRuntime(
            store, engine, state.resident, RANKING, shards=sup
        )
        rank = state.resident.rank
        for step, (kind, arg) in enumerate(steps):
            pinned = dict(sup._owners)
            _run_step(runtime, store, rng, kind, arg)
            where = f"step {step}: {kind}"
            assert all(sup._owners[i] == s for i, s in pinned.items()), where
            loaded = list(store.load())
            _assert_same_pool(state.pool, loaded, where)
            for s, worker in enumerate(workers):
                owned = [
                    t for t in loaded if sup._owners[str(t.traj_id)] == s
                ]
                _assert_same_pool(worker.pool, owned, f"{where}, shard {s}")
                _assert_same_pool(
                    sup.shard_pool(s).trajectories, worker.pool, where
                )
            together = sorted(
                (t for worker in workers for t in worker.pool),
                key=lambda t: rank[str(t.traj_id)],
            )
            _assert_same_pool(together, state.pool, where)
            respawned = step % 2
            workers[respawned] = sup._worker_state(sup.shard_pool(respawned))
            sup._handles[respawned] = _InlineShard(workers[respawned], respawned)

    def test_watch_readers_race_pool_updates(
        self, tmp_path, fitted_models, small_pair
    ):
        """Snapshots read the pool's views without the runtime lock
        while flushes and evictions patch them; more readers than cores
        and a short switch interval must surface no error, and the end
        state must still match a fresh load and a fresh link."""
        mr, ma = fitted_models
        ids = sorted(str(t.traj_id) for t in small_pair.q_db)[:6]
        store = TrajectoryStore.create(
            tmp_path / "s", [small_pair.q_db[i] for i in ids]
        )
        pool = list(store.load())
        runtime = StreamRuntime(
            store, LinkEngine(mr, ma, options=RANKING), pool, RANKING
        )
        query = small_pair.p_db[sorted(small_pair.truth)[0]]
        runtime.register_query(query, query_id="q")
        t_lo = min(float(t.ts[0]) for t in pool)
        t_hi = max(float(t.ts[-1]) for t in pool)
        rng = np.random.default_rng(7)
        stop = threading.Event()
        errors: list[Exception] = []

        def reader():
            while not stop.is_set():
                try:
                    runtime.registry.snapshot("q")
                except Exception as exc:  # noqa: BLE001 - collected
                    errors.append(exc)
                    return

        readers = [threading.Thread(target=reader) for _ in range(4)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            for step in range(12):
                if step % 4 == 3:
                    runtime.evict_before(
                        t_lo + (step + 1) * (t_hi - t_lo) / 40.0
                    )
                    continue
                target = ids[step % len(ids)] if step % 2 else f"new{step}"
                runtime.append_flush([
                    _random_traj(rng, 3, target, t_lo=t_lo, t_hi=t_hi)
                ])
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in readers)
        assert errors == []
        _assert_pool_is_load(pool, store, "after the race")
        assert runtime.registry.snapshot("q")["ranking"] == _fresh_ranking(
            fitted_models, query, RANKING, list(store.load())
        )

    def test_failed_pipeline_reloads_pool_from_store(
        self, tmp_path, fitted_models, small_pair, monkeypatch
    ):
        """A flush whose pipeline fails after the append committed
        reloads the pool from the store, and later deltas apply on top
        of the reloaded pool."""
        mr, ma = fitted_models
        ids = sorted(str(t.traj_id) for t in small_pair.q_db)[:6]
        store = TrajectoryStore.create(
            tmp_path / "s", [small_pair.q_db[i] for i in ids]
        )
        pool = list(store.load())
        metrics = Metrics()
        runtime = StreamRuntime(
            store, LinkEngine(mr, ma, options=RANKING), pool, RANKING,
            metrics=metrics,
        )
        query = small_pair.p_db[sorted(small_pair.truth)[0]]
        runtime.register_query(query, query_id="q")
        t0 = float(query.ts[0])

        def delta(traj_id, dt):
            return Trajectory([t0 + dt, t0 + dt + 60.0], [0.0, 5.0],
                              [0.0, 5.0], traj_id)

        def broken(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(runtime.delta_log, "append_block", broken)
        flushed = runtime.append_flush(
            [delta(ids[0], 0.0), delta("fresh", 30.0)]
        )
        assert flushed == 4
        assert metrics.counter("stream_flush_pipeline_errors_total") == 1
        _assert_pool_is_load(pool, store, "after the failed pipeline")
        monkeypatch.undo()
        runtime.append_flush([delta("fresh", 90.0), delta("later", 0.0)])
        _assert_pool_is_load(pool, store, "after the next flush")
        assert runtime.registry.snapshot("q")["ranking"] == _fresh_ranking(
            fitted_models, query, RANKING, list(store.load())
        )


def _fresh_ranking(fitted_models, query, options, pool):
    """A from-scratch engine run (no warm caches) in wire form."""
    mr, ma = fitted_models
    engine = LinkEngine(mr, ma, options=options)
    result = engine.link_batch([query], pool)[0]
    return [c.to_dict() for c in result.candidates]


class TestStandingBitIdentity:
    def _runtime(self, fitted_models, small_pair, root, metrics=None):
        mr, ma = fitted_models
        ids = sorted(str(t.traj_id) for t in small_pair.q_db)[:6]
        store = TrajectoryStore.create(
            root / "s", [small_pair.q_db[i] for i in ids]
        )
        engine = LinkEngine(mr, ma, options=RANKING)
        pool = list(store.load())
        runtime = StreamRuntime(
            store, engine, pool, RANKING, metrics=metrics
        )
        return store, pool, runtime

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 1_000))
    def test_rankings_match_fresh_engine_at_every_step(
        self, tmp_path_factory, fitted_models, small_pair, seed
    ):
        rng = np.random.default_rng(seed)
        root = tmp_path_factory.mktemp("bitid")
        store, pool, runtime = self._runtime(fitted_models, small_pair, root)
        queries = [
            small_pair.p_db[qid]
            for qid in sorted(small_pair.truth)[:2]
        ]
        topk = RANKING.with_updates(top_k=3)
        runtime.register_query(queries[0], query_id="full")
        runtime.register_query(queries[1], query_id="topk", options=topk)
        t_lo = min(float(t.ts[0]) for t in pool)
        t_hi = max(float(t.ts[-1]) for t in pool)
        for step in range(3):
            if rng.random() < 0.7:
                # flush: record deltas onto existing ids plus one new id
                target = str(rng.choice([t.traj_id for t in pool]))
                deltas = [
                    _random_traj(rng, 3, target, t_lo=t_lo, t_hi=t_hi),
                    _random_traj(rng, 2, f"new{step}", t_lo=t_lo, t_hi=t_hi),
                ]
                store.append(deltas)
                runtime.after_flush(deltas)
            else:
                cutoff = float(rng.uniform(t_lo, t_lo + (t_hi - t_lo) / 3))
                runtime.evict_before(cutoff)
            current = list(store.load())
            snap_full = runtime.registry.snapshot("full")
            assert snap_full["ranking"] == _fresh_ranking(
                fitted_models, queries[0], RANKING, current
            ), f"full ranking diverged at step {step} (seed={seed})"
            snap_topk = runtime.registry.snapshot("topk")
            assert snap_topk["ranking"] == _fresh_ranking(
                fitted_models, queries[1], topk, current
            ), f"top-k ranking diverged at step {step} (seed={seed})"

    def test_rescores_strictly_fewer_pairs_than_full_recompute(
        self, fitted_models, small_pair, tmp_path
    ):
        metrics = Metrics()
        store, pool, runtime = self._runtime(
            fitted_models, small_pair, tmp_path, metrics=metrics
        )
        query = small_pair.p_db[sorted(small_pair.truth)[0]]
        runtime.register_query(query, query_id="q")
        # A flush touching exactly one candidate, inside the query's
        # window: the dilated probe names that id, never the whole pool.
        lone = str(pool[0].traj_id)
        t0 = float(query.ts[0])
        deltas = [Trajectory(
            [t0, t0 + 60.0], [0.0, 5.0], [0.0, 5.0], lone
        )]
        store.append(deltas)
        runtime.after_flush(deltas)
        rescored = metrics.counter("standing_rescored_pairs_total")
        n_updates = runtime.registry.counts()["n_updates"]
        assert n_updates == 1 and rescored >= 1
        full_equivalent = n_updates * len(store.load())
        assert rescored < full_equivalent, (
            f"incremental path re-scored {rescored} pairs, full recompute "
            f"would be {full_equivalent}"
        )
        assert metrics.counter("stream_flushes_total") == 1

    def test_top_member_full_eviction_drops_it_from_ranking(
        self, fitted_models, tmp_path
    ):
        mr, ma = fitted_models
        # "self" is the query's own records: it ranks first.  All of its
        # records predate the cutoff while "other" survives.
        self_t = Trajectory(
            [0.0, 60.0, 120.0], [0.0, 50.0, 100.0], [0.0, 50.0, 100.0],
            "self",
        )
        other = Trajectory(
            [500.0, 560.0], [4_000.0, 4_050.0], [0.0, 50.0], "other"
        )
        store = TrajectoryStore.create(
            tmp_path / "s", TrajectoryDatabase([self_t, other], name="d")
        )
        engine = LinkEngine(mr, ma, options=RANKING)
        pool = list(store.load())
        runtime = StreamRuntime(store, engine, pool, RANKING)
        query = Trajectory(self_t.ts, self_t.xs, self_t.ys, "q")
        options = RANKING.with_updates(top_k=1)
        snap = runtime.register_query(query, query_id="w", options=options)
        assert [c["candidate_id"] for c in snap["ranking"]] == ["self"]
        runtime.evict_before(200.0)
        snap = runtime.registry.snapshot("w")
        assert snap["ranking"] == _fresh_ranking(
            fitted_models, query, options, list(store.load())
        )
        assert all(c["candidate_id"] != "self" for c in snap["ranking"])


# ----------------------------------------------------------------------
# Watch event buffers: resume, resync, timeout
# ----------------------------------------------------------------------
class TestWatchEvents:
    def _registry(self, fitted_models, small_pair, event_buffer=2):
        mr, ma = fitted_models
        engine = LinkEngine(mr, ma, options=RANKING)
        pool = list(small_pair.q_db)[:4]
        registry = StandingQueryRegistry(
            engine, pool, RANKING, horizon_s=engine.config.horizon_s,
            event_buffer=event_buffer,
        )
        query = small_pair.p_db[sorted(small_pair.truth)[0]]
        registry.register(query, query_id="w")
        return registry, pool

    def test_resume_returns_only_new_events(self, fitted_models, small_pair):
        registry, pool = self._registry(fitted_models, small_pair,
                                        event_buffer=16)
        got = registry.wait_events("w", since=0)
        assert [e["seq"] for e in got["events"]] == [1]
        assert not got["resync"]
        registry.apply_update(evicted_ids=[str(pool[0].traj_id)])
        got = registry.wait_events("w", since=1)
        assert [e["seq"] for e in got["events"]] == [2]
        assert got["events"][0]["kind"] == "update"
        assert registry.wait_events("w", since=got["seq"])["events"] == []

    def test_stale_cursor_gets_resync_snapshot(self, fitted_models,
                                               small_pair):
        registry, pool = self._registry(fitted_models, small_pair,
                                        event_buffer=2)
        for _ in range(4):  # overflow the 2-event buffer
            registry.apply_update(evicted_ids=[str(pool[0].traj_id)])
        got = registry.wait_events("w", since=1)
        assert got["resync"]
        [snapshot] = got["events"]
        assert snapshot["kind"] == "snapshot"
        assert snapshot["seq"] == got["seq"] == 5

    def test_longpoll_wakes_on_update(self, fitted_models, small_pair):
        registry, pool = self._registry(fitted_models, small_pair,
                                        event_buffer=16)
        results = []

        def waiter():
            results.append(registry.wait_events("w", since=1, timeout_s=30.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        registry.apply_update(evicted_ids=[str(pool[0].traj_id)])
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert [e["seq"] for e in results[0]["events"]] == [2]

    def test_unknown_query_rejected(self, fitted_models, small_pair):
        registry, _pool = self._registry(fitted_models, small_pair)
        with pytest.raises(ValidationError, match="unknown standing query"):
            registry.wait_events("nope", since=0)

    def test_close_wakes_parked_watcher(self, fitted_models, small_pair):
        # Daemon drain: close() must release long-polls immediately
        # instead of letting them run out their full wait_ms.
        registry, _pool = self._registry(fitted_models, small_pair,
                                         event_buffer=16)
        results = []

        def waiter():
            results.append(registry.wait_events("w", since=1, timeout_s=30.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        registry.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert results[0]["events"] == []


# ----------------------------------------------------------------------
# End to end over HTTP: /v1/queries + /v1/watch on a store-backed daemon
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stream_engine(fitted_models):
    mr, ma = fitted_models
    return LinkEngine(mr, ma, options=RANKING)


@pytest.fixture()
def stream_server(stream_engine, small_pair, tmp_path):
    ids = sorted(str(t.traj_id) for t in small_pair.q_db)[:6]
    store = TrajectoryStore.create(
        tmp_path / "watch-store", [small_pair.q_db[i] for i in ids]
    )
    pool = list(store.load())
    config = ServerConfig(port=0, max_wait_ms=1.0, session_ttl_s=3600.0)
    with BackgroundServer(stream_engine, pool, config=config,
                          store=store) as background:
        yield background


class TestWatchEndToEnd:
    def test_register_flush_watch_evict_roundtrip(self, stream_server,
                                                  small_pair):
        query = small_pair.p_db[sorted(small_pair.truth)[0]]
        near = [
            (float(t), float(x), float(y))
            for t, x, y in zip(query.ts[:3], query.xs[:3], query.ys[:3])
        ]
        with ServiceClient(*stream_server.address) as c:
            snap = c.register_query(query, query_id="q0")
            assert snap["seq"] == 1
            assert [q["query_id"] for q in c.queries()] == ["q0"]

            c.ingest("sess", candidate_records={"cX": near},
                     decide=False, flush=True)
            got = c.watch("q0", since=1, wait_ms=5_000)
            assert got["seq"] == 2 and not got["resync"]
            [event] = got["events"]
            assert event["kind"] == "update"
            assert "cX" in event["changed"]
            # acceptance invariant on the wire: the standing ranking is
            # bit-identical to a from-scratch /v1/link right now
            linked = c.link(query)
            assert event["ranking"] == [
                cand.to_dict() for cand in linked.candidates
            ]

            # a cutoff just past the pool's earliest record is
            # guaranteed to evict something, so seq must advance
            ids = sorted(str(t.traj_id) for t in small_pair.q_db)[:6]
            t0 = min(float(small_pair.q_db[i].ts[0]) for i in ids)
            c.ingest("sess", expire_before=t0 + 0.5, decide=False)
            got = c.watch("q0", since=2, wait_ms=5_000)
            assert got["seq"] == 3

            health = c.healthz()
            assert health["standing_queries"] == 1
            assert health["index_delta_blocks"] >= 1
            text = c.metrics_text()
            assert "ftl_standing_queries 1" in text
            assert "ftl_standing_staleness_seconds_count" in text
            assert "ftl_stream_flushes_total 1" in text

            assert c.unregister_query("q0")["removed"] is True
            assert c.queries() == []
            assert c.unregister_query("q0")["removed"] is False

    def test_watch_unknown_query_is_structured_400(self, stream_server):
        with ServiceClient(*stream_server.address) as c:
            with pytest.raises(RemoteServiceError) as err:
                c.watch("ghost")
            assert err.value.status == 400
            assert err.value.payload["error"]["type"] == "ValidationError"

    def test_standing_queries_need_store_backed_daemon(self, stream_engine,
                                                       small_pair):
        pool = list(small_pair.q_db)[:4]
        config = ServerConfig(port=0, max_wait_ms=1.0)
        query = small_pair.p_db[sorted(small_pair.truth)[0]]
        with BackgroundServer(stream_engine, pool, config=config) as server:
            with ServiceClient(*server.address) as c:
                with pytest.raises(RemoteServiceError) as err:
                    c.register_query(query, query_id="q")
                assert err.value.status == 409
                assert "--store" in err.value.payload["error"]["message"]

    def test_bad_watch_params_rejected(self, stream_server):
        with ServiceClient(*stream_server.address) as c:
            status_codes = []
            for path in ("/v1/watch", "/v1/watch?query=q&since=x",
                         "/v1/watch?query=q&wait_ms=-1"):
                with pytest.raises(RemoteServiceError) as err:
                    c.request("GET", path)
                status_codes.append(err.value.status)
            assert status_codes == [400, 400, 400]
