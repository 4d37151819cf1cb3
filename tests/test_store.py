"""The mmap-backed trajectory store: round trips, appends, crash safety.

Includes the acceptance-criteria tests: engine results over a
store-backed database are bit-identical to the CSV path, and a
CSV-round-tripped database survives the store unchanged at float64
precision.
"""

import json

import numpy as np
import pytest

from repro.core.database import TrajectoryDatabase
from repro.core.engine import LinkEngine, LinkOptions
from repro.core.trajectory import Trajectory
from repro.errors import (
    StaleIndexError,
    StoreFormatError,
    ValidationError,
)
from repro.io.csv_io import read_trajectories_csv, write_trajectories_csv
from repro.io.registry import detect_format, load_database, save_database
from repro.store import TrajectoryStore, build_store, open_store
from repro.store.format import MANIFEST_NAME, read_manifest


@pytest.fixture
def db() -> TrajectoryDatabase:
    rng = np.random.default_rng(42)
    trajs = []
    for i in range(6):
        n = 8 + i
        ts = np.sort(rng.uniform(0, 5e4, n))
        trajs.append(
            Trajectory(ts, rng.uniform(0, 2e4, n), rng.uniform(0, 2e4, n),
                       f"t{i}")
        )
    return TrajectoryDatabase(trajs, name="demo")


def _memmap_backed(arr: np.ndarray) -> bool:
    base = arr
    while base is not None and not isinstance(base, np.memmap):
        base = base.base
    return isinstance(base, np.memmap)


def assert_dbs_identical(a: TrajectoryDatabase, b: TrajectoryDatabase) -> None:
    assert sorted(map(str, a.ids())) == sorted(map(str, b.ids()))
    for traj in a:
        other = b[str(traj.traj_id)]
        assert np.array_equal(traj.ts, other.ts)
        assert np.array_equal(traj.xs, other.xs)
        assert np.array_equal(traj.ys, other.ys)


class TestRoundTrip:
    def test_create_load_identical(self, db, tmp_path):
        store = build_store(tmp_path / "s", db)
        loaded = store.load()
        assert_dbs_identical(db, loaded)
        assert loaded.name == "demo"
        assert store.generation == 1

    def test_load_is_zero_copy(self, db, tmp_path):
        store = build_store(tmp_path / "s", db)
        loaded = open_store(tmp_path / "s").load()
        for traj in loaded:
            assert _memmap_backed(traj.ts)
            assert _memmap_backed(traj.xs)
            assert _memmap_backed(traj.ys)
        assert store.stats().n_records == db.total_records()

    def test_csv_round_trip_through_store(self, db, tmp_path):
        """CSV -> store -> load is bit-identical to CSV -> memory."""
        csv_path = tmp_path / "db.csv"
        write_trajectories_csv(db, csv_path)
        parsed = read_trajectories_csv(csv_path, name="demo")
        store = build_store(tmp_path / "s", parsed)
        assert_dbs_identical(parsed, store.load())

    def test_create_refuses_existing_store(self, db, tmp_path):
        build_store(tmp_path / "s", db)
        with pytest.raises(ValidationError, match="already exists"):
            TrajectoryStore.create(tmp_path / "s", db)

    def test_create_refuses_nonempty_dir(self, db, tmp_path):
        target = tmp_path / "junk"
        target.mkdir()
        (target / "unrelated.txt").write_text("x")
        with pytest.raises(ValidationError, match="not empty"):
            TrajectoryStore.create(target, db)

    def test_empty_store(self, tmp_path):
        store = TrajectoryStore.create(tmp_path / "s")
        assert len(store.load()) == 0
        assert store.stats().n_records == 0

    def test_future_format_version_rejected(self, db, tmp_path):
        build_store(tmp_path / "s", db)
        manifest_path = tmp_path / "s" / MANIFEST_NAME
        doc = json.loads(manifest_path.read_text())
        doc["format_version"] = 99
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(StoreFormatError, match="version"):
            open_store(tmp_path / "s")


class TestAppendCompact:
    def test_append_new_ids(self, db, tmp_path):
        store = build_store(tmp_path / "s", db)
        extra = Trajectory([1.0, 2.0], [3.0, 4.0], [5.0, 6.0], "new")
        assert store.append([extra]) == 2
        assert store.generation == 2
        loaded = store.load()
        assert len(loaded) == len(db) + 1
        assert np.array_equal(loaded["new"].ts, [1.0, 2.0])

    def test_append_delta_merges_on_read(self, db, tmp_path):
        store = build_store(tmp_path / "s", db)
        base = db["t0"]
        delta = Trajectory([base.ts[0] - 10.0], [7.0], [8.0], "t0")
        store.append([delta])
        merged = store.load()["t0"]
        assert len(merged) == len(base) + 1
        assert merged.ts[0] == base.ts[0] - 10.0
        assert np.all(np.diff(merged.ts) >= 0)

    def test_append_rejects_duplicate_ids_in_batch(self, db, tmp_path):
        store = build_store(tmp_path / "s", db)
        t = Trajectory([1.0], [2.0], [3.0], "dup")
        with pytest.raises(ValidationError, match="duplicate"):
            store.append([t, t])

    def test_append_rejects_anonymous_trajectories(self, db, tmp_path):
        store = build_store(tmp_path / "s", db)
        with pytest.raises(ValidationError, match="non-None id"):
            store.append([Trajectory([1.0], [2.0], [3.0])])

    def test_compact_restores_single_segment_zero_copy(self, db, tmp_path):
        store = build_store(tmp_path / "s", db)
        store.append([Trajectory([1.0], [2.0], [3.0], "t0")])
        before = store.load()
        stats = store.compact()
        assert stats.n_segments == 1
        after = store.load()
        assert_dbs_identical(before, after)
        assert _memmap_backed(after["t0"].ts)

    def test_compact_preserves_and_refreshes_index(self, db, tmp_path):
        store = build_store(tmp_path / "s", db)
        store.build_index(reach_gap_s=600.0, vmax_kph=80.0)
        store.append([Trajectory([1.0], [2.0], [3.0], "t0")])
        with pytest.raises(StaleIndexError):
            store.open_index()
        store.compact()
        index = store.open_index()
        assert index.reach_gap_s == 600.0
        assert index.vmax_kph == 80.0
        assert len(index) == len(db)

    def test_load_order_is_first_seen_across_appends_and_compact(
        self, db, tmp_path
    ):
        """Ids keep the position of their first delta: a delta onto a
        stored id never moves it, unseen ids go last, an id whose first
        records are evicted keeps its place, and compact keeps it all."""
        store = build_store(tmp_path / "s", db)
        first = [str(i) for i in db.ids()]
        store.append([
            Trajectory([1.0], [2.0], [3.0], "n1"),
            Trajectory([4.0], [5.0], [6.0], "t3"),
        ])
        store.append([
            Trajectory([7.0], [8.0], [9.0], "t0"),
            Trajectory([5e4 + 1.0], [1.0], [1.0], "n2"),
            Trajectory([5e4 + 2.0], [1.0], [1.0], "n1"),
        ])
        expected = first + ["n1", "n2"]
        assert [str(t.traj_id) for t in store.load()] == expected
        assert store.ids() == expected
        # Every record of the fixture and of the first append ages out.
        # n1 still comes first: it was first seen a segment before n2,
        # although its surviving records sit after n2's in the last one.
        assert all(float(t.ts[-1]) < 5e4 for t in db)
        store.expire_before(5e4)
        survivors = ["n1", "n2"]
        assert [str(t.traj_id) for t in store.load()] == survivors
        before = store.load()
        store.compact()
        after = store.load()
        assert [str(t.traj_id) for t in after] == survivors
        assert_dbs_identical(before, after)


class TestCrashSafety:
    def test_interrupted_append_keeps_last_snapshot(self, db, tmp_path,
                                                    monkeypatch):
        store = build_store(tmp_path / "s", db)
        generation = store.generation

        def crash(manifest):
            raise OSError("simulated crash before manifest swap")

        monkeypatch.setattr(store, "_commit", crash)
        with pytest.raises(OSError, match="simulated crash"):
            store.append([Trajectory([1.0], [2.0], [3.0], "late")])
        # The segment hit disk, but the manifest never referenced it:
        # a fresh open serves the old snapshot.
        reopened = open_store(tmp_path / "s")
        assert reopened.generation == generation
        assert_dbs_identical(db, reopened.load())
        assert "late" not in reopened.load()

    def test_orphan_segments_are_garbage_collected(self, db, tmp_path,
                                                   monkeypatch):
        store = build_store(tmp_path / "s", db)
        monkeypatch.setattr(store, "_commit", lambda m: (_ for _ in ()).throw(
            OSError("crash")))
        with pytest.raises(OSError):
            store.append([Trajectory([1.0], [2.0], [3.0], "late")])
        monkeypatch.undo()
        orphans = [
            child.name
            for child in (tmp_path / "s").iterdir()
            if child.is_dir() and child.name.startswith("seg-")
        ]
        assert len(orphans) == 2  # live + orphan
        reopened = open_store(tmp_path / "s")
        reopened.append([Trajectory([9.0], [9.0], [9.0], "ok")])
        remaining = {
            child.name
            for child in (tmp_path / "s").iterdir()
            if child.is_dir() and child.name.startswith("seg-")
        }
        live = {info.dirname for info in reopened.manifest.segments}
        assert remaining == live

    def test_torn_segment_file_detected(self, db, tmp_path):
        build_store(tmp_path / "s", db)
        manifest = read_manifest(tmp_path / "s")
        seg = tmp_path / "s" / manifest.segments[0].dirname
        ts_path = seg / "ts.f64"
        ts_path.write_bytes(ts_path.read_bytes()[:-8])
        with pytest.raises(StoreFormatError, match="bytes"):
            open_store(tmp_path / "s").load()


class TestEngineBitIdentity:
    def test_link_results_identical_csv_vs_store(
        self, small_pair, fitted_models, tmp_path
    ):
        """The acceptance criterion: same bits either way into the engine."""
        mr, ma = fitted_models
        csv_path = tmp_path / "q.csv"
        write_trajectories_csv(small_pair.q_db, csv_path)
        csv_db = read_trajectories_csv(csv_path, name="Q")
        store_db = build_store(tmp_path / "q-store", csv_db).load()

        options = LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0)
        queries = [
            small_pair.p_db[qid] for qid in sorted(small_pair.truth)[:3]
        ]
        via_csv = LinkEngine(mr, ma, options=options).link_batch(
            queries, list(csv_db)
        )
        via_store = LinkEngine(mr, ma, options=options).link_batch(
            queries, list(store_db)
        )
        assert via_csv == via_store


class TestRegistryIntegration:
    def test_store_detected_and_round_tripped(self, db, tmp_path):
        target = tmp_path / "reg-store"
        written = save_database(db, target, fmt="store")
        assert written == db.total_records()
        assert detect_format(target) == "store"
        assert_dbs_identical(db, load_database(target))

    def test_save_to_existing_store_appends(self, db, tmp_path):
        target = tmp_path / "reg-store"
        save_database(db, target, fmt="store")
        extra = TrajectoryDatabase(
            [Trajectory([1.0], [2.0], [3.0], "extra")], name="demo"
        )
        save_database(extra, target)
        assert "extra" in load_database(target)


class TestDatabaseFromStore:
    def test_from_store_accepts_handle_and_path(self, db, tmp_path):
        store = build_store(tmp_path / "s", db)
        via_handle = TrajectoryDatabase.from_store(store)
        via_path = TrajectoryDatabase.from_store(tmp_path / "s")
        assert_dbs_identical(via_handle, via_path)
        assert TrajectoryDatabase.from_store(store, name="other").name == "other"


class TestBenchSmoke:
    def test_store_bench_smoke(self, tmp_path):
        """Tiny-size run of the store benchmark, emitting BENCH_store.json."""
        from benchmarks.bench_store_scale import run_store_scale_benchmark

        out = tmp_path / "BENCH_store.json"
        report = run_store_scale_benchmark(
            sizes=(64,), n_queries=5, repeats=1, seed=3,
            work_dir=tmp_path, out_path=out,
        )
        written = json.loads(out.read_text())
        row = written["sizes"]["64"]
        assert row["n_trajectories"] == 64
        assert report["sizes"]["64"]["recall_spatiotemporal"] == 1.0
        assert row["mean_kept_spatiotemporal"] <= row["mean_kept_temporal"]
        assert row["store_open_s"] > 0.0


class TestModelArtifacts:
    """Versioned Mr/Ma artifacts: persistence, identity, compatibility."""

    @pytest.fixture
    def config(self):
        from repro.config import FTLConfig

        return FTLConfig()

    def _fit(self, db, config, seed=0):
        from repro.store import fit_model_artifact

        return fit_model_artifact(
            [db], config, np.random.default_rng(seed), fitted_at=123.0
        )

    def test_fit_persist_reopen_bit_identical_ranking(
        self, db, tmp_path, config
    ):
        """The acceptance-criteria core: a persisted artifact serves the
        exact ranking of the in-memory fit it came from."""
        store = build_store(tmp_path / "s", db)
        artifact = self._fit(db, config)
        store.save_model(artifact, created_at=1.0, activate=True)

        reopened = open_store(tmp_path / "s")
        assert reopened.active_model_id == artifact.artifact_id
        loaded = reopened.load_model()
        assert loaded.artifact_id == artifact.artifact_id
        assert loaded.config == config

        pool = [t for t in db if str(t.traj_id) != "t0"]
        query = db["t0"]
        fresh = LinkEngine(artifact.rejection, artifact.acceptance)
        persisted = LinkEngine(loaded.rejection, loaded.acceptance)
        a = fresh.link(query, pool)
        b = persisted.link(query, pool)
        assert [c.candidate_id for c in a.candidates] == [
            c.candidate_id for c in b.candidates
        ]
        assert [c.score for c in a.candidates] == [
            c.score for c in b.candidates
        ]

    def test_save_is_idempotent_and_generation_stable(
        self, db, tmp_path, config
    ):
        store = build_store(tmp_path / "s", db)
        generation = store.generation
        artifact = self._fit(db, config)
        first = store.save_model(artifact, created_at=1.0)
        again = store.save_model(artifact, created_at=2.0)
        assert first.artifact_id == again.artifact_id
        assert len(store.list_models()) == 1
        # Registering a model must not invalidate the data snapshot:
        # the generation (which the blocking index and shard-plan
        # drift detection pin) stays put.
        store.activate_model(artifact.artifact_id)
        assert store.generation == generation

    def test_previous_format_manifest_loads_cleanly(self, db, tmp_path):
        """A v1 manifest (no model keys at all) opens with an empty
        model registry, and saving upgrades the format version."""
        store = build_store(tmp_path / "s", db)
        manifest_path = tmp_path / "s" / MANIFEST_NAME
        obj = json.loads(manifest_path.read_text())
        obj["format_version"] = 1
        obj.pop("models", None)
        obj.pop("active_model", None)
        manifest_path.write_text(json.dumps(obj))

        reopened = open_store(tmp_path / "s")
        assert reopened.manifest.format_version == 1
        assert reopened.list_models() == ()
        assert reopened.active_model_id is None
        assert_dbs_identical(
            TrajectoryDatabase(reopened.load()), db
        )
        with pytest.raises(ValidationError):
            reopened.load_model()

        from repro.config import FTLConfig
        from repro.store.format import FORMAT_VERSION

        artifact = self._fit(db, FTLConfig())
        reopened.save_model(artifact, created_at=1.0, activate=True)
        assert (
            json.loads(manifest_path.read_text())["format_version"]
            == FORMAT_VERSION
        )
        assert open_store(tmp_path / "s").load_model().artifact_id \
            == artifact.artifact_id

    def test_tampered_payload_is_detected(self, db, tmp_path, config):
        from repro.store.format import MODELS_DIR

        store = build_store(tmp_path / "s", db)
        artifact = self._fit(db, config)
        info = store.save_model(artifact, created_at=1.0, activate=True)
        path = tmp_path / "s" / MODELS_DIR / info.filename
        payload = json.loads(path.read_text())
        payload["rejection"]["total"][0] += 1
        path.write_text(json.dumps(payload))
        with pytest.raises((ValidationError, StoreFormatError)) as err:
            open_store(tmp_path / "s").load_model()
        assert "hash" in str(err.value)

    def test_unknown_artifact_ids_rejected(self, db, tmp_path, config):
        store = build_store(tmp_path / "s", db)
        with pytest.raises(ValidationError):
            store.activate_model("m-deadbeef00000000")
        with pytest.raises(ValidationError):
            store.load_model("m-deadbeef00000000")

    def test_refit_gets_new_identity(self, db, tmp_path, config):
        from repro.store import diff_artifacts, fit_model_artifact

        store = build_store(tmp_path / "s", db)
        a = self._fit(db, config)
        # With 6 trajectories the pair universe is fully enumerated, so
        # a different seed alone would refit identically; cap the pair
        # budget to actually change the acceptance counts.
        b = fit_model_artifact(
            [db], config, np.random.default_rng(99),
            max_pairs=3, fitted_at=456.0,
        )
        store.save_model(a, created_at=1.0, activate=True)
        store.save_model(b, created_at=2.0)
        assert a.artifact_id != b.artifact_id
        assert store.active_model_id == a.artifact_id
        assert len(store.list_models()) == 2
        diff = diff_artifacts(a, b)
        assert not diff["identical"]
        assert diff["config_diff"] == {}
        assert diff["max_abs_prob_delta"]["rejection"] >= 0.0

    def test_provenance_pins_dataset_and_config(self, db, tmp_path, config):
        store = build_store(tmp_path / "s", db)
        artifact = self._fit(db, config)
        store.save_model(artifact, created_at=1.0, activate=True)
        loaded = open_store(tmp_path / "s").load_model()
        from repro.store import dataset_content_hash

        assert loaded.provenance.dataset_hash == dataset_content_hash([db])
        assert loaded.provenance.n_trajectories == len(db)
        assert loaded.provenance.fitted_at == 123.0
        assert loaded.summary()["config"] == config.to_dict()
