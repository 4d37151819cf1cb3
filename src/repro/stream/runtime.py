"""The streaming pipeline glue between the store and a serving daemon.

:class:`StreamRuntime` owns the per-daemon streaming state: the store's
:class:`~repro.stream.deltas.DeltaLog`, the
:class:`~repro.stream.standing.StandingQueryRegistry`, and the
background-merge policy.  The service layer calls exactly these hooks:

* :meth:`append_flush` — appends an ingest session's record deltas to
  the store **and** runs the incremental pipeline (delta block, pool
  refresh, targeted profile-cache invalidation, standing-query
  re-scoring) atomically under the runtime locks, so a concurrent
  flush or eviction can never stamp a delta block with another
  commit's generation.  (:meth:`after_flush` is the low-level form for
  callers that already appended — single-threaded tests and tools.)
* :meth:`evict_before` — sliding-window eviction.  Raises the store
  watermark, records the eviction in the delta log (keeping the union
  view's generation coverage contiguous), then refreshes/invalidates/
  re-scores exactly like a flush.
* :meth:`maybe_merge` — folds the delta log into the main index once
  enough blocks accumulated (the daemon's sweep task calls this off
  the event loop; ``ftl store index --incremental`` is the CLI form).

All hooks run under one re-entrant lock so store appends, log writes,
pool refreshes and merges never interleave; the hooks additionally
take the (injectable) engine lock that serialises scoring against the
daemon's batch thread, always engine lock first, runtime lock second.
"""

from __future__ import annotations

import logging
import threading
import time

from repro.geo.units import kph_to_mps
from repro.stream.deltas import DeltaLog, merge_index_deltas
from repro.stream.standing import StandingQueryRegistry

_LOG = logging.getLogger("ftl.stream")

#: Delta blocks accumulated before the background merge folds them.
DEFAULT_MERGE_MIN_BLOCKS = 4


class StreamRuntime:
    """Continuous-linkage state for one daemon over one store."""

    def __init__(
        self,
        store,
        engine,
        pool: list,
        options,
        metrics=None,
        clock=time.monotonic,
        scorer=None,
        engine_lock=None,
        merge_min_blocks: int = DEFAULT_MERGE_MIN_BLOCKS,
    ) -> None:
        self._store = store
        self._engine = engine
        self._pool = pool
        self._metrics = metrics
        self._clock = clock
        self._lock = threading.RLock()
        # Serialises scoring against the daemon's batch thread; always
        # taken *before* the runtime lock (consistent order, no deadlock).
        self._engine_lock = (
            engine_lock if engine_lock is not None else threading.RLock()
        )
        self._merge_min_blocks = int(merge_min_blocks)
        self.delta_log = DeltaLog(store)
        self._params = self._resolve_params()
        self.registry = StandingQueryRegistry(
            engine,
            pool,
            options,
            horizon_s=engine.config.horizon_s,
            metrics=metrics,
            clock=clock,
            scorer=scorer,
        )
        if metrics is not None:
            # Pre-register so /metrics exposes the empty families before
            # the first flush (the CI smoke asserts on them).
            metrics.histogram("standing_staleness")
            metrics.counter("standing_rescored_pairs_total")
            metrics.counter("standing_full_pairs_total")
            metrics.counter("stream_flushes_total")
            metrics.counter("stream_evictions_total")
            metrics.counter("stream_delta_merges_total")

    def _resolve_params(self) -> dict:
        """Delta-block build parameters: the main index's, or defaults.

        Blocks must probe identically to the main index, so its
        persisted parameters win when one exists; otherwise the engine
        config's ``Vmax`` and horizon give the same conservative
        defaults ``ftl store index`` would use.
        """
        from repro.store.format import INDEX_DIR
        from repro.store.stindex import SpatioTemporalIndex

        index_dir = self._store.path / INDEX_DIR
        if (index_dir / "meta.json").is_file():
            return SpatioTemporalIndex.load_params(index_dir)
        config = self._engine.config
        reach_gap_s = float(config.horizon_s)
        return {
            "cell_size_m": kph_to_mps(config.vmax_kph) * reach_gap_s,
            "vmax_kph": float(config.vmax_kph),
            "reach_gap_s": reach_gap_s,
        }

    # ------------------------------------------------------------------
    @property
    def lock(self) -> threading.RLock:
        return self._lock

    def n_delta_blocks(self) -> int:
        return len(self.delta_log.block_dirs())

    def swap_engine(self, engine) -> None:
        """Rebind the scoring engine after a model hot-swap.

        The caller must hold the daemon's engine lock with the batcher
        drained (the admin hot-swap path does), so no scoring is in
        flight; only the runtime and registry locks are taken here.
        Delta-block build parameters are *not* re-resolved: blocks must
        keep probing identically to the persisted main index regardless
        of which model pair scores the results.
        """
        with self._lock:
            self._engine = engine
            self.registry.swap_engine(engine)

    def gauges(self) -> dict:
        """Streaming gauges merged into the /metrics exposition."""
        return {
            "standing_queries": float(len(self.registry)),
            "index_delta_blocks": float(self.n_delta_blocks()),
        }

    def _refresh(self, changed_ids) -> None:
        self._pool[:] = list(self._store.load())
        self._engine.invalidate_profiles(changed_ids)
        self.registry.refresh_pool_view()
        if self._metrics is not None:
            self._metrics.inc("pool_refreshes_total")

    # ------------------------------------------------------------------
    # Standing-query surface (engine-lock wrapped)
    # ------------------------------------------------------------------
    def register_query(self, trajectory, query_id=None, options=None) -> dict:
        with self._engine_lock:
            return self.registry.register(
                trajectory, query_id=query_id, options=options
            )

    def unregister_query(self, query_id) -> bool:
        return self.registry.unregister(query_id)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def append_flush(self, deltas) -> tuple[int, str | None]:
        """Append ``deltas`` to the store and run the flush pipeline.

        The store append and the matching delta-block write happen
        under one critical section, so concurrent session flushes (or
        a racing :meth:`evict_before`) can never stamp a block with
        another commit's generation or leave a coverage gap in the
        delta log.  Returns ``(records appended, new segment dirname
        or None when nothing was written)``; a failed store append
        propagates with nothing committed.
        """
        live = [t for t in deltas if len(t)]
        started = self._clock()
        with self._engine_lock, self._lock:
            flushed = self._store.append(deltas)
            if not flushed:
                return 0, None
            segment = self._store.manifest.segments[-1].dirname
            try:
                self._flush_pipeline(live, self._store.generation, started)
            except Exception:  # noqa: BLE001 - records ARE persisted
                # The append committed, so the served state must stay
                # consistent even though the delta block is missing
                # (the union view reports the coverage gap as stale and
                # a rebuild heals it).  Refresh the pool and re-score
                # the flushed ids conservatively, then keep serving.
                _LOG.warning(
                    "stream flush pipeline failed after store append",
                    exc_info=True,
                )
                changed = [str(t.traj_id) for t in live]
                self._refresh(changed)
                self.registry.apply_update(
                    evicted_ids=changed, started_s=started
                )
                if self._metrics is not None:
                    self._metrics.inc("stream_flush_pipeline_errors_total")
            return flushed, segment

    def after_flush(self, deltas, generation: int | None = None) -> int:
        """Run the incremental pipeline for freshly appended deltas.

        The store append already committed; ``generation`` is the
        generation that append produced (defaults to the store's
        current one, which is only safe when the caller serialises
        flushes itself — the service layer uses :meth:`append_flush`
        instead).  Writes the matching delta block, refreshes the pool
        to the merged view, drops stale cached profiles for exactly
        the flushed ids, and re-scores affected standing-query pairs.
        Returns the number of pairs re-scored.
        """
        live = [t for t in deltas if len(t)]
        if not live:
            return 0
        started = self._clock()
        with self._engine_lock, self._lock:
            if generation is None:
                generation = self._store.generation
            return self._flush_pipeline(live, generation, started)

    def _flush_pipeline(self, live, generation: int, started: float) -> int:
        """Delta block + refresh + re-score; caller holds both locks."""
        block = self.delta_log.append_block(
            live, generation=generation, **self._params
        )
        self._refresh([str(t.traj_id) for t in live])
        rescored = self.registry.apply_update(block=block, started_s=started)
        if self._metrics is not None:
            self._metrics.inc("stream_flushes_total")
        return rescored

    def evict_before(self, cutoff_t: float) -> int:
        """Slide the window: evict records older than ``cutoff_t``.

        Returns the number of records newly masked out of the store.
        A no-op (no generation bump, no log entry) when the watermark
        already covers the cutoff.
        """
        with self._engine_lock, self._lock:
            affected = [
                str(t.traj_id) for t in self._pool
                if len(t) and float(t.ts[0]) < cutoff_t
            ]
            started = self._clock()
            before = self._store.generation
            evicted = self._store.expire_before(cutoff_t)
            if self._store.generation == before:
                return 0
            self.delta_log.record_eviction(
                self._store.generation, cutoff_t
            )
            self._refresh(affected)
            self.registry.apply_update(
                evicted_ids=affected, started_s=started
            )
            if self._metrics is not None:
                self._metrics.inc("stream_evictions_total")
                self._metrics.inc("stream_evicted_records_total", evicted)
            return evicted

    def maybe_merge(self, force: bool = False) -> bool:
        """Fold the delta log into the main index when it grew enough.

        Skips silently when the store has no main index (nothing to
        fold into) or too few blocks accumulated (unless ``force``).
        """
        from repro.store.format import INDEX_DIR
        from repro.store.stindex import SpatioTemporalIndex

        with self._lock:
            index_dir = self._store.path / INDEX_DIR
            if not (index_dir / "meta.json").is_file():
                return False
            n = self.n_delta_blocks()
            current = SpatioTemporalIndex.load_generation(index_dir)
            if n == 0 and current == self._store.generation:
                return False
            if not force and n < self._merge_min_blocks:
                return False
            merge_index_deltas(self._store)
            if self._metrics is not None:
                self._metrics.inc("stream_delta_merges_total")
            return True
