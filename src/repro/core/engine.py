"""Profile-once batch linking engine.

The seed :class:`~repro.core.linker.FTLLinker` paid for every
``(query, candidate)`` pair twice: the decision rule (alpha-filter or
Naive-Bayes) aligned the pair and computed its p-values inside
``decide()``, and the Eq. 2 ranking step re-aligned and re-tested the
matched candidates from scratch.  At 200 candidates per query that
doubles the hot-path cost for exactly the candidates we care about.

:class:`LinkEngine` fixes this by separating *evidence extraction* from
the *matching decision* (the architecture SLIM and Basık et al. use for
large-scale spatio-temporal linkage):

1. every pair's mutual-segment profile is computed **exactly once** per
   call through an LRU :class:`ProfileCache` keyed on
   ``(query digest, candidate digest, config)`` — record content, not
   ids;
2. the in-horizon evidence of the whole candidate pool is gathered into
   flat NumPy arrays — one :meth:`~repro.core.models.CompatibilityModel.probs_for`
   gather and one vectorised ``log`` pass per model serve every
   candidate, instead of re-dispatching tiny per-candidate arrays;
3. both decision rules *and* the Eq. 2 ranking read from the same
   evidence arrays, and the Poisson-Binomial tail p-values are memoised
   on the in-horizon bucket content, so identical profiles (common for
   short overlaps) are tested once.

Results are bit-identical to the sequential seed path: the flattening
preserves each candidate's segment order, every per-candidate reduction
(`sum`, Poisson-Binomial convolution) runs over exactly the same float64
values in exactly the same order as the per-pair code did.

:class:`LinkOptions` is the single source of the linking hyperparameter
defaults::

    opts = LinkOptions(method="alpha-filter", alpha1=0.01, alpha2=0.1)
    engine = LinkEngine(mr, ma, options=opts)
    results = engine.link_batch(queries, q_db)
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Iterable, Sequence

import numpy as np

from repro.config import FTLConfig
from repro.core.alignment import (
    FlatPool,
    MutualSegmentProfile,
    batch_mutual_segment_profiles,
)
from repro.core.hypothesis import (
    acceptance_pvalue_batch,
    rejection_pvalue_batch,
)
from repro.core.models import CompatibilityModel, require_fitted_pair
from repro.core.trajectory import Trajectory
from repro.errors import ValidationError
from repro.kernels import resolve_kernel_backend
from repro.obs import record_evidence, span

#: The two linking algorithms of the paper (Sections IV-D and IV-E).
METHODS = ("alpha-filter", "naive-bayes")

#: Default capacity of a :class:`ProfileCache` (profiles are small:
#: two arrays of one entry per mutual segment).
DEFAULT_PROFILE_CACHE_SIZE = 65536


# ----------------------------------------------------------------------
# Options
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinkOptions:
    """The linking hyperparameters, in one frozen bundle.

    This is the single source of the linking defaults.

    Parameters
    ----------
    method:
        ``"alpha-filter"`` or ``"naive-bayes"``.
    alpha1:
        Significance level of the rejection phase (larger is stricter).
    alpha2:
        Significance level of the acceptance phase (smaller is stricter).
    phi_r:
        Naive-Bayes prior ``Pr(M = Mr)`` in (0, 1).
    top_k:
        When set, results are truncated to the ``top_k`` best-ranked
        candidates; ``None`` returns the full matched set.
    prefilter:
        Optional candidate pre-filter (see :mod:`repro.core.prefilter`)
        applied before the statistical tests.
    """

    method: str = "naive-bayes"
    alpha1: float = 0.05
    alpha2: float = 0.05
    phi_r: float = 0.01
    top_k: int | None = None
    prefilter: Any = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValidationError(
                f"unknown method {self.method!r}; known: {METHODS}"
            )
        if not 0.0 <= self.alpha1 <= 1.0:
            raise ValidationError(f"alpha1 must be in [0, 1], got {self.alpha1}")
        if not 0.0 <= self.alpha2 <= 1.0:
            raise ValidationError(f"alpha2 must be in [0, 1], got {self.alpha2}")
        if not 0.0 < self.phi_r < 1.0:
            raise ValidationError(f"phi_r must be in (0, 1), got {self.phi_r}")
        if self.top_k is not None and self.top_k < 1:
            raise ValidationError(f"top_k must be >= 1 or None, got {self.top_k}")
        if self.prefilter is not None and not hasattr(self.prefilter, "keep"):
            raise ValidationError("prefilter must expose a keep(query, candidate)")

    @property
    def phi_a(self) -> float:
        return 1.0 - self.phi_r

    def with_updates(self, **changes: Any) -> "LinkOptions":
        """A copy of these options with the given fields replaced."""
        return replace(self, **changes)


#: Module-wide defaults; ``LinkOptions()`` is cheap but this names them.
DEFAULT_LINK_OPTIONS = LinkOptions()


@dataclass(frozen=True)
class LinkRequest:
    """One unit of linking work for :meth:`LinkEngine.link_requests`.

    A request bundles a query with (optionally) its own candidate pool
    and its own :class:`LinkOptions`, so heterogeneous requests — as a
    serving frontend receives them — can be coalesced into one engine
    call that shares the profile cache and tail memo across all of
    them.

    Parameters
    ----------
    query:
        The trajectory to link.
    candidates:
        The candidate pool for this request (ids may be reused with
        other records: profiles are cached by content); ``None`` uses
        the ``default_pool`` passed to :meth:`LinkEngine.link_requests`.
    options:
        Per-request options; ``None`` uses the engine defaults (or the
        call-level override).
    """

    query: Trajectory
    candidates: tuple[Trajectory, ...] | None = None
    options: LinkOptions | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.query, Trajectory):
            raise ValidationError(
                f"query must be a Trajectory, got {type(self.query).__name__}"
            )
        if self.candidates is not None and not isinstance(self.candidates, tuple):
            object.__setattr__(self, "candidates", tuple(self.candidates))
        if self.options is not None and not isinstance(self.options, LinkOptions):
            raise ValidationError(
                f"options must be a LinkOptions or None, "
                f"got {type(self.options).__name__}"
            )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Candidate:
    """One returned candidate with its ranking evidence."""

    candidate_id: object
    score: float
    p_rejection: float
    p_acceptance: float
    n_mutual: int
    n_incompatible: int

    def to_dict(self) -> dict:
        """A JSON-friendly snapshot of the candidate."""
        return {
            "candidate_id": self.candidate_id,
            "score": self.score,
            "p_rejection": self.p_rejection,
            "p_acceptance": self.p_acceptance,
            "n_mutual": self.n_mutual,
            "n_incompatible": self.n_incompatible,
        }


@dataclass(frozen=True)
class LinkResult:
    """Outcome of linking one query against a candidate database."""

    query_id: object
    method: str
    candidates: tuple[Candidate, ...]

    def candidate_ids(self) -> list[object]:
        """Candidate ids in rank order (best first)."""
        return [c.candidate_id for c in self.candidates]

    def __len__(self) -> int:
        return len(self.candidates)

    def contains(self, candidate_id: object) -> bool:
        return any(c.candidate_id == candidate_id for c in self.candidates)

    def top(self, k: int) -> tuple[Candidate, ...]:
        """The ``k`` best-ranked candidates (fewer when the set is smaller)."""
        if k < 0:
            raise ValidationError(f"k must be >= 0, got {k}")
        return self.candidates[:k]

    def to_dict(self) -> dict:
        """A JSON-friendly snapshot of the whole result."""
        return {
            "query_id": self.query_id,
            "method": self.method,
            "candidates": [c.to_dict() for c in self.candidates],
        }


@dataclass(frozen=True)
class QueryEvidence:
    """Every candidate's evidence for one query, before any threshold.

    Entry ``i`` of each array refers to ``candidate_ids[i]``; parameter
    sweeps reduce to thresholding these arrays (the ``*_mask`` methods).
    """

    query_id: object
    candidate_ids: tuple[object, ...]
    p1: np.ndarray
    p2: np.ndarray
    ll_rejection: np.ndarray
    ll_acceptance: np.ndarray
    n_mutual: np.ndarray
    n_incompatible: np.ndarray

    @property
    def llr(self) -> np.ndarray:
        """The prior-free log-likelihood ratio ``log L(Mr) - log L(Ma)``."""
        return self.ll_rejection - self.ll_acceptance

    def alpha_filter_mask(self, alpha1: float, alpha2: float) -> np.ndarray:
        """Accepted-candidate mask under (alpha1, alpha2)-filtering."""
        return (self.p1 >= alpha1) & (self.p2 < alpha2)

    def naive_bayes_mask(self, phi_r: float) -> np.ndarray:
        """Same-person mask under Naive-Bayes with prior ``phi_r``."""
        if not 0.0 < phi_r < 1.0:
            raise ValidationError(f"phi_r must be in (0, 1), got {phi_r}")
        ratio = _log_posterior_ratio(self.ll_rejection, self.ll_acceptance, phi_r)
        return ratio >= 0.0

    def scores(self) -> np.ndarray:
        """Eq. 2 ranking scores ``v = p1 * (1 - p2)`` per candidate."""
        return self.p1 * (1.0 - self.p2)


def _log_posterior_ratio(ll_r, ll_a, phi_r: float):
    """``log(phi_r L(Mr)) - log(phi_a L(Ma))``; Naive-Bayes matches at ``>= 0``.

    The one float form of the Sec. IV-E rule: the engine, the
    :meth:`QueryEvidence.naive_bayes_mask` sweeps and the streaming
    linker all evaluate it, so they agree on boundary pairs too.
    """
    return (math.log(phi_r) + ll_r) - (math.log(1.0 - phi_r) + ll_a)


def _clipped_log_tables(model: CompatibilityModel) -> tuple[np.ndarray, np.ndarray]:
    """Per-bucket ``(log p, log(1 - p))``, ``p`` clipped to ``[floor, 1 - floor]``."""
    floor = model.config.prob_floor
    clipped = np.clip(np.asarray(model.prob_table), floor, 1.0 - floor)
    return np.log(clipped), np.log1p(-clipped)


# ----------------------------------------------------------------------
# Profile cache
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of a :class:`ProfileCache`."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def n_computed(self) -> int:
        """Profiles actually aligned (== misses); the rest were served."""
        return self.misses


class ProfileCache:
    """LRU cache of mutual-segment profiles keyed on pair content.

    Keys are ``(query digest, candidate digest, config)``, both digests
    from :meth:`~repro.core.trajectory.Trajectory.content_digest` (the
    records alone, computed once per object).  A profile depends on the
    two record sequences and the config only, so a content key can
    never go stale: a reused id with other records, or a pool entry a
    streaming flush or eviction replaced, simply keys a new entry, and
    the superseded ones age out of the LRU — nothing is ever
    invalidated.  Trajectories with equal records share one entry
    whatever their ids.  The :class:`~repro.config.FTLConfig` is a
    frozen dataclass and therefore hashable, so one cache can serve
    engines running under different configurations.
    """

    def __init__(self, maxsize: int = DEFAULT_PROFILE_CACHE_SIZE) -> None:
        if maxsize < 1:
            raise ValidationError(f"maxsize must be >= 1, got {maxsize}")
        self._maxsize = int(maxsize)
        self._entries: OrderedDict[tuple, MutualSegmentProfile] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(
        self,
        query: Trajectory,
        candidate: Trajectory,
        config: FTLConfig,
        backend: str | None = None,
    ) -> MutualSegmentProfile:
        """The pair's profile, aligning the pair only on a cache miss."""
        return self.get_many(query, [candidate], config, backend)[0]

    def get_many(
        self,
        query: Trajectory,
        candidates: Sequence[Trajectory],
        config: FTLConfig,
        backend: str | None = None,
        flat: FlatPool | None = None,
    ) -> list[MutualSegmentProfile]:
        """Profiles of one query against many candidates, batching misses.

        Counter semantics match a loop of single-pair lookups exactly
        (candidates with equal records within one pool are one miss
        plus hits), but all missing pairs are aligned in a single
        :func:`~repro.core.alignment.batch_mutual_segment_profiles`
        kernel invocation instead of per-pair calls.  A prebuilt
        ``flat`` :class:`~repro.core.alignment.FlatPool` of the full
        candidate list is used when every pair misses (the cold-cache
        batch case); partial misses re-flatten just the missing subset.
        """
        results: list[MutualSegmentProfile | None] = [None] * len(candidates)
        pending: OrderedDict[tuple, list[int]] = OrderedDict()
        pending_cands: list[Trajectory] = []
        query_key = query.content_digest()
        for pos, candidate in enumerate(candidates):
            key = (query_key, candidate.content_digest(), config)
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                results[pos] = entry
            elif key in pending:
                self._hits += 1
                pending[key].append(pos)
            else:
                self._misses += 1
                pending[key] = [pos]
                pending_cands.append(candidate)
        if pending_cands:
            profiles = batch_mutual_segment_profiles(
                query,
                pending_cands,
                config,
                backend=backend,
                flat=flat if len(pending_cands) == len(candidates) else None,
            )
            for (key, positions), profile in zip(pending.items(), profiles):
                self._entries[key] = profile
                if len(self._entries) > self._maxsize:
                    self._entries.popitem(last=False)
                    self._evictions += 1
                for pos in positions:
                    results[pos] = profile
        return results

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._entries),
            maxsize=self._maxsize,
        )


# ----------------------------------------------------------------------
# Flattened pool evidence
# ----------------------------------------------------------------------
class _PoolEvidence:
    """In-horizon evidence of one query against a candidate pool.

    All candidates' in-horizon mutual segments are concatenated into
    flat arrays (``buckets``, ``incompatible``) with slice ``offsets``;
    candidate ``i`` owns ``flat[offsets[i]:offsets[i + 1]]`` in its
    original segment order, so any per-candidate reduction over a slice
    reproduces the per-pair computation bit for bit.
    """

    __slots__ = (
        "n", "buckets", "incompatible", "offsets", "n_mutual", "n_incompatible"
    )

    def __init__(self, profiles: Sequence[MutualSegmentProfile], n_buckets: int):
        self.n = len(profiles)
        if self.n:
            bkt = np.concatenate([p.buckets for p in profiles])
            inc = np.concatenate([p.incompatible for p in profiles])
            sizes = np.fromiter(
                (p.n_total for p in profiles), dtype=np.int64, count=self.n
            )
        else:
            bkt = np.empty(0, dtype=np.int64)
            inc = np.empty(0, dtype=bool)
            sizes = np.empty(0, dtype=np.int64)
        mask = bkt < n_buckets
        self.buckets = bkt[mask]
        self.incompatible = inc[mask]
        # Per-candidate in-horizon counts -> slice offsets into the
        # compressed arrays (cumsum of the mask per original slice).
        ends = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(sizes, out=ends[1:])
        kept = np.concatenate([[0], np.cumsum(mask, dtype=np.int64)])
        self.offsets = kept[ends]
        self.n_mutual = np.diff(self.offsets)
        # Per-slice incompatible counts as one integer cumsum (exact),
        # replacing the per-candidate count_nonzero loop.
        inc_csum = np.zeros(self.incompatible.shape[0] + 1, dtype=np.int64)
        np.cumsum(self.incompatible, dtype=np.int64, out=inc_csum[1:])
        self.n_incompatible = inc_csum[self.offsets[1:]] - inc_csum[self.offsets[:-1]]

    def slice(self, arr: np.ndarray, i: int) -> np.ndarray:
        return arr[self.offsets[i]: self.offsets[i + 1]]


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class LinkEngine:
    """Batch linking over a fitted ``(Mr, Ma)`` model pair.

    Parameters
    ----------
    rejection_model, acceptance_model:
        The fitted model pair (must share one config).
    options:
        Default :class:`LinkOptions`; per-call options override them.
    profile_cache:
        Optional shared :class:`ProfileCache`; a private one is created
        when omitted.
    """

    def __init__(
        self,
        rejection_model: CompatibilityModel,
        acceptance_model: CompatibilityModel,
        options: LinkOptions = DEFAULT_LINK_OPTIONS,
        profile_cache: ProfileCache | None = None,
    ) -> None:
        self._mr, self._ma = require_fitted_pair(rejection_model, acceptance_model)
        if not isinstance(options, LinkOptions):
            raise ValidationError(
                f"options must be a LinkOptions, got {type(options).__name__}"
            )
        self._options = options
        self._cache = profile_cache if profile_cache is not None else ProfileCache()
        # Kernel backend, resolved once from the models' config.
        self._kernel = resolve_kernel_backend(self._mr.config.kernel_backend)
        # Per-bucket probability and log-likelihood tables, quantised at
        # construction.  _PoolEvidence keeps only in-horizon buckets, so
        # a flat ``table[buckets]`` gather reproduces ``probs_for``
        # exactly, and the clipped log tables are elementwise identical
        # to clipping/logging the gathered values per pool.
        self._table_r = np.asarray(self._mr.prob_table)
        self._table_a = np.asarray(self._ma.prob_table)
        self._log_r, self._log1m_r = _clipped_log_tables(self._mr)
        self._log_a, self._log1m_a = _clipped_log_tables(self._ma)
        # Poisson-Binomial tails memoised on in-horizon bucket content;
        # valid per engine because the model pair (hence the per-bucket
        # probability tables and backend) is fixed.
        self._tail_memo: OrderedDict[tuple, float] = OrderedDict()
        self._tail_memo_max = 65536

    # ------------------------------------------------------------------
    @property
    def options(self) -> LinkOptions:
        return self._options

    @property
    def cache(self) -> ProfileCache:
        return self._cache

    @property
    def rejection_model(self) -> CompatibilityModel:
        return self._mr

    @property
    def acceptance_model(self) -> CompatibilityModel:
        return self._ma

    @property
    def config(self) -> FTLConfig:
        return self._mr.config

    @property
    def kernel_backend(self) -> str:
        """The resolved hot-path kernel backend (never ``"auto"``)."""
        return self._kernel

    def stage_backends(self) -> dict[str, str]:
        """Which implementation serves each pipeline stage.

        Surfaced by ``ftl profile``, the serve startup banner and
        ``/healthz`` so a deployment can verify its kernel selection.
        """
        pb = self.config.pb_backend
        return {
            "profile": self._kernel,
            "pb_test": f"dp[{self._kernel}]" if pb == "dp" else pb,
            "rank": "python",
            "blocking": "python",
            "prefilter": "python",
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def link(
        self,
        query: Trajectory,
        candidates: Iterable[Trajectory],
        options: LinkOptions | None = None,
    ) -> LinkResult:
        """Rank one query against a candidate pool."""
        return self.link_batch([query], candidates, options)[0]

    def link_batch(
        self,
        queries: Sequence[Trajectory],
        candidates: Iterable[Trajectory],
        options: LinkOptions | None = None,
    ) -> list[LinkResult]:
        """Rank every query against the shared candidate pool.

        Equivalent to (and bit-identical with) a loop of sequential
        ``link()`` calls, but each pair's profile is computed at most
        once and the pool's evidence is evaluated in flat arrays.
        """
        requests = [LinkRequest(query) for query in queries]
        return self.link_requests(requests, candidates, options)

    def link_requests(
        self,
        requests: Sequence[LinkRequest],
        default_pool: Iterable[Trajectory] | None = None,
        options: LinkOptions | None = None,
    ) -> list[LinkResult]:
        """Serve a batch of heterogeneous :class:`LinkRequest` units.

        This is the serving entry point: a frontend that coalesces
        concurrent requests (each with its own candidate pool and
        options) hands them over in one call, so all of them share the
        profile cache and the Poisson-Binomial tail memo.  Each
        request's result is bit-identical to a standalone
        ``link(query, candidates, options)`` call with the same
        arguments.

        Parameters
        ----------
        requests:
            The work units; see :class:`LinkRequest`.
        default_pool:
            Pool used by requests whose ``candidates`` is ``None``
            (e.g. the daemon's resident candidate database).
        options:
            Call-level default options for requests whose ``options``
            is ``None``; falls back to the engine defaults.
        """
        call_opts = self._options if options is None else options
        if not isinstance(call_opts, LinkOptions):
            raise ValidationError(
                f"options must be a LinkOptions, got {type(call_opts).__name__}"
            )
        pool = None
        pool_flat: FlatPool | None = None
        results = []
        for request in requests:
            if not isinstance(request, LinkRequest):
                raise ValidationError(
                    f"requests must be LinkRequest, got {type(request).__name__}"
                )
            if request.candidates is not None:
                cands, cands_flat = request.candidates, None
            else:
                if default_pool is None:
                    raise ValidationError(
                        "request has no candidates and no default_pool was provided"
                    )
                if pool is None:
                    with span("blocking"):
                        pool = (
                            default_pool
                            if isinstance(default_pool, list)
                            else list(default_pool)
                        )
                    pool_flat = self._flatten(pool)
                cands, cands_flat = pool, pool_flat
            opts = request.options if request.options is not None else call_opts
            if opts.prefilter is not None:
                with span("prefilter"):
                    cands = [c for c in cands if opts.prefilter.keep(request.query, c)]
                cands_flat = None
            results.append(self._link_one(request.query, cands, opts, cands_flat))
        return results

    def evidence(
        self, queries: Sequence[Trajectory], candidates: Iterable[Trajectory]
    ) -> list[QueryEvidence]:
        """Every query's evidence against every candidate, in pool order.

        No decision is taken: both tails and both log-likelihoods are
        evaluated for every pair, so callers can sweep thresholds over
        one extraction.  Each value is bit-identical to the per-pair
        reference functions of :mod:`repro.core.hypothesis`.
        """
        pool = candidates if isinstance(candidates, list) else list(candidates)
        flat = self._flatten(pool)
        ids = tuple(c.traj_id for c in pool)
        results = []
        for query in queries:
            profiles = self._cache.get_many(
                query, pool, self.config, self._kernel, flat
            )
            ev = _PoolEvidence(profiles, self._mr.n_buckets)
            everyone = range(ev.n)
            p1 = self._tails("r", ev, self._table_r[ev.buckets], everyone)
            p2 = self._tails("a", ev, self._table_a[ev.buckets], everyone)
            ll_r, ll_a = self._log_likelihoods(ev)
            results.append(
                QueryEvidence(
                    query_id=query.traj_id,
                    candidate_ids=ids,
                    p1=np.array(p1, dtype=np.float64),
                    p2=np.array(p2, dtype=np.float64),
                    ll_rejection=ll_r,
                    ll_acceptance=ll_a,
                    n_mutual=ev.n_mutual,
                    n_incompatible=ev.n_incompatible,
                )
            )
        return results

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _flatten(self, pool: Sequence[Trajectory]) -> FlatPool | None:
        """Flatten a pool once per batch (skipped on the per-pair backend)."""
        if self._kernel == "python" or not pool:
            return None
        return FlatPool(pool)

    def _link_one(
        self,
        query: Trajectory,
        pool: Sequence[Trajectory],
        opts: LinkOptions,
        flat: FlatPool | None = None,
    ) -> LinkResult:
        with span("profile"):
            profiles = self._cache.get_many(
                query, pool, self.config, self._kernel, flat
            )
            ev = _PoolEvidence(profiles, self._mr.n_buckets)
            # Feed the context-bound drift sink (no-op when none): the
            # pool's in-horizon (bucket, incompatible) observations are
            # exactly the live counterpart of the fitted count tables.
            record_evidence(ev.buckets, ev.incompatible)

        with span("pb_test"):
            if opts.method == "alpha-filter":
                matched_idx, p1_m, p2_m = self._alpha_filter(ev, opts)
            else:
                matched_idx, p1_m, p2_m = self._naive_bayes(ev, opts)

        with span("rank"):
            scores = p1_m * (1.0 - p2_m)
            scored = [
                Candidate(
                    candidate_id=pool[i].traj_id,
                    score=float(scores[j]),
                    p_rejection=float(p1_m[j]),
                    p_acceptance=float(p2_m[j]),
                    n_mutual=int(ev.n_mutual[i]),
                    n_incompatible=int(ev.n_incompatible[i]),
                )
                for j, i in enumerate(matched_idx)
            ]
            scored.sort(key=lambda c: -c.score)
            if opts.top_k is not None:
                scored = scored[: opts.top_k]
            return LinkResult(
                query_id=query.traj_id, method=opts.method, candidates=tuple(scored)
            )

    def _alpha_filter(
        self, ev: _PoolEvidence, opts: LinkOptions
    ) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Both test phases over the pool; returns the matched evidence.

        Phase ordering matches the seed: ``p2`` is only computed for
        phase-1 survivors (``p1 >= alpha1``).
        """
        ps_r = self._table_r[ev.buckets]
        ps_a = self._table_a[ev.buckets]
        p1 = np.asarray(self._tails("r", ev, ps_r, range(ev.n)), dtype=np.float64)
        survivors = np.flatnonzero(p1 >= opts.alpha1)
        p2_s = np.asarray(self._tails("a", ev, ps_a, survivors), dtype=np.float64)
        accepted = p2_s < opts.alpha2
        matched = survivors[accepted]
        return matched.tolist(), p1[matched], p2_s[accepted]

    def _naive_bayes(
        self, ev: _PoolEvidence, opts: LinkOptions
    ) -> tuple[list[int], np.ndarray, np.ndarray]:
        """NB posterior comparison over the pool; tails only for matches."""
        ll_r, ll_a = self._log_likelihoods(ev)
        ratio = _log_posterior_ratio(ll_r, ll_a, opts.phi_r)
        matched = np.flatnonzero(ratio >= 0.0).tolist()
        p1_m = self._tails("r", ev, self._table_r[ev.buckets], matched)
        p2_m = self._tails("a", ev, self._table_a[ev.buckets], matched)
        return matched, np.asarray(p1_m), np.asarray(p2_m)

    def _log_likelihoods(self, ev: _PoolEvidence) -> tuple[np.ndarray, np.ndarray]:
        """Per-candidate log-likelihoods under ``Mr`` and ``Ma``.

        The per-segment log terms are gathered from the engine's
        pre-quantised per-bucket log tables (clipped and logged once at
        construction — elementwise identical to clipping/logging the
        gathered probabilities per pool); each candidate then sums its
        own compressed slice in segment order, reproducing
        :func:`~repro.core.hypothesis.log_likelihood_arrays` bit for bit.
        """
        log_r, log1m_r = self._log_r[ev.buckets], self._log1m_r[ev.buckets]
        log_a, log1m_a = self._log_a[ev.buckets], self._log1m_a[ev.buckets]
        ll_r = np.empty(ev.n)
        ll_a = np.empty(ev.n)
        bounds = ev.offsets.tolist()
        for i in range(ev.n):
            lo, hi = bounds[i], bounds[i + 1]
            inc = ev.incompatible[lo:hi]
            com = ~inc
            ll_r[i] = log_r[lo:hi][inc].sum() + log1m_r[lo:hi][com].sum()
            ll_a[i] = log_a[lo:hi][inc].sum() + log1m_a[lo:hi][com].sum()
        return ll_r, ll_a

    def _tails(
        self,
        kind: str,
        ev: _PoolEvidence,
        ps: np.ndarray,
        indices: Iterable[int],
    ) -> list[float]:
        """Memoised Poisson-Binomial tails for the given pool indices.

        Memo misses are computed in one vectorised batch
        (``*_pvalue_batch``); the values are identical either way, so a
        memo hit can never change a result.
        """
        indices = list(indices)
        values: list[float | None] = [None] * len(indices)
        keys: list[tuple] = []
        missing_pos: list[int] = []
        missing_ps: list[np.ndarray] = []
        missing_k: list[int] = []
        for pos, i in enumerate(indices):
            k = int(ev.n_incompatible[i])
            key = (kind, ev.slice(ev.buckets, i).tobytes(), k)
            keys.append(key)
            hit = self._tail_memo.get(key)
            if hit is not None:
                values[pos] = hit
            else:
                missing_pos.append(pos)
                missing_ps.append(ev.slice(ps, i))
                missing_k.append(k)
        if missing_pos:
            batch_fn = (
                rejection_pvalue_batch if kind == "r" else acceptance_pvalue_batch
            )
            computed = batch_fn(
                missing_ps, missing_k, self.config.pb_backend, kernel=self._kernel
            )
            for pos, value in zip(missing_pos, computed):
                self._memoise(keys[pos], value)
                values[pos] = value
        return values

    def _memoise(self, key: tuple, value: float) -> None:
        self._tail_memo[key] = value
        if len(self._tail_memo) > self._tail_memo_max:
            self._tail_memo.popitem(last=False)
