"""High-level FTL facade.

:class:`FTLLinker` bundles the full workflow — fit the rejection and
acceptance models on a database pair, run either linking algorithm for a
query, and return ranked candidates — behind one object:

    linker = FTLLinker(config, LinkOptions(method="naive-bayes")).fit(
        p_db, q_db, rng
    )
    result = linker.link(p_db["taxi-17"])
    for cand in result.candidates:
        print(cand.candidate_id, cand.score)

Since the batch-engine redesign the linker is a thin wrapper over
:class:`~repro.core.engine.LinkEngine`: the engine computes each
``(query, candidate)`` mutual-segment profile exactly once per call,
evaluates the candidate pool's evidence in flat NumPy arrays, and serves
both decision rules plus the Eq. 2 ranking from the same arrays.
:meth:`FTLLinker.link_batch` exposes the many-queries path; per-query
results are bit-identical to sequential :meth:`FTLLinker.link` calls.

The linking hyperparameters live in one frozen
:class:`~repro.core.engine.LinkOptions` bundle; the keyword arguments
``alpha1`` / ``alpha2`` / ``phi_r`` / ``prefilter`` remain as
constructor shorthand for building one.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.config import DEFAULT_CONFIG, FTLConfig
from repro.core.database import TrajectoryDatabase
from repro.core.engine import (
    METHODS,
    Candidate,
    LinkEngine,
    LinkOptions,
    LinkResult,
    ProfileCache,
)
from repro.core.models import CompatibilityModel
from repro.core.trajectory import Trajectory
from repro.errors import NotFittedError, ValidationError

__all__ = [
    "METHODS",
    "Candidate",
    "FTLLinker",
    "LinkOptions",
    "LinkResult",
]


class FTLLinker:
    """Fit-once / query-many fuzzy trajectory linker.

    Parameters
    ----------
    config:
        The shared :class:`~repro.config.FTLConfig`.
    options:
        The linking hyperparameters as one
        :class:`~repro.core.engine.LinkOptions` bundle; defaults to
        ``LinkOptions()``.
    alpha1, alpha2, phi_r, prefilter:
        Shorthand overrides applied on top of ``options`` (equivalent
        to ``options.with_updates(...)``).
    """

    def __init__(
        self,
        config: FTLConfig = DEFAULT_CONFIG,
        options: LinkOptions | None = None,
        *,
        alpha1: float | None = None,
        alpha2: float | None = None,
        phi_r: float | None = None,
        prefilter=None,
    ) -> None:
        self._config = config
        base = options if options is not None else LinkOptions()
        overrides = {
            key: value
            for key, value in (
                ("alpha1", alpha1),
                ("alpha2", alpha2),
                ("phi_r", phi_r),
                ("prefilter", prefilter),
            )
            if value is not None
        }
        if overrides:
            base = base.with_updates(**overrides)
        self._options = base
        self._engine: LinkEngine | None = None
        self._candidate_db: TrajectoryDatabase | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        p_db: TrajectoryDatabase,
        q_db: TrajectoryDatabase,
        rng: np.random.Generator,
    ) -> "FTLLinker":
        """Fit the model pair on both databases and bind ``q_db`` as targets."""
        mr = CompatibilityModel.fit_rejection([p_db, q_db], self._config)
        ma = CompatibilityModel.fit_acceptance([p_db, q_db], self._config, rng)
        self._engine = LinkEngine(mr, ma, options=self._options)
        self._candidate_db = q_db
        return self

    def with_models(
        self,
        rejection_model: CompatibilityModel,
        acceptance_model: CompatibilityModel,
        q_db: TrajectoryDatabase,
    ) -> "FTLLinker":
        """Bind pre-fitted models (e.g. loaded from disk) instead of fitting."""
        self._engine = LinkEngine(
            rejection_model, acceptance_model, options=self._options
        )
        self._candidate_db = q_db
        return self

    @property
    def config(self) -> FTLConfig:
        return self._config

    @property
    def options(self) -> LinkOptions:
        """The default hyperparameter bundle used by :meth:`link`."""
        return self._options

    @property
    def engine(self) -> LinkEngine:
        """The bound batch engine (after :meth:`fit` / :meth:`with_models`)."""
        self._require_fitted()
        return self._engine  # type: ignore[return-value]

    @property
    def profile_cache(self) -> ProfileCache:
        """The engine's profile cache (for stats)."""
        return self.engine.cache

    @property
    def rejection_model(self) -> CompatibilityModel:
        return self.engine.rejection_model

    @property
    def acceptance_model(self) -> CompatibilityModel:
        return self.engine.acceptance_model

    def _require_fitted(self) -> None:
        if self._engine is None or self._candidate_db is None:
            raise NotFittedError("call fit() or with_models() before linking")

    def _resolve_options(
        self, method: str | None, options: LinkOptions | None
    ) -> LinkOptions:
        opts = self._options if options is None else options
        if not isinstance(opts, LinkOptions):
            raise ValidationError(
                f"options must be a LinkOptions, got {type(opts).__name__}"
            )
        if method is not None:
            opts = opts.with_updates(method=method)
        return opts

    # ------------------------------------------------------------------
    # Linking
    # ------------------------------------------------------------------
    def link(
        self,
        query: Trajectory,
        method: str | None = None,
        candidates: Iterable[Trajectory] | None = None,
        *,
        options: LinkOptions | None = None,
    ) -> LinkResult:
        """Return the ranked candidate set ``Q_P`` for one query.

        Parameters
        ----------
        query:
            The query trajectory ``P``.
        method:
            Shorthand override of ``options.method`` (``"alpha-filter"``
            or ``"naive-bayes"``).
        candidates:
            Optional override of the candidate pool (defaults to the
            bound database) — used e.g. to restrict to a pre-filtered
            subset in the application examples.
        options:
            Per-call :class:`~repro.core.engine.LinkOptions` override of
            the linker's defaults.
        """
        return self.link_batch(
            [query], method=method, candidates=candidates, options=options
        )[0]

    def link_batch(
        self,
        queries: Sequence[Trajectory],
        method: str | None = None,
        candidates: Iterable[Trajectory] | None = None,
        *,
        options: LinkOptions | None = None,
    ) -> list[LinkResult]:
        """Link many queries against the shared candidate pool.

        Results follow the input query order and are bit-identical to a
        loop of :meth:`link` calls, but every ``(query, candidate)``
        profile is computed at most once (served from the engine's
        profile cache thereafter).
        """
        self._require_fitted()
        opts = self._resolve_options(method, options)
        pool: Iterable[Trajectory] = (
            self._candidate_db if candidates is None else candidates  # type: ignore[assignment]
        )
        return self.engine.link_batch(queries, pool, opts)

    # ------------------------------------------------------------------
    # Enrichment (Fig. 2's second knowledge gain)
    # ------------------------------------------------------------------
    def enrich(self, query: Trajectory, candidate_id: object) -> Trajectory:
        """Merge the query with a linked candidate into one trajectory.

        The paper's *trajectory enrichment*: after linking, the two
        sources' records are interleaved into a single richer
        trajectory for the identified person.
        """
        self._require_fitted()
        candidate = self._candidate_db[candidate_id]  # type: ignore[index]
        merged_id = (query.traj_id, candidate_id)
        return query.concat(candidate, traj_id=merged_id)
