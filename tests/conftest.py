"""Shared fixtures: deterministic RNGs, a small scenario and fitted models.

The expensive fixtures (scenario + models) are session-scoped; tests
must not mutate them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import FTLConfig
from repro.core.models import CompatibilityModel
from repro.geo.units import days_to_seconds
from repro.synth.city import CityModel
from repro.synth.noise import GaussianNoise
from repro.synth.observation import ObservationService
from repro.synth.population import generate_population
from repro.synth.scenario import ScenarioPair, make_paired_databases


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture
def config() -> FTLConfig:
    return FTLConfig()


@pytest.fixture(scope="session")
def session_rng() -> np.random.Generator:
    return np.random.default_rng(99)


@pytest.fixture(scope="session")
def city(session_rng) -> CityModel:
    return CityModel.generate(session_rng)


@pytest.fixture(scope="session")
def small_pair(city, session_rng) -> ScenarioPair:
    """A small paired-service scenario: 30 taxi agents over 5 days."""
    agents = generate_population(
        city, 30, days_to_seconds(5), session_rng, mobility="taxi"
    )
    service_p = ObservationService("P", rate_per_hour=0.8, noise=GaussianNoise(50.0))
    service_q = ObservationService("Q", rate_per_hour=0.4, noise=GaussianNoise(50.0))
    return make_paired_databases(agents, service_p, service_q, session_rng)


@pytest.fixture(scope="session")
def fitted_models(small_pair, session_rng):
    """(rejection, acceptance) models fitted on the small scenario."""
    config = FTLConfig()
    mr = CompatibilityModel.fit_rejection(
        [small_pair.p_db, small_pair.q_db], config
    )
    ma = CompatibilityModel.fit_acceptance(
        [small_pair.p_db, small_pair.q_db], config, session_rng
    )
    return mr, ma


@pytest.fixture(scope="session")
def graph_of():
    """Build a CostGraph from ``(query_id, candidate_id, score)`` triples.

    Goes through :func:`repro.assign.graph_from_link_results`, so the
    production ``min_score`` filter decides which triples become edges.
    """
    from repro.assign import graph_from_link_results
    from repro.core.engine import Candidate, LinkResult

    def build(triples, min_score=0.0):
        qids = list(dict.fromkeys(q for q, _, _ in triples))
        cids = list(dict.fromkeys(c for _, c, _ in triples))
        ranked = {qid: [] for qid in qids}
        for qid, cid, score in triples:
            ranked[qid].append(Candidate(cid, score, 0.0, 0.0, 0, 0))
        results = [
            LinkResult(qid, "alpha-filter", tuple(ranked[qid])) for qid in qids
        ]
        return graph_from_link_results(
            results, qids, cids, min_score, len(triples)
        )

    return build


@pytest.fixture(scope="session")
def oracle_evidence():
    """Build a ``QueryEvidence`` from the per-pair oracle functions.

    ``build(profiles, mr, ma, candidate_ids=None)`` evaluates
    :mod:`repro.core.hypothesis` on each profile, so the decision rules
    (the ``QueryEvidence`` masks and ``scores()``) can be tested on
    hand-made profiles.  ``test_engine.py::TestEvidenceOracle`` shows
    that ``LinkEngine.evidence`` returns these values bit for bit.
    """
    from repro.core.engine import QueryEvidence
    from repro.core.hypothesis import (
        acceptance_pvalue,
        log_likelihood,
        rejection_pvalue,
    )

    def build(profiles, mr, ma, candidate_ids=None):
        within = [p.within_horizon(mr.n_buckets) for p in profiles]
        if candidate_ids is None:
            candidate_ids = [None] * len(profiles)
        return QueryEvidence(
            query_id=None,
            candidate_ids=tuple(candidate_ids),
            p1=np.array([rejection_pvalue(p, mr) for p in profiles]),
            p2=np.array([acceptance_pvalue(p, ma) for p in profiles]),
            ll_rejection=np.array([log_likelihood(p, mr) for p in profiles]),
            ll_acceptance=np.array([log_likelihood(p, ma) for p in profiles]),
            n_mutual=np.array([w.n_total for w in within], dtype=np.int64),
            n_incompatible=np.array(
                [w.n_incompatible for w in within], dtype=np.int64
            ),
        )

    return build


@pytest.fixture(scope="session")
def with_kernel_backend():
    """``build(models, backend)``: the model pair under a config naming ``backend``.

    The models' :class:`~repro.config.FTLConfig` is the one place a
    kernel backend is chosen, so engines are pinned to a backend by
    building them from such a pair.
    """
    from dataclasses import replace

    def build(models, backend):
        return tuple(
            CompatibilityModel(
                m.kind, m.counts, replace(m.config, kernel_backend=backend)
            )
            for m in models
        )

    return build
