"""A reused trajectory id never serves a stale cached profile.

Clients choose trajectory ids, so two requests may send different
records under one id: a query, or a candidate shipped in the request.
Each case links the original first (warming every profile cache on the
path), then the reused id, and checks the second answer against a
fresh engine that never saw the original.  Run on the library, a
1-process daemon and a 2-worker daemon; a library caller's own pool
list (``LinkEngine.link``/``link_batch``) is checked the same way.
"""

import numpy as np
import pytest

from repro.config import FTLConfig
from repro.core.engine import LinkEngine, LinkOptions, LinkRequest
from repro.core.models import CompatibilityModel
from repro.datasets.catalog import build_scenario
from repro.service.client import ServiceClient
from repro.service.server import BackgroundServer, ServerConfig

RANKING = LinkOptions(method="alpha-filter", alpha1=0.0, alpha2=1.0)


@pytest.fixture(scope="module")
def scenario():
    return build_scenario("SD-mini")


@pytest.fixture(scope="module")
def models(scenario):
    dbs = [scenario.p_db, scenario.q_db]
    config = FTLConfig()
    mr = CompatibilityModel.fit_rejection(dbs, config)
    ma = CompatibilityModel.fit_acceptance(dbs, config, np.random.default_rng(0))
    return mr, ma


@pytest.fixture(scope="module")
def pool(scenario):
    return list(scenario.q_db)


def fresh_link(models, query, candidates):
    return LinkEngine(*models, options=RANKING).link(query, candidates)


@pytest.fixture(scope="module", params=["library", "1 worker", "2 workers"])
def link(request, models, pool):
    """``link(query, candidates=None)`` through one serving surface."""
    if request.param == "library":
        engine = LinkEngine(*models, options=RANKING)

        def via_engine(query, candidates=None):
            shipped = None if candidates is None else tuple(candidates)
            return engine.link_requests(
                [LinkRequest(query, candidates=shipped)], default_pool=pool
            )[0]

        yield via_engine
        return
    workers = 1 if request.param == "1 worker" else 2
    engine = LinkEngine(*models, options=RANKING)
    config = ServerConfig(port=0, max_wait_ms=1.0, workers=workers)
    with BackgroundServer(engine, pool, config=config) as background:
        with ServiceClient(*background.address) as client:
            yield client.link


class TestIdReuse:
    def test_query_id_reuse_matches_fresh_engine(
        self, link, scenario, pool, models
    ):
        first, second = list(scenario.p_db)[:2]
        reused = second.with_id(first.traj_id)
        original = link(first)
        got = link(reused)
        expected = fresh_link(models, reused, pool)
        assert expected != original  # the records differ, so must the answer
        assert got == expected

    def test_shipped_candidate_id_reuse_matches_fresh_engine(
        self, link, scenario, pool, models
    ):
        query = list(scenario.p_db)[0]
        shipped = pool[:8]
        reused = [pool[8].with_id(pool[0].traj_id)] + shipped[1:]
        original = link(query, candidates=shipped)
        got = link(query, candidates=reused)
        expected = fresh_link(models, query, reused)
        assert expected != original
        assert got == expected


class TestCallerPoolIdReuse:
    """``LinkEngine.link``/``link_batch`` over caller-supplied pools.

    A library caller passes a new candidate list on every call, so a
    reused id there must be treated like one shipped with a request.
    """

    @pytest.mark.parametrize("call", ["link", "link_batch"])
    def test_candidate_id_reuse_matches_fresh_engine(
        self, call, scenario, pool, models
    ):
        engine = LinkEngine(*models, options=RANKING)
        query = list(scenario.p_db)[0]

        def run(candidates):
            if call == "link":
                return engine.link(query, candidates)
            return engine.link_batch([query], candidates)[0]

        reused = [pool[8].with_id(pool[0].traj_id)] + pool[1:8]
        original = run(pool[:8])
        got = run(reused)
        expected = fresh_link(models, query, reused)
        assert expected != original
        assert got == expected
