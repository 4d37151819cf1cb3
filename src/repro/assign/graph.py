"""Sparse cost-graph construction for global one-to-one assignment.

Per-query FTL ranks candidates independently; the investigation
scenario wants a *global* matching where each candidate is awarded to
at most one query.  Solving that over the full |Q| x |C| score matrix
is quadratic-dense; SLIM-style blocked linkage solves it only over the
pairs the spatio-temporal blocking keeps.

:func:`build_cost_graph` scores every kept (query, candidate) pair in
**one** pass through :meth:`LinkEngine.link_requests` — the same batch
path, profile cache, Poisson-Binomial memo and kernel backends as
serving — and records every pair whose Eq. 2 score clears
``min_score`` as a weighted edge.  Eq. 2 scores are per-pair (they do
not depend on the rest of the pool), so the blocked edges carry
exactly the scores a dense pass would give; blocking only *removes*
edges that never cleared the blocking screen.

The resulting :class:`CostGraph` is the single input of
:mod:`repro.assign.solver`; edges are stored canonically sorted by
``(query_index, candidate_index)`` so every solver sees the same
deterministic structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.engine import LinkEngine, LinkOptions, LinkRequest, LinkResult
from repro.core.trajectory import Trajectory
from repro.errors import ValidationError
from repro.obs import span

#: Score-all edge semantics: alpha1=0 admits every pair to phase 2 and
#: alpha2=1 only drops p2 == 1 pairs, whose Eq. 2 score is exactly 0 —
#: below any ``min_score >= 0`` threshold anyway.  With these options
#: the graph's edges are the :class:`~repro.core.engine.LinkEngine`
#: Eq. 2 scores of every pair; the subsystem's entry points default to
#: them so the solver sees every positive-score edge and decides
#: globally; :func:`edge_scoring_options` computes ``p2`` only where
#: ``p1 >= min_score``.  Pass an explicit ``options`` to restrict edges
#: to decision-passing pairs instead.
PERMISSIVE_LINK_OPTIONS = LinkOptions(
    method="alpha-filter", alpha1=0.0, alpha2=1.0
)


def edge_scoring_options(options: LinkOptions, min_score: float) -> LinkOptions:
    """``options`` for edge scoring: ``top_k`` off (a truncated ranking
    drops edges); for ``alpha-filter``, alpha1 floored at ``min_score``
    (capped at 1).  Exact: p-values lie in [0, 1], so the float score
    ``p1 * (1 - p2)`` is at most ``p1``, and a pair with ``p1 <=
    min_score`` never passes the strict edge test; phase 1 drops it."""
    if options.method != "alpha-filter":
        return options.with_updates(top_k=None)
    alpha1 = min(max(options.alpha1, min_score), 1.0)
    return options.with_updates(top_k=None, alpha1=alpha1)


@dataclass(frozen=True)
class CostGraph:
    """A sparse bipartite score graph: the input of the solvers.

    ``edges[k] = (query_index, candidate_index, score)`` with indices
    into ``query_ids`` / ``candidate_ids``; edges are sorted by
    ``(query_index, candidate_index)`` (canonical order) and every
    score is ``> min_score >= 0``.
    """

    query_ids: tuple[object, ...]
    candidate_ids: tuple[object, ...]
    edges: tuple[tuple[int, int, float], ...]
    min_score: float
    n_scored_pairs: int

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_possible_pairs(self) -> int:
        return len(self.query_ids) * len(self.candidate_ids)

    @property
    def density(self) -> float:
        """Kept edges over the dense |Q| x |C| pair count."""
        possible = self.n_possible_pairs
        return len(self.edges) / possible if possible else 0.0

    def triples(self) -> Iterator[tuple[object, object, float]]:
        """Edges as ``(query_id, candidate_id, score)`` triples."""
        for qi, ci, score in self.edges:
            yield self.query_ids[qi], self.candidate_ids[ci], score


def _unique_ids(trajectories: Sequence[Trajectory], what: str) -> list[object]:
    ids = [t.traj_id for t in trajectories]
    if len(set(ids)) != len(ids):
        raise ValidationError(f"duplicate {what} trajectory ids")
    return ids


def graph_from_link_results(
    results: Sequence[LinkResult],
    query_ids: Sequence[object],
    candidate_ids: Sequence[object],
    min_score: float,
    n_scored_pairs: int,
) -> CostGraph:
    """Assemble a :class:`CostGraph` from already-scored link results.

    ``results[i]`` is the (untruncated) ranking of ``query_ids[i]``.
    Shared between :func:`build_cost_graph` and the service's
    scatter-gather path, so both produce byte-identical graphs from
    identical scores.
    """
    if min_score < 0:
        raise ValidationError(f"min_score must be >= 0, got {min_score}")
    if len(results) != len(query_ids):
        raise ValidationError(
            f"{len(results)} results for {len(query_ids)} queries"
        )
    index_of = {cid: i for i, cid in enumerate(candidate_ids)}
    if len(index_of) != len(candidate_ids):
        raise ValidationError("duplicate candidate trajectory ids")
    edges: list[tuple[int, int, float]] = []
    for qi, result in enumerate(results):
        for cand in result.candidates:
            if cand.score > min_score:
                edges.append((qi, index_of[cand.candidate_id], cand.score))
    edges.sort(key=lambda e: (e[0], e[1]))
    return CostGraph(
        query_ids=tuple(query_ids),
        candidate_ids=tuple(candidate_ids),
        edges=tuple(edges),
        min_score=min_score,
        n_scored_pairs=n_scored_pairs,
    )


def build_cost_graph(
    engine: LinkEngine,
    queries: Sequence[Trajectory],
    pool: Iterable[Trajectory] | None = None,
    *,
    blocking=None,
    options: LinkOptions | None = None,
    min_score: float = 1e-6,
    min_overlap_s: float = 0.0,
) -> CostGraph:
    """Score every kept (query, candidate) pair in one engine pass.

    Parameters
    ----------
    engine:
        A fitted :class:`LinkEngine`; its kernel backend and profile
        cache are reused unchanged.
    queries:
        The query side (unique ids required — they key the matching).
    pool:
        Dense candidate pool; every query is scored against all of it
        (minus what ``blocking`` prunes, when given).
    blocking:
        Anything with ``candidates_for(query, min_overlap_s)`` —
        typically a :class:`repro.store.stindex.SpatioTemporalIndex`.
        When given, each query is scored only against its blocked
        candidate set; ``pool`` may be omitted.
    options:
        Per-pair scoring options, applied through
        :func:`edge_scoring_options`.
    min_score:
        Strictly-greater threshold for keeping an edge.
    """
    if min_score < 0:
        raise ValidationError(f"min_score must be >= 0, got {min_score}")
    if pool is None and blocking is None:
        raise ValidationError("need a candidate pool or a blocking index")
    queries = list(queries)
    query_ids = _unique_ids(queries, "query")

    # Candidate indexing is fixed *before* scoring (pool order, then
    # first-seen blocking order) so edge indices never depend on scores.
    index_of: dict[object, int] = {}
    candidate_ids: list[object] = []
    pool_list: list[Trajectory] | None = None
    if pool is not None:
        pool_list = list(pool)
        for cid in _unique_ids(pool_list, "candidate"):
            index_of[cid] = len(candidate_ids)
            candidate_ids.append(cid)

    resolved = edge_scoring_options(
        options if options is not None else engine.options, min_score
    )

    requests: list[LinkRequest] = []
    n_scored = 0
    if blocking is not None:
        for query in queries:
            kept = blocking.candidates_for(query, min_overlap_s)
            for cand in kept:
                if cand.traj_id not in index_of:
                    index_of[cand.traj_id] = len(candidate_ids)
                    candidate_ids.append(cand.traj_id)
            n_scored += len(kept)
            requests.append(
                LinkRequest(
                    query=query, candidates=tuple(kept), options=resolved
                )
            )
    else:
        assert pool_list is not None
        n_scored = len(queries) * len(pool_list)
        requests = [
            LinkRequest(query=query, options=resolved) for query in queries
        ]

    with span("edge_scoring"):
        results = engine.link_requests(requests, default_pool=pool_list)

    return graph_from_link_results(
        results, query_ids, candidate_ids, min_score, n_scored
    )
