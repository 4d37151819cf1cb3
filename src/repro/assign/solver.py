"""Exact sparse solvers over a :class:`~repro.assign.graph.CostGraph`.

The blocked edge graph decomposes into small connected components
(queries and candidates linked by shared edges).  A maximum-weight
matching never crosses components, so each component is solved
independently and exactly:

* ``sparse`` — :func:`scipy.optimize.linear_sum_assignment` on the
  component's dense sub-block, zero-padded for missing edges.  Every
  kept edge has positive weight, so a rectangular LSA over the padded
  block attains exactly the maximum-weight matching (padding cells
  contribute 0, i.e. "unmatched"); matched zero cells are dropped
  afterwards.  This is the FishPy n-rook formulation.
* ``greedy`` — the 1/2-approximation, taking edges in
  ``(-score, query_index, candidate_index)`` order; the fallback when
  scipy is absent (``FTL_NO_SCIPY=1`` forces it, for testing).
* ``reference`` — dense maximum-weight matching by
  :func:`networkx.max_weight_matching` per component: exact and slow,
  kept as the parity oracle of the other two.

Determinism: edges enter every backend in one canonical order —
``(-score, query_index, candidate_index)`` for the ordered consumers,
``(query_index, candidate_index)`` for the matrix layout — and
components are solved in ascending smallest-query-index order, so a
given graph always produces the same matching on the same backend.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.assign.graph import CostGraph
from repro.errors import ValidationError
from repro.obs import span

BACKENDS = ("auto", "sparse", "greedy", "reference")

#: Canonical edge order shared by every backend (ties broken by index).
TIE_BREAK = "(-score, query_index, candidate_index)"


def scipy_available() -> bool:
    """Whether the scipy LSA solver can be used (env-gated for tests)."""
    if os.environ.get("FTL_NO_SCIPY"):
        return False
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        return False
    return True


def resolve_backend(backend: str = "auto") -> str:
    """Map ``auto`` to the best available solver; validate the rest."""
    if backend not in BACKENDS:
        raise ValidationError(
            f"unknown assignment backend {backend!r}; known: {BACKENDS}"
        )
    if backend == "auto":
        return "sparse" if scipy_available() else "greedy"
    if backend == "sparse" and not scipy_available():
        raise ValidationError(
            "backend 'sparse' requires scipy; use 'auto' for the "
            "greedy fallback"
        )
    return backend


@dataclass(frozen=True)
class GlobalAssignment:
    """A solved one-to-one matching over a :class:`CostGraph`."""

    pairs: Mapping[object, object]  # query id -> candidate id
    scores: Mapping[object, float]  # query id -> matched edge score
    total_score: float
    backend: str
    n_components: int
    n_edges: int
    n_queries: int
    n_candidates: int

    def __len__(self) -> int:
        return len(self.pairs)

    def accuracy(self, truth: Mapping[object, object]) -> float:
        """Fraction of assigned queries whose candidate is correct."""
        if not self.pairs:
            return 0.0
        hits = sum(1 for q, c in self.pairs.items() if truth.get(q) == c)
        return hits / len(self.pairs)

    def unassigned(self, query_ids: Sequence[object]) -> list[object]:
        """The subset of ``query_ids`` left unmatched."""
        return [qid for qid in query_ids if qid not in self.pairs]

    def to_dict(self) -> dict:
        return {
            "matches": [
                {
                    "query_id": qid,
                    "candidate_id": cid,
                    "score": self.scores[qid],
                }
                for qid, cid in self.pairs.items()
            ],
            "total_score": self.total_score,
            "solver": self.backend,
            "n_components": self.n_components,
            "n_edges": self.n_edges,
            "n_queries": self.n_queries,
            "n_candidates": self.n_candidates,
        }


@dataclass(frozen=True)
class _Component:
    """One connected component of the bipartite edge graph."""

    query_indices: tuple[int, ...]  # ascending
    candidate_indices: tuple[int, ...]  # ascending
    edges: tuple[tuple[int, int, float], ...]  # canonical (qi, ci) order


def split_components(graph: CostGraph) -> list[_Component]:
    """Connected components of the edge graph, by union-find.

    Isolated queries/candidates (no surviving edge) belong to no
    component — they can never be matched.  Components are returned in
    ascending order of their smallest query index, so downstream
    iteration is deterministic.
    """
    with span("component_split"):
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:  # path compression
                parent[x], x = root, parent[x]
            return root

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

        n_q = len(graph.query_ids)
        for qi, ci, _ in graph.edges:
            for node in (qi, n_q + ci):
                parent.setdefault(node, node)
            union(qi, n_q + ci)

        grouped: dict[int, list[tuple[int, int, float]]] = {}
        for edge in graph.edges:
            grouped.setdefault(find(edge[0]), []).append(edge)

        components = []
        for root in sorted(grouped):
            edges = grouped[root]
            components.append(
                _Component(
                    query_indices=tuple(sorted({e[0] for e in edges})),
                    candidate_indices=tuple(sorted({e[1] for e in edges})),
                    edges=tuple(edges),
                )
            )
    return components


def _solve_sparse(comp: _Component) -> list[tuple[int, int, float]]:
    from scipy.optimize import linear_sum_assignment

    row_of = {qi: r for r, qi in enumerate(comp.query_indices)}
    col_of = {ci: c for c, ci in enumerate(comp.candidate_indices)}
    block = np.zeros((len(row_of), len(col_of)), dtype=np.float64)
    for qi, ci, score in comp.edges:
        block[row_of[qi], col_of[ci]] = score
    rows, cols = linear_sum_assignment(block, maximize=True)
    matched = []
    for r, c in zip(rows, cols):
        if block[r, c] > 0.0:  # drop padding cells: "unmatched"
            matched.append(
                (comp.query_indices[r], comp.candidate_indices[c], block[r, c])
            )
    return matched


def _solve_greedy(comp: _Component) -> list[tuple[int, int, float]]:
    ordered = sorted(comp.edges, key=lambda e: (-e[2], e[0], e[1]))
    taken_q: set[int] = set()
    taken_c: set[int] = set()
    matched = []
    for qi, ci, score in ordered:
        if qi in taken_q or ci in taken_c:
            continue
        taken_q.add(qi)
        taken_c.add(ci)
        matched.append((qi, ci, score))
    return matched


def _solve_reference(comp: _Component) -> list[tuple[int, int, float]]:
    # Exact maximum-weight matching by networkx over the dense component
    # graph.  Edges enter in the canonical (-score, query_index,
    # candidate_index) order and networkx iterates in insertion order,
    # so a given component always yields the same matching.
    import networkx as nx

    dense = nx.Graph()
    for qi, ci, score in sorted(comp.edges, key=lambda e: (-e[2], e[0], e[1])):
        dense.add_edge(("Q", qi), ("C", ci), weight=score)
    matched: dict[int, int] = {}
    for a, b in nx.max_weight_matching(dense, maxcardinality=False):
        query_key, cand_key = (a, b) if a[0] == "Q" else (b, a)
        matched[query_key[1]] = cand_key[1]
    return [
        (qi, ci, score)
        for qi, ci, score in comp.edges
        if matched.get(qi) == ci
    ]


_COMPONENT_SOLVERS = {
    "sparse": _solve_sparse,
    "greedy": _solve_greedy,
    "reference": _solve_reference,
}


def solve(graph: CostGraph, backend: str = "auto") -> GlobalAssignment:
    """Solve the global one-to-one assignment over a cost graph."""
    resolved = resolve_backend(backend)
    components = split_components(graph)
    solver = _COMPONENT_SOLVERS[resolved]
    pairs: dict[object, object] = {}
    scores: dict[object, float] = {}
    total = 0.0
    with span("solve"):
        for comp in components:
            for qi, ci, score in sorted(solver(comp)):
                pairs[graph.query_ids[qi]] = graph.candidate_ids[ci]
                scores[graph.query_ids[qi]] = score
                total += score
    return GlobalAssignment(
        pairs=pairs,
        scores=scores,
        total_score=total,
        backend=resolved,
        n_components=len(components),
        n_edges=graph.n_edges,
        n_queries=len(graph.query_ids),
        n_candidates=len(graph.candidate_ids),
    )
