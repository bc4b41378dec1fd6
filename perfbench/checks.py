"""Answer checks that do not trust the solver's own counting.

The density of a returned vertex set is recomputed here from the graph's
adjacency alone: edges for h = 2, triangles for h = 3.  Every solver in
the program reports its density as one division of an exact instance
count by the set size, so the recomputed value must match bit for bit.
"""

from __future__ import annotations


def clique_count(graph, vertices, h: int) -> int:
    """Number of h-cliques (h = 2 or 3) inside ``graph[vertices]``."""
    members = set(vertices)
    rank = {v: i for i, v in enumerate(members)}
    up = {
        v: {u for u in graph.neighbors(v) if u in members and rank[u] > rank[v]}
        for v in members
    }
    if h == 2:
        return sum(len(nbrs) for nbrs in up.values())
    if h == 3:
        return sum(len(up[v] & up[u]) for v in members for u in up[v])
    raise ValueError(f"independent count supports h = 2 or 3, got {h}")


def density(graph, vertices, h: int) -> float:
    """Ψ-density of ``graph[vertices]``, 0.0 for the empty set."""
    if not vertices:
        return 0.0
    return clique_count(graph, vertices, h) / len(vertices)


def check_exact(graph, h: int, result) -> str | None:
    """``None`` when the reported density is the set's true density."""
    if not result.vertices:
        return "empty answer"
    true = density(graph, result.vertices, h)
    if true != result.density:
        return f"reported density {result.density!r} != recomputed {true!r}"
    return None


def check_approx(graph, h: int, result, kmax: int) -> str | None:
    """Exact density of the answer, and at least kmax / h (Theorem 1)."""
    problem = check_exact(graph, h, result)
    if problem is not None:
        return problem
    if result.density < kmax / h:
        return f"density {result.density!r} below kmax/h = {kmax}/{h}"
    return None


def same_answer(a, b) -> bool:
    """Bit-identical vertex sets and densities."""
    return set(a.vertices) == set(b.vertices) and a.density == b.density
