"""Pattern-instance enumeration via subgraph isomorphism (Section 7.1).

Definition 8: a pattern instance is a subgraph ``S ⊆ G`` isomorphic to
Ψ.  Instances are identified by their *edge set* -- automorphic
re-embeddings onto the same edges are one instance (the remark below
Definition 9).

The matcher is a straightforward backtracking embedder: pattern
vertices are visited in a connectivity-preserving order, candidates are
drawn from the intersection of the images of already-mapped pattern
neighbours, and complete embeddings are deduplicated by image edge set.
Patterns have 3-6 vertices, so the |Aut(Ψ)|-fold overcounting this
deduplication absorbs is a small constant.
"""

from __future__ import annotations

from ..graph.graph import Graph, Vertex
from .pattern import Pattern

#: A pattern instance: the frozenset of its image edges, each edge a
#: frozenset of two vertices.
Instance = frozenset


def instance_vertices(instance: Instance) -> frozenset:
    """The vertex set spanned by an instance's edges."""
    return frozenset(v for edge in instance for v in edge)


def _search_order(pattern: Pattern) -> list[Vertex]:
    """Pattern vertices ordered so each one touches an earlier one.

    Starts from a maximum-degree vertex and greedily appends the vertex
    with the most already-ordered neighbours (ties by degree) -- the
    standard candidate-narrowing heuristic.
    """
    g = pattern.graph
    ordered = [max(g.vertices(), key=g.degree)]
    placed = set(ordered)
    while len(ordered) < g.num_vertices:
        best = max(
            (v for v in g if v not in placed),
            key=lambda v: (len(g.neighbors(v) & placed), g.degree(v)),
        )
        ordered.append(best)
        placed.add(best)
    return ordered


def enumerate_pattern_instances(
    graph: Graph, pattern: Pattern, induced: bool = False
) -> list[Instance]:
    """All instances of ``pattern`` in ``graph`` as image edge sets.

    With ``induced=True``, only *vertex-induced* instances are kept:
    vertices non-adjacent in Ψ must be non-adjacent in the image too
    (the adaptation Section 7.1 notes in passing).  An induced instance
    is still reported by its edge set, which the vertex set then
    determines uniquely.

    >>> from repro.graph.graph import complete_graph
    >>> from repro.patterns.pattern import get_pattern
    >>> len(enumerate_pattern_instances(complete_graph(4), get_pattern("diamond")))
    3
    >>> len(enumerate_pattern_instances(complete_graph(4), get_pattern("diamond"), induced=True))
    0
    """
    order = _search_order(pattern)
    pg = pattern.graph
    position = {v: i for i, v in enumerate(order)}
    # for each position i: pattern neighbours at earlier positions
    earlier_neighbors: list[list[int]] = []
    pattern_degree = [pg.degree(v) for v in order]
    for i, v in enumerate(order):
        earlier_neighbors.append([position[u] for u in pg.neighbors(v) if position[u] < i])

    size = pattern.size
    found: set[Instance] = set()
    mapping: list[Vertex] = [None] * size
    used: set[Vertex] = set()
    pattern_edges = [(position[u], position[v]) for u, v in pg.edges()]

    pattern_non_edges = [
        (i, j)
        for i in range(size)
        for j in range(i + 1, size)
        if not pg.has_edge(order[i], order[j])
    ]

    def backtrack(i: int) -> None:
        if i == size:
            if induced and any(
                graph.has_edge(mapping[a], mapping[b]) for a, b in pattern_non_edges
            ):
                return
            found.add(
                frozenset(frozenset((mapping[a], mapping[b])) for a, b in pattern_edges)
            )
            return
        anchors = earlier_neighbors[i]
        if anchors:
            candidate_sets = sorted(
                (graph.neighbors(mapping[a]) for a in anchors), key=len
            )
            candidates = candidate_sets[0]
            rest = candidate_sets[1:]
        else:  # only the root has no anchors
            candidates = graph.neighbors(mapping[0]) if i else None
            rest = []
        for w in candidates:
            if w in used or graph.degree(w) < pattern_degree[i]:
                continue
            if any(w not in s for s in rest):
                continue
            mapping[i] = w
            used.add(w)
            backtrack(i + 1)
            used.discard(w)
        mapping[i] = None

    for root in graph:
        if graph.degree(root) < pattern_degree[0]:
            continue
        mapping[0] = root
        used.add(root)
        backtrack(1)
        used.discard(root)
        mapping[0] = None
    return sorted(found, key=lambda inst: sorted(map(sorted, inst)))


def count_pattern_instances(graph: Graph, pattern: Pattern, induced: bool = False) -> int:
    """``μ(G, Ψ)``: the number of pattern instances in the graph."""
    return len(enumerate_pattern_instances(graph, pattern, induced=induced))


def pattern_density(graph: Graph, pattern: Pattern) -> float:
    """Pattern-density ``ρ(G, Ψ) = μ(G, Ψ) / |V|`` (Definition 10)."""
    if graph.num_vertices == 0:
        return 0.0
    return count_pattern_instances(graph, pattern) / graph.num_vertices
