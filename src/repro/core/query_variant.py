"""Query-constrained densest subgraph (Section 6.3 variant).

Tsourakakis et al. [65] study the variant that returns the densest
subgraph containing a given query vertex set Q.  The paper sketches how
cores localise it for edge-density: with ``x`` the minimum classical
core number over Q, the x-core contains Q and has density >= x/2
(Theorem 1), so ``ρ_opt(Q) >= x/2`` and the flow search can run on a
small anchored core instead of the whole graph.

The anchored k-core used here is the peel that never removes a query
vertex; the standard exchange argument shows the optimal S is contained
in the anchored ⌈ρ⌉-core for any valid lower bound ρ (every non-query
vertex of S has degree >= ρ_opt inside S).
"""

from __future__ import annotations

import math
from typing import Iterable

from ..flow import dinic
from ..flow.builders import (
    SOURCE,
    build_eds_network,
    build_eds_parametric,
    vertices_of_cut,
)
from ..graph.graph import Graph, Vertex
from .exact import DensestSubgraphResult, check_flow_engine
from .kcore import core_decomposition


def anchored_core(graph: Graph, anchors: set[Vertex], k: int) -> Graph:
    """The anchored k-core: peel non-anchor vertices of degree < k.

    Anchors always survive; the result contains every subgraph S ⊇
    anchors whose non-anchor vertices all have degree >= k inside S.
    """
    work = graph.copy()
    changed = True
    while changed:
        changed = False
        doomed = [v for v in work if v not in anchors and work.degree(v) < k]
        for v in doomed:
            work.remove_vertex(v)
            changed = True
    return work


def query_densest(
    graph: Graph, query: Iterable[Vertex], *, flow_engine: str = "ggt"
) -> DensestSubgraphResult:
    """Densest (edge-density) subgraph containing every query vertex.

    Binary search over α on a Goldberg network restricted to the
    anchored core, with infinite source arcs pinning the query vertices
    to the source side of every cut.  The default ``"ggt"`` engine
    replaces the binary search with the discrete-Newton breakpoint
    walk (each α guess is the exact density of the previous cut);
    ``"rebuild"`` keeps the binary search and reconstructs the network
    per iteration -- identical results, the GGT walk in far fewer
    max-flow solves.

    Raises
    ------
    KeyError
        If a query vertex is missing from the graph.
    ValueError
        If the query set is empty.
    """
    check_flow_engine(flow_engine)
    anchors = set(query)
    if not anchors:
        raise ValueError("query set must be non-empty")
    for q in anchors:
        if q not in graph:
            raise KeyError(f"query vertex {q!r} not in graph")

    core = core_decomposition(graph)
    x = min(core[q] for q in anchors)
    # The x-core contains every anchor and has density >= x/2
    # (Theorem 1); it is the witness that seeds both the lower bound
    # and the best-so-far answer, so an optimum that exactly equals the
    # bound is still returned.
    x_core = {v for v, c in core.items() if c >= x} | anchors
    best = set(x_core)
    low = max(x / 2.0, graph.subgraph(x_core).edge_density())
    # the anchored ⌈low⌉-core contains the optimum (exchange argument:
    # every non-anchor vertex of the optimum has degree >= ρ_opt >= low
    # inside it)
    domain = anchored_core(graph, anchors, math.ceil(low))
    n = domain.num_vertices
    high = float(domain.max_degree())
    resolution = 1.0 / (n * (n - 1)) if n > 1 else 0.5
    iterations = 0

    if flow_engine == "ggt":
        # Newton walk: the anchored min cut is never empty (anchors are
        # pinned), so feasibility is the density test; each new α is the
        # exact density of the cut just found, and the walk stops the
        # first time the cut cannot beat its own α.
        net = build_eds_parametric(domain, anchors=anchors)
        alpha = low
        best_density = graph.subgraph(best).edge_density()
        while True:
            cut = net.solve(alpha)
            iterations += 1
            sub = domain.subgraph(cut)
            density = sub.edge_density() if sub.num_vertices else 0.0
            if density <= alpha:
                break
            if density > best_density:
                best = cut
                best_density = density
            alpha = density
        return DensestSubgraphResult(
            vertices=set(best),
            density=best_density,
            method="QueryDensest",
            iterations=iterations,
        )

    while high - low >= resolution:
        iterations += 1
        alpha = (low + high) / 2.0
        network = build_eds_network(domain, alpha)
        for q in anchors:
            network.add_arc(SOURCE, ("v", q), float("inf"))
        dinic.max_flow(network)
        cut = vertices_of_cut(network.min_cut_source_side())
        sub = domain.subgraph(cut)
        if sub.num_vertices and sub.edge_density() > alpha:
            low = alpha
            if sub.edge_density() > graph.subgraph(best).edge_density():
                best = cut
            domain = anchored_core(domain, anchors, math.ceil(low))
        else:
            high = alpha
    sub = graph.subgraph(best)
    return DensestSubgraphResult(
        vertices=set(best),
        density=sub.edge_density(),
        method="QueryDensest",
        iterations=iterations,
    )
