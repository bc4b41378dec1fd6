"""Density measures (Definitions 1, 4 and 10 of the paper)."""

from __future__ import annotations

from ..cliques.enumeration import count_cliques
from ..graph.graph import Graph


def edge_density(graph: Graph) -> float:
    """``τ(G) = |E| / |V|`` (Definition 1); 0.0 for the empty graph."""
    return graph.edge_density()


def clique_density(graph: Graph, h: int) -> float:
    """h-clique-density ``ρ(G, Ψ) = μ(G, Ψ) / |V|`` (Definition 4)."""
    if graph.num_vertices == 0:
        return 0.0
    return count_cliques(graph, h) / graph.num_vertices
