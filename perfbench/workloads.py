"""The benchmark's seeded inputs: three workloads of solve cells, and serve graphs.

Graphs come from the :mod:`repro.graph.generators` families with the
parameters of :mod:`repro.datasets.registry`, its fixed seeds included,
at :data:`SCALE` times the size the workload was specified at.  The
benchmark's seed then relabels each graph: it draws a permutation of the
vertex ids and the order in which vertices and edges are inserted.  Every
seed therefore gives different inputs (other ids, other adjacency and
iteration orders, other snapshot keys) of the same shape.

Why not draw the shape from the seed as well: the exact solvers' cost
jumps with discrete features of the shape.  On R-MAT, CoreExact takes two
or three Newton solves depending on the draw, so one pass varied 0.8 s to
1.8 s across seeds, a spread no regression bound of at most 25 % absorbs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.graph import generators, validate
from repro.graph.graph import Graph

#: Share of the specified graph sizes that the benchmark builds.
SCALE = 0.25

#: Methods whose answer is exact (checked by exact equality).
EXACT_METHODS = ("exact", "core-exact")


@dataclass(frozen=True)
class Cell:
    """One graph of a workload and the ``api.densest_subgraph`` call on it."""

    name: str
    shape: Callable[[], Graph]  # deterministic
    h: int
    method: str

    def build(self, seed: int) -> Graph:
        """This cell's graph, relabelled by ``seed``."""
        return relabelled(self.shape(), seed)


def relabelled(graph: Graph, seed: int) -> Graph:
    """``graph`` with permuted vertex ids and shuffled insertion orders."""
    rng = random.Random(seed)
    old = list(graph)
    new = old[:]
    rng.shuffle(new)
    label = dict(zip(old, new))
    edges = [(label[u], label[v]) for u, v in graph.edges()]
    rng.shuffle(edges)
    rng.shuffle(new)
    return Graph(edges, vertices=new)


def _n(size: float) -> int:
    return max(int(size * SCALE), 10)


def collab(n: int, m_per: int, clique: int, seed: int) -> Graph:
    """Collaboration family: Holme-Kim power law plus one planted clique."""
    graph = generators.holme_kim(n, m_per, triangle_prob=0.6, seed=seed)
    graph, _ = generators.planted_clique(graph, clique, seed=seed + 1)
    return graph


def power_law(n: int, alpha: float, mean_degree: float, seed: int) -> Graph:
    """Power-law family: Chung-Lu over power-law expected degrees."""
    return generators.chung_lu(generators.power_law_weights(n, alpha, mean_degree), seed=seed)


# Registry parameters and seeds: SSCA (max clique 16, seed 41), ER (m = 12 n,
# 42), R-MAT (m = 6.5 n, 43), As-Caida (power law 2.1, mean degree 8, 15),
# Cit-Patents (power law 2.3, mean degree 8, 22), Friendster (collab, 5
# edges per vertex, 30-clique, 23), DBLP (collab, 3, 26-clique, 21), As-733
# (power law 2.2, mean degree 4.3, 13) and Netscience (collab, 2, 18-clique
# shrunk with sqrt(scale) below its native size as the registry does, 12).
CELLS: dict[str, tuple[Cell, ...]] = {
    "clique-exact": (
        Cell("ssca", lambda: generators.ssca(_n(20_000), max_clique_size=16, seed=41), 3,
             "core-exact"),
        Cell("power-law", lambda: power_law(_n(9_000), 2.1, 8.0, 15), 3, "core-exact"),
        Cell("power-law-exact", lambda: power_law(_n(3_000), 2.1, 8.0, 15), 3, "exact"),
    ),
    "edge-exact": (
        Cell("rmat", lambda: generators.rmat(_n(20_000), _n(130_000), seed=43), 2, "core-exact"),
        Cell("er", lambda: generators.erdos_renyi_gnm(_n(12_000), _n(144_000), seed=42), 2,
             "core-exact"),
    ),
    "approx": (
        Cell("power-law", lambda: power_law(_n(120_000), 2.3, 8.0, 22), 3, "core-app"),
        Cell("collab-clique", lambda: collab(_n(160_000), 5, 30, 23), 3, "core-app"),
        Cell("collab-inc", lambda: collab(_n(24_000), 3, 26, 21), 3, "inc-app"),
        Cell("collab-peel", lambda: collab(_n(16_000), 3, 26, 21), 3, "peel"),
    ),
}

#: The serve session's graphs, shared by every workload (see run.py).  Every
#: workload runs the serve session on them, so none is needed for it alone.
SERVE_GRAPHS: tuple[Cell, ...] = (
    Cell("rmat", lambda: generators.rmat(_n(2_000), _n(13_000), seed=43), 2, "core-exact"),
    Cell("power-law", lambda: power_law(_n(1_500), 2.2, 4.3, 13), 2, "core-exact"),
    Cell("collab", lambda: collab(_n(1_600), 2, max(4, int(18 * SCALE**0.5)), 12), 3,
         "core-exact"),
)

WORKLOADS = tuple(CELLS)


def build_graphs(cells: tuple[Cell, ...], seed: int) -> list[Graph]:
    """Generate, relabel and validate every graph of ``cells`` (the timed set-up)."""
    graphs = []
    for i, cell in enumerate(cells):
        graph = cell.build(seed * 1_000 + i)
        validate.validate_graph(graph)
        graphs.append(graph)
    return graphs
