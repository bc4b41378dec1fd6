"""Property tests for the array-backed clique-index layer.

The :class:`~repro.cliques.index.CliqueIndex` is the single source of
clique instances for every solver, and it has two interchangeable
producers: the numpy intersection kernels (h = 3/4, plus the trivial
h = 2 edge kernel) and the pure-python reference enumerator.  These
tests pin, over a pool of ~50 random graphs:

* **instance sets** -- the canonical row array is bit-identical between
  the two kernel families, and equal *as a set* to the reference
  enumerator's output;
* **degrees** -- the index's degree arrays match the reference
  ``clique_degrees`` on every graph;
* **incidence** -- the CSR incidence ranges are exactly the posting
  lists of each vertex;
* **solver outputs** -- decomposition, peeling, and the exact solvers
  return identical results whether their clique material comes from the
  numpy kernels, the python fallback, or a pre-threaded API index, and
  the index survives a CoreExact call unconsumed.

Run with ``REPRO_NO_NUMPY=1`` to force the pure-python half on an
environment that has numpy (CI exercises both modes).
"""

import random

import pytest

from repro.cliques.enumeration import clique_degrees, enumerate_cliques
from repro.cliques.index import CliqueIndex
from repro.cliques.kernels import have_numpy
from repro.core.clique_core import clique_core_decomposition
from repro.core.core_exact import core_exact_densest
from repro.core.exact import exact_densest
from repro.core.inc_app import inc_app_densest
from repro.core.peel import peel_densest
from repro.graph.graph import Graph

#: Both kernel families when numpy is importable, otherwise just the
#: fallback (the parametrised tests then still pin enumerator equality).
KERNEL_MODES = (False, True) if have_numpy() else (False,)

H_VALUES = (3, 4, 5)


def _random_graph(n: int, m: int, seed: int) -> Graph:
    rng = random.Random(seed)
    g = Graph(vertices=range(n))
    max_edges = n * (n - 1) // 2
    target = min(m, max_edges)
    while g.num_edges < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    return g


def _graph_pool():
    """~50 random graphs spanning sparse to near-complete."""
    pool = []
    seed = 0
    for n in (6, 10, 14, 18, 24):
        for density in (0.15, 0.3, 0.5, 0.75):
            for _ in range(2):
                seed += 1
                m = int(n * (n - 1) / 2 * density)
                pool.append(_random_graph(n, m, seed))
    # degenerate shapes round the pool out to 50
    pool.append(Graph())
    pool.append(Graph(vertices=range(5)))
    for k in (3, 4, 5):
        g = Graph(vertices=range(k))
        for i in range(k):
            for j in range(i + 1, k):
                g.add_edge(i, j)
        pool.append(g)
    for n in (8, 12):
        pool.append(Graph((i, (i + 1) % n) for i in range(n)))
    pool.append(Graph((0, i) for i in range(1, 8)))  # star: no h>=3 cliques
    pool.append(_random_graph(30, 60, 99))
    pool.append(_random_graph(30, 200, 100))
    return pool


GRAPHS = _graph_pool()


def test_pool_size():
    assert len(GRAPHS) >= 50


class TestInstanceEquivalence:
    @pytest.mark.parametrize("h", H_VALUES)
    def test_rows_match_reference_enumerator(self, h):
        for g in GRAPHS:
            for use_numpy in KERNEL_MODES:
                index = CliqueIndex(g, h, use_numpy=use_numpy)
                reference = {frozenset(c) for c in enumerate_cliques(g, h)}
                got = {frozenset(index.instance(i)) for i in range(index.m)}
                assert got == reference
                assert index.m == len(reference)  # no duplicate rows

    @pytest.mark.parametrize("h", (2, 3, 4))
    def test_kernel_families_bit_identical(self, h):
        if not have_numpy():
            pytest.skip("numpy kernels unavailable")
        for g in GRAPHS:
            a = CliqueIndex(g, h, use_numpy=True)
            b = CliqueIndex(g, h, use_numpy=False)
            assert a.inst == b.inst
            assert a.inc_start == b.inc_start
            assert a.inc_ids == b.inc_ids
            assert a.base_degree == b.base_degree

    @pytest.mark.parametrize("h", H_VALUES)
    def test_degrees_match_reference(self, h):
        for g in GRAPHS:
            for use_numpy in KERNEL_MODES:
                index = CliqueIndex(g, h, use_numpy=use_numpy)
                assert index.degrees() == clique_degrees(g, h)
                assert index.initial_degrees() == clique_degrees(g, h)

    def test_incidence_ranges_are_posting_lists(self):
        for g in GRAPHS[:20]:
            index = CliqueIndex(g, 3)
            for vid, v in enumerate(index.vertices):
                postings = {
                    index.inc_ids[pos]
                    for pos in range(index.inc_start[vid], index.inc_start[vid + 1])
                }
                expected = {i for i in range(index.m) if v in index.instance(i)}
                assert postings == expected

    def test_count_within_matches_subgraph_enumeration(self):
        for g in GRAPHS[:25]:
            index = CliqueIndex(g, 3)
            half = set(list(g.vertices())[: g.num_vertices // 2])
            expected = sum(1 for _ in enumerate_cliques(g.subgraph(half), 3))
            assert index.count_within(half) == expected

    def test_subindex_equals_fresh_index(self):
        for g in GRAPHS[:25]:
            for h in (3, 4):
                index = CliqueIndex(g, h)
                sub = g.subgraph(list(g.vertices())[: 2 * g.num_vertices // 3])
                assert index.subindex(sub).inst == CliqueIndex(sub, h).inst


class TestSolverEquivalence:
    """Old-vs-new enumeration: solvers fed explicit reference instances
    must agree bit-for-bit with solvers fed each kernel family."""

    POOL = GRAPHS[:10] + GRAPHS[-4:]

    @pytest.mark.parametrize("h", (3, 4))
    def test_decomposition_identical(self, h):
        for g in self.POOL:
            reference = CliqueIndex(g, h, instances=list(enumerate_cliques(g, h)))
            ref = clique_core_decomposition(g, h, index=reference)
            for use_numpy in KERNEL_MODES:
                index = CliqueIndex(g, h, use_numpy=use_numpy)
                got = clique_core_decomposition(g, h, index=index)
                assert got.core == ref.core
                assert got.kmax == ref.kmax
                assert got.best_residual_density == ref.best_residual_density
                assert got.best_residual_vertices == ref.best_residual_vertices
                # the decomposition must not consume the threaded index
                assert index.num_alive == index.m

    @pytest.mark.parametrize("h", (3, 4))
    def test_peel_identical(self, h):
        for g in self.POOL:
            ref = peel_densest(
                g, h, index=CliqueIndex(g, h, instances=list(enumerate_cliques(g, h)))
            )
            for use_numpy in KERNEL_MODES:
                got = peel_densest(g, h, index=CliqueIndex(g, h, use_numpy=use_numpy))
                assert got.vertices == ref.vertices
                assert got.density == ref.density

    @pytest.mark.parametrize("h", (3, 4))
    def test_exact_identical(self, h):
        for g in self.POOL[:8]:
            expected = None
            for use_numpy in KERNEL_MODES:
                index = CliqueIndex(g, h, use_numpy=use_numpy)
                for engine in ("ggt", "rebuild"):
                    got = exact_densest(g, h, flow_engine=engine, index=index)
                    if expected is None:
                        expected = got
                    assert got.vertices == expected.vertices
                    assert got.density == expected.density

    @pytest.mark.parametrize("h", (3, 4))
    def test_core_exact_identical_and_index_reusable(self, h):
        for g in self.POOL[:8]:
            expected = None
            for use_numpy in KERNEL_MODES:
                index = CliqueIndex(g, h, use_numpy=use_numpy)
                for engine in ("ggt", "rebuild"):
                    got = core_exact_densest(g, h, flow_engine=engine, index=index)
                    if expected is None:
                        expected = got
                    assert got.vertices == expected.vertices
                    assert got.density == expected.density
                # threading one index through repeated calls is legal:
                # nothing above may have consumed it
                assert index.num_alive == index.m

    @pytest.mark.parametrize("h", (3, 4))
    def test_inc_app_identical(self, h):
        for g in self.POOL[:8]:
            ref = inc_app_densest(
                g, h, index=CliqueIndex(g, h, instances=list(enumerate_cliques(g, h)))
            )
            for use_numpy in KERNEL_MODES:
                got = inc_app_densest(g, h, index=CliqueIndex(g, h, use_numpy=use_numpy))
                assert got.vertices == ref.vertices
                assert got.density == ref.density
