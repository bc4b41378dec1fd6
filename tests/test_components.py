"""Property suite for the per-component solve in Exact and CoreExact.

Both exact solvers split the (located) graph into connected components,
solve each one and keep the best.  A 50-graph matrix of multi-component
random graphs pins the contracts of that split:

* the densest density of a disjoint union is the maximum over its
  parts, and Exact and CoreExact report it exactly (``==`` on floats);
* the reported vertex set has exactly the reported density;
* the two flow engines (``ggt`` / ``rebuild``) return
  identical vertex sets and densities;
* the order in which the components are inserted does not change the
  density;
* the canonical ``CliqueIndex`` rows are exactly the h-cliques, once
  each, and are the same on both enumeration kernels;
* everything holds with numpy forced off (subprocess leg);
* an expired :class:`repro.guard.Budget` degrades CoreExact to its
  incumbent with a valid density bracket, deterministically.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api, guard
from repro.cliques.index import CliqueIndex
from repro.core.core_exact import core_exact_densest
from repro.core.exact import exact_densest
from repro.graph.graph import Graph

REPO = Path(__file__).resolve().parent.parent

ENGINES = ("ggt", "rebuild")


def _blobs(seed: int) -> list[list[tuple[int, int]]]:
    """2-4 random blobs of 8-16 vertices, as edge lists on disjoint labels."""
    rng = random.Random(seed)
    comps = 2 + seed % 3
    p = 0.25 + 0.05 * (seed % 3)
    blobs = []
    base = 0
    for _ in range(comps):
        n = 8 + 2 * rng.randrange(5)
        verts = list(range(base, base + n))
        edges = [
            (u, v)
            for i, u in enumerate(verts)
            for v in verts[i + 1:]
            if rng.random() < p
        ]
        blobs.append((verts, edges))
        base += n
    return blobs


def _union(blobs) -> Graph:
    g = Graph()
    for verts, edges in blobs:
        for v in verts:
            g.add_vertex(v)
        for u, v in edges:
            g.add_edge(u, v)
    return g


def _graph(seed: int) -> Graph:
    """A multi-component random graph: 2-4 blobs of 8-16 vertices."""
    return _union(_blobs(seed))


def _h(seed: int) -> int:
    return (2, 3, 4)[seed % 3]


def _clones(seed: int, copies: int = 3, n: int = 12, p: float = 0.3) -> Graph:
    """``copies`` label-shifted copies of one random blob.

    Identical structure means identical clique-core numbers, so
    CoreExact's locate-core pruning keeps every component.
    """
    rng = random.Random(seed)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    g = Graph()
    for c in range(copies):
        base = c * n
        for v in range(base, base + n):
            g.add_vertex(v)
        for i, j in edges:
            g.add_edge(base + i, base + j)
    return g


def _count_cliques(graph: Graph, vertices, h: int) -> int:
    """Brute-force h-clique count inside ``vertices``."""
    return sum(
        1
        for combo in itertools.combinations(sorted(vertices), h)
        if all(graph.has_edge(u, v) for u, v in itertools.combinations(combo, 2))
    )


# --- the 50-graph matrix ----------------------------------------------


@pytest.mark.parametrize("seed", range(50))
def test_union_density_is_the_max_over_components(seed):
    blobs, h = _blobs(seed), _h(seed)
    g = _union(blobs)
    core = core_exact_densest(g, h)
    exact = exact_densest(g, h)
    parts = [core_exact_densest(_union([blob]), h).density for blob in blobs]
    assert core.density == max(parts), (seed, h)
    assert exact.density == core.density, (seed, h)
    for result in (core, exact):
        assert result.vertices, (seed, h)
        count = _count_cliques(g, result.vertices, h)
        assert count / len(result.vertices) == result.density, (seed, h)


@pytest.mark.parametrize("seed", range(0, 50, 5))
def test_flow_engines_agree_on_multi_component_graphs(seed):
    g, h = _graph(seed), _h(seed)
    for solve in (core_exact_densest, exact_densest):
        first = solve(g, h, flow_engine=ENGINES[0])
        for engine in ENGINES[1:]:
            other = solve(g, h, flow_engine=engine)
            assert other.vertices == first.vertices, (seed, h, engine)
            assert other.density == first.density, (seed, h, engine)


@pytest.mark.parametrize("seed", range(0, 50, 5))
def test_component_insertion_order_does_not_change_the_density(seed):
    blobs, h = _blobs(seed), _h(seed)
    forward, backward = _union(blobs), _union(blobs[::-1])
    for solve in (core_exact_densest, exact_densest):
        assert solve(backward, h).density == solve(forward, h).density, (seed, h)


@pytest.mark.parametrize("seed", range(0, 50, 7))
def test_clique_index_rows_are_the_cliques_once_each(seed):
    g = _graph(seed)
    for h in (3, 4):
        index = CliqueIndex(g, h)
        rows = [frozenset(inst) for inst in index.instance_tuples()]
        assert len(rows) == index.m, (seed, h)
        assert len(set(rows)) == len(rows), (seed, h)
        brute = {
            frozenset(combo)
            for combo in itertools.combinations(sorted(g), h)
            if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2))
        }
        assert set(rows) == brute, (seed, h)
        assert CliqueIndex(g, h).inst == index.inst, (seed, h)
        assert CliqueIndex(g, h, use_numpy=False).inst == index.inst, (seed, h)


@pytest.mark.parametrize("seed", (3, 11))
def test_peel_orders_are_deterministic(seed):
    g, h = _graph(seed), _h(seed)
    first = api.densest_subgraph(g, h, method="peel")
    again = api.densest_subgraph(g, h, method="peel")
    assert again.vertices == first.vertices
    assert again.density == first.density
    assert again.iterations == first.iterations


def test_api_core_exact_matches_the_direct_call():
    g = _clones(4)
    direct = core_exact_densest(g, 3)
    via_api = api.densest_subgraph(g, 3, method="core-exact")
    assert via_api.vertices == direct.vertices
    assert via_api.density == direct.density
    assert len(g.connected_components()) == 3


# --- the numpy-off leg ------------------------------------------------


def test_matrix_holds_without_numpy():
    """Pure-python tier: same vertex sets and density bits."""
    seeds = (1, 8)
    script = (
        "import sys; sys.path.insert(0, 'tests'); sys.path.insert(0, 'src')\n"
        "from test_components import _graph, _h\n"
        "from repro.core.core_exact import core_exact_densest\n"
        "from repro.core.exact import exact_densest\n"
        f"for seed in {seeds!r}:\n"
        "    g, h = _graph(seed), _h(seed)\n"
        "    for solve in (core_exact_densest, exact_densest):\n"
        "        r = solve(g, h)\n"
        "        print(sorted(r.vertices), r.density.hex())\n"
    )
    env = dict(os.environ, REPRO_NO_NUMPY="1", PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    expected = []
    for seed in seeds:
        g, h = _graph(seed), _h(seed)
        for solve in (core_exact_densest, exact_densest):
            r = solve(g, h)
            expected.append(f"{sorted(r.vertices)} {r.density.hex()}")
    assert proc.stdout.splitlines() == expected


# --- budgets -----------------------------------------------------------


def test_expired_deadline_degrades_core_exact_to_the_incumbent():
    """Every component degrades; the incumbent comes back with a valid
    density bracket instead of an exception."""
    g = _graph(7)
    with guard.Budget(deadline_s=1e-4):
        result = core_exact_densest(g, 2)
    stats = result.stats
    assert stats.get("degraded") is True
    assert "deadline" in stats["degraded_reason"]
    assert result.vertices
    assert stats["density_lower_bound"] == result.density
    assert stats["density_lower_bound"] <= stats["density_upper_bound"]


def test_max_solves_degrades_with_incumbent():
    # pruning off: the per-component walks genuinely need > 1 solve
    g = _clones(10)
    with guard.Budget(max_solves=1) as budget:
        result = core_exact_densest(g, 2, pruning1=False, pruning2=False)
    stats = result.stats
    assert stats.get("degraded") is True
    assert result.vertices
    assert result.density == stats["density_lower_bound"]
    assert stats["density_upper_bound"] >= stats["density_lower_bound"]
    assert budget.solves >= 1


def test_budget_degradation_is_deterministic():
    g = _clones(16)
    with guard.Budget(max_solves=1):
        first = core_exact_densest(g, 2, pruning1=False, pruning2=False)
    with guard.Budget(max_solves=1):
        again = core_exact_densest(g, 2, pruning1=False, pruning2=False)
    assert first.stats.get("degraded") and again.stats.get("degraded")
    assert again.vertices == first.vertices
    assert again.density == first.density
