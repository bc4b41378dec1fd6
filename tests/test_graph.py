"""Unit tests for the Graph substrate."""

import random

import pytest

from repro.graph.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)

from .conftest import random_graph, to_networkx


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.vertices()) == []

    def test_from_edges(self):
        g = Graph([(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_isolated_vertices(self):
        g = Graph(vertices=[5, 7])
        assert g.num_vertices == 2
        assert g.degree(5) == 0

    def test_duplicate_edges_collapse(self):
        g = Graph([(0, 1), (0, 1), (1, 0)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph([(3, 3)])

    def test_add_vertex_idempotent(self):
        g = Graph([(0, 1)])
        g.add_vertex(0)
        assert g.num_vertices == 2

    def test_string_vertices(self):
        g = Graph([("a", "b"), ("b", "c")])
        assert g.has_edge("a", "b")
        assert not g.has_edge("a", "c")


class TestMutation:
    def test_remove_vertex_updates_edges(self):
        g = Graph([(0, 1), (1, 2), (2, 0)])
        g.remove_vertex(0)
        assert g.num_vertices == 2
        assert g.num_edges == 1
        assert not g.has_edge(0, 1)

    def test_remove_missing_vertex_raises(self):
        with pytest.raises(KeyError):
            Graph([(0, 1)]).remove_vertex(9)

    def test_remove_edge(self):
        g = Graph([(0, 1), (1, 2)])
        g.remove_edge(0, 1)
        assert g.num_edges == 1
        assert 0 in g  # endpoint stays

    def test_remove_missing_edge_raises(self):
        with pytest.raises(KeyError):
            Graph([(0, 1)]).remove_edge(0, 2)

    def test_edge_count_consistent_after_mixed_ops(self):
        g = Graph()
        for i in range(5):
            g.add_edge(i, i + 1)
        g.remove_vertex(2)
        assert g.num_edges == sum(g.degree(v) for v in g) // 2


class TestInspection:
    def test_edges_iterates_once_per_edge(self, paper_figure1_graph):
        edges = list(paper_figure1_graph.edges())
        assert len(edges) == paper_figure1_graph.num_edges
        seen = {frozenset(e) for e in edges}
        assert len(seen) == len(edges)

    def test_degree_and_max_degree(self, paper_figure1_graph):
        g = paper_figure1_graph
        assert g.degree(3) == 4
        assert g.max_degree() == 4

    def test_max_degree_empty(self):
        assert Graph().max_degree() == 0

    def test_contains_and_len(self):
        g = Graph([(0, 1)])
        assert 0 in g and 2 not in g
        assert len(g) == 2

    def test_edge_density(self):
        assert complete_graph(4).edge_density() == pytest.approx(1.5)
        assert Graph().edge_density() == 0.0

    def test_equality(self):
        assert Graph([(0, 1)]) == Graph([(1, 0)])
        assert Graph([(0, 1)]) != Graph([(0, 2)])


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        g = Graph([(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert g.num_edges == 1
        assert h.num_edges == 2

    def test_subgraph_induced(self, paper_figure1_graph):
        sub = paper_figure1_graph.subgraph([0, 1, 2, 3])
        assert sub.num_vertices == 4
        assert sub.num_edges == 6  # the K4

    def test_subgraph_ignores_missing(self):
        sub = Graph([(0, 1)]).subgraph([0, 42])
        assert sub.num_vertices == 1

    def test_subgraph_no_external_edges(self, paper_figure1_graph):
        sub = paper_figure1_graph.subgraph([3, 4])
        assert sub.num_edges == 1

    def test_subgraph_does_not_alias_parent(self, paper_figure1_graph):
        sub = paper_figure1_graph.subgraph([0, 1, 2, 3])
        sub.remove_vertex(0)
        assert paper_figure1_graph.has_edge(0, 1)


def _rebuilt(g: Graph) -> Graph:
    """An independent graph with ``g``'s vertex order and edge set."""
    return Graph(g.edges(), vertices=list(g))


def _count_edges_calls(monkeypatch) -> list:
    """Count every ``Graph.edges`` call from here on (one entry each)."""
    calls = []
    original = Graph.edges

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(Graph, "edges", counted)
    return calls


class TestFingerprint:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_vertex(99),
            lambda g: g.add_edge(0, 3),
            lambda g: g.add_edge(3, 99),
            lambda g: g.remove_vertex(1),
            lambda g: g.remove_edge(1, 2),
        ],
        ids=["add_vertex", "add_edge", "add_edge_new_endpoint",
             "remove_vertex", "remove_edge"],
    )
    def test_each_effective_mutation_changes_it(self, mutate):
        g = Graph([(0, 1), (1, 2), (2, 3)])
        before = g.fingerprint()
        mutate(g)
        after = g.fingerprint()
        assert after != before
        assert after == _rebuilt(g).fingerprint()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_vertex(0),
            lambda g: g.add_edge(0, 1),
            lambda g: g.add_edge(2, 1),
        ],
        ids=["existing_vertex", "duplicate_edge", "reversed_duplicate_edge"],
    )
    def test_noop_mutations_keep_the_memo(self, mutate, monkeypatch):
        g = Graph([(0, 1), (1, 2), (2, 3)])
        before = g.fingerprint()
        calls = _count_edges_calls(monkeypatch)
        mutate(g)
        assert g.fingerprint() == before
        assert calls == []  # served from the memo, no edge walk

    def test_failed_removals_keep_it(self):
        g = Graph([(0, 1), (1, 2)])
        before = g.fingerprint()
        with pytest.raises(KeyError):
            g.remove_edge(0, 2)
        with pytest.raises(KeyError):
            g.remove_vertex(9)
        with pytest.raises(ValueError):
            g.add_edge(1, 1)
        assert g.fingerprint() == before == _rebuilt(g).fingerprint()

    def test_repeat_calls_do_not_walk_the_edges(self, monkeypatch):
        g = random_graph(40, 120, seed=3)
        first = g.fingerprint()
        calls = _count_edges_calls(monkeypatch)
        for _ in range(50):
            assert g.fingerprint() == first
        assert calls == []

    def test_copy_and_equal_rebuild_match(self):
        g = random_graph(30, 80, seed=5)
        g.fingerprint()
        h = g.copy()
        assert h.fingerprint() == g.fingerprint()
        assert _rebuilt(g).fingerprint() == g.fingerprint()
        h.add_edge(0, 100)
        assert h.fingerprint() != g.fingerprint()
        assert g.fingerprint() == _rebuilt(g).fingerprint()

    def test_subgraph_starts_clean(self):
        g = random_graph(30, 80, seed=6)
        g.fingerprint()
        keep = list(range(0, 30, 2))
        sub = g.subgraph(keep)
        assert sub.fingerprint() == _rebuilt(sub).fingerprint()
        assert sub.fingerprint() != g.fingerprint()

    def test_relabelling_or_insertion_order_changes_it(self):
        g = Graph([(0, 1), (1, 2), (2, 0)])
        relabelled = Graph([(0, 1), (1, 3), (3, 0)])
        reordered = Graph([(0, 1), (1, 2), (2, 0)], vertices=[2, 1, 0])
        string_labels = Graph([("0", "1"), ("1", "2"), ("2", "0")])
        assert g == reordered  # same content, different insertion order
        digests = {x.fingerprint() for x in (g, relabelled, reordered, string_labels)}
        assert len(digests) == 4

    def test_empty_and_isolated_vertices(self):
        assert Graph().fingerprint() == Graph().fingerprint()
        assert Graph().fingerprint() != Graph(vertices=[0]).fingerprint()
        assert Graph(vertices=[0, 1]).fingerprint() != Graph([(0, 1)]).fingerprint()

    @pytest.mark.parametrize("seed", range(10))
    def test_random_mutation_sequences_never_serve_a_stale_digest(self, seed):
        rng = random.Random(seed)
        g = random_graph(12, 20, seed=seed)
        for _ in range(60):
            g.fingerprint()
            op = rng.randrange(4)
            u, v = rng.randrange(15), rng.randrange(15)
            if op == 0:
                g.add_vertex(u)
            elif op == 1 and u != v:
                g.add_edge(u, v)
            elif op == 2 and u in g:
                g.remove_vertex(u)
            elif op == 3 and g.has_edge(u, v):
                g.remove_edge(u, v)
            assert g.fingerprint() == _rebuilt(g).fingerprint()


class TestComponents:
    def test_connected_components(self, disconnected_graph):
        comps = sorted(disconnected_graph.connected_components(), key=len)
        assert [len(c) for c in comps] == [1, 3, 3]

    def test_is_connected(self, triangle_graph, disconnected_graph):
        assert triangle_graph.is_connected()
        assert not disconnected_graph.is_connected()
        assert Graph().is_connected()

    def test_components_cover_all_vertices(self):
        g = random_graph(40, 50, seed=5)
        comps = g.connected_components()
        union = set().union(*comps)
        assert union == set(g.vertices())

    def test_components_match_networkx(self):
        import networkx as nx

        g = random_graph(60, 70, seed=9)
        ours = sorted(sorted(c) for c in g.connected_components())
        theirs = sorted(sorted(c) for c in nx.connected_components(to_networkx(g)))
        assert ours == theirs


class TestDegeneracy:
    def test_degeneracy_of_complete_graph(self):
        _, d = complete_graph(6).degeneracy_ordering()
        assert d == 5

    def test_degeneracy_of_tree(self):
        _, d = path_graph(10).degeneracy_ordering()
        assert d == 1

    def test_degeneracy_of_cycle(self):
        _, d = cycle_graph(7).degeneracy_ordering()
        assert d == 2

    def test_order_is_a_permutation(self, paper_figure3_graph):
        order, _ = paper_figure3_graph.degeneracy_ordering()
        assert sorted(order, key=str) == sorted(paper_figure3_graph.vertices(), key=str)

    def test_smallest_last_property(self):
        g = random_graph(30, 60, seed=2)
        order, degeneracy = g.degeneracy_ordering()
        remaining = set(g.vertices())
        max_min_deg = 0
        for v in order:
            deg = len(g.neighbors(v) & remaining)
            max_min_deg = max(max_min_deg, deg)
            remaining.discard(v)
        assert max_min_deg == degeneracy

    def test_degeneracy_matches_networkx_core(self):
        import networkx as nx

        g = random_graph(50, 120, seed=4)
        _, d = g.degeneracy_ordering()
        assert d == max(nx.core_number(to_networkx(g)).values())


class TestFactories:
    def test_complete_graph(self):
        g = complete_graph(5)
        assert g.num_edges == 10

    def test_star_graph(self):
        g = star_graph(4)
        assert g.degree(0) == 4
        assert g.num_edges == 4

    def test_cycle_graph(self):
        g = cycle_graph(5)
        assert all(g.degree(v) == 2 for v in g)

    def test_path_graph_single(self):
        assert path_graph(1).num_vertices == 1

    @pytest.mark.parametrize(
        "factory,bad",
        [(complete_graph, 0), (cycle_graph, 2), (star_graph, 0), (path_graph, 0)],
    )
    def test_factory_validation(self, factory, bad):
        with pytest.raises(ValueError):
            factory(bad)
