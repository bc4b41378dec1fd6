"""Tests for the max-flow solver and network representation."""

import networkx as nx
import pytest
from networkx.algorithms.flow import edmonds_karp

from repro.flow import dinic
from repro.flow.network import FlowNetwork


def build_classic() -> FlowNetwork:
    """The CLRS example network with known max flow 23."""
    net = FlowNetwork("s", "t")
    arcs = [
        ("s", "v1", 16), ("s", "v2", 13),
        ("v1", "v3", 12), ("v2", "v1", 4), ("v2", "v4", 14),
        ("v3", "v2", 9), ("v3", "t", 20),
        ("v4", "v3", 7), ("v4", "t", 4),
    ]
    for u, v, c in arcs:
        net.add_arc(u, v, float(c))
    return net


def random_network(seed: int, n: int = 14, arcs: int = 45) -> FlowNetwork:
    import random

    rng = random.Random(seed)
    net = FlowNetwork("s", "t")
    nodes = ["s", "t"] + [f"n{i}" for i in range(n)]
    for _ in range(arcs):
        u, v = rng.sample(nodes, 2)
        if v == "s" or u == "t":
            continue
        net.add_arc(u, v, rng.uniform(0.5, 10.0))
    return net


def cut_capacity(net: FlowNetwork, capacities: list[float]) -> float:
    """Capacity, under ``capacities``, of the arcs leaving the current
    residual min cut's source side (call after a max-flow solve)."""
    ids = {net.node_id(x) for x in net.min_cut_source_side()}
    return sum(
        capacities[arc]
        for arc in range(0, len(net.head), 2)
        if net.head[arc ^ 1] in ids and net.head[arc] not in ids
    )


def nx_max_flow(net: FlowNetwork) -> float:
    """networkx's max-flow value for ``net``. Edmonds-Karp, because
    networkx's default preflow-push can raise on float capacities (its
    relabel finds no residual arc after rounding, depending on the
    string hash seed)."""
    g = nx.DiGraph()
    cap: dict = {}
    for u_id in range(net.num_nodes):
        for arc in net.adj[u_id]:
            if arc % 2 == 0:  # forward arcs have even index
                u, v = net.node(u_id), net.node(net.head[arc])
                cap[(u, v)] = cap.get((u, v), 0.0) + net.cap[arc]
    for (u, v), c in cap.items():
        g.add_edge(u, v, capacity=c)
    if "t" not in g or "s" not in g:
        return 0.0
    value, _ = nx.maximum_flow(g, "s", "t", flow_func=edmonds_karp)
    return value


class TestNetwork:
    def test_node_registration(self):
        net = FlowNetwork("s", "t")
        net.add_arc("s", "a", 1.0)
        assert net.num_nodes == 3
        assert net.num_arcs == 1

    def test_negative_capacity_rejected(self):
        net = FlowNetwork("s", "t")
        with pytest.raises(ValueError):
            net.add_arc("s", "t", -1.0)

    def test_snapshot_reset_round_trip(self):
        net = build_classic()
        snap = net.snapshot()
        dinic.max_flow(net)
        assert net.cap != snap
        net.reset(snap)
        assert net.cap == snap

    def test_reset_wrong_length(self):
        net = build_classic()
        with pytest.raises(ValueError):
            net.reset([1.0])


class TestDinic:
    def test_classic_example(self):
        assert dinic.max_flow(build_classic()) == pytest.approx(23.0)

    def test_disconnected_sink(self):
        net = FlowNetwork("s", "t")
        net.add_arc("s", "a", 5.0)
        assert dinic.max_flow(net) == 0.0

    def test_parallel_arcs_add(self):
        net = FlowNetwork("s", "t")
        net.add_arc("s", "t", 2.0)
        net.add_arc("s", "t", 3.0)
        assert dinic.max_flow(net) == pytest.approx(5.0)

    def test_source_equals_sink_rejected(self):
        net = FlowNetwork("s", "s")
        with pytest.raises(ValueError):
            dinic.max_flow(net)

    def test_long_chain_no_recursion_error(self):
        net = FlowNetwork("s", "t")
        prev = "s"
        for i in range(5000):
            net.add_arc(prev, f"c{i}", 1.0)
            prev = f"c{i}"
        net.add_arc(prev, "t", 1.0)
        assert dinic.max_flow(net) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx(self, seed):
        net = random_network(seed)
        expected = nx_max_flow(random_network(seed))
        assert dinic.max_flow(net) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_residual_admits_no_more_flow(self, seed):
        """A solved residual is a max flow: a second solve pushes
        nothing and keeps the cut, and re-solving from the original
        capacities repeats the same floats."""
        net = random_network(seed)
        original = net.snapshot()
        value = dinic.max_flow(net)
        residual, cut = net.snapshot(), net.min_cut_source_side()
        assert dinic.max_flow(net) == pytest.approx(0.0, abs=1e-9)
        assert net.min_cut_source_side() == cut
        net.reset(original)
        assert dinic.max_flow(net) == value
        assert net.snapshot() == residual

    def test_classic_example_min_cut(self):
        # CLRS's unique minimum cut: {s, v1, v2, v4} | {v3, t}, crossing
        # v1->v3 (12), v4->v3 (7) and v4->t (4)
        net = build_classic()
        snapshot = net.snapshot()
        assert dinic.max_flow(net) == pytest.approx(23.0)
        assert net.min_cut_source_side() == {"s", "v1", "v2", "v4"}
        assert cut_capacity(net, snapshot) == pytest.approx(23.0)

    def test_infinite_capacity_bottleneck(self):
        net = FlowNetwork("s", "t")
        net.add_arc("s", "a", 4.0)
        net.add_arc("a", "t", float("inf"))
        assert dinic.max_flow(net) == pytest.approx(4.0)
        assert net.min_cut_source_side() == {"s"}


class TestMinCut:
    def test_cut_value_equals_flow(self):
        # max-flow = min-cut: capacity of the (S, T) arcs equals the flow
        for seed in range(5):
            net = random_network(seed)
            snapshot = net.snapshot()
            value = dinic.max_flow(net)
            assert cut_capacity(net, snapshot) == pytest.approx(value, abs=1e-6)

    def test_source_side_contains_source(self):
        net = build_classic()
        dinic.max_flow(net)
        side = net.min_cut_source_side()
        assert "s" in side and "t" not in side

    def test_infinite_arcs_never_cut(self):
        net = FlowNetwork("s", "t")
        net.add_arc("s", "a", 10.0)
        net.add_arc("a", "b", float("inf"))
        net.add_arc("b", "t", 1.0)
        dinic.max_flow(net)
        side = net.min_cut_source_side()
        # the cut must cross b->t (cap 1), not the infinite arc
        assert "a" in side and "b" in side
