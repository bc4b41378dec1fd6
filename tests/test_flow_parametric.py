"""Tests for the array-backed flow engine and α-parametric re-solves.

Three layers of guarantees:

* Dinic's flow value matches networkx's max flow (an independent
  oracle), and the capacity of its residual-reachability cut equals
  that value (max-flow = min-cut);
* a :class:`~repro.flow.parametric.ParametricNetwork` re-solved across a
  binary search (advance and retreat warm starts, cancellation) returns
  the same cuts as a freshly built legacy network at every α;
* the exact algorithms give bit-identical results under
  ``flow_engine="ggt"`` and ``flow_engine="rebuild"``.
"""

import pytest

from repro.api import densest_subgraph
from repro.core.core_exact import core_exact_densest
from repro.core.exact import exact_densest
from repro.core.pds import core_p_exact_densest, p_exact_densest
from repro.core.query_variant import query_densest
from repro.extensions.topk import top_k_densest
from repro.flow import dinic
from repro.flow.builders import (
    build_cds_network,
    build_cds_parametric,
    build_eds_network,
    build_eds_parametric,
    build_pds_network_grouped,
    build_pds_parametric,
    vertices_of_cut,
)
from repro.patterns.pattern import get_pattern

from .conftest import random_graph
from .test_flow import cut_capacity, nx_max_flow, random_network


class TestDinicAgainstNetworkx:
    """Dinic against the networkx oracle (50 random networks): the same
    flow value, and a residual min cut whose capacity is that value."""

    @pytest.mark.parametrize("seed", range(50))
    def test_value_and_cut_capacity(self, seed):
        net = random_network(seed, n=12 + seed % 7, arcs=30 + seed)
        snapshot = net.snapshot()
        expected = nx_max_flow(net)
        value = dinic.max_flow(net)
        assert value == pytest.approx(expected, abs=1e-6)
        assert cut_capacity(net, snapshot) == pytest.approx(value, abs=1e-6)

    @pytest.mark.parametrize("k", [4, 6, 8, 12])
    def test_bottleneck_chain(self, k):
        """Chains with a mid-path bottleneck and a low-capacity side
        pocket that dead-ends behind it: the value must match networkx,
        the cut must cost exactly the flow, and the residual state must
        be a max *flow* (re-solving pushes nothing more)."""
        from repro.flow.network import FlowNetwork

        def build() -> FlowNetwork:
            net = FlowNetwork("s", "t")
            net.add_arc("s", "c0", 10.0)
            for i in range(k - 1):
                cap = 0.5 if i == k // 2 else 10.0
                net.add_arc(f"c{i}", f"c{i + 1}", cap)
            net.add_arc(f"c{k - 1}", "t", 10.0)
            net.add_arc("c0", "p0", 3.0)
            net.add_arc("p0", "p1", 3.0)
            net.add_arc("p1", "c1", 0.25)
            return net

        net = build()
        snapshot = net.snapshot()
        expected = nx_max_flow(net)
        value = dinic.max_flow(net)
        assert value == pytest.approx(expected, abs=1e-9)
        assert cut_capacity(net, snapshot) == pytest.approx(value, abs=1e-9)
        # a genuine max flow: re-running the solver on the residual
        # network finds no augmenting path
        assert dinic.max_flow(net) == pytest.approx(0.0, abs=1e-9)


def _binary_search_cuts(graph, make_parametric, make_legacy, high):
    """Drive a binary search on both engines; assert cuts agree at every α."""
    net = make_parametric()
    low = 0.0
    cut = net.solve(low)
    legacy = make_legacy(low)
    dinic.max_flow(legacy)
    assert cut == vertices_of_cut(legacy.min_cut_source_side())
    for _ in range(25):
        alpha = (low + high) / 2.0
        cut = net.solve(alpha)
        legacy = make_legacy(alpha)
        dinic.max_flow(legacy)
        assert cut == vertices_of_cut(legacy.min_cut_source_side())
        if cut:
            low = alpha
        else:
            high = alpha


class TestParametricMatchesFreshBuild:
    @pytest.mark.parametrize("seed", range(6))
    def test_eds(self, seed):
        g = random_graph(24, 70, seed)
        _binary_search_cuts(
            g,
            lambda: build_eds_parametric(g),
            lambda a: build_eds_network(g, a),
            float(g.max_degree()),
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_cds_h3(self, seed):
        g = random_graph(20, 60, seed + 100)
        _binary_search_cuts(
            g,
            lambda: build_cds_parametric(g, 3),
            lambda a: build_cds_network(g, 3, a),
            12.0,
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_pds_grouped(self, seed):
        from repro.cliques.enumeration import enumerate_cliques

        g = random_graph(20, 60, seed + 200)
        instances = [frozenset(c) for c in enumerate_cliques(g, 3)]
        if not instances:
            pytest.skip("no triangle instances in this seed")
        _binary_search_cuts(
            g,
            lambda: build_pds_parametric(g, 3, instances, grouped=True),
            lambda a: build_pds_network_grouped(g, 3, a, instances),
            float(g.max_degree()),
        )

    def test_set_alpha_rewrites_only_alpha_arcs(self):
        g = random_graph(12, 30, 3)
        net = build_eds_parametric(g)
        m = float(g.num_edges)
        net.set_alpha(2.0)
        net._uncancel()  # back to plain capacities + pass-through flow
        for arc_id, coeff, label_id in zip(
            net.alpha_arcs, net.alpha_coeff, range(len(net.vertex_labels))
        ):
            v = net.vertex_labels[label_id]
            expected = m + coeff * 2.0 - g.degree(v)
            # residual + flow (reverse residual) reconstructs the capacity
            assert net.cap[arc_id] + net.cap[arc_id ^ 1] == pytest.approx(expected)

    @pytest.mark.parametrize("seed", range(8))
    def test_cancelled_anchored_network_matches_legacy(self, seed):
        # a fresh anchored network is solved cold: its source arcs are
        # cancelled against the sink arcs, and the infinite anchor arc
        # must still never be cut
        g = random_graph(18, 50, seed + 500)
        anchor = next(iter(g.vertices()))
        for alpha in (0.5, 2.0, 5.0):
            net = build_eds_parametric(g, anchors=[anchor])
            cut = net.solve(alpha)
            legacy = build_eds_network(g, alpha)
            from repro.flow.builders import SOURCE

            legacy.add_arc(SOURCE, ("v", anchor), float("inf"))
            dinic.max_flow(legacy)
            assert cut == vertices_of_cut(legacy.min_cut_source_side())
            assert anchor in cut

    def test_tiny_alpha_step_falls_back_to_cold_reset(self):
        g = random_graph(12, 30, 4)
        net = build_eds_parametric(g)
        net.solve(1.0)
        assert not net._warm_step_ok(1e-12)
        assert net._warm_step_ok(1e-3)

    @pytest.mark.parametrize("seed", range(8))
    def test_decreasing_alpha_retreat_matches_fresh_build(self, seed):
        """The GGT decreasing-α half: a random α walk (ups AND downs)
        must reproduce the cuts of cold builds at every step."""
        import random as _random

        g = random_graph(22, 65, seed + 700)
        net = build_eds_parametric(g)
        rng = _random.Random(seed)
        for _ in range(14):
            alpha = rng.uniform(0.0, g.max_degree())
            cut = net.solve(alpha)
            legacy = build_eds_network(g, alpha)
            dinic.max_flow(legacy)
            assert cut == vertices_of_cut(legacy.min_cut_source_side())

    @pytest.mark.parametrize("seed", range(4))
    def test_retreat_on_cds_network(self, seed):
        g = random_graph(18, 55, seed + 800)
        net = build_cds_parametric(g, 3)
        for alpha in (6.0, 1.5, 4.0, 0.25, 5.5, 0.75):
            cut = net.solve(alpha)
            legacy = build_cds_network(g, 3, alpha)
            dinic.max_flow(legacy)
            assert cut == vertices_of_cut(legacy.min_cut_source_side())


class TestBreakpointEngine:
    """GGT drivers: max_density and solve_breakpoints."""

    @pytest.mark.parametrize("seed", range(10))
    def test_max_density_matches_binary_search(self, seed):
        g = random_graph(20, 60, seed)
        net = build_eds_parametric(g)
        cut, alpha, solves = net.max_density(
            lambda s: g.subgraph(s).num_edges / len(s), low=0.0
        )
        ref = exact_densest(g, 2, flow_engine="rebuild")
        assert cut == ref.vertices
        assert alpha == ref.density
        # a parametric sweep, not a binary search: solves stays tiny
        assert solves < ref.iterations
        assert solves <= 8

    def test_max_density_infeasible_lower_bound(self):
        g = random_graph(14, 30, 2)
        opt = exact_densest(g, 2).density
        net = build_eds_parametric(g)
        cut, alpha, solves = net.max_density(
            lambda s: g.subgraph(s).num_edges / len(s), low=opt + 1.0
        )
        assert cut is None
        assert alpha == opt + 1.0
        assert solves == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_solve_breakpoints_covers_the_alpha_axis(self, seed):
        """The breakpoint list must reproduce every cold solve on a grid."""
        g = random_graph(16, 40, seed + 40)
        net = build_eds_parametric(g)
        high = float(g.max_degree())
        segments = net.solve_breakpoints(0.0, high)
        assert segments[0][0] == 0.0
        alphas = sorted(a for a, _ in segments)
        assert alphas == [a for a, _ in segments]  # sorted output
        probe = build_eds_parametric(g)
        for i in range(33):
            alpha = high * i / 32.0
            expected = segments[0][1]
            for bp_alpha, bp_cut in segments:
                if bp_alpha <= alpha + 1e-12:
                    expected = bp_cut
            assert probe.solve(alpha) == expected, (seed, alpha)

    def test_breakpoints_include_the_optimal_density(self):
        """ρ_opt is a breakpoint: the cut collapses when α crosses it."""
        g = random_graph(18, 50, 9)
        opt = exact_densest(g, 2).density
        net = build_eds_parametric(g)
        segments = net.solve_breakpoints(0.0, float(g.max_degree()))
        assert any(abs(alpha - opt) < 1e-9 for alpha, _ in segments)
        # above the last breakpoint the minimal cut is trivial
        assert segments[-1][1] == set()

    def test_cut_line_matches_cut_capacity(self):
        g = random_graph(14, 36, 5)
        net = build_eds_parametric(g)
        for alpha in (0.5, 1.5, 3.0):
            net.solve(alpha)
            a_term, b_term = net.cut_line()
            legacy = build_eds_network(g, alpha)
            value = dinic.max_flow(legacy)
            assert a_term + b_term * alpha == pytest.approx(value, rel=1e-9)


class TestFlowEngineBitIdentical:
    """The GGT walk must not change any flow-dependent result of the
    paper-faithful rebuild-per-guess binary search."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("h", [2, 3])
    def test_core_exact(self, seed, h):
        g = random_graph(26, 80, seed)
        rebuilt = core_exact_densest(g, h, flow_engine="rebuild")
        ggt = core_exact_densest(g, h, flow_engine="ggt")
        assert ggt.vertices == rebuilt.vertices
        assert ggt.density == rebuilt.density

    @pytest.mark.parametrize("seed", range(4))
    def test_exact(self, seed):
        g = random_graph(20, 55, seed + 50)
        rebuilt = exact_densest(g, 2, flow_engine="rebuild")
        ggt = exact_densest(g, 2, flow_engine="ggt")
        assert ggt.vertices == rebuilt.vertices
        assert ggt.density == rebuilt.density
        assert ggt.iterations < rebuilt.iterations

    @pytest.mark.parametrize("seed", range(3))
    def test_pds_exact(self, seed):
        g = random_graph(16, 40, seed + 300)
        pattern = get_pattern("triangle")
        rebuilt = p_exact_densest(g, pattern, flow_engine="rebuild")
        result = p_exact_densest(g, pattern, flow_engine="ggt")
        assert result.vertices == rebuilt.vertices
        assert result.density == rebuilt.density
        core_rebuilt = core_p_exact_densest(g, pattern, flow_engine="rebuild")
        result = core_p_exact_densest(g, pattern, flow_engine="ggt")
        assert result.vertices == core_rebuilt.vertices
        assert result.density == core_rebuilt.density

    @pytest.mark.parametrize("seed", range(3))
    def test_query_variant(self, seed):
        g = random_graph(22, 60, seed + 400)
        anchors = [next(iter(g.vertices()))]
        rebuilt = query_densest(g, anchors, flow_engine="rebuild")
        result = query_densest(g, anchors, flow_engine="ggt")
        assert result.vertices == rebuilt.vertices
        assert result.density == rebuilt.density


class TestEngineKnob:
    def test_api_accepts_flow_engine(self):
        g = random_graph(15, 35, 9)
        result = densest_subgraph(g, 2, method="core-exact", flow_engine="rebuild")
        assert result.stats["flow_engine"] == "rebuild"
        result = densest_subgraph(g, 2, method="core-exact")
        assert result.stats["flow_engine"] == "ggt"  # the soaked-in default

    # every entry point that takes ``flow_engine``
    ENTRY_POINTS = {
        "core_exact": lambda g, e: core_exact_densest(g, 2, flow_engine=e),
        "exact": lambda g, e: exact_densest(g, 2, flow_engine=e),
        "p_exact": lambda g, e: p_exact_densest(
            g, get_pattern("triangle"), flow_engine=e
        ),
        "core_p_exact": lambda g, e: core_p_exact_densest(
            g, get_pattern("triangle"), flow_engine=e
        ),
        "query": lambda g, e: query_densest(g, [next(iter(g.vertices()))], flow_engine=e),
        "topk": lambda g, e: top_k_densest(g, 2, method=core_exact_densest, flow_engine=e),
        "api-exact": lambda g, e: densest_subgraph(g, 2, method="exact", flow_engine=e),
        "api-core-exact": lambda g, e: densest_subgraph(
            g, 2, method="core-exact", flow_engine=e
        ),
        "api-pattern": lambda g, e: densest_subgraph(
            g, "diamond", method="exact", flow_engine=e
        ),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("engine", ["bogus", "reuse"])
    def test_unknown_engine_rejected(self, engine, entry):
        g = random_graph(10, 20, 1)
        with pytest.raises(ValueError, match="unknown flow_engine"):
            self.ENTRY_POINTS[entry](g, engine)

    def test_topk_threads_flow_engine(self):
        g = random_graph(18, 45, 5)
        results = top_k_densest(g, 2, method=core_exact_densest, flow_engine="rebuild")
        assert results
        assert all(r.stats["flow_engine"] == "rebuild" for r in results)

    def test_topk_threads_ggt(self):
        g = random_graph(18, 45, 5)
        via_ggt = top_k_densest(g, 2, method=core_exact_densest, flow_engine="ggt")
        via_rebuild = top_k_densest(g, 2, method=core_exact_densest, flow_engine="rebuild")
        assert [r.vertices for r in via_ggt] == [r.vertices for r in via_rebuild]
        assert [r.density for r in via_ggt] == [r.density for r in via_rebuild]
        assert all(r.stats["flow_engine"] == "ggt" for r in via_ggt)
