"""PDS algorithms: ``PExact``, ``CorePExact`` and pattern approximations.

Section 7 of the paper generalises densest-subgraph discovery from
h-cliques to arbitrary connected patterns:

* :func:`p_exact_densest` -- Algorithm 8, binary search with one flow
  node per pattern instance.
* :func:`core_p_exact_densest` -- CorePExact: pattern-core location
  plus the ``construct+`` grouped network (Algorithm 7), whose min cut
  Lemma 11 proves equal to PExact's.
* :func:`pattern_peel_densest` / :func:`pattern_inc_app_densest` /
  :func:`pattern_core_app_densest` -- the Section-6 approximations with
  clique machinery swapped for pattern machinery (Lemma 10 keeps the
  ``1/|V_Ψ|`` guarantee).
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from typing import Optional, Sequence

from ..cliques.enumeration import CliqueIndex
from ..flow import dinic
from ..flow.builders import (
    build_pds_network,
    build_pds_network_grouped,
    build_pds_parametric,
    vertices_of_cut,
)
from ..graph.graph import Graph, Vertex
from ..patterns.isomorphism import (
    Instance,
    enumerate_pattern_instances,
    instance_vertices,
)
from ..patterns.pattern import Pattern
from .clique_core import CliqueCoreResult, peel_index_decomposition
from .exact import DensestSubgraphResult, check_flow_engine
from .pattern_core import pattern_core_decomposition, pattern_index
from .peel import peel_densest


def _instance_sets(instances: Sequence[Instance]) -> list[frozenset]:
    return [instance_vertices(inst) for inst in instances]


def _decompose_from_sets(
    graph: Graph, pattern_size: int, vertex_sets: Sequence[frozenset]
) -> CliqueCoreResult:
    """Pattern-core decomposition given instance vertex sets directly.

    Duplicate vertex sets (distinct instances on the same vertices)
    are preserved: each contributes separately to pattern-degrees.
    """
    index = CliqueIndex(graph, pattern_size, instances=[tuple(s) for s in vertex_sets])
    return peel_index_decomposition(graph, index)


def _density_of(graph: Graph, vertices: set[Vertex], pattern: Pattern) -> float:
    sub = graph.subgraph(vertices)
    if sub.num_vertices == 0:
        return 0.0
    return len(enumerate_pattern_instances(sub, pattern)) / sub.num_vertices


def p_exact_densest(
    graph: Graph, pattern: Pattern, *, flow_engine: str = "ggt"
) -> DensestSubgraphResult:
    """Algorithm 8 (PExact): exact PDS on the full graph.

    One flow node per pattern instance; arcs ``v -> ψ`` capacity 1 and
    ``ψ -> v`` capacity ``|V_Ψ| - 1``.  The default ``"ggt"`` engine
    walks the min-cut breakpoints of one α-parametric network; the
    ``"rebuild"`` reference runs the binary search on a fresh network
    per guess.
    """
    check_flow_engine(flow_engine)
    n = graph.num_vertices
    if n == 0:
        return DensestSubgraphResult(set(), 0.0, "PExact")
    instances = enumerate_pattern_instances(graph, pattern)
    if not instances:
        return DensestSubgraphResult(set(graph.vertices()), 0.0, "PExact")
    vertex_sets = _instance_sets(instances)
    degrees: dict[Vertex, int] = defaultdict(int)
    for members in vertex_sets:
        for v in members:
            degrees[v] += 1

    if flow_engine == "ggt":
        net = build_pds_parametric(graph, pattern.size, vertex_sets, degrees=degrees)
        density_of = lambda s: sum(1 for members in vertex_sets if members <= s) / len(s)
        cut, rho, solves = net.max_density(density_of, low=0.0)
        if cut:
            best, density = cut, rho  # ρ is the exact count/size ratio
        else:
            best = set(graph.vertices())
            density = _density_of(graph, best, pattern)
        return DensestSubgraphResult(
            vertices=best,
            density=density,
            method="PExact",
            iterations=solves,
            stats={"network_sizes": [net.num_nodes] * solves, "instances": len(instances)},
        )

    low, high = 0.0, float(max(degrees.values()))
    resolution = 1.0 / (n * (n - 1)) if n > 1 else 0.5
    best: Optional[set[Vertex]] = None
    iterations = 0
    network_sizes: list[int] = []
    while high - low >= resolution:
        iterations += 1
        alpha = (low + high) / 2.0
        network = build_pds_network(graph, pattern.size, alpha, vertex_sets, degrees=degrees)
        network_sizes.append(network.num_nodes)
        dinic.max_flow(network)
        cut = vertices_of_cut(network.min_cut_source_side())
        if not cut:
            high = alpha
        else:
            low = alpha
            best = cut
    if best is None:
        best = set(graph.vertices())
    return DensestSubgraphResult(
        vertices=best,
        density=_density_of(graph, best, pattern),
        method="PExact",
        iterations=iterations,
        stats={"network_sizes": network_sizes, "instances": len(instances)},
    )


class _PatternComponentState:
    """A component plus its pattern instances, rebuilt on each shrink.

    With ``"ggt"`` the grouped ``construct+`` network is built once per
    shrink as an α-parametric network and walked; ``"rebuild"``
    reconstructs it per binary-search guess.
    """

    def __init__(
        self,
        graph: Graph,
        pattern: Pattern,
        instances: Sequence[frozenset],
    ):
        self.graph = graph
        self.pattern = pattern
        self.network_nodes = 0  # node count of the last-solved network
        members = set(graph.vertices())
        self.vertex_sets = [s for s in instances if s <= members]
        self.degrees: dict[Vertex, int] = defaultdict(int)
        for s in self.vertex_sets:
            for v in s:
                self.degrees[v] += 1

    def solve(self, alpha: float) -> set[Vertex]:
        """Source-side cut vertex set of the min cut at guess ``alpha``
        on a freshly built grouped network (the binary-search engine)."""
        network = build_pds_network_grouped(
            self.graph, self.pattern.size, alpha, self.vertex_sets, degrees=self.degrees
        )
        self.network_nodes = network.num_nodes
        dinic.max_flow(network)
        return vertices_of_cut(network.min_cut_source_side())

    def density_of(self, vertices: set[Vertex]) -> float:
        """Exact pattern-density of a subset of this component's vertices."""
        return sum(1 for members in self.vertex_sets if members <= vertices) / len(vertices)

    def solve_max_density(self, low: float):
        """GGT breakpoint walk from lower bound ``low``: (cut, ρ, solves)."""
        net = build_pds_parametric(
            self.graph, self.pattern.size, self.vertex_sets, degrees=self.degrees, grouped=True
        )
        self.network_nodes = net.num_nodes
        return net.max_density(self.density_of, low=low)

    def density(self) -> float:
        if self.graph.num_vertices == 0:
            return 0.0
        return len(self.vertex_sets) / self.graph.num_vertices

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices


def core_p_exact_densest(
    graph: Graph,
    pattern: Pattern,
    *,
    decomposition: Optional[CliqueCoreResult] = None,
    flow_engine: str = "ggt",
) -> DensestSubgraphResult:
    """CorePExact: exact PDS with pattern-core location and ``construct+``.

    Mirrors CoreExact (Algorithm 4) with pattern-cores in place of
    clique-cores and the grouped flow network of Algorithm 7 in place
    of the per-instance network, plus the same Pruning1/2/3.  The
    ``flow_engine`` knob matches :func:`~repro.core.core_exact.core_exact_densest`.
    """
    check_flow_engine(flow_engine)
    n = graph.num_vertices
    start = time.perf_counter()
    if n == 0:
        return DensestSubgraphResult(set(), 0.0, "CorePExact")
    instances = enumerate_pattern_instances(graph, pattern)
    if not instances:
        return DensestSubgraphResult(set(graph.vertices()), 0.0, "CorePExact")
    vertex_sets = _instance_sets(instances)
    if decomposition is None:
        decomposition = pattern_core_decomposition(graph, pattern, instances=instances)
    decomp_seconds = time.perf_counter() - start

    kmax = decomposition.kmax
    size = pattern.size
    low = kmax / float(size)
    best_vertices = decomposition.best_residual_vertices
    if decomposition.best_residual_density > low:
        low = decomposition.best_residual_density
    k_locate = math.ceil(low)

    core_vertices = {v for v, c in decomposition.core.items() if c >= k_locate}
    located = graph.subgraph(core_vertices)
    components = [located.subgraph(cc) for cc in located.connected_components()]

    # Pruning2: per-component densities
    comp_states = [_PatternComponentState(c, pattern, vertex_sets) for c in components]
    rho2 = 0.0
    for state in comp_states:
        density = state.density()
        if density > rho2:
            rho2 = density
            if density > low:
                best_vertices = set(state.graph.vertices())
    if rho2 > low:
        low = rho2
    if math.ceil(rho2) > k_locate:
        k_locate = math.ceil(rho2)
        core_vertices = {v for v, c in decomposition.core.items() if c >= k_locate}
        located = graph.subgraph(core_vertices)
        comp_states = [
            _PatternComponentState(located.subgraph(cc), pattern, vertex_sets)
            for cc in located.connected_components()
        ]

    iterations = 0
    network_sizes: list[int] = []
    candidate: Optional[set[Vertex]] = None
    density_cache: dict[frozenset, float] = {}

    def cached_density(vertices) -> float:
        key = frozenset(vertices)
        found = density_cache.get(key)
        if found is None:
            found = density_cache[key] = _density_of(graph, vertices, pattern)
        return found

    for state in sorted(comp_states, key=lambda s: -s.num_vertices):
        high = float(kmax)
        if low > k_locate:
            keep = {v for v in state.graph if decomposition.core.get(v, 0) >= math.ceil(low)}
            if len(keep) < state.num_vertices:
                state = _PatternComponentState(state.graph.subgraph(keep), pattern, vertex_sets)
        if state.num_vertices == 0:
            continue

        if flow_engine == "ggt":
            # One parametric sweep replaces probe + binary search (see
            # core_exact_densest): solving at l is the feasibility probe
            # and the walk ends at the component's exact optimum.
            cut, rho, solves = state.solve_max_density(low)
            iterations += solves
            network_sizes.extend([state.network_nodes] * solves)
            if not cut:
                continue
            density_cache.setdefault(frozenset(cut), rho)
            if rho > low:
                low = rho
            if candidate is None or cached_density(cut) > cached_density(candidate):
                candidate = cut
            continue

        probe = state.solve(low)
        network_sizes.append(state.network_nodes)
        iterations += 1
        if not probe:
            continue
        candidate_local = probe

        while True:
            nc = state.num_vertices
            resolution = 1.0 / (nc * (nc - 1)) if nc > 1 else 0.5
            if high - low < resolution:
                break
            alpha = (low + high) / 2.0
            cut = state.solve(alpha)
            network_sizes.append(state.network_nodes)
            iterations += 1
            if not cut:
                high = alpha
            else:
                if alpha > math.ceil(low):
                    keep = {
                        v for v in state.graph if decomposition.core.get(v, 0) >= math.ceil(alpha)
                    }
                    if len(keep) < state.num_vertices:
                        state = _PatternComponentState(
                            state.graph.subgraph(keep), pattern, vertex_sets
                        )
                low = alpha
                candidate_local = cut

        if candidate_local and (
            candidate is None or cached_density(candidate_local) > cached_density(candidate)
        ):
            candidate = candidate_local

    finalists = [best_vertices]
    if candidate:
        finalists.append(candidate)
    best = max(finalists, key=cached_density)
    return DensestSubgraphResult(
        vertices=set(best),
        density=cached_density(best),
        method="CorePExact",
        iterations=iterations,
        stats={
            "network_sizes": network_sizes,
            "decomposition_seconds": decomp_seconds,
            "total_seconds": time.perf_counter() - start,
            "kmax": kmax,
            "instances": len(instances),
        },
    )


# ----------------------------------------------------------------------
# Pattern approximations (Section 7.2, first paragraph)
# ----------------------------------------------------------------------


def pattern_peel_densest(graph: Graph, pattern: Pattern) -> DensestSubgraphResult:
    """PeelApp with pattern-degrees (1/|V_Ψ|-approximation, Lemma 10).

    Starred patterns (stars, the C4 "diamond") peel with the Appendix-D
    closed-form degree updates and never materialise instances -- the
    difference between seconds and hours around power-law hubs, whose
    star counts grow as C(deg, x).
    """
    if _has_fast_core_path(pattern):
        from .pattern_core import c4_peel_densest, star_peel_densest

        if pattern.num_edges == pattern.size - 1:
            vertices, density, iterations = star_peel_densest(graph, pattern.size - 1)
        else:
            vertices, density, iterations = c4_peel_densest(graph)
        if density <= 0.0 and graph.num_vertices:
            vertices = set(graph.vertices())
        return DensestSubgraphResult(
            vertices=vertices,
            density=density,
            method="PeelApp(pattern)",
            iterations=iterations,
            stats={"fast_path": True},
        )
    index = pattern_index(graph, pattern)
    # check_density=False: the REPRO_CHECK recompute counts h-cliques,
    # this density counts pattern instances
    result = peel_densest(graph, h=pattern.size, index=index, check_density=False)
    return DensestSubgraphResult(
        vertices=result.vertices,
        density=result.density,
        method="PeelApp(pattern)",
        iterations=result.iterations,
    )


def _has_fast_core_path(pattern: Pattern) -> bool:
    """Whether an Appendix-D closed-form peel exists for this pattern."""
    degree_seq = pattern.degrees()
    size = pattern.size
    is_star = pattern.num_edges == size - 1 and degree_seq == [1] * (size - 1) + [size - 1]
    is_c4 = size == 4 and pattern.num_edges == 4 and degree_seq == [2, 2, 2, 2]
    return is_star or is_c4


def pattern_inc_app_densest(graph: Graph, pattern: Pattern) -> DensestSubgraphResult:
    """IncApp with pattern-cores: return the (kmax, Ψ)-core.

    Starred patterns (stars, the C4 "diamond") take the Appendix-D fast
    peel, which never materialises instances; only the final core's
    density requires enumeration, on the (small) core itself.
    """
    if graph.num_vertices == 0:
        return DensestSubgraphResult(set(), 0.0, "IncApp(pattern)")
    if _has_fast_core_path(pattern):
        from .pattern_core import fast_pattern_core_decomposition, fast_pattern_mu

        core_numbers = fast_pattern_core_decomposition(graph, pattern)
        kmax = max(core_numbers.values(), default=0)
        if kmax == 0:
            return DensestSubgraphResult(set(graph.vertices()), 0.0, "IncApp(pattern)")
        core = {v for v, c in core_numbers.items() if c >= kmax}
        core_graph = graph.subgraph(core)
        mu = fast_pattern_mu(core_graph, pattern) or 0
        return DensestSubgraphResult(
            vertices=core,
            density=mu / core_graph.num_vertices if core_graph.num_vertices else 0.0,
            method="IncApp(pattern)",
            stats={"kmax": kmax, "fast_path": True},
        )
    instances = enumerate_pattern_instances(graph, pattern)
    if not instances:
        return DensestSubgraphResult(set(graph.vertices()), 0.0, "IncApp(pattern)")
    result = _decompose_from_sets(graph, pattern.size, _instance_sets(instances))
    core = {v for v, c in result.core.items() if c >= result.kmax}
    return DensestSubgraphResult(
        vertices=core,
        density=_density_of(graph, core, pattern),
        method="IncApp(pattern)",
        stats={"kmax": result.kmax},
    )


def pattern_core_app_densest(graph: Graph, pattern: Pattern) -> DensestSubgraphResult:
    """CoreApp for patterns: top-down (kmax, Ψ)-core discovery.

    The clique-degree bound γ = C(core(v), h-1) is clique-specific, so
    the pattern variant orders vertices by their *exact* pattern-degree
    in G (a sound upper bound on the pattern-core number, property 3 of
    Section 5.1) computed from the instance list, then doubles prefixes
    exactly like Algorithm 6.
    """
    n = graph.num_vertices
    if n == 0:
        return DensestSubgraphResult(set(), 0.0, "CoreApp(pattern)")
    if _has_fast_core_path(pattern):
        return _fast_pattern_core_app(graph, pattern)
    instances = enumerate_pattern_instances(graph, pattern)
    if not instances:
        return DensestSubgraphResult(set(graph.vertices()), 0.0, "CoreApp(pattern)")
    vertex_sets = _instance_sets(instances)
    gamma: dict[Vertex, int] = defaultdict(int)
    for s in vertex_sets:
        for v in s:
            gamma[v] += 1
    ordered = sorted(graph.vertices(), key=lambda v: -gamma.get(v, 0))

    kmax = 0
    best_core: set[Vertex] = set()
    size = min(64, n)
    rounds = 0
    while True:
        rounds += 1
        prefix = set(ordered[:size])
        sub = graph.subgraph(prefix)
        result = _decompose_from_sets(sub, pattern.size, [s for s in vertex_sets if s <= prefix])
        if result.kmax > kmax:
            kmax = result.kmax
            best_core = {v for v, c in result.core.items() if c >= result.kmax}
        if size >= n or gamma.get(ordered[size], 0) < kmax:
            break
        size = min(size * 2, n)

    if not best_core:
        return DensestSubgraphResult(set(graph.vertices()), 0.0, "CoreApp(pattern)")
    # polish to the exact (kmax, Ψ)-core of G (same rationale as CoreApp)
    eligible = {v for v in graph if gamma.get(v, 0) >= kmax}
    if len(eligible) > len(best_core):
        result = _decompose_from_sets(
            graph.subgraph(eligible), pattern.size, [s for s in vertex_sets if s <= eligible]
        )
        polished = {v for v, c in result.core.items() if c >= kmax}
        if polished:
            best_core = polished
    return DensestSubgraphResult(
        vertices=best_core,
        density=_density_of(graph, best_core, pattern),
        method="CoreApp(pattern)",
        stats={"kmax": kmax, "rounds": rounds, "vertices_touched": size},
    )


def _fast_pattern_core_app(graph: Graph, pattern: Pattern) -> DensestSubgraphResult:
    """CoreApp for starred patterns via the Appendix-D fast peels.

    γ(v) is the exact pattern-degree from the closed-form counters (a
    sound upper bound on the pattern-core number); prefixes double as
    in Algorithm 6, each decomposed with the instance-free peel.
    """
    from ..patterns.degree import fast_pattern_degrees
    from .pattern_core import fast_pattern_core_decomposition, fast_pattern_mu

    n = graph.num_vertices
    gamma = fast_pattern_degrees(graph, pattern)
    if max(gamma.values(), default=0) == 0:
        return DensestSubgraphResult(set(graph.vertices()), 0.0, "CoreApp(pattern)")
    ordered = sorted(graph.vertices(), key=lambda v: -gamma[v])

    kmax = 0
    best_core: set[Vertex] = set()
    size = min(64, n)
    rounds = 0
    while True:
        rounds += 1
        sub = graph.subgraph(ordered[:size])
        core_numbers = fast_pattern_core_decomposition(sub, pattern)
        local_kmax = max(core_numbers.values(), default=0)
        if local_kmax > kmax:
            kmax = local_kmax
            best_core = {v for v, c in core_numbers.items() if c >= local_kmax}
        if size >= n or gamma[ordered[size]] < kmax:
            break
        size = min(size * 2, n)

    if not best_core:
        return DensestSubgraphResult(set(graph.vertices()), 0.0, "CoreApp(pattern)")
    eligible = {v for v in graph if gamma[v] >= kmax}
    if len(eligible) > len(best_core):
        core_numbers = fast_pattern_core_decomposition(graph.subgraph(eligible), pattern)
        polished = {v for v, c in core_numbers.items() if c >= kmax}
        if polished:
            best_core = polished
    core_graph = graph.subgraph(best_core)
    mu = fast_pattern_mu(core_graph, pattern)
    density = (mu or 0) / core_graph.num_vertices if core_graph.num_vertices else 0.0
    return DensestSubgraphResult(
        vertices=set(best_core),
        density=density,
        method="CoreApp(pattern)",
        stats={"kmax": kmax, "rounds": rounds, "vertices_touched": size, "fast_path": True},
    )
