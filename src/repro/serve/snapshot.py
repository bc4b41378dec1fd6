"""Immutable snapshot artifacts: precompute once, answer with zero flow work.

A :class:`Snapshot` materialises everything the exact solvers would
compute for one ``(graph, h)`` pair -- per connected component the
canonical clique rows, the GGT discrete-Newton walk result, and the
*entire* nested min-cut breakpoint family from
:meth:`~repro.flow.parametric.ParametricNetwork.solve_breakpoints` --
behind a content-hash key over the vertex/edge arrays, ``h`` and
:data:`~repro.flow.network.EPS`.  After that one precompute, every
query is a lookup:

* :meth:`Snapshot.densest_subgraph` merges the stored per-component
  walk results into the answer of :func:`repro.core.exact.exact_densest` --
  bit-identical to the cold path by construction (same cuts, same
  comparisons, densities recomputed from the stored exact
  instance-count / size integer pairs, so the floats match exactly);
* :meth:`Snapshot.query_density` binary-searches the breakpoint family
  (right-continuous: the applicable cut at ``α`` is the last entry with
  breakpoint ``α_i <= α``, the same convention the parametric tests
  pin against cold solves);
* :meth:`Snapshot.density_profile` and :meth:`Snapshot.top_k` read the
  whole piecewise structure.

None of the query methods touches a flow network: the ``flow.solves``
counter stays at zero across any number of warm queries (asserted in
``tests/test_serve.py`` and ``benchmarks/bench_serve_cache.py``).

Densities are never stored as bare floats to be trusted blindly --
every cut is stored with its exact instance count, and each served
density is the single correctly-rounded division ``count / size``.
Equal rationals round identically, which is the whole bit-identity
argument.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from math import isfinite
from typing import NamedTuple, Optional

from .. import guard, obs
from ..cliques.index import CliqueIndex
from ..core.exact import DensestSubgraphResult
from ..flow.builders import build_cds_parametric, build_eds_parametric
from ..flow.network import EPS
from ..graph.graph import Graph, Vertex

__all__ = [
    "ComponentArtifact",
    "CutInfo",
    "DensityAnswer",
    "Snapshot",
    "snapshot_key",
]


def snapshot_key(graph: Graph, h: int) -> str:
    """Content-hash key of a ``(graph, h)`` snapshot.

    SHA-256 over the format version, ``h``, :data:`EPS`, the vertex
    count/labels (in graph iteration order) and the edge id pairs
    (sorted, so neighbour-set iteration order cannot leak in).  Two
    graphs with the same labels inserted in the same order and the same
    edge set collide; anything else -- including a different EPS after
    a flow-layer retune -- misses.
    """
    hasher = hashlib.sha256()
    hasher.update(
        f"serve-snapshot-v1|h={h}|eps={EPS!r}|n={graph.num_vertices}"
        f"|m={graph.num_edges}".encode()
    )
    labels = list(graph)
    id_of = {v: i for i, v in enumerate(labels)}
    for v in labels:
        hasher.update(repr(v).encode())
        hasher.update(b"\x00")
    pairs = sorted(
        (id_of[u], id_of[v]) if id_of[u] < id_of[v] else (id_of[v], id_of[u])
        for u, v in graph.edges()
    )
    for a, b in pairs:
        hasher.update(a.to_bytes(8, "little"))
        hasher.update(b.to_bytes(8, "little"))
    return hasher.hexdigest()


@dataclass
class DensityAnswer:
    """Answer to one ``query_density(alpha)`` lookup.

    ``vertices`` is the minimal source-side min cut at ``alpha`` -- the
    minimal vertex set inducing a subgraph of Ψ-density > ``alpha``
    (empty when none exists); ``count`` its exact instance count.
    """

    alpha: float
    vertices: set
    density: float
    count: int = 0
    stats: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.vertices)


class CutInfo(NamedTuple):
    """One distinct cut of the breakpoint family (``top_k`` rows)."""

    vertices: frozenset
    density: float
    component: int


@dataclass
class ComponentArtifact:
    """One connected component's share of a snapshot.

    Vertex ids are dense ints over ``labels`` (the component's
    graph-iteration order, so every stored cut is the one the solvers
    produce).  ``fam_*`` hold the breakpoint family sorted by α:
    ``fam_cuts[i]`` is the minimal min cut on
    ``[fam_alphas[i], fam_alphas[i+1])`` and ``fam_counts[i]`` its exact
    instance count.
    """

    cid: int
    labels: list
    esrc: list[int]
    edst: list[int]
    rows: list[int]
    nodes: int
    walk_cut: Optional[tuple[int, ...]]
    walk_rho: float
    walk_count: int
    walk_solves: int
    fam_alphas: list[float]
    fam_cuts: list[tuple[int, ...]]
    fam_counts: list[int]

    def lookup(self, alpha: float) -> int:
        """Family index applicable at ``alpha`` (right-continuous)."""
        return max(0, bisect_right(self.fam_alphas, alpha) - 1)

    def cut_labels(self, ids) -> set:
        """A stored id tuple as external vertex labels."""
        labels = self.labels
        return {labels[i] for i in ids}


class Snapshot:
    """Immutable query artifact for one ``(graph, h)`` pair.

    Building one runs the full exact precompute (clique enumeration,
    one GGT walk plus one breakpoint sweep per component -- every flow
    solve ticks the active :class:`repro.guard.Budget`, so a deadline
    degrades the *build*, never a warm query).  Every method after that
    is flow-free.  Instances are restored from the persistence tier via
    :meth:`restore` without re-running anything.
    """

    __slots__ = (
        "key", "h", "eps", "n", "num_edges", "labels", "components",
        "env", "loaded", "_densest",
    )

    def __init__(
        self,
        graph: Graph,
        h: int = 2,
        *,
        index: Optional[CliqueIndex] = None,
        key: Optional[str] = None,
    ):
        if h < 2:
            raise ValueError("h must be >= 2")
        self.h = h
        self.eps = EPS
        self.key = key if key is not None else snapshot_key(graph, h)
        self.labels = list(graph)
        self.n = graph.num_vertices
        self.num_edges = graph.num_edges
        self.components: list[ComponentArtifact] = []
        self.env = obs.env_fingerprint()
        self.loaded = False
        self._densest: Optional[DensestSubgraphResult] = None
        with obs.span("serve.precompute", h=h, n=self.n):
            self._precompute(graph, index)
            obs.counter("serve.precomputes")

    # --- precompute ----------------------------------------------------

    def _precompute(self, graph: Graph, index: Optional[CliqueIndex]) -> None:
        if self.n == 0:
            return
        if self.h >= 3 and index is None:
            index = CliqueIndex(graph, self.h)
        for cid, cc in enumerate(graph.connected_components()):
            sub = graph.subgraph(cc)
            labels = list(sub)
            id_of = {v: i for i, v in enumerate(labels)}
            pairs = []
            for u in sub:
                iu = id_of[u]
                for v in sub.neighbors(u):
                    iv = id_of[v]
                    if iu < iv:
                        pairs.append((iu, iv))
            pairs.sort()
            esrc = [p[0] for p in pairs]
            edst = [p[1] for p in pairs]
            if self.h == 2:
                subidx = None
                rows: list[int] = []
                m_inst = sub.num_edges
                dmax = sub.max_degree()
                density_of = lambda s: sub.subgraph(s).num_edges / len(s)
                count_of = lambda s: sub.subgraph(s).num_edges
            else:
                subidx = index.subindex(sub)
                rows = list(subidx.inst)
                m_inst = subidx.m
                dmax = max(subidx.initial_degrees().values(), default=0)
                density_of = subidx.density_within
                count_of = subidx.count_within
            if m_inst == 0:
                # no Ψ instance: the cut is empty at every α >= 0, so
                # the component needs no network and no solves at all
                self.components.append(
                    ComponentArtifact(
                        cid, labels, esrc, edst, rows, 0,
                        None, 0.0, 0, 0, [0.0], [()], [0],
                    )
                )
                continue
            if self.h == 2:
                net = build_eds_parametric(sub)
            else:
                net = build_cds_parametric(sub, self.h, index=subidx)
            cut, rho, solves = net.max_density(density_of, low=0.0)
            # ρ* <= dmax/h (h·μ(S) = Σ_{v∈S} deg_Ψ,S(v) <= |S|·dmax), so
            # the family on [0, dmax/h] covers the whole α axis: beyond
            # its last breakpoint the cut is empty forever
            hi = float(dmax) / float(self.h)
            family = net.solve_breakpoints(0.0, hi)
            fam_alphas: list[float] = []
            fam_cuts: list[tuple[int, ...]] = []
            fam_counts: list[int] = []
            for alpha, cutset in family:
                fam_alphas.append(float(alpha))
                fam_cuts.append(tuple(sorted(id_of[v] for v in cutset)))
                fam_counts.append(int(count_of(cutset)) if cutset else 0)
            walk_ids = tuple(sorted(id_of[v] for v in cut)) if cut else None
            self.components.append(
                ComponentArtifact(
                    cid, labels, esrc, edst, rows, net.num_nodes,
                    walk_ids, float(rho),
                    int(count_of(cut)) if cut else 0, int(solves),
                    fam_alphas, fam_cuts, fam_counts,
                )
            )

    @classmethod
    def restore(
        cls,
        *,
        key: str,
        h: int,
        eps: float,
        labels: list,
        num_edges: int,
        components: list[ComponentArtifact],
        env: Optional[dict] = None,
        densest: Optional[DensestSubgraphResult] = None,
    ) -> "Snapshot":
        """Rebuild a snapshot from persisted artifacts -- no solving.

        Used by :class:`repro.serve.store.SnapshotStore`: every stored
        cut/count pair is complete, so a restored snapshot answers the
        same queries with the same bits as the instance that was saved.
        """
        snap = cls.__new__(cls)
        snap.key = key
        snap.h = h
        snap.eps = eps
        snap.labels = list(labels)
        snap.n = len(snap.labels)
        snap.num_edges = num_edges
        snap.components = components
        snap.env = env if env is not None else {}
        snap.loaded = True
        snap._densest = densest
        return snap

    # --- queries (all flow-free) ----------------------------------------

    @property
    def iterations(self) -> int:
        """Max-flow solves the precompute's Newton walks spent."""
        return sum(art.walk_solves for art in self.components)

    def matches(self, graph: Graph) -> bool:
        """Whether this snapshot was built from exactly ``graph``."""
        return self.key == snapshot_key(graph, self.h)

    def densest_subgraph(self) -> DensestSubgraphResult:
        """The Ψ-densest subgraph -- the stored per-component merge.

        Flow never crosses components, so the minimal min cut that
        :func:`repro.core.exact.exact_densest`'s whole-graph walk ends on
        is the union of the walk cuts of every component tied at the
        maximum density; this merges the stored walk cuts the same way
        (densest component wins, exact-float ties union).  The density
        is recomputed as the one division ``Σ counts / |union|``, which
        is the same correctly-rounded float the cold path produces.
        Zero flow solves.
        """
        budget = guard.ACTIVE
        if budget is not None:
            budget.tick_round("serve.query")
        if self._densest is None:
            self._densest = self._merge_walks()
        res = self._densest
        return DensestSubgraphResult(
            vertices=set(res.vertices),
            density=res.density,
            method=res.method,
            iterations=res.iterations,
            stats=dict(res.stats),
        )

    def _merge_walks(self) -> DensestSubgraphResult:
        iterations = 0
        maxrho = 0.0
        union: set[Vertex] = set()
        count = 0
        for art in self.components:
            iterations += art.walk_solves
            if not art.walk_cut:
                continue
            if art.walk_rho > maxrho:
                maxrho = art.walk_rho
                union = art.cut_labels(art.walk_cut)
                count = art.walk_count
            elif art.walk_rho == maxrho:
                union |= art.cut_labels(art.walk_cut)
                count += art.walk_count
        if union:
            vertices, density = union, count / len(union)
        else:
            # no component holds a Ψ instance: degenerate optimum, the
            # whole vertex set at density 0 (matches exact_densest)
            vertices, density = set(self.labels), 0.0
        return DensestSubgraphResult(
            vertices=vertices,
            density=density,
            method="Exact",
            iterations=iterations,
            stats={
                "snapshot": self.key,
                "served": True,
                "flow_solves": 0,
                "components": len(self.components),
            },
        )

    def query_density(self, alpha: float) -> DensityAnswer:
        """Minimal subgraph with Ψ-density > ``alpha`` (empty if none).

        A binary search per component over the stored breakpoint
        family; the union of the applicable cuts is exactly the
        whole-graph minimal min cut a cold parametric solve at
        ``alpha`` returns (flow never crosses components).
        """
        if not isfinite(alpha) or alpha < 0.0:
            raise ValueError(f"alpha must be a finite float >= 0, got {alpha!r}")
        budget = guard.ACTIVE
        if budget is not None:
            budget.tick_round("serve.query")
        vertices: set[Vertex] = set()
        count = 0
        for art in self.components:
            i = art.lookup(alpha)
            ids = art.fam_cuts[i]
            if not ids:
                continue
            vertices |= art.cut_labels(ids)
            count += art.fam_counts[i]
        density = count / len(vertices) if vertices else 0.0
        return DensityAnswer(alpha=alpha, vertices=vertices, density=density, count=count)

    def query_batch(self, alphas: list[float]) -> list[DensityAnswer]:
        """:meth:`query_density` for each α, in order."""
        return [self.query_density(float(a)) for a in alphas]

    def density_profile(self) -> list[dict]:
        """The whole piecewise density structure, one row per breakpoint.

        Each row is ``{"alpha", "size", "count", "density"}`` -- the
        minimal cut applicable on ``[alpha, next_alpha)`` and its exact
        density.  The final row is always the empty cut (the family is
        computed out to the ``dmax/h`` upper bound, past every
        possible subgraph density).
        """
        alphas = sorted({a for art in self.components for a in art.fam_alphas})
        rows = []
        for alpha in alphas:
            answer = self.query_density(alpha)
            rows.append(
                {
                    "alpha": alpha,
                    "size": answer.size,
                    "count": answer.count,
                    "density": answer.density,
                }
            )
        return rows

    def top_k(self, k: int) -> list[CutInfo]:
        """The ``k`` densest distinct stored cuts, densest first.

        Candidates are every non-empty breakpoint cut plus each
        component's walk cut (they form the nested dense-subgraph
        family GGT discovered).  Deterministic order: density
        descending, then size, component id and the id tuple.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        budget = guard.ACTIVE
        if budget is not None:
            budget.tick_round("serve.query")
        best: dict[tuple[int, tuple[int, ...]], float] = {}
        for ai, art in enumerate(self.components):
            candidates = list(zip(art.fam_cuts, art.fam_counts))
            if art.walk_cut:
                candidates.append((art.walk_cut, art.walk_count))
            for ids, cnt in candidates:
                if not ids:
                    continue
                best[(ai, ids)] = cnt / len(ids)
        ranked = sorted(
            best.items(), key=lambda kv: (-kv[1], len(kv[0][1]), kv[0][0], kv[0][1])
        )
        out = []
        for (ai, ids), density in ranked[:k]:
            art = self.components[ai]
            out.append(CutInfo(frozenset(art.cut_labels(ids)), density, ai))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Snapshot(key={self.key[:12]}..., h={self.h}, n={self.n}, "
            f"components={len(self.components)}, loaded={self.loaded})"
        )
