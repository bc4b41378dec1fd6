"""Per-layer tracing from outside the program.

The traced run wraps the public entry points of each layer at the module
or class attribute the solvers look them up through, times every call
and counts the work it did.  The program itself gets no new spans: all
wrappers are installed by :meth:`LayerTrace.install` and removed by
:meth:`LayerTrace.uninstall`.

Time metrics (``*_s``) are inclusive wall time of a layer's calls; a
call nested inside another call of the same metric is not counted
twice, but calls of different layers may nest (a flow solve inside a
serve precompute counts for both).  ``api.unattributed_s`` is the part
of the ``api.densest_subgraph`` time that no wrapped layer call covers.
"""

from __future__ import annotations

import functools
import sys
import time

#: Every per-layer metric the traced run reports: its unit, and the
#: end-to-end metric (on the workloads named) it should move.
LAYER_METRICS = {
    "graph.validate_s": ("s", "setup_s on every workload"),
    "graph.subgraph_s": ("s", "solve_s on clique-exact and approx"),
    "graph.subgraph_calls": ("count", "solve_s on clique-exact and approx"),
    "cliques.index_s": ("s", "solve_s on clique-exact and approx; near 0 on edge-exact"),
    "cliques.instances": ("count", "solve_s on clique-exact and approx"),
    "cliques.subindex_s": ("s", "solve_s on clique-exact"),
    "cliques.subindex_calls": ("count", "solve_s on clique-exact"),
    "cliques.subindex_rows_scanned": ("count", "solve_s on clique-exact"),
    "cliques.count_s": ("s", "solve_s on clique-exact"),
    "core.decompose_s": ("s", "solve_s on clique-exact and edge-exact"),
    "core.kmax": ("count", "solve_s on clique-exact and edge-exact"),
    "core.located_vertices": ("count", "solve_s on clique-exact and edge-exact"),
    "core.kcore_s": ("s", "solve_s on approx"),
    "core.peel_s": ("s", "solve_s on approx"),
    "core.peel_rounds": ("count", "solve_s on approx"),
    "core.coreapp_rounds": ("count", "solve_s on approx"),
    "flow.build_s": ("s", "solve_s on clique-exact, serve.densest_ready_s"),
    "flow.networks": ("count", "solve_s on clique-exact, serve.densest_ready_s"),
    "flow.nodes": ("count", "solve_s on clique-exact, serve.densest_ready_s"),
    "flow.arcs": ("count", "solve_s on clique-exact, serve.densest_ready_s"),
    "flow.solve_s": ("s", "solve_s on edge-exact"),
    "flow.solves": ("count", "solve_s on edge-exact"),
    "flow.augments": ("count", "solve_s on edge-exact"),
    "flow.bfs_passes": ("count", "solve_s on edge-exact"),
    "flow.breakpoints_s": ("s", "serve.profile_ready_s"),
    "serve.precompute_s": ("s", "serve.densest_ready_s and serve.profile_ready_s"),
    "serve.precompute_over_cold": ("ratio", "serve.densest_ready_s and serve.profile_ready_s"),
    "serve.key_s": ("s", "serve.query_p50_ms and serve.query_p99_ms"),
    "serve.cache_get_s": ("s", "serve.query_p50_ms and serve.query_p99_ms"),
    "serve.hit_ratio": ("ratio", "serve.query_p50_ms and serve.query_p99_ms"),
    "serve.lookup_s": ("s", "serve.query_p50_ms and serve.query_p99_ms"),
    "serve.store_save_s": ("s", "serve.reload_s"),
    "serve.store_load_s": ("s", "serve.reload_s"),
    "serve.store_bytes": ("bytes", "serve.reload_s"),
    "api.solve_s": ("s", "solve_s"),
    "api.unattributed_s": ("s", "solve_s"),
    "trace.overhead": ("ratio", "none: traced over untraced pass time, minus 1"),
}

#: Metrics that count work.  They are pure functions of the inputs, so
#: they repeat exactly across runs with the same seed.
COUNT_METRICS = tuple(k for k, (unit, _) in LAYER_METRICS.items() if unit in ("count", "bytes"))


class LayerTrace:
    """Accumulates per-layer times and counts while installed."""

    def __init__(self):
        self.totals: dict[str, float] = {}
        self._depth: dict[str, int] = {}
        self._layer_depth = 0  # wrapped layer calls currently open
        self._api_depth = 0
        self._covered = 0.0  # layer time spent inside api calls
        self._patches: list[tuple[object, str, object]] = []

    # --- accounting -----------------------------------------------------

    def add(self, name: str, value: float = 1) -> None:
        self.totals[name] = self.totals.get(name, 0) + value

    def take(self) -> dict[str, float]:
        """The totals since the last call; resets them."""
        out, self.totals = self.totals, {}
        covered, self._covered = self._covered, 0.0
        if "api.solve_s" in out:
            out["api.unattributed_s"] = out["api.solve_s"] - covered
        return out

    def _timed(self, name: str, fn, after=None):
        """``fn`` wrapped to time its calls into ``name``."""
        is_api = name == "api.solve_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = self._depth.get(name, 0)
            outer_layer = not is_api and self._layer_depth == 0
            self._depth[name] = depth + 1
            if is_api:
                self._api_depth += 1
            else:
                self._layer_depth += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self._depth[name] = depth
                if is_api:
                    self._api_depth -= 1
                else:
                    self._layer_depth -= 1
                if depth == 0:
                    self.add(name, elapsed)
                if outer_layer and self._api_depth:
                    self._covered += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # --- installation ---------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, original, wrapper) -> None:
        """Replace ``original`` in every loaded ``repro`` module that binds it."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _set_item(self, mapping: dict, key, value) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def install(self) -> None:
        """Put every wrapper in place; :meth:`uninstall` restores the originals."""
        from repro import accel, api
        from repro.cliques.index import CliqueIndex
        from repro.core import clique_core, core_app, kcore, peel
        from repro.flow import builders, dinic
        from repro.flow.parametric import ParametricNetwork
        from repro.graph import validate
        from repro.graph.graph import Graph
        from repro.serve import cache, snapshot, store

        fn = self._patch_function
        count = self.add

        self._set(api, "densest_subgraph", self._timed(
            "api.solve_s", api.densest_subgraph,
            after=lambda a, r: count("core.located_vertices",
                                     r.stats.get("located_vertices", 0))))
        fn(validate.validate_graph, self._timed("graph.validate_s", validate.validate_graph))

        self._set(Graph, "subgraph", self._timed(
            "graph.subgraph_s", Graph.subgraph,
            after=lambda a, r: count("graph.subgraph_calls")))

        self._set(CliqueIndex, "__init__", self._timed(
            "cliques.index_s", CliqueIndex.__init__,
            after=lambda a, r: count("cliques.instances", a[0].m)))

        def after_subindex(args, result):
            count("cliques.subindex_calls")
            count("cliques.subindex_rows_scanned", args[0].m)

        self._set(CliqueIndex, "subindex", self._timed(
            "cliques.subindex_s", CliqueIndex.subindex, after=after_subindex))
        self._set(CliqueIndex, "count_within", self._timed(
            "cliques.count_s", CliqueIndex.count_within))

        fn(clique_core.clique_core_decomposition, self._timed(
            "core.decompose_s", clique_core.clique_core_decomposition,
            after=lambda a, r: count("core.kmax", r.kmax)))
        fn(kcore.core_decomposition, self._timed("core.kcore_s", kcore.core_decomposition))
        fn(peel.peel_densest, self._timed("core.peel_s", peel.peel_densest))
        # CoreApp's per-prefix peel has no public entry point of its own
        self._set(core_app, "_kmax_core_at_least", self._timed(
            "core.peel_s", core_app._kmax_core_at_least,
            after=lambda a, r: count("core.coreapp_rounds")))

        min_degree_peel = peel.min_degree_peel

        @functools.wraps(min_degree_peel)
        def counted_peel(*args, **kwargs):
            for step in min_degree_peel(*args, **kwargs):
                count("core.peel_rounds")
                yield step

        fn(min_degree_peel, counted_peel)

        def after_build(args, net):
            count("flow.networks")
            count("flow.nodes", net.num_nodes)
            count("flow.arcs", net.num_arcs)

        for builder in (builders.build_eds_parametric, builders.build_cds_parametric):
            fn(builder, self._timed("flow.build_s", builder, after=after_build))

        self._set(ParametricNetwork, "solve", self._timed(
            "flow.solve_s", ParametricNetwork.solve))
        self._set(dinic, "max_flow", self._timed(
            "flow.solve_s", dinic.max_flow,
            after=lambda a, r: count("flow.solves")))
        self._set(ParametricNetwork, "solve_breakpoints", self._timed(
            "flow.breakpoints_s", ParametricNetwork.solve_breakpoints))

        # The Dinic kernel's work counters are return values the public
        # dispatcher drops; the registry slot is where it looks the
        # kernel up on every call.
        kernel = accel._impl["dinic"]
        if kernel is not None:
            def counted_kernel(*args):
                total, bfs_passes, augments = kernel(*args)
                count("flow.bfs_passes", bfs_passes)
                count("flow.augments", augments)
                return total, bfs_passes, augments

            self._set_item(accel._impl, "dinic", counted_kernel)

        self._set(snapshot.Snapshot, "__init__", self._timed(
            "serve.precompute_s", snapshot.Snapshot.__init__))
        fn(snapshot.snapshot_key, self._timed("serve.key_s", snapshot.snapshot_key))
        self._set(cache.ArtifactCache, "get", self._timed(
            "serve.cache_get_s", cache.ArtifactCache.get))
        for method in ("densest_subgraph", "query_density", "top_k"):
            self._set(snapshot.Snapshot, method, self._timed(
                "serve.lookup_s", getattr(snapshot.Snapshot, method)))
        self._set(store.SnapshotStore, "save", self._timed(
            "serve.store_save_s", store.SnapshotStore.save))
        self._set(store.SnapshotStore, "load", self._timed(
            "serve.store_load_s", store.SnapshotStore.load))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
