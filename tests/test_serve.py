"""Property suite for the serving layer (:mod:`repro.serve`).

The load-bearing contract: **snapshot answers are bit-identical to the
cold solvers, at zero flow solves**.  A 50-graph matrix of
multi-component random graphs pins it:

* :meth:`Snapshot.densest_subgraph` (and the ``api.densest_subgraph``
  ``snapshot=`` fast path) equals the cold ``method="exact"`` run's
  vertex set and density exactly (``==`` on floats, not approx);
* warm queries never touch a flow network: the ``flow.solves`` counter
  stays at zero across densest / α / profile / top-k lookups;
* ``query_density(α)`` at segment midpoints equals a cold parametric
  ``net.solve(α)`` per component (the right-continuity convention);
* a snapshot reloaded from the SQLite store -- in-process or from a
  fresh interpreter -- serves the same bits it was saved with, and an
  EPS-mismatched row is evicted, not served;
* both LRU tiers (store byte cap, memory entry cap) evict and count;
* an expired build deadline degrades the batch through the api's
  fallback machinery instead of failing;
* everything holds with numpy forced off (subprocess leg).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api, guard, obs, serve
from repro.cliques.index import CliqueIndex
from repro.flow.builders import build_cds_parametric, build_eds_parametric
from repro.graph.graph import Graph
from repro.serve import ArtifactCache, Snapshot, SnapshotStore

REPO = Path(__file__).resolve().parent.parent


def _graph(seed: int) -> Graph:
    """A multi-component random graph: 2-4 blobs of 8-16 vertices."""
    rng = random.Random(seed)
    comps = 2 + seed % 3
    p = 0.25 + 0.05 * (seed % 3)
    g = Graph()
    base = 0
    for _ in range(comps):
        n = 8 + 2 * rng.randrange(5)
        verts = list(range(base, base + n))
        for v in verts:
            g.add_vertex(v)
        for i, u in enumerate(verts):
            for v in verts[i + 1:]:
                if rng.random() < p:
                    g.add_edge(u, v)
        base += n
    return g


def _h(seed: int) -> int:
    return (2, 3, 4)[seed % 3]


def _midpoints(snap: Snapshot) -> list[float]:
    """Probe α values strictly inside each family segment.

    Exact breakpoint abscissae are where a cold solve and a stored
    family could legitimately disagree by one ulp of the intersection
    arithmetic; midpoints (plus 0.0 and one past the last breakpoint)
    probe every segment's interior, where the cut is unambiguous.
    """
    alphas = sorted({a for art in snap.components for a in art.fam_alphas})
    probes = [0.0]
    for a, b in zip(alphas, alphas[1:]):
        probes.append((a + b) / 2.0)
    probes.append((alphas[-1] if alphas else 0.0) + 1.0)
    return probes


def _cold_cut(graph: Graph, h: int, alpha: float) -> tuple[set, int]:
    """A cold per-component parametric solve at ``alpha`` (no snapshot)."""
    index = CliqueIndex(graph, h) if h >= 3 else None
    vertices: set = set()
    count = 0
    for cc in graph.connected_components():
        sub = graph.subgraph(cc)
        if h == 2:
            if sub.num_edges == 0:
                continue
            net = build_eds_parametric(sub)
            cut = net.solve(alpha)
            if cut:
                vertices |= cut
                count += sub.subgraph(cut).num_edges
        else:
            subidx = index.subindex(sub)
            if subidx.m == 0:
                continue
            net = build_cds_parametric(sub, h, index=subidx)
            cut = net.solve(alpha)
            if cut:
                vertices |= cut
                count += subidx.count_within(cut)
    return vertices, count


# --- the 50-graph identity matrix -------------------------------------


@pytest.mark.parametrize("seed", range(50))
def test_snapshot_densest_is_bit_identical_to_cold_exact(seed):
    g, h = _graph(seed), _h(seed)
    cold = api.densest_subgraph(g, h, method="exact")
    snap = Snapshot(g, h)
    warm = snap.densest_subgraph()
    assert warm.vertices == cold.vertices, (seed, h)
    assert warm.density == cold.density, (seed, h)
    assert warm.stats["served"] is True
    via_api = api.densest_subgraph(g, h, method="exact", snapshot=snap)
    assert via_api.vertices == cold.vertices, (seed, h)
    assert via_api.density == cold.density, (seed, h)


@pytest.mark.parametrize("seed", range(0, 50, 7))
def test_query_density_matches_cold_parametric_solves(seed):
    g, h = _graph(seed), _h(seed)
    snap = Snapshot(g, h)
    for alpha in _midpoints(snap):
        warm = snap.query_density(alpha)
        cold_vertices, cold_count = _cold_cut(g, h, alpha)
        assert warm.vertices == cold_vertices, (seed, h, alpha)
        assert warm.count == cold_count, (seed, h, alpha)
        if cold_vertices:
            assert warm.density == cold_count / len(cold_vertices)
        else:
            assert warm.density == 0.0


@pytest.mark.parametrize("seed", (2, 9, 16))
def test_query_batch_is_identical_to_query_density(seed):
    g, h = _graph(seed), _h(seed)
    snap = Snapshot(g, h)
    alphas = _midpoints(snap)
    serial = [snap.query_density(a) for a in alphas]
    batch = snap.query_batch(alphas)
    assert len(batch) == len(serial)
    for got, want in zip(batch, serial):
        assert got.vertices == want.vertices, (seed, h, got.alpha)
        assert got.density == want.density, (seed, h, got.alpha)
        assert got.count == want.count, (seed, h, got.alpha)


# --- the zero-flow-solve guarantee ------------------------------------


@pytest.mark.parametrize("seed", (1, 5, 12))
def test_warm_queries_perform_zero_flow_solves(seed):
    g, h = _graph(seed), _h(seed)
    snap = Snapshot(g, h)  # the only phase allowed to solve
    obs.enable(fresh=True)
    try:
        for _ in range(3):
            snap.densest_subgraph()
        api.densest_subgraph(g, h, snapshot=snap)  # the api fast path too
        for alpha in _midpoints(snap):
            snap.query_density(alpha)
        snap.density_profile()
        snap.top_k(5)
        counters = dict(obs.get_collector().counters)
    finally:
        obs.disable()
    assert counters.get("flow.solves", 0) == 0, (seed, h)


def test_profile_and_top_k_expose_the_piecewise_structure():
    g, h = _graph(4), _h(4)
    snap = Snapshot(g, h)
    densest = snap.densest_subgraph()
    profile = snap.density_profile()
    assert profile, "family always has the α=0 entry"
    assert profile[0]["alpha"] == 0.0
    assert profile[-1]["size"] == 0  # past dmax/h the cut is empty forever
    # right-continuity: the profile row at α answers exactly query_density(α)
    for row in profile:
        answer = snap.query_density(row["alpha"])
        assert answer.size == row["size"] and answer.count == row["count"]
    ranked = snap.top_k(10)
    assert ranked, "a non-trivial graph stores at least one dense cut"
    assert ranked[0].density == densest.density
    densities = [c.density for c in ranked]
    assert densities == sorted(densities, reverse=True)
    assert snap.top_k(0) == []


def test_degenerate_graphs_serve_like_the_cold_path():
    # no Ψ instance anywhere: degenerate optimum, whole set at 0.0
    path = Graph()
    for v in range(5):
        path.add_vertex(v)
    for v in range(4):
        path.add_edge(v, v + 1)
    cold = api.densest_subgraph(path, 3, method="exact")
    snap = Snapshot(path, 3)
    warm = snap.densest_subgraph()
    assert warm.vertices == cold.vertices == set(range(5))
    assert warm.density == cold.density == 0.0
    assert snap.query_density(0.0).vertices == set()
    assert snap.top_k(3) == []


def test_query_density_rejects_bad_alphas():
    snap = Snapshot(_graph(0), 2)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            snap.query_density(bad)
    with pytest.raises(ValueError):
        snap.query_batch([0.0, -2.0])


# --- the api snapshot= gate -------------------------------------------


def test_api_snapshot_gate_validates_requests():
    g = _graph(3)
    snap = Snapshot(g, 3)
    with pytest.raises(ValueError, match="h-clique"):
        api.densest_subgraph(g, "diamond", snapshot=snap)
    with pytest.raises(ValueError, match="h=3"):
        api.densest_subgraph(g, 2, snapshot=snap)
    with pytest.raises(ValueError, match="exact methods"):
        api.densest_subgraph(g, 3, method="peel", snapshot=snap)
    other = _graph(30)
    with pytest.raises(ValueError, match="content hash"):
        api.densest_subgraph(other, 3, snapshot=snap)
    # strict=False is the documented escape hatch around the key check:
    # the snapshot serves its own stored answer regardless of the graph
    lax = api.densest_subgraph(other, 3, strict=False, snapshot=snap)
    assert lax.vertices == snap.densest_subgraph().vertices


# --- persistence: kill and reload -------------------------------------


def test_store_roundtrip_reproduces_every_query(tmp_path):
    g, h = _graph(7), _h(7)
    snap = Snapshot(g, h)
    store = SnapshotStore(tmp_path)
    assert store.save(snap)
    store.close()
    # a fresh connection on the same directory: the in-process "restart"
    reopened = SnapshotStore(tmp_path)
    loaded = reopened.load(snap.key)
    assert loaded is not None and loaded.loaded
    assert loaded.key == snap.key and loaded.h == h
    assert loaded.labels == snap.labels
    want = snap.densest_subgraph()
    got = loaded.densest_subgraph()
    assert got.vertices == want.vertices
    assert got.density == want.density
    for alpha in _midpoints(snap):
        a, b = snap.query_density(alpha), loaded.query_density(alpha)
        assert a.vertices == b.vertices and a.density == b.density
        assert a.count == b.count
    assert reopened.load("no-such-key") is None
    reopened.close()


def test_store_survives_a_real_process_restart(tmp_path):
    g, h = _graph(11), _h(11)
    snap = Snapshot(g, h)
    store = SnapshotStore(tmp_path)
    assert store.save(snap)
    store.close()
    want = snap.densest_subgraph()
    script = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.serve import SnapshotStore\n"
        f"store = SnapshotStore({str(tmp_path)!r})\n"
        f"snap = store.load({snap.key!r})\n"
        "assert snap is not None and snap.loaded\n"
        "res = snap.densest_subgraph()\n"
        "assert res.stats['flow_solves'] == 0\n"
        "print(sorted(res.vertices))\n"
        "print(res.density.hex())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == str(sorted(want.vertices))
    assert lines[1] == want.density.hex()  # bit-identical across the restart


def test_store_evicts_rows_built_under_a_different_eps(tmp_path):
    snap = Snapshot(_graph(1), 2)
    store = SnapshotStore(tmp_path)
    assert store.save(snap)
    # a flow-layer retune: the persisted family no longer matches cold
    store._conn.execute("UPDATE snapshots SET eps = eps * 2 + 1e-3")
    store._conn.commit()
    assert store.load(snap.key) is None
    assert store.keys() == []  # deleted, not served
    store.close()


def test_store_lru_respects_the_byte_cap(tmp_path):
    store = SnapshotStore(tmp_path, cap_bytes=1)
    first, second = Snapshot(_graph(0), 2), Snapshot(_graph(10), 2)
    assert store.save(first)
    assert store.save(second)
    # cap of one byte: only the newest row may survive each save
    assert store.keys() == [second.key]
    assert store.evictions >= 1
    assert store.stats()["snapshots"] == 1
    store.close()


# --- persistence under concurrency ------------------------------------


def test_store_load_racing_an_eviction_never_returns_part_of_a_snapshot(tmp_path):
    """An eviction that lands mid-load is invisible to it: whole or miss."""
    snap = Snapshot(_graph(3), _h(3))
    want = snap.densest_subgraph()
    reader, evictor = SnapshotStore(tmp_path), SnapshotStore(tmp_path)
    assert evictor.save(snap)

    def evict_mid_load(sql):
        if "FROM components" in sql:
            evictor.delete(snap.key)

    reader._conn.set_trace_callback(evict_mid_load)
    loaded = reader.load(snap.key)
    reader._conn.set_trace_callback(None)
    assert evictor.keys() == []  # the eviction committed during the load
    assert loaded is not None
    assert len(loaded.components) == len(snap.components)
    got = loaded.densest_subgraph()
    assert got.vertices == want.vertices and got.density == want.density
    assert reader.load(snap.key) is None  # a load after it misses
    reader.close()
    evictor.close()


_STORE_WORKER = """
import json, sys, time
from pathlib import Path
sys.path.insert(0, 'tests'); sys.path.insert(0, 'src')
from test_serve import _graph, _h
from repro.serve import Snapshot, SnapshotStore

role, root, cap, spec = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
store = SnapshotStore(root, cap_bytes=cap)
if role == 'writer':
    snaps = [Snapshot(_graph(s), _h(s)) for s in json.loads(spec)]
    for _ in range(15):
        for snap in snaps:
            assert store.save(snap)
    print('saves', 15 * len(snaps))
else:
    expected = json.loads(Path(spec).read_text())
    stop = Path(root) / 'stop'
    hits = misses = 0
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        last = stop.exists()
        for key, want in expected.items():
            snap = store.load(key)
            if snap is None:
                misses += 1
                continue
            hits += 1
            assert len(snap.components) == want['components'], key
            res = snap.densest_subgraph()
            assert sorted(res.vertices) == want['vertices'], key
            assert res.density.hex() == want['density'], key
            q = snap.query_density(0.0)
            assert (sorted(q.vertices), q.count) == (want['q0'], want['q0_count']), key
        if last:
            break
    assert stop.exists(), 'reader timed out'
    print('hits', hits, 'misses', misses)
store.close()
"""


def test_store_serves_whole_snapshots_to_concurrent_writers_and_a_reader(tmp_path):
    """Three writer processes save (and so evict) under a byte cap while a
    reader process loads: no process errors, and every load is a miss or
    a snapshot whose answers equal the cold solve."""
    seeds = list(range(6))
    expected = {}
    sizing = SnapshotStore(tmp_path / "sizing")
    for seed in seeds:
        g, h = _graph(seed), _h(seed)
        cold = api.densest_subgraph(g, h, method="exact")
        snap = Snapshot(g, h)
        assert sizing.save(snap)
        q = snap.query_density(0.0)
        expected[snap.key] = {
            "components": len(snap.components),
            "vertices": sorted(cold.vertices),
            "density": cold.density.hex(),
            "q0": sorted(q.vertices),
            "q0_count": q.count,
        }
    cap = sizing.stats()["bytes"] // 2  # about half the snapshots fit
    sizing.close()
    root = tmp_path / "shared"
    root.mkdir()
    spec = tmp_path / "expected.json"
    spec.write_text(json.dumps(expected))
    script = tmp_path / "store_worker.py"
    script.write_text(_STORE_WORKER)
    env = dict(os.environ, PYTHONPATH="src")

    def start(role, arg):
        return subprocess.Popen(
            [sys.executable, str(script), role, str(root), str(cap), arg],
            cwd=REPO, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )

    reader = start("reader", str(spec))
    writers = [start("writer", json.dumps(seeds[i:] + seeds[:i])) for i in (0, 2, 4)]
    for proc in writers:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, out + err
        assert out.split() == ["saves", "90"], out + err
    (root / "stop").touch()
    out, err = reader.communicate(timeout=300)
    assert reader.returncode == 0, out + err
    words = out.split()
    assert words[0] == "hits" and int(words[1]) >= 1, out + err
    store = SnapshotStore(root, cap_bytes=cap)
    assert 1 <= store.stats()["snapshots"] < len(seeds)  # the cap evicted
    store.close()


# --- the cache tiers and their telemetry ------------------------------


def test_cache_tiers_hit_load_miss_and_the_obs_rollup(tmp_path):
    g, h = _graph(6), 2
    obs.enable(fresh=True)
    try:
        store = SnapshotStore(tmp_path)
        cache = ArtifactCache(store=store)
        built = cache.get(g, h)      # miss: full precompute + persist
        again = cache.get(g, h)      # memory hit: same object
        assert again is built
        cache.clear()
        loaded = cache.get(g, h)     # store load: reconstruct, no solve
        assert loaded.loaded and loaded.key == built.key
        rollup = obs.summary()["serve"]
        stats = cache.stats()
        store.close()
    finally:
        obs.disable()
    assert rollup["misses"] == 1
    assert rollup["hits"] == 1
    assert rollup["loads"] == 1
    assert rollup["precomputes"] == 1
    assert rollup["hit_ratio"] == pytest.approx(2.0 / 3.0)
    assert stats["hits"] == 1 and stats["misses"] == 1 and stats["loads"] == 1


def test_memory_lru_evicts_by_entry_count():
    cache = ArtifactCache(max_entries=2)
    graphs = [_graph(s) for s in (0, 10, 20)]
    for g in graphs:
        cache.get(g, 2)
    assert cache.evictions == 1
    assert cache.stats()["entries"] == 2
    # the evicted first graph misses again (no store behind this cache)
    cache.get(graphs[0], 2)
    assert cache.misses == 4
    with pytest.raises(ValueError):
        ArtifactCache(max_entries=0)


def test_default_cache_reads_the_env_knobs(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_SNAPSHOT_CAP", "")
    serve.reset_cache()
    try:
        g = _graph(8)
        first = serve.get_snapshot(g, 2)
        assert serve.get_snapshot(g, 2) is first  # memory hit
        serve.reset_cache()                       # process "restart"
        reloaded = serve.get_snapshot(g, 2)
        assert reloaded.loaded                    # came back from SQLite
        assert reloaded.densest_subgraph().vertices == first.densest_subgraph().vertices
    finally:
        serve.reset_cache()
    assert (tmp_path / "snapshots.sqlite").exists()


# --- the batch entry point and its degradation ------------------------


def test_batch_densest_answers_mixed_requests_off_one_snapshot():
    g, h = _graph(14), _h(14)
    cache = ArtifactCache()
    snap = serve.get_snapshot(g, h, cache=cache)
    want = snap.densest_subgraph()
    alphas = _midpoints(snap)[:2]
    answers = serve.batch_densest(g, h, [None, alphas[0], None, alphas[1]], cache=cache)
    assert len(answers) == 4
    assert answers[0].vertices == want.vertices == answers[2].vertices
    assert answers[0].density == want.density
    for req, got in ((alphas[0], answers[1]), (alphas[1], answers[3])):
        direct = snap.query_density(req)
        assert got.vertices == direct.vertices and got.count == direct.count
    assert cache.misses == 1  # one precompute served the whole batch


def test_batch_densest_degrades_when_the_build_deadline_expires():
    g = _graph(7)
    answers = serve.batch_densest(
        g, 2, [None, 0.1], deadline_s=0.0, cache=ArtifactCache()
    )
    densest, alpha_answer = answers
    assert densest.stats["degraded"] is True
    assert densest.stats["degraded_at"] == "serve.precompute"
    assert densest.vertices  # the fallback still produced an answer
    assert alpha_answer.stats["degraded"] is True
    assert alpha_answer.stats["count_unavailable"] is True
    if alpha_answer.vertices:
        assert alpha_answer.density > 0.1


# --- the numpy-off leg ------------------------------------------------


def test_snapshots_hold_without_numpy(tmp_path):
    """Pure-python tier: same bits served, stored, and reloaded."""
    script = (
        "import sys; sys.path.insert(0, 'tests'); sys.path.insert(0, 'src')\n"
        "from test_serve import _graph, _h\n"
        "from repro import api\n"
        "from repro.serve import ArtifactCache, Snapshot, SnapshotStore\n"
        f"store = SnapshotStore({str(tmp_path)!r})\n"
        "cache = ArtifactCache(store=store)\n"
        "for seed in (1, 8):\n"
        "    g, h = _graph(seed), _h(seed)\n"
        "    cold = api.densest_subgraph(g, h, method='exact')\n"
        "    snap = cache.get(g, h)\n"
        "    warm = snap.densest_subgraph()\n"
        "    assert warm.vertices == cold.vertices, seed\n"
        "    assert warm.density == cold.density, seed\n"
        "    cache.clear()\n"
        "    loaded = cache.get(g, h)\n"
        "    assert loaded.loaded, seed\n"
        "    assert loaded.densest_subgraph().vertices == cold.vertices, seed\n"
        "    batch = snap.query_batch([0.0, 0.25])\n"
        "    serial = [snap.query_density(a) for a in (0.0, 0.25)]\n"
        "    assert [a.vertices for a in batch] == [a.vertices for a in serial]\n"
        "print('identical')\n"
    )
    env = dict(os.environ, REPRO_NO_NUMPY="1", PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "identical" in proc.stdout


# --- budgets -----------------------------------------------------------


def test_warm_queries_run_under_an_expired_solve_budget():
    """Lookups tick rounds, never solves: a zero-solve budget that would
    kill any cold path leaves warm serving untouched."""
    g, h = _graph(5), 2
    snap = Snapshot(g, h)
    want = snap.densest_subgraph()
    with guard.Budget(max_solves=0):
        got = snap.densest_subgraph()
        answer = snap.query_density(0.0)
    assert got.vertices == want.vertices
    assert answer.count >= 0
