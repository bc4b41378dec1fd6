"""Backend-dispatch property suite for the :mod:`repro.accel` registry.

Three layers of guarantees:

* **selection** -- the import-time tier honors ``REPRO_NO_NUMBA`` /
  ``REPRO_NO_NUMPY`` / ``REPRO_NUMBA_INTERP`` (pinned in subprocesses,
  since the flags are read once at import);
* **bit-identity** -- every tier produces *identical* flow values,
  residual capacity floats, min cuts, peel orders, core numbers and
  densities on the random network/graph matrices.  When numba is not
  installed, the "numba" tier runs the kernels interpreted -- slow, but
  byte-for-byte the code the JIT would compile, so the identity claims
  transfer;
* **end-to-end** -- Exact / CoreExact / PeelApp / the GGT breakpoint
  drivers return identical results whichever tier is selected.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import accel
from repro.core.clique_core import clique_core_decomposition
from repro.core.core_exact import core_exact_densest
from repro.core.exact import exact_densest
from repro.core.peel import peel_densest
from repro.extensions.size_constrained import densest_at_least, densest_at_most
from repro.flow import dinic
from repro.flow.builders import build_cds_parametric, build_eds_parametric

from .conftest import random_graph
from .test_flow import random_network

SRC_DIR = str(Path(accel.__file__).resolve().parents[2])


def _tiers() -> list:
    """Every tier testable in this interpreter (interp-numba included)."""
    tiers = list(accel.available_tiers())
    if "numba" not in tiers and accel.np is not None:
        tiers.append("numba")  # interpreted kernels, same code the JIT compiles
    return tiers


TIERS = _tiers()
MULTI = len(TIERS) >= 2


@pytest.fixture(autouse=True)
def _restore_tier():
    yield
    accel.select_tier(None)


# --------------------------------------------------------------------
# registry selection
# --------------------------------------------------------------------


def _clean_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_NO_NUMPY", "REPRO_NO_NUMBA", "REPRO_NUMBA_INTERP")}
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _probe_import(module: str) -> bool:
    return (
        subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env=_clean_env(), capture_output=True,
        ).returncode
        == 0
    )


HAS_NUMPY = _probe_import("numpy")
HAS_NUMBA = HAS_NUMPY and _probe_import("numba")


def _subprocess_state(extra_env: dict) -> tuple:
    env = _clean_env()
    env.update(extra_env)
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json, repro.accel as a; "
            "print(json.dumps([a.TIER, a.NUMBA_JITTED, a.kernel_tiers()]))",
        ],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    tier, jitted, kernel_tiers = json.loads(out)
    return tier, jitted, kernel_tiers


class TestSelection:
    def test_no_numpy_forces_python_tier(self):
        tier, jitted, kernels = _subprocess_state({"REPRO_NO_NUMPY": "1"})
        assert tier == "python"
        assert not jitted
        assert set(kernels.values()) == {"python"}

    def test_no_numba_stops_at_numpy_tier(self):
        tier, jitted, kernels = _subprocess_state({"REPRO_NO_NUMBA": "1"})
        assert not jitted
        if HAS_NUMPY:
            assert tier == "numpy"
            assert kernels["dinic"] == "numpy"
            assert kernels["ggt_retreat"] == "python"
        else:  # pragma: no cover - environment-specific
            assert tier == "python"

    def test_default_tier_is_best_available(self):
        tier, jitted, kernels = _subprocess_state({})
        if HAS_NUMBA:  # pragma: no cover - environment-specific
            assert tier == "numba" and jitted
            assert kernels["dinic"] == "numba"
        elif HAS_NUMPY:
            assert tier == "numpy" and not jitted
        else:  # pragma: no cover - environment-specific
            assert tier == "python"

    @pytest.mark.skipif(not HAS_NUMPY, reason="interp kernels need numpy")
    def test_interp_flag_selects_numba_tier_without_numba(self):
        tier, jitted, kernels = _subprocess_state({"REPRO_NUMBA_INTERP": "1"})
        assert tier == "numba"
        expected = "numba" if HAS_NUMBA else "numba-interp"
        assert kernels["dinic"] == expected
        # the advance loop stays interpreter-side by design
        assert kernels["ggt_advance"] == "python"

    def test_select_tier_validates(self):
        with pytest.raises(ValueError):
            accel.select_tier("bogus")
        if accel.np is None:
            with pytest.raises(RuntimeError):
                accel.select_tier("numpy")

    def test_registry_covers_all_kernels(self):
        for tier in TIERS:
            accel.select_tier(tier)
            assert set(accel.kernel_tiers()) == set(accel.KERNEL_NAMES)
            assert accel.warm_up() == tier


# --------------------------------------------------------------------
# solver bit-identity on the 50-network random matrix
# --------------------------------------------------------------------


@pytest.mark.skipif(not MULTI, reason="only one tier available")
class TestFlowKernelBitIdentity:
    @pytest.mark.parametrize("seed", range(50))
    def test_dinic_bit_identical_across_tiers(self, seed):
        results = {}
        for tier in TIERS:
            accel.select_tier(tier)
            net = random_network(seed, n=12 + seed % 7, arcs=30 + seed)
            value = dinic.max_flow(net)
            results[tier] = (value, list(net.cap), net.min_cut_source_side())
        base = results[TIERS[0]]
        for tier in TIERS[1:]:
            assert results[tier] == base, tier  # floats compared exactly

    @pytest.mark.parametrize("seed", range(50))
    def test_dinic_residual_is_a_max_flow_on_every_tier(self, seed):
        """On every tier the residual left by Dinic encodes a feasible
        flow (capacity bounds, paired reverse arcs, conservation at
        every inner node) whose value is the one returned, and the sink
        is cut off from the source."""
        for tier in TIERS:
            accel.select_tier(tier)
            net = random_network(seed, n=12 + seed % 7, arcs=30 + seed)
            original = net.snapshot()
            value = dinic.max_flow(net)
            excess = [0.0] * net.num_nodes
            for arc in range(0, len(net.head), 2):
                flow = original[arc] - net.cap[arc]
                assert -1e-9 <= flow <= original[arc] + 1e-9, (tier, arc)
                assert net.cap[arc ^ 1] == pytest.approx(original[arc ^ 1] + flow, abs=1e-9)
                excess[net.head[arc ^ 1]] -= flow
                excess[net.head[arc]] += flow
            s, t = net.node_id("s"), net.node_id("t")
            for node, amount in enumerate(excess):
                if node not in (s, t):
                    assert amount == pytest.approx(0.0, abs=1e-6), (tier, node)
            assert -excess[s] == pytest.approx(value, abs=1e-6), tier
            assert excess[t] == pytest.approx(value, abs=1e-6), tier
            side = net.min_cut_source_side()
            assert "s" in side and "t" not in side, tier

    @pytest.mark.skipif(accel.np is None, reason="vector tier needs numpy")
    @pytest.mark.parametrize("seed", range(12))
    def test_vectorised_bfs_bit_identical(self, seed, monkeypatch):
        """Force the numpy BFS on tiny networks: same floats as scalar."""
        accel.select_tier("python")
        ref = random_network(seed)
        ref_value = dinic.max_flow(ref)
        monkeypatch.setattr(accel.vector, "NUMPY_BFS_MIN_ARCS", 1)
        accel.select_tier("numpy")
        net = random_network(seed)
        value = dinic.max_flow(net)
        assert value == ref_value
        assert net.cap == ref.cap
        assert net.min_cut_source_side() == ref.min_cut_source_side()


# --------------------------------------------------------------------
# GGT warm chains (advance + retreat + drain) across tiers
# --------------------------------------------------------------------


@pytest.mark.skipif(not MULTI, reason="only one tier available")
class TestParametricBitIdentity:
    @pytest.mark.parametrize("seed", range(8))
    def test_alpha_walk_bit_identical(self, seed):
        """A fixed up-and-down α walk must leave identical residual
        floats and cuts on every tier (exercises the retreat drains)."""
        import random as _random

        rng = _random.Random(seed)
        g = random_graph(22, 65, seed + 900)
        alphas = [rng.uniform(0.0, g.max_degree()) for _ in range(12)]
        traces = {}
        for tier in TIERS:
            accel.select_tier(tier)
            net = build_eds_parametric(g)
            trace = []
            for alpha in alphas:
                cut = net.solve(alpha)
                trace.append((frozenset(cut), tuple(net.cap)))
            traces[tier] = trace
        base = traces[TIERS[0]]
        for tier in TIERS[1:]:
            assert traces[tier] == base, tier

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("h", [2, 3])
    def test_max_density_identical(self, seed, h):
        g = random_graph(18, 50, seed + 60)
        results = {}
        for tier in TIERS:
            accel.select_tier(tier)
            if h == 2:
                net = build_eds_parametric(g)
                density_of = lambda s: g.subgraph(s).num_edges / len(s)
            else:
                net = build_cds_parametric(g, h)
                from repro.cliques.index import CliqueIndex

                density_of = CliqueIndex(g, h).density_within
            results[tier] = net.max_density(density_of, low=0.0)
        base = results[TIERS[0]]
        for tier in TIERS[1:]:
            assert results[tier] == base, tier  # (cut, alpha, solves)


# --------------------------------------------------------------------
# end-to-end: exact solvers and peels on the 50-graph matrix
# --------------------------------------------------------------------


@pytest.mark.skipif(not MULTI, reason="only one tier available")
class TestEndToEndBitIdentity:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("h", [2, 3])
    def test_exact_and_core_exact(self, seed, h):
        g = random_graph(22, 60, seed)
        results = {}
        for tier in TIERS:
            accel.select_tier(tier)
            ex = exact_densest(g, h)
            ce = core_exact_densest(g, h)
            results[tier] = (
                frozenset(ex.vertices), ex.density, ex.iterations,
                frozenset(ce.vertices), ce.density, ce.iterations,
            )
        base = results[TIERS[0]]
        for tier in TIERS[1:]:
            assert results[tier] == base, tier

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("h", [2, 3])
    def test_decomposition_and_peels(self, seed, h):
        g = random_graph(24, 70, seed + 30)
        results = {}
        for tier in TIERS:
            accel.select_tier(tier)
            dec = clique_core_decomposition(g, h)
            peel = peel_densest(g, h)
            at_least = densest_at_least(g, max(2, g.num_vertices // 3), h)
            at_most = densest_at_most(g, max(2, g.num_vertices // 2), h)
            results[tier] = (
                tuple(sorted(dec.core.items())), dec.kmax,
                dec.best_residual_density, frozenset(dec.best_residual_vertices),
                tuple(dec.peel_order),
                frozenset(peel.vertices), peel.density, peel.iterations,
                frozenset(at_least.vertices), at_least.density,
                frozenset(at_most.vertices), at_most.density,
            )
        base = results[TIERS[0]]
        for tier in TIERS[1:]:
            assert results[tier] == base, tier

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_core_exact_h4(self, seed):
        g = random_graph(18, 55, seed + 70)
        results = {}
        for tier in TIERS:
            accel.select_tier(tier)
            ce = core_exact_densest(g, 4)
            results[tier] = (frozenset(ce.vertices), ce.density)
        base = results[TIERS[0]]
        for tier in TIERS[1:]:
            assert results[tier] == base, tier


class TestWarmAwareBfsDispatch:
    """The numpy-tier BFS threshold is warmth-dependent (regression:
    the old single threshold sent warm GGT re-solves to the numpy BFS,
    whose per-call overhead never amortises over 1-3 short passes)."""

    @pytest.fixture(autouse=True)
    def _numpy_tier(self):
        from repro.accel import vector

        if not _probe_import("numpy"):
            pytest.skip("numpy unavailable: no BFS dispatch to probe")
        saved = (vector.NUMPY_BFS_MIN_ARCS, vector.NUMPY_BFS_MIN_ARCS_WARM)
        accel.select_tier("numpy")
        yield
        vector.NUMPY_BFS_MIN_ARCS, vector.NUMPY_BFS_MIN_ARCS_WARM = saved
        accel.select_tier(None)

    def test_warm_solves_take_scalar_cold_takes_numpy(self):
        """With the cold threshold forced to 0, a cold solve picks the
        numpy BFS while warm re-solves still pick the scalar BFS -- the
        deterministic statement of the warmth split."""
        from repro import obs
        from repro.accel import vector

        vector.NUMPY_BFS_MIN_ARCS = 0  # cold: numpy BFS at any size
        g = random_graph(40, 170, seed=7)
        net = build_eds_parametric(g)
        obs.enable()
        try:
            net.solve(0.5)  # cold
            net.solve(1.0)  # warm advance
            net.solve(1.5)  # warm advance
            events = [
                e["fields"]
                for e in obs.get_collector().events()
                if e["name"] == "flow.solve"
            ]
        finally:
            obs.disable()
        modes = [(f["mode"], f.get("bfs_mode")) for f in events]
        assert modes[0] == ("cold", "numpy"), modes
        for mode, bfs in modes[1:]:
            assert mode != "cold", modes
            assert bfs == "scalar", modes

    def test_default_warm_threshold_is_unreachable(self):
        from repro.accel import vector

        assert vector.NUMPY_BFS_MIN_ARCS_WARM > 1 << 40
        assert vector.NUMPY_BFS_MIN_ARCS < vector.NUMPY_BFS_MIN_ARCS_WARM

    def test_warm_hint_threaded_from_parametric(self):
        """The parametric engine's warm-start mode reaches the vector
        module through the dispatcher's ``warm=`` keyword."""
        from repro.accel import vector

        g = random_graph(30, 120, seed=9)
        net = build_eds_parametric(g)
        net.solve(0.5)
        assert vector.SOLVE_IS_WARM is False  # first solve is cold
        net.solve(1.0)
        assert vector.SOLVE_IS_WARM is True  # re-solve came in warm
