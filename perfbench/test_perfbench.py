"""Toy-size tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS, Cell, collab, power_law  # noqa: E402

from repro import api  # noqa: E402
from repro.core.exact import DensestSubgraphResult  # noqa: E402
from repro.graph import generators  # noqa: E402

TOY_CELLS = (
    Cell("ssca", lambda: generators.ssca(80, max_clique_size=8, seed=1), 3, "core-exact"),
    Cell("power-law", lambda: power_law(90, 2.1, 6.0, 2), 3, "exact"),
    Cell("rmat", lambda: generators.rmat(64, 300, seed=3), 2, "core-exact"),
    Cell("collab-app", lambda: collab(120, 3, 8, 4), 3, "core-app"),
    Cell("collab-peel", lambda: collab(100, 3, 7, 5), 3, "peel"),
    Cell("collab-inc", lambda: collab(100, 3, 7, 6), 3, "inc-app"),
)
TOY_SERVE = (
    Cell("rmat", lambda: generators.rmat(40, 150, seed=7), 2, "core-exact"),
    Cell("collab", lambda: collab(50, 2, 6, 8), 3, "core-exact"),
)


@pytest.fixture
def toy_run(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WARM_REQUESTS", 50)

    def make(seed: int = 3) -> bench.Run:
        return bench.Run(TOY_CELLS, TOY_SERVE, seed, 0.05, tmp_path)

    return make


def _declared() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_emitted_with_units(toy_run):
    run = toy_run()
    metrics = bench.measure(run)
    assert run.failed == 0, run.problems
    assert {k: v["unit"] for k, v in metrics.items()} == bench.END_TO_END
    assert all(v["value"] > 0 for v in metrics.values())


def test_layer_metrics_emitted_with_units(toy_run):
    run = toy_run()
    metrics = bench.measure_layers(run)
    assert run.failed == 0, run.problems
    assert {k: v["unit"] for k, v in metrics.items()} == {
        k: unit for k, (unit, _) in layers.LAYER_METRICS.items()}
    for name in ("cliques.subindex_calls", "core.peel_rounds", "core.coreapp_rounds",
                 "flow.solves", "flow.augments", "serve.store_bytes"):
        assert metrics[name]["value"] > 0, name


def test_declared_metrics_match_the_code():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        k: unit for k, (unit, _) in layers.LAYER_METRICS.items()}


def test_planted_wrong_solve_answer_is_counted(toy_run, monkeypatch):
    real = api.densest_subgraph

    def wrong(graph, psi=2, method="auto", **kwargs):
        result = real(graph, psi, method, **kwargs)
        if method == "peel":
            result = DensestSubgraphResult(set(result.vertices), result.density * 1.5, "PeelApp")
        return result

    monkeypatch.setattr(api, "densest_subgraph", wrong)
    run = toy_run()
    bench.measure(run)
    assert run.failed > 0
    assert any("collab-peel" in p for p in run.problems)


def test_planted_wrong_served_answer_is_counted(toy_run, monkeypatch):
    from repro.serve import snapshot

    real = snapshot.Snapshot.densest_subgraph

    def wrong(self):
        result = real(self)
        result.vertices = set(list(result.vertices)[1:])
        return result

    monkeypatch.setattr(snapshot.Snapshot, "densest_subgraph", wrong)
    run = toy_run()
    bench.measure(run)
    assert run.failed > 0
    assert any("serve." in p for p in run.problems)


def test_traced_counts_repeat_exactly(toy_run):
    first = bench.measure_layers(toy_run())
    second = bench.measure_layers(toy_run())
    for name in layers.COUNT_METRICS + ("serve.hit_ratio",):
        assert first[name]["value"] == second[name]["value"], name


def test_tracing_leaves_the_program_as_it_found_it():
    from repro.graph.graph import Graph

    before = (api.densest_subgraph, Graph.subgraph)
    trace = layers.LayerTrace()
    trace.install()
    assert api.densest_subgraph is not before[0]
    trace.uninstall()
    assert (api.densest_subgraph, Graph.subgraph) == before


def test_independent_counts_match_brute_force():
    from itertools import combinations

    graph = generators.erdos_renyi_gnm(25, 90, seed=5)
    members = set(range(0, 25, 2)) | {1, 3}
    for h in (2, 3):
        brute = sum(
            all(graph.has_edge(u, v) for u, v in combinations(group, 2))
            for group in combinations(sorted(members), h)
        )
        assert checks.clique_count(graph, members, h) == brute


def test_refuses_to_measure_under_program_knobs(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CHECK", "1")
    code = bench.main(["--workload", "clique-exact", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
