"""Seeded end-to-end benchmark of the densest-subgraph engine.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload clique-exact --seed 1 --seconds 10 --trace 0

Each run builds its workload's graphs from ``--seed`` (see
``perfbench/workloads.py``), drives them through the public API with
default knobs in this single process, checks every answer outside the
timed regions, and prints one JSON line with the environment followed by
the result line ``{"correct", "attempted", "failed", "metrics"}``.

Every run alternates two kinds of step over the ``--seconds`` window:

* a solve pass: one ``api.densest_subgraph`` call per cell of the workload;
* a serve session over three small graphs, the same in every workload:
  snapshot build from an empty store, first densest answers, alpha /
  top-k / profile queries, restarts from the SQLite store, then a share
  of a closed-loop stream of warm requests.  Untimed, each session also
  checks CoreApp and PeelApp answers on those graphs.

Every workload reports every end-to-end metric.  ``--trace 0`` reports
the end-to-end metrics, timed in CPU seconds of this process; ``--trace 1``
alternates untraced passes, traced passes and traced sessions and reports
the per-layer metrics of ``perfbench/layers.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Environment knobs that change the measured program; a run refuses
#: to produce numbers while any of them is set.
REFUSED_KNOBS = (
    "REPRO_WORKERS",
    "REPRO_CHECK",
    "REPRO_TRACE",
    "REPRO_FAULT",
    "REPRO_NO_NUMPY",
    "REPRO_NO_NUMBA",
    "REPRO_SNAPSHOT_DIR",
)

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "serve.densest_ready_s": "s",
    "serve.profile_ready_s": "s",
    "serve.query_p50_ms": "ms",
    "serve.query_p99_ms": "ms",
    "serve.reload_s": "s",
}

#: Timed regions read the process's CPU time, not wall time.  It leaves
#: out the time the process waits for a CPU, be it for other processes or
#: because a shared host's hypervisor holds the virtual CPU (steal time).
#: On a shared 2-vCPU host those waits doubled the run-to-run spread of
#: wall times.  The process runs the program in one thread, so its CPU
#: time is the time the program computes; waits on I/O are not in it.
cpu_seconds = time.process_time

#: Set-up runs at least SETUP_REPS times, and while under SETUP_SECONDS
#: up to SETUP_MAX_REPS times.
SETUP_REPS = 3
SETUP_SECONDS = 1.0
SETUP_MAX_REPS = 40
#: Seconds a cheap step repeats for in each round of the measuring loop.
STEP_SLICE = 0.5
MIN_PASSES = 3
#: The warm stream: requests generated per run, and served per session.
WARM_REQUESTS = 1_000
WARM_CHUNK = 250
WARM_SENDS = 3
MIN_SESSIONS = WARM_REQUESTS // WARM_CHUNK
#: Store restarts timed per serve session.
RESTARTS = 8
ALPHAS_PER_GRAPH = 6


class Run:
    """One benchmark run: inputs, answers checked so far, and failures."""

    def __init__(self, cells, serve_cells, seed: int, seconds: float, scratch: Path):
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.cells = cells
        self.serve_cells = serve_cells
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.graphs: list = []
        self.serve_graphs: list = []
        self.first_pass: list | None = None
        self.cold: list = []  # cold Exact answers of the serve graphs
        self.alphas: list[list[float]] = []
        self.alpha_answers: list[dict] = []  # first session's α answers
        self.requests: list[tuple[int, list]] = []
        self.serve_kmax: list[int] = []

    # --- bookkeeping ----------------------------------------------------

    def record(self, problem: str | None, what: str) -> None:
        """Count one operation; ``problem`` marks it failed."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {problem}")

    # --- set-up ---------------------------------------------------------

    def setup(self, reps: int) -> list[float]:
        """Generate and validate every graph at least ``reps`` times; the times.

        Cheap set-ups repeat until :data:`SETUP_SECONDS` have passed (at
        most :data:`SETUP_MAX_REPS` times), so their median rests on more
        samples.
        """
        from workloads import build_graphs

        times: list[float] = []
        while len(times) < reps or (
            sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX_REPS
        ):
            self.graphs = self.serve_graphs = []  # one set of graphs alive at a time
            gc.collect()
            t0 = cpu_seconds()
            self.graphs = build_graphs(self.cells, self.seed)
            self.serve_graphs = build_graphs(self.serve_cells, self.seed)
            times.append(cpu_seconds() - t0)
        return times

    def prepare(self) -> None:
        """Untimed references: cold serve answers and the query alphas.

        A snapshot replays Exact's component merge, so its densest answer
        is checked bit for bit against a cold Exact solve, whose density
        must in turn equal a cold CoreExact solve's.  (When several
        subgraphs share the optimal density, CoreExact may return a
        different one of them than Exact does.)
        """
        from repro import api
        from repro.core.clique_core import clique_core_decomposition

        rng = random.Random(self.seed)
        self.cold = []
        self.alphas = []
        for cell, graph in zip(self.serve_cells, self.serve_graphs):
            ref = api.densest_subgraph(graph, cell.h, method="exact")
            core = api.densest_subgraph(graph, cell.h, method="core-exact")
            self.record(None if core.density == ref.density else
                        f"core-exact density {core.density!r} != exact {ref.density!r}",
                        f"serve.{cell.name} cold")
            self.cold.append(ref)
            # α spread over [0, ρ*]: small α answer with big subgraphs,
            # α near ρ* with the densest cores, α >= ρ* with nothing
            top = ref.density * 1.05
            self.alphas.append(sorted(rng.uniform(0.0, top) for _ in range(ALPHAS_PER_GRAPH)))
        self.requests = self.warm_requests()
        self.serve_kmax = [clique_core_decomposition(graph, cell.h).kmax
                           for cell, graph in zip(self.serve_cells, self.serve_graphs)]
        # the inputs live for the whole run: keep them out of every
        # garbage collection the timed regions would otherwise pay for
        gc.collect()
        gc.freeze()

    # --- solve phase ----------------------------------------------------

    def solve_pass(self) -> tuple[list[float], list]:
        """One pass over the cells: (seconds per cell, answers)."""
        from repro import api

        times = []
        answers = []
        for cell, graph in zip(self.cells, self.graphs):
            t0 = cpu_seconds()
            try:
                answer = api.densest_subgraph(graph, cell.h, method=cell.method)
            except Exception as exc:  # an operation that raised is counted, not fatal
                answer = exc
            times.append(cpu_seconds() - t0)
            answers.append(answer)
        return times, answers

    def check_pass(self, answers: list) -> None:
        """Compare a pass with the first one, which :meth:`check_first_pass`
        verifies after the measurements (its reference computations would
        otherwise set the run's peak memory)."""
        if self.first_pass is None:
            self.first_pass = answers
            return
        from checks import same_answer

        for cell, first, answer in zip(self.cells, self.first_pass, answers):
            if isinstance(answer, Exception):
                self.record(repr(answer), cell.name)
            elif isinstance(first, Exception) or not same_answer(first, answer):
                self.record("answer differs from the first pass", cell.name)
            else:
                self.record(None, cell.name)

    def check_first_pass(self) -> None:
        for cell, graph, answer in zip(self.cells, self.graphs, self.first_pass):
            self.record(self.check_cell(cell, graph, answer), cell.name)

    def check_cell(self, cell, graph, answer) -> str | None:
        import checks
        from repro import api
        from repro.core.clique_core import clique_core_decomposition
        from workloads import EXACT_METHODS

        if isinstance(answer, Exception):
            return repr(answer)
        if cell.method not in EXACT_METHODS:
            kmax = clique_core_decomposition(graph, cell.h).kmax
            return checks.check_approx(graph, cell.h, answer, kmax)
        problem = checks.check_exact(graph, cell.h, answer)
        if problem is None and self.cross_checked(cell):
            other = "core-exact" if cell.method == "exact" else "exact"
            twin = api.densest_subgraph(graph, cell.h, method=other)
            if twin.density != answer.density:
                problem = f"{other} density {twin.density!r} != {answer.density!r}"
        return problem

    def cross_checked(self, cell) -> bool:
        """The Exact cells and the smallest CoreExact cell of a workload."""
        if cell.method == "exact":
            return True
        core = [(g.num_vertices, i) for i, (c, g) in enumerate(zip(self.cells, self.graphs))
                if c.method == "core-exact"]
        return bool(core) and self.cells[min(core)[1]] is cell

    # --- serve phase ----------------------------------------------------

    def serve_session(self, index: int) -> dict:
        """One cold serving session in a fresh store.

        Builds every snapshot from nothing (``densest_ready``), answers
        the α, top-k and profile queries (``profile_ready``), restarts
        from the store :data:`RESTARTS` times (``reload``), then serves
        this session's share of the warm request stream (``latencies``).
        ``gets`` holds the stats of every cache the session used.
        """
        from repro import serve

        pairs = list(zip(self.serve_cells, self.serve_graphs))
        root = Path(tempfile.mkdtemp(prefix="session-", dir=self.scratch))
        out: dict = {"reload": [], "gets": []}
        try:
            store = serve.SnapshotStore(root)
            cache = serve.ArtifactCache(store=store)
            t0 = cpu_seconds()
            densest = [self.serve_call(lambda: serve.batch_densest(graph, cell.h, cache=cache))
                       for cell, graph in pairs]
            out["densest_ready"] = cpu_seconds() - t0
            alpha_answers = []
            tops = []
            for i, (cell, graph) in enumerate(pairs):
                alpha_answers.append(self.serve_call(
                    lambda: serve.batch_densest(graph, cell.h, self.alphas[i], cache=cache)))
                snap = serve.get_snapshot(graph, cell.h, cache=cache)
                tops.append(self.serve_call(lambda: snap.top_k(5)))
                tops.append(self.serve_call(snap.density_profile))
            out["profile_ready"] = cpu_seconds() - t0
            out["store_bytes"] = store.stats()["bytes"]
            out["gets"].append(cache.stats())
            store.close()
            self.check_cold(index, densest, alpha_answers, tops)
            self.check_approximations()

            for restart in range(RESTARTS):
                t0 = cpu_seconds()
                store = serve.SnapshotStore(root)
                cache = serve.ArtifactCache(store=store)
                reloaded = [
                    self.serve_call(lambda: serve.batch_densest(
                        graph, cell.h, [None] + self.alphas[i], cache=cache))
                    for i, (cell, graph) in enumerate(pairs)
                ]
                out["reload"].append(cpu_seconds() - t0)
                self.check_reload(reloaded)
                if restart < RESTARTS - 1:
                    out["gets"].append(cache.stats())
                    store.close()
            out["latencies"] = self.warm_chunk(cache, index)
            out["gets"].append(cache.stats())
            store.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return out

    def serve_call(self, call):
        try:
            return call()
        except Exception as exc:  # counted as a failed operation by the checks
            return exc

    def check_cold(self, index: int, densest: list, alpha_answers: list, tops: list) -> None:
        """Check a cold session's answers.

        The first session's α answers are checked on their own (each is
        the exact density of its vertex set and exceeds α; an empty
        answer means α >= ρ*) and become the reference for every later
        session, restart and warm request.
        """
        import checks

        if index == 0:
            self.alpha_answers = [
                dict(zip(alphas, answers)) if isinstance(answers, list) else {}
                for alphas, answers in zip(self.alphas, alpha_answers)
            ]
        for i, (cell, graph) in enumerate(zip(self.serve_cells, self.serve_graphs)):
            name = f"serve.{cell.name}"
            self.record(self.densest_problem(i, densest[i]), f"{name} densest")
            problem = self.alpha_problem(i, self.alphas[i], alpha_answers[i])
            if problem is None and index == 0:
                for alpha, answer in zip(self.alphas[i], alpha_answers[i]):
                    if answer.vertices:
                        if checks.density(graph, answer.vertices, cell.h) != answer.density:
                            problem = f"alpha {alpha!r} answer density is not exact"
                        elif answer.density <= alpha:
                            problem = f"alpha {alpha!r} answer is not denser than alpha"
                    elif alpha < self.cold[i].density:
                        problem = f"alpha {alpha!r} answered empty below the optimum"
            self.record(problem, f"{name} alpha")
            top, profile = tops[2 * i], tops[2 * i + 1]
            if isinstance(top, Exception):
                self.record(repr(top), f"{name} top-k")
            else:
                self.record(None if top and top[0].density == self.cold[i].density else
                            "top-k does not lead with the densest subgraph", f"{name} top-k")
            self.record(repr(profile) if isinstance(profile, Exception) else None,
                        f"{name} profile")

    def check_approximations(self) -> None:
        """CoreApp and PeelApp on the serve graphs, checked against Theorem 1.

        Untimed in every run; it also gives the traced run's k-core and
        peel layers work on every workload.
        """
        import checks
        from repro import api

        for i, (cell, graph) in enumerate(zip(self.serve_cells, self.serve_graphs)):
            for method in ("core-app", "peel"):
                try:
                    answer = api.densest_subgraph(graph, cell.h, method=method)
                except Exception as exc:  # counted as a failed operation
                    self.record(repr(exc), f"serve.{cell.name} {method}")
                    continue
                self.record(checks.check_approx(graph, cell.h, answer, self.serve_kmax[i]),
                            f"serve.{cell.name} {method}")

    def check_reload(self, reloaded: list) -> None:
        for i, cell in enumerate(self.serve_cells):
            answers = reloaded[i]
            problem = self.densest_problem(i, answers)
            if problem is None:
                problem = self.alpha_problem(i, self.alphas[i], answers[1:])
            self.record(problem, f"serve.{cell.name} reload")

    def densest_problem(self, i: int, answers) -> str | None:
        """``answers[0]`` is serve graph ``i``'s densest answer."""
        from checks import same_answer

        if isinstance(answers, Exception):
            return repr(answers)
        if not same_answer(self.cold[i], answers[0]):
            return "served densest answer differs from the cold exact solve"
        return None

    def alpha_problem(self, i: int, alphas: list, answers) -> str | None:
        """``answers`` to ``alphas`` on serve graph ``i`` match the first session's."""
        if isinstance(answers, Exception):
            return repr(answers)
        for alpha, answer in zip(alphas, answers):
            ref = self.alpha_answers[i].get(alpha)
            if ref is None or (ref.vertices, ref.density, ref.count) != (
                answer.vertices, answer.density, answer.count
            ):
                return f"alpha {alpha!r} answer changed"
        return None

    def warm_requests(self) -> list[tuple[int, list]]:
        """The seeded warm stream: (serve graph index, 1-4 queries) per request.

        A query is ``None`` (the densest subgraph) or one of the graph's α.
        """
        rng = random.Random(self.seed + 1)
        requests = []
        for _ in range(WARM_REQUESTS):
            gi = rng.randrange(len(self.serve_graphs))
            queries = [None if rng.random() < 0.5 else rng.choice(self.alphas[gi])
                       for _ in range(rng.randint(1, 4))]
            requests.append((gi, queries))
        return requests

    def warm_chunk(self, cache, index: int) -> list[float]:
        """Session ``index``'s share of the warm stream, one closed-loop client.

        Each request is sent :data:`WARM_SENDS` times back to back and its
        latency is the fastest send: a shared host stalls a few percent
        of millisecond-long calls, which would otherwise set the tail.
        Returns one latency in seconds per request; every answer is
        checked after the loop.
        """
        from repro import serve

        latencies = []
        outcomes = []
        for j in range(WARM_CHUNK):
            gi, queries = self.requests[(index * WARM_CHUNK + j) % len(self.requests)]
            graph, h = self.serve_graphs[gi], self.serve_cells[gi].h
            fastest = float("inf")
            for _ in range(WARM_SENDS):
                t0 = cpu_seconds()
                try:
                    answers = serve.batch_densest(graph, h, queries, cache=cache)
                except Exception as exc:  # counted as a failed request below
                    answers = exc
                fastest = min(fastest, cpu_seconds() - t0)
                outcomes.append((gi, queries, answers))
            latencies.append(fastest)
        for gi, queries, answers in outcomes:
            self.record(self.warm_problem(gi, queries, answers), "serve.warm")
        return latencies

    def warm_problem(self, gi: int, queries: list, answers) -> str | None:
        if isinstance(answers, Exception):
            return repr(answers)
        for query, answer in zip(queries, answers):
            if query is None:
                problem = self.densest_problem(gi, [answer])
            else:
                problem = self.alpha_problem(gi, [query], [answer])
            if problem is not None:
                return problem
        return None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 < q <= 100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def interleave(budget: float, *steps: tuple[int, object]) -> None:
    """Round-robin over ``(minimum, step)`` pairs for ``budget`` seconds.

    In each round every step still wanted runs, back to back, until it
    has taken :data:`STEP_SLICE` seconds (once at least); it is passed
    how often it ran before.  A step is wanted until the budget is spent
    and it has run ``minimum`` times.  Interleaving spreads every
    metric's samples over the whole window, so a slow spell on a shared
    host hits all of them alike.
    """
    start = time.perf_counter()
    done = [0] * len(steps)
    while True:
        over = time.perf_counter() - start >= budget
        wanted = [k for k, (minimum, _) in enumerate(steps) if not over or done[k] < minimum]
        if not wanted:
            return
        for k in wanted:
            began = time.perf_counter()
            while True:
                gc.collect()
                steps[k][1](done[k])
                done[k] += 1
                if time.perf_counter() - began >= STEP_SLICE:
                    break


def measure(run: Run) -> dict:
    """The end-to-end metrics of an untraced run."""
    setup = run.setup(SETUP_REPS)
    run.prepare()
    cell_times: list[list[float]] = [[] for _ in run.cells]

    def solve_step(_):
        times, answers = run.solve_pass()
        for samples, seconds in zip(cell_times, times):
            samples.append(seconds)
        run.check_pass(answers)

    sessions: list[dict] = []
    interleave(run.seconds, (MIN_PASSES, solve_step),
               (MIN_SESSIONS, lambda i: sessions.append(run.serve_session(i))))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.check_first_pass()
    gc.unfreeze()

    latencies = [t for s in sessions for t in s["latencies"]]
    values = {
        "setup_s": statistics.median(setup),
        # one pass, each cell at its median over the passes run
        "solve_s": sum(statistics.median(samples) for samples in cell_times),
        "peak_rss_mb": peak_rss_mb,
        "serve.densest_ready_s": statistics.median(s["densest_ready"] for s in sessions),
        "serve.profile_ready_s": statistics.median(s["profile_ready"] for s in sessions),
        "serve.query_p50_ms": percentile(latencies, 50) * 1e3,
        "serve.query_p99_ms": percentile(latencies, 99) * 1e3,
        "serve.reload_s": statistics.median(t for s in sessions for t in s["reload"]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def measure_layers(run: Run) -> dict:
    """The per-layer metrics of untraced passes, traced passes and traced
    serve sessions, interleaved.  A layer's value is its typical work in
    one solve pass plus one serve session."""
    from checks import same_answer
    from layers import COUNT_METRICS, LAYER_METRICS, LayerTrace
    from repro import api

    trace = LayerTrace()
    trace.install()
    try:
        reps = len(run.setup(1))
    finally:
        trace.uninstall()
    validate_s = trace.take().get("graph.validate_s", 0.0) / reps
    run.prepare()

    cold_times = []  # cold core-exact solves of the serve graphs, untraced
    for _ in range(3):
        t0 = time.perf_counter()  # wall time, as the layer times it is compared with
        for cell, graph in zip(run.serve_cells, run.serve_graphs):
            api.densest_subgraph(graph, cell.h, method="core-exact")
        cold_times.append(time.perf_counter() - t0)

    plain: list[float] = []
    traced: list[float] = []
    pass_layers: list[dict] = []

    def plain_pass():
        times, answers = run.solve_pass()
        plain.append(sum(times))
        run.check_pass(answers)

    def traced_pass():
        trace.install()
        try:
            times, answers = run.solve_pass()
        finally:
            trace.uninstall()
        traced.append(sum(times))
        pass_layers.append(trace.take())
        for cell, first, answer in zip(run.cells, run.first_pass, answers):
            ok = not isinstance(answer, Exception) and same_answer(first, answer)
            run.record(None if ok else "traced answer differs from untraced", cell.name)

    def pair_step(i):
        # alternate which pass runs first: the second finds the graphs
        # already in cache, which would otherwise bias trace.overhead
        first, second = (plain_pass, traced_pass) if i % 2 == 0 else (traced_pass, plain_pass)
        first()
        second()

    session_layers: list[dict] = []

    def serve_step(i):
        trace.install()
        try:
            session = run.serve_session(i)
        finally:
            trace.uninstall()
        layers = trace.take()
        hits = sum(c["hits"] + c["loads"] for c in session["gets"])
        layers["serve.hit_ratio"] = hits / (hits + sum(c["misses"] for c in session["gets"]))
        layers["serve.store_bytes"] = session["store_bytes"]
        session_layers.append(layers)

    interleave(run.seconds, (MIN_PASSES, pair_step), (MIN_SESSIONS, serve_step))
    run.check_first_pass()
    gc.unfreeze()

    def typical(rows: list[dict], name: str) -> float:
        """Counts from the first row (they repeat exactly), times as medians."""
        if name in COUNT_METRICS or name == "serve.hit_ratio":
            return rows[0].get(name, 0)
        return statistics.median(row.get(name, 0.0) for row in rows)

    values = {name: typical(pass_layers, name) + typical(session_layers, name)
              for name in LAYER_METRICS}
    values["graph.validate_s"] = validate_s
    values["serve.precompute_over_cold"] = (
        typical(session_layers, "serve.precompute_s") / statistics.median(cold_times))
    values["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in LAYER_METRICS.items()}


def git_rev() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    from repro import accel

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    src_lines = sum(
        len(path.read_bytes().splitlines())
        for path in (ROOT / "src" / "repro").rglob("*.py")
    )
    return {
        "git_rev": git_rev(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "accel_tier": accel.TIER,
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_program() -> str | None:
    """Import ``repro`` from this checkout's ``src``; an error message if not."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return f"no program sources at {src}"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        return f"imported repro from {repro.__file__}, not from {src}"
    return None


def main(argv=None) -> int:
    from_env = [name for name in REFUSED_KNOBS if os.environ.get(name)]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if from_env:
        print(f"refusing to measure: {', '.join(from_env)} set", file=sys.stderr)
        return 2
    # one thread, so that an idle numpy BLAS pool adds no CPU time
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    problem = load_program()
    if problem is not None:
        print(f"cannot run: {problem}", file=sys.stderr)
        return 2
    from workloads import CELLS, SERVE_GRAPHS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    parent = ROOT / ".perfbench_tmp"  # the serve sessions' stores, inside the checkout
    parent.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=parent))
    try:
        run = Run(CELLS[args.workload], SERVE_GRAPHS, args.seed, args.seconds, scratch)
        metrics = measure_layers(run) if args.trace else measure(run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:  # another run still uses it
            pass
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"env": environment(args)}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
