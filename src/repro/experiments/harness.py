"""Shared experiment harness: timing, table rendering, algorithm maps.

Every figure/table module in :mod:`repro.experiments` produces rows as
plain dicts; this module renders them in the aligned ASCII form the
benchmark harness prints so each run regenerates the paper's artefact
as text.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

from .. import obs
from ..graph.graph import Graph
from ..obs import env_fingerprint  # re-export: bench cells stamp this

__all__ = [
    "timed", "profiled", "env_fingerprint", "format_table", "print_table",
    "truncate_graph",
]


def timed(fn: Callable, *args, **kwargs) -> tuple[object, float]:
    """Run ``fn`` and return ``(result, wall_seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def profiled(fn: Callable, *args, **kwargs) -> tuple[object, float, dict]:
    """Run ``fn`` under a fresh trace; return ``(result, seconds, summary)``.

    Enables the in-memory collector (clearing any prior records), runs
    the callable, and returns :func:`repro.obs.summary` alongside the
    wall time -- the hook the bench cells use to attach per-cell trace
    rollups (flow warm/cold mix, per-tier solve counts, kernel work
    counters) to their JSON artifacts.  Tracing is restored to its
    previous state afterwards, so profiled cells compose with plain
    :func:`timed` cells in one process.
    """
    was_enabled = obs.enabled()
    obs.enable(fresh=True)
    try:
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - start
        summary = obs.summary()
    finally:
        if not was_enabled:
            obs.disable()
    return result, seconds, summary


def format_table(
    rows: Sequence[dict], columns: Sequence[str] | None = None, title: str = ""
) -> str:
    """Render rows as an aligned text table.

    Floats print with 4 significant decimals; missing cells as ``-``.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def cell(row: dict, col: str) -> str:
        value = row.get(col, "-")
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    rendered = [[cell(row, c) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in rendered)) for i, c in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for r in rendered:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def print_table(
    rows: Sequence[dict], columns: Sequence[str] | None = None, title: str = ""
) -> None:
    """Print :func:`format_table` output (benchmarks call this)."""
    print()
    print(format_table(rows, columns, title))


def truncate_graph(graph: Graph, max_vertices: int) -> Graph:
    """Induced subgraph on the ``max_vertices`` highest-degree vertices.

    Used by experiments that must bound pure-Python runtimes while
    keeping the dense part of a surrogate (where the DSD action is).
    """
    if graph.num_vertices <= max_vertices:
        return graph
    keep = sorted(graph.vertices(), key=lambda v: -graph.degree(v))[:max_vertices]
    return graph.subgraph(keep)
