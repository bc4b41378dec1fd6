"""Reading and writing graphs as plain-text edge lists.

The on-disk format is the one used by SNAP / GTgraph dumps that the paper
consumes: one edge per line, two whitespace-separated vertex ids, with
``#``-prefixed comment lines ignored.  Vertices parse as ``int`` when
possible, otherwise stay strings.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TextIO, Union

from .graph import Graph, Vertex

PathLike = Union[str, Path]


def _parse_vertex(token: str) -> Vertex:
    """Parse a vertex token, preferring ``int`` ids."""
    try:
        return int(token)
    except ValueError:
        return token


def read_edge_list(source: Union[PathLike, TextIO], *, strict: bool = False) -> Graph:
    """Read a graph from an edge-list file or open text stream.

    Parameters
    ----------
    source:
        A filesystem path or a readable text stream.
    strict:
        ``False`` (the default, matching the historical behaviour)
        *cleans* the input: self-loops are dropped, duplicate and
        reversed re-statements of an edge collapse, zero-weight edges
        are skipped, and a non-numeric third token is ignored.
        ``True`` turns each of those into a line-numbered
        ``ValueError`` instead -- the mode for ingesting a dataset that
        is *supposed* to be a clean simple graph, where a self-loop or
        a duplicate means the export is corrupt.

    Raises
    ------
    ValueError
        On a malformed line (fewer than two tokens), a non-finite or
        negative edge weight (both modes: NaN/inf/negative weights
        indicate corruption, never a usable simple graph), or -- in
        strict mode -- a self-loop, duplicate/reversed edge, unparsable
        weight, or an input with no usable edges at all.

    Notes
    -----
    An optional third whitespace-separated token per line is parsed as
    an edge weight for validation only; the simple-graph data model
    keeps no weights, so a valid positive weight is then discarded.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return _read_stream(handle, strict)
    return _read_stream(source, strict)


def _read_stream(handle: TextIO, strict: bool = False) -> Graph:
    graph = Graph()
    saw_line = False
    for lineno, raw in enumerate(handle, start=1):
        line = raw.strip()
        if not line or line.startswith(("#", "%")):
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise ValueError(f"line {lineno}: expected two vertex ids, got {line!r}")
        saw_line = True
        u, v = _parse_vertex(tokens[0]), _parse_vertex(tokens[1])
        if len(tokens) >= 3:
            try:
                weight = float(tokens[2])
            except ValueError:
                if strict:
                    raise ValueError(
                        f"line {lineno}: unparsable edge weight {tokens[2]!r}"
                    ) from None
                weight = 1.0  # tolerated in cleanup mode (extra column, not a weight)
            if math.isnan(weight) or math.isinf(weight) or weight < 0:
                raise ValueError(
                    f"line {lineno}: edge weight {tokens[2]} is not a finite "
                    "non-negative number; the file is corrupt"
                )
            if weight == 0:
                if strict:
                    raise ValueError(
                        f"line {lineno}: zero-weight edge ({u!r}, {v!r}); "
                        "drop it or re-read with strict=False"
                    )
                continue  # cleanup mode: a zero-weight edge is no edge
        if u == v:
            if strict:
                raise ValueError(
                    f"line {lineno}: self-loop on vertex {u!r} (simple-graph "
                    "model); re-read with strict=False to drop it"
                )
            continue  # drop self-loops: simple-graph model
        if graph.has_edge(u, v):
            if strict:
                raise ValueError(
                    f"line {lineno}: duplicate edge ({u!r}, {v!r}) (possibly "
                    "reversed); re-read with strict=False to collapse it"
                )
            continue
        graph.add_edge(u, v)
    if strict and saw_line and graph.num_edges == 0:
        raise ValueError("input contained edge lines but no usable edge survived")
    return graph


def write_edge_list(graph: Graph, target: Union[PathLike, TextIO]) -> None:
    """Write ``graph`` as an edge list (one ``u v`` pair per line).

    Isolated vertices are not representable in this format and are
    therefore not round-tripped; callers that need them should persist a
    vertex list separately.
    """
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            _write_stream(graph, handle)
        return
    _write_stream(graph, target)


def _write_stream(graph: Graph, handle: TextIO) -> None:
    handle.write(f"# undirected simple graph: n={graph.num_vertices} m={graph.num_edges}\n")
    for u, v in graph.edges():
        handle.write(f"{u} {v}\n")
