"""Vectorised h-clique instance kernels (numpy; pure-python fallback).

The clique-index layer stores every h-clique instance of a graph as one
row of a flat ``(m_Ψ × h)`` integer array over dense internal vertex
ids.  This module produces that array:

* :func:`triangle_rows` / :func:`k4_rows` -- numpy intersection kernels
  for h = 3 and h = 4, generalising the sorted-adjacency intersection
  of :func:`repro.graph.csr.triangle_degrees` from per-vertex *counts*
  to full *instance rows*.  Both enumerate over the upward orientation
  (edges point from smaller to larger internal id), so each clique is
  emitted exactly once as an ascending row, and the whole enumeration
  is a handful of O(#wedges) array operations instead of nested Python
  loops.
* :func:`clique_rows` -- the public entry point: dispatches to the
  numpy kernels when they apply and to the reference nested-loop
  enumerator (:func:`repro.cliques.enumeration.enumerate_cliques`)
  otherwise (h outside {2, 3, 4}, numpy unavailable, or numpy disabled
  via ``REPRO_NO_NUMPY``).

Both paths emit the *canonical* row array -- each row ascending in
internal id, rows in lexicographic order -- so every downstream
consumer (degrees, incidence index, flow builders, peels) sees
bit-identical data regardless of which kernel produced it; the
property-test suite pins this.

Set the environment variable ``REPRO_NO_NUMPY=1`` to force the
pure-python fallback even when numpy is importable (CI runs the
equivalence tests in both modes).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .. import env
from ..graph.graph import Graph

if env.flag("REPRO_NO_NUMPY"):  # explicit opt-out for CI / ablations
    np = None
else:
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - environment-specific
        np = None

#: Wedge-expansion chunk size, in *input rows* per expansion round.
#: The candidate arrays of one round are sum-of-out-degrees sized, so
#: the true peak is ``O(_CHUNK × max_out_degree)`` entries -- the chunk
#: caps the row side only, which keeps the common (degeneracy-bounded)
#: case at a few hundred MB worst-case while staying a single
#: ``np.repeat``/gather per round.
_CHUNK = 1 << 22

#: Use a dense boolean adjacency bitmap for edge-membership tests while
#: ``n²`` stays below this (16M entries = 16 MB); larger graphs fall
#: back to binary search on the sorted edge-key array.
_BITMAP_MAX_CELLS = 1 << 24

#: Kernel family the most recent :func:`clique_rows` call used
#: (``"numpy"`` or ``"python"``) -- the telemetry side channel
#: :class:`repro.cliques.index.CliqueIndex` copies into its
#: ``cliques.index`` build events.
LAST_KERNEL = "python"


def have_numpy() -> bool:
    """Whether the vectorised kernels are available (and not disabled)."""
    return np is not None


def _id_edges(graph: Graph, id_of: dict) -> tuple[list[int], list[int]]:
    """The edges as two flat id lists with ``src < dst`` per pair.

    Walks adjacency sets directly (each undirected edge seen from both
    ends, kept once by the id comparison) -- measurably cheaper than
    the ``edges()`` generator plus a list of tuples.
    """
    srcs: list[int] = []
    dsts: list[int] = []
    sa, da = srcs.append, dsts.append
    for u in graph:
        iu = id_of[u]
        for v in graph.neighbors(u):
            iv = id_of[v]
            if iu < iv:
                sa(iu), da(iv)
    return srcs, dsts


def _upward_csr(n: int, id_edges: tuple[Sequence[int], Sequence[int]]):
    """CSR of the upward orientation: arcs ``u -> v`` with ``u < v``.

    ``id_edges`` is a ``(srcs, dsts)`` pair with ``src < dst`` per
    edge.  Returns ``(dptr, ddst, keys)`` where
    ``ddst[dptr[u]:dptr[u+1]]`` are the ascending out-neighbours of
    ``u`` and ``keys`` is the sorted ``u * n + v`` key array behind the
    edge-membership tests.
    """
    srcs, dsts = id_edges
    if len(srcs):
        src = np.asarray(srcs, dtype=np.int64)
        dst = np.asarray(dsts, dtype=np.int64)
        keys = src * n + dst
        keys.sort()
        src, dst = keys // n, keys % n
    else:
        src = dst = keys = np.empty(0, dtype=np.int64)
    dptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=dptr[1:])
    return dptr, dst, keys


def _edge_membership(n: int, keys):
    """A vectorised ``member(probe_keys) -> bool array`` edge test.

    A dense adjacency bitmap (one O(1) gather per probe) while ``n²``
    is small enough; binary search on the sorted key array beyond.
    """
    if not len(keys):
        return lambda probe: np.zeros(len(probe), dtype=bool)
    if n * n <= _BITMAP_MAX_CELLS:
        bitmap = np.zeros(n * n, dtype=bool)
        bitmap[keys] = True
        return lambda probe: bitmap[probe]

    def member(probe):
        pos = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
        return keys[pos] == probe

    return member


def _expand_rows(rows, dptr, ddst):
    """All (row, x) pairs with ``x`` an upward neighbour of the row's last id.

    ``rows`` is an (r × k) array; returns ``(rep, x)`` where ``rep``
    indexes rows and ``x`` runs over ``ddst[dptr[last]:dptr[last + 1]]``
    in ascending order, preserving the lexicographic order of the
    expansion.  Callers chunk over ``rows`` to bound peak memory.
    """
    last = rows[:, -1]
    cnt = dptr[last + 1] - dptr[last]
    total = int(cnt.sum())
    if total == 0:
        return (np.empty(0, dtype=np.int64),) * 2
    rep = np.repeat(np.arange(len(rows), dtype=np.int64), cnt)
    starts = np.concatenate(([0], np.cumsum(cnt[:-1])))
    offset = np.arange(total, dtype=np.int64) - np.repeat(starts, cnt)
    x = ddst[dptr[last[rep]] + offset]
    return rep, x


def _extend_rows(rows, dptr, ddst, member, n, depth):
    """One expansion level: extend each row by an upward neighbour of
    its last vertex that is adjacent to the row's first ``depth``
    members (``depth`` vectorised edge-membership probes)."""
    width = rows.shape[1]
    out: list = []
    for lo in range(0, len(rows), _CHUNK):
        chunk = rows[lo : lo + _CHUNK]
        rep, x = _expand_rows(chunk, dptr, ddst)
        if not len(rep):
            continue
        ok = member(chunk[rep, 0] * n + x)
        for col in range(1, depth):
            ok &= member(chunk[rep, col] * n + x)
        if ok.any():
            out.append(np.concatenate([chunk[rep[ok]], x[ok, None]], axis=1))
    if not out:
        return np.empty((0, width + 1), dtype=np.int64)
    return np.concatenate(out, axis=0)


def triangle_rows(n: int, id_edges: Sequence[tuple[int, int]], csr=None):
    """All triangles as an ascending, lexicographically sorted (m × 3) array.

    For every upward edge ``(u, v)`` the third corners are
    ``out(u) ∩ out(v)``; the intersection is evaluated for *all* edges at
    once by expanding each edge with the out-neighbours of ``v`` and
    testing ``(u, x)`` edge membership on the sorted key array.
    """
    dptr, ddst, keys = csr if csr is not None else _upward_csr(n, id_edges)
    edges = _edge_rows_from_csr(n, dptr, ddst)
    return _extend_rows(edges, dptr, ddst, _edge_membership(n, keys), n, depth=1)


def k4_rows(n: int, id_edges: Sequence[tuple[int, int]], csr=None):
    """All 4-cliques as an ascending, lexicographically sorted (m × 4) array.

    Extends each triangle row ``(u, v, w)`` with the upward neighbours
    ``x`` of ``w`` and keeps those where both ``(u, x)`` and ``(v, x)``
    are edges -- the same one-shot membership test as the triangle
    kernel, one level deeper.
    """
    csr = csr if csr is not None else _upward_csr(n, id_edges)
    dptr, ddst, keys = csr
    member = _edge_membership(n, keys)
    edges = _edge_rows_from_csr(n, dptr, ddst)
    tri = _extend_rows(edges, dptr, ddst, member, n, depth=1)
    return _extend_rows(tri, dptr, ddst, member, n, depth=2)


def _edge_rows_from_csr(n, dptr, ddst):
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(dptr))
    return np.stack([src, ddst], axis=1)


def edge_rows(n: int, id_edges: Sequence[tuple[int, int]]):
    """All edges as an ascending, lexicographically sorted (m × 2) array."""
    dptr, ddst, _ = _upward_csr(n, id_edges)
    return _edge_rows_from_csr(n, dptr, ddst)


def _rows_python(graph: Graph, h: int, id_of: dict) -> list[int]:
    """Reference fallback: enumerate, map to ids, canonicalise.

    Returns the flat row list (length ``m · h``) in the same canonical
    order as the numpy kernels: rows ascending, lexicographically
    sorted.
    """
    from .enumeration import enumerate_cliques  # deferred: avoids a cycle

    rows = [sorted(id_of[v] for v in inst) for inst in enumerate_cliques(graph, h)]
    rows.sort()
    flat: list[int] = []
    for row in rows:
        flat.extend(row)
    return flat


def clique_rows(
    graph: Graph,
    h: int,
    id_of: dict,
    use_numpy: Optional[bool] = None,
) -> list[int]:
    """Canonical flat instance-row list for the h-cliques of ``graph``.

    Parameters
    ----------
    graph, h:
        Input graph and clique size (h >= 1).
    id_of:
        Dense internal-id mapping covering every vertex of ``graph``.
    use_numpy:
        Force the kernel choice (used by the equivalence tests and the
        enumeration-split bench); ``None`` auto-selects the numpy
        kernels for h in {2, 3, 4} when numpy is importable.

    Returns the flat list of length ``m_Ψ · h``: row ``i`` occupies
    ``[i*h, (i+1)*h)``, ascending within the row, rows lexicographic.
    Both kernel families produce bit-identical output (tested).
    """
    global LAST_KERNEL
    if use_numpy is None:
        use_numpy = np is not None
    if use_numpy and np is None:
        raise RuntimeError("numpy kernels requested but numpy is unavailable")
    if use_numpy and h in (2, 3, 4):
        LAST_KERNEL = "numpy"
        n = len(id_of)
        id_edges = _id_edges(graph, id_of)
        if h == 2:
            rows = edge_rows(n, id_edges)
        elif h == 3:
            rows = triangle_rows(n, id_edges)
        else:
            rows = k4_rows(n, id_edges)
        return rows.reshape(-1).tolist()
    LAST_KERNEL = "python"
    return _rows_python(graph, h, id_of)
