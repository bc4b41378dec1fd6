"""SQLite persistence tier: warm snapshot state survives process restarts.

One :class:`SnapshotStore` owns ``<root>/snapshots.sqlite`` in WAL mode
(concurrent readers never block each other or a writer -- the shape the
serving layer needs for many processes answering off one store).  Three
tables:

``snapshots``
    One row per stored snapshot: the content-hash key, ``h``, the EPS
    the flow layer was tuned to when the artifact was built, the global
    label list, the env fingerprint, byte size and LRU bookkeeping.
``components``
    One row per connected component: the flat int64/float64 artifact
    arrays (edges, clique rows, walk cut, breakpoint family) packed as
    little-endian blobs via :mod:`array` -- loadable with or without
    numpy, byte-exact both ways.
``results``
    The materialized densest-subgraph answer per snapshot, so the most
    common query is one indexed row read even before the component
    artifacts are touched.

Loading checks the stored EPS against the live
:data:`repro.flow.network.EPS`: a flow-layer retune silently invalidates
every persisted family, so a mismatched row is deleted, not served.
Densities are never persisted as trusted floats -- every cut travels
with its exact integer instance count, and a restored snapshot re-derives
each served density as the same single division the builder performed,
which is the whole bit-identity argument.

When a byte cap is configured, saves evict least-recently-used
snapshots (``last_used_s``; loads refresh it) until the store fits,
counting evictions locally and in ``obs``.
"""

from __future__ import annotations

import json
import sqlite3
import time
from array import array
from pathlib import Path
from typing import Optional

from .. import obs
from ..core.exact import DensestSubgraphResult
from ..flow.network import EPS
from .snapshot import ComponentArtifact, Snapshot

__all__ = ["SnapshotStore"]

#: How long a connection waits for another process's lock before failing.
_BUSY_TIMEOUT_S = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS snapshots (
    key TEXT PRIMARY KEY,
    h INTEGER NOT NULL,
    eps REAL NOT NULL,
    n INTEGER NOT NULL,
    m INTEGER NOT NULL,
    labels TEXT NOT NULL,
    env TEXT NOT NULL,
    iterations INTEGER NOT NULL,
    nbytes INTEGER NOT NULL,
    created_s REAL NOT NULL,
    last_used_s REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS components (
    key TEXT NOT NULL,
    cid INTEGER NOT NULL,
    labels TEXT NOT NULL,
    esrc BLOB NOT NULL,
    edst BLOB NOT NULL,
    inst_rows BLOB NOT NULL,
    nodes INTEGER NOT NULL,
    walk_cut BLOB,
    walk_rho REAL NOT NULL,
    walk_count INTEGER NOT NULL,
    walk_solves INTEGER NOT NULL,
    fam_alphas BLOB NOT NULL,
    fam_counts BLOB NOT NULL,
    fam_offsets BLOB NOT NULL,
    fam_cutids BLOB NOT NULL,
    PRIMARY KEY (key, cid)
);
CREATE TABLE IF NOT EXISTS results (
    key TEXT PRIMARY KEY,
    density REAL NOT NULL,
    vertices BLOB NOT NULL,
    iterations INTEGER NOT NULL
);
"""


def _pack_i(values) -> bytes:
    """Ints as a little-endian int64 blob (``array`` -- numpy-free)."""
    return array("q", [int(v) for v in values]).tobytes()


def _unpack_i(blob: Optional[bytes]) -> list[int]:
    out = array("q")
    if blob:
        out.frombytes(blob)
    return out.tolist()


def _pack_f(values) -> bytes:
    """Floats as a little-endian float64 blob -- exact IEEE-754 bytes."""
    return array("d", [float(v) for v in values]).tobytes()


def _unpack_f(blob: Optional[bytes]) -> list[float]:
    out = array("d")
    if blob:
        out.frombytes(blob)
    return out.tolist()


class SnapshotStore:
    """Durable artifact store under ``root`` (created if missing).

    Parameters
    ----------
    root:
        Directory holding ``snapshots.sqlite``.
    cap_bytes:
        Optional LRU byte cap over the summed component-blob sizes;
        ``None`` (or 0) stores without bound.
    """

    def __init__(self, root, *, cap_bytes: Optional[int] = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / "snapshots.sqlite"
        self.cap_bytes = int(cap_bytes) if cap_bytes else None
        self.evictions = 0
        self._conn = sqlite3.connect(str(self.path))
        # writers from other processes queue for the lock instead of
        # failing with "database is locked"
        self._conn.execute(f"PRAGMA busy_timeout={int(_BUSY_TIMEOUT_S * 1000)}")
        self._enable_wal()
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    def _enable_wal(self) -> None:
        """Switch the file to WAL, retrying while another process holds it.

        Two processes opening a fresh file at once can get "database is
        locked" from the switch without the busy timeout applying.  The
        mode persists in the file, so only its first opens can race.
        """
        deadline = time.monotonic() + _BUSY_TIMEOUT_S
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.01)

    # --- write ---------------------------------------------------------

    def save(self, snap: Snapshot) -> bool:
        """Persist ``snap`` (idempotent by key); returns success.

        Materializes the densest-subgraph answer into ``results`` first,
        so a later load can serve the headline query from one row.
        Labels must be JSON-serializable; a snapshot whose labels are
        not simply skips persistence (``False``) rather than failing the
        request that built it.
        """
        try:
            labels_json = json.dumps(snap.labels)
            comp_labels = [json.dumps(art.labels) for art in snap.components]
        except TypeError:
            return False
        densest = snap.densest_subgraph()
        id_of = {v: i for i, v in enumerate(snap.labels)}
        result_ids = _pack_i(sorted(id_of[v] for v in densest.vertices))
        now = time.time()
        nbytes = 0
        comp_rows = []
        for art, labels in zip(snap.components, comp_labels):
            offsets = [0]
            cutids: list[int] = []
            for ids in art.fam_cuts:
                cutids.extend(ids)
                offsets.append(len(cutids))
            blobs = (
                _pack_i(art.esrc),
                _pack_i(art.edst),
                _pack_i(art.rows),
                _pack_i(art.walk_cut) if art.walk_cut is not None else None,
                _pack_f(art.fam_alphas),
                _pack_i(art.fam_counts),
                _pack_i(offsets),
                _pack_i(cutids),
            )
            nbytes += sum(len(b) for b in blobs if b is not None) + len(labels)
            comp_rows.append(
                (
                    snap.key, art.cid, labels, blobs[0], blobs[1], blobs[2],
                    art.nodes, blobs[3], art.walk_rho, art.walk_count,
                    art.walk_solves, blobs[4], blobs[5], blobs[6], blobs[7],
                )
            )
        with self._conn:
            self._conn.execute("DELETE FROM components WHERE key = ?", (snap.key,))
            self._conn.executemany(
                "INSERT INTO components VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                comp_rows,
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO results VALUES (?, ?, ?, ?)",
                (snap.key, densest.density, result_ids, densest.iterations),
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO snapshots VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    snap.key, snap.h, snap.eps, snap.n, snap.num_edges,
                    labels_json, json.dumps(snap.env), densest.iterations,
                    nbytes, now, now,
                ),
            )
        self._evict()
        return True

    def _evict(self) -> None:
        """Drop LRU snapshots until the byte cap holds (newest survives)."""
        if self.cap_bytes is None:
            return
        rows = self._conn.execute(
            "SELECT key, nbytes FROM snapshots ORDER BY last_used_s ASC"
        ).fetchall()
        total = sum(nbytes for _, nbytes in rows)
        for key, nbytes in rows:
            if total <= self.cap_bytes or len(rows) <= 1:
                break
            self.delete(key)
            rows = rows[1:]
            total -= nbytes
            self.evictions += 1
            obs.counter("serve.evictions.store")

    def delete(self, key: str) -> None:
        """Remove one snapshot and its artifacts (no-op if absent)."""
        with self._conn:
            self._conn.execute("DELETE FROM snapshots WHERE key = ?", (key,))
            self._conn.execute("DELETE FROM components WHERE key = ?", (key,))
            self._conn.execute("DELETE FROM results WHERE key = ?", (key,))

    # --- read ----------------------------------------------------------

    def load(self, key: str) -> Optional[Snapshot]:
        """Restore a snapshot by key -- no enumeration, no flow.

        Returns ``None`` on a miss, and deletes-then-misses a row whose
        stored EPS differs from the live flow layer's (the persisted
        breakpoint family would no longer match what a cold solve
        computes).  All three tables are read in one transaction, so an
        eviction racing the load makes it a miss or stays invisible to
        it: a load never returns part of a snapshot.
        """
        t0 = time.perf_counter()
        self._conn.execute("BEGIN")
        try:
            row = self._conn.execute(
                "SELECT h, eps, n, m, labels, env, nbytes FROM snapshots WHERE key = ?",
                (key,),
            ).fetchone()
            if row is not None and row[1] == EPS:
                crows = self._conn.execute(
                    "SELECT cid, labels, esrc, edst, inst_rows, nodes, walk_cut, "
                    "walk_rho, walk_count, walk_solves, fam_alphas, fam_counts, "
                    "fam_offsets, fam_cutids FROM components WHERE key = ? ORDER BY cid",
                    (key,),
                ).fetchall()
                rrow = self._conn.execute(
                    "SELECT density, vertices, iterations FROM results WHERE key = ?",
                    (key,),
                ).fetchone()
        finally:
            self._conn.commit()
        if row is None:
            return None
        h, eps, _n, num_edges, labels_json, env_json, nbytes = row
        if eps != EPS:
            self.delete(key)
            return None
        labels = json.loads(labels_json)
        components = []
        for crow in crows:
            offsets = _unpack_i(crow[12])
            cutids = _unpack_i(crow[13])
            fam_cuts = [
                tuple(cutids[offsets[i] : offsets[i + 1]])
                for i in range(len(offsets) - 1)
            ]
            components.append(
                ComponentArtifact(
                    cid=crow[0],
                    labels=json.loads(crow[1]),
                    esrc=_unpack_i(crow[2]),
                    edst=_unpack_i(crow[3]),
                    rows=_unpack_i(crow[4]),
                    nodes=crow[5],
                    walk_cut=tuple(_unpack_i(crow[6])) if crow[6] is not None else None,
                    walk_rho=crow[7],
                    walk_count=crow[8],
                    walk_solves=crow[9],
                    fam_alphas=_unpack_f(crow[10]),
                    fam_counts=_unpack_i(crow[11]),
                    fam_cuts=fam_cuts,
                )
            )
        densest = None
        if rrow is not None:
            densest = DensestSubgraphResult(
                vertices={labels[i] for i in _unpack_i(rrow[1])},
                density=rrow[0],
                method="Exact",
                iterations=rrow[2],
                stats={
                    "snapshot": key,
                    "served": True,
                    "flow_solves": 0,
                    "components": len(components),
                },
            )
        snap = Snapshot.restore(
            key=key,
            h=h,
            eps=eps,
            labels=labels,
            num_edges=num_edges,
            components=components,
            env=json.loads(env_json),
            densest=densest,
        )
        with self._conn:
            self._conn.execute(
                "UPDATE snapshots SET last_used_s = ? WHERE key = ?",
                (time.time(), key),
            )
        obs.event(
            "serve.load",
            key=key,
            h=h,
            seconds=time.perf_counter() - t0,
            bytes=int(nbytes),
        )
        obs.counter("serve.loads")
        return snap

    def keys(self) -> list[str]:
        """Stored snapshot keys, most recently used last."""
        return [
            key
            for (key,) in self._conn.execute(
                "SELECT key FROM snapshots ORDER BY last_used_s ASC"
            )
        ]

    def stats(self) -> dict:
        """Store occupancy: snapshot count, total bytes, evictions."""
        count, nbytes = self._conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(nbytes), 0) FROM snapshots"
        ).fetchone()
        return {
            "path": str(self.path),
            "snapshots": count,
            "bytes": nbytes,
            "cap_bytes": self.cap_bytes,
            "evictions": self.evictions,
        }

    def close(self) -> None:
        """Commit and release the connection (the file stays loadable)."""
        self._conn.commit()
        self._conn.close()
