"""Query serving: precompute a snapshot once, answer density queries free.

The GGT divide-and-conquer already computes the *entire* nested min-cut
breakpoint family of a graph -- after that one precompute, every
density / α / densest-subgraph query is a lookup, not a max-flow.  This
package productizes that observation into the serving layer the ROADMAP
targets:

* :class:`~repro.serve.snapshot.Snapshot` -- the immutable artifact
  (per-component clique rows, GGT walk result, full breakpoint family)
  behind a content-hash key; all query methods are flow-free and
  bit-identical to the cold solvers.
* :class:`~repro.serve.cache.ArtifactCache` -- memory LRU +
  ``serve.hit`` / ``serve.miss`` / ``serve.load`` telemetry.
* :class:`~repro.serve.store.SnapshotStore` -- SQLite (WAL) persistence
  so warm state survives process restarts.

Module-level entry points (wired to the default cache, which reads
``REPRO_SNAPSHOT_DIR`` / ``REPRO_SNAPSHOT_CAP``):

* :func:`get_snapshot` resolves ``(graph, h)`` through the cache;
* :func:`batch_densest` amortises one snapshot across a batch of
  queries, with per-batch ``guard.Budget`` deadlines degrading through
  the api's peel-fallback machinery instead of failing.

``api.densest_subgraph(graph, h, snapshot=snap)`` is the single-query
fast path over the same artifact.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .. import env, guard, obs
from ..core.exact import DensestSubgraphResult
from ..graph.graph import Graph
from .cache import ArtifactCache
from .snapshot import CutInfo, DensityAnswer, Snapshot, snapshot_key
from .store import SnapshotStore

__all__ = [
    "ArtifactCache",
    "CutInfo",
    "DensityAnswer",
    "Snapshot",
    "SnapshotStore",
    "batch_densest",
    "get_snapshot",
    "reset_cache",
    "snapshot_key",
]

#: The lazily-built default cache behind the module-level entry points.
#: Mutated via :func:`_default_cache` / :func:`reset_cache` only.
_CACHE: Optional[ArtifactCache] = None


def _default_cache() -> ArtifactCache:
    global _CACHE
    if _CACHE is None:
        root = env.text("REPRO_SNAPSHOT_DIR")
        store = None
        if root:
            cap = int(env.number("REPRO_SNAPSHOT_CAP"))
            store = SnapshotStore(root, cap_bytes=cap or None)
        _CACHE = ArtifactCache(store=store)
    return _CACHE


def reset_cache() -> None:
    """Drop the default cache (closing its store); it rebuilds lazily.

    Re-reads ``REPRO_SNAPSHOT_DIR`` / ``REPRO_SNAPSHOT_CAP`` on next
    use -- the test-suite hook for pointing the store at a temp dir.
    """
    global _CACHE
    if _CACHE is not None and _CACHE.store is not None:
        _CACHE.store.close()
    _CACHE = None


def get_snapshot(
    graph: Graph,
    h: int = 2,
    *,
    cache: Optional[ArtifactCache] = None,
) -> Snapshot:
    """The :class:`Snapshot` for ``(graph, h)`` via the cache tiers.

    A memory hit or store load performs zero enumeration and zero flow
    work; only a genuine miss runs the precompute (under the active
    :class:`repro.guard.Budget`, which therefore bounds the *build* --
    warm queries afterwards are pure lookups).  ``cache=None`` uses the
    process-default cache.
    """
    with obs.span("serve.snapshot", h=h, n=graph.num_vertices):
        budget = guard.ACTIVE
        if budget is not None:
            budget.tick_round("serve.snapshot")
        target = cache if cache is not None else _default_cache()
        return target.get(graph, h)


def batch_densest(
    graph: Graph,
    h: int = 2,
    alphas: Optional[Sequence[Optional[float]]] = None,
    *,
    deadline_s: Optional[float] = None,
    cache: Optional[ArtifactCache] = None,
) -> list[Union[DensestSubgraphResult, DensityAnswer]]:
    """Answer a batch of queries off one shared snapshot.

    ``alphas`` is one request per entry: ``None`` asks for the densest
    subgraph, a float ``α`` for the minimal subgraph of Ψ-density >
    ``α``.  Omitted entirely, the batch is a single densest-subgraph
    request.  The snapshot is resolved once, so ``n`` concurrent
    queries cost one precompute, not ``n``.

    ``deadline_s`` wraps the snapshot *build* in a
    :class:`repro.guard.Budget`.  If the build cannot finish, the batch
    degrades instead of failing: every request is answered through
    :func:`repro.api.densest_subgraph` under a fresh deadline, riding
    its incumbent/peel-fallback machinery, and each answer carries
    ``stats["degraded"]`` (α-answers then report the fallback subgraph
    when its density clears ``α``, with no exact instance count).
    """
    requests = [None] if alphas is None else list(alphas)
    with obs.span("serve.batch", h=h, requests=len(requests)):
        budget = guard.ACTIVE
        if budget is not None:
            budget.tick_round("serve.batch")
        try:
            if deadline_s is not None:
                with guard.Budget(deadline_s=deadline_s):
                    snap = get_snapshot(graph, h, cache=cache)
            else:
                snap = get_snapshot(graph, h, cache=cache)
        except guard.BudgetExceeded:
            return _degraded_batch(graph, h, requests, deadline_s)
        qalphas = [float(a) for a in requests if a is not None]
        answers = iter(snap.query_batch(qalphas))
        return [
            snap.densest_subgraph() if req is None else next(answers)
            for req in requests
        ]


def _degraded_batch(
    graph: Graph,
    h: int,
    requests: list,
    deadline_s: Optional[float],
) -> list[Union[DensestSubgraphResult, DensityAnswer]]:
    """Budget-expired fallback: answer everything via the api's machinery.

    One :func:`repro.api.densest_subgraph` call under a fresh deadline
    (its own incumbent / peel-fallback handling produces a degraded but
    bounded answer) serves the whole batch -- an α-request gets the
    fallback subgraph iff its density clears ``α``.
    """
    from .. import api  # late: api's snapshot= gate imports this package

    if deadline_s is not None:
        with guard.Budget(deadline_s=deadline_s):
            base = api.densest_subgraph(graph, h)
    else:  # pragma: no cover - deadline_s is the only BudgetExceeded source
        base = api.densest_subgraph(graph, h)
    degraded = {
        "degraded": True,
        "degraded_at": "serve.precompute",
        "fallback": base.stats.get("fallback", "api"),
    }
    out: list[Union[DensestSubgraphResult, DensityAnswer]] = []
    for req in requests:
        if req is None:
            res = DensestSubgraphResult(
                vertices=set(base.vertices),
                density=base.density,
                method=base.method,
                iterations=base.iterations,
                stats=dict(base.stats),
            )
            res.stats.update(degraded)
            out.append(res)
        else:
            alpha = float(req)
            feasible = base.density > alpha
            out.append(
                DensityAnswer(
                    alpha=alpha,
                    vertices=set(base.vertices) if feasible else set(),
                    density=base.density if feasible else 0.0,
                    count=0,
                    stats={**degraded, "count_unavailable": True},
                )
            )
    return out
