"""numpy-assisted kernel implementations -- the middle dispatch tier.

Only the kernels with a genuinely vectorisable phase live here; today
that is Dinic's BFS level construction (one arc-parallel relaxation
pass per level, which beats the scalar queue on the shallow, wide DSD
networks).  The sequential loops -- blocking-flow DFS, drains, peels --
have no useful numpy formulation, so the registry maps them to the pure
tier when numba is unavailable.

The level arrays the vectorised BFS produces can label more nodes at
the sink's depth than the early-stopping scalar BFS, but the
blocking-flow DFS pushes no flow through those extra dead ends, so the
augmenting-path sequence and every residual float stay bit-identical
(asserted by the dispatch property suite).
"""

from __future__ import annotations

from .. import env
from ..flow.network import EPS
from . import pure

if env.flag("REPRO_NO_NUMPY"):  # explicit opt-out for CI / ablations
    np = None
else:
    try:  # optional: the scalar BFS is used when numpy is absent
        import numpy as np
    except ImportError:  # pragma: no cover - environment-specific
        np = None

#: Arc-array length above which the vectorised BFS pays for its
#: per-call numpy overhead on a *cold* solve (tuned on the bench
#: surrogates).  Read at every call, so tests and the dispatch-probe
#: bench can override it at runtime.
NUMPY_BFS_MIN_ARCS = 8192

#: The same threshold for *warm* re-solves.  A warm-started GGT solve
#: runs 1-3 short BFS passes whose scalar early exit the arc-parallel
#: relaxation cannot match, so the numpy per-call overhead never
#: amortises at any probed size (``benchmarks/out/bfs_dispatch_note.txt``)
#: -- the old single threshold picked the slower numpy BFS for warm
#: walks on As-Caida-sized networks.  Effectively infinite: warm solves
#: always take the scalar BFS until an autotuner (ROADMAP) learns a
#: real crossover from the flow.solve telemetry.
NUMPY_BFS_MIN_ARCS_WARM = 1 << 62

#: Warmth hint for the next :func:`dinic_max_flow` call, set by the
#: accel dispatcher from the parametric engine's warm-start mode.
SOLVE_IS_WARM = False

#: BFS implementation the most recent :func:`dinic_max_flow` call chose
#: (``"numpy"`` or ``"scalar"``) -- the telemetry side channel the accel
#: dispatcher copies into the per-solve flow records.
LAST_BFS_MODE = "scalar"


def _levels_numpy(head_np, tail_np, cap, n, source, sink):
    """Arc-parallel BFS: one vectorised relaxation pass per level."""
    residual = np.asarray(cap) > EPS
    level = np.full(n, -1, dtype=np.int64)
    level[source] = 0
    depth = 0
    while True:
        grow = residual & (level[tail_np] == depth) & (level[head_np] < 0)
        if not grow.any():
            break
        level[head_np[grow]] = depth + 1
        if level[sink] >= 0:
            break
        depth += 1
    return level.tolist()


def dinic_max_flow(source, sink, head, cap, adj_start, adj_arcs):
    """Dinic with the numpy BFS above the warmth-dependent threshold.

    Cold solves switch to the arc-parallel BFS above
    :data:`NUMPY_BFS_MIN_ARCS` arcs; warm re-solves (per
    :data:`SOLVE_IS_WARM`) use :data:`NUMPY_BFS_MIN_ARCS_WARM`.
    Returns ``(total, bfs_passes, augments)`` like the pure tier.
    """
    global LAST_BFS_MODE
    threshold = NUMPY_BFS_MIN_ARCS_WARM if SOLVE_IS_WARM else NUMPY_BFS_MIN_ARCS
    if np is None or len(head) < threshold:
        LAST_BFS_MODE = "scalar"
        return pure.dinic_max_flow(source, sink, head, cap, adj_start, adj_arcs)
    LAST_BFS_MODE = "numpy"
    head_np = np.asarray(head, dtype=np.int64)
    tail_np = head_np.reshape(-1, 2)[:, ::-1].reshape(-1)

    def levels(head_l, cap_l, adj_start_l, adj_arcs_l, n, src, snk):
        return _levels_numpy(head_np, tail_np, cap_l, n, src, snk)

    return pure.dinic_max_flow(
        source, sink, head, cap, adj_start, adj_arcs, levels_fn=levels
    )
