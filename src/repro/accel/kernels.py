"""Numba-compatible hot-loop kernels over flat numpy arrays.

Every function here is written in *nopython style*: flat int64/float64/
uint8 arrays in, scalars and arrays out, no Python objects, no
closures, no comprehensions -- exactly the subset ``numba.njit``
compiles unchanged.  :mod:`repro.accel` applies ``njit(cache=True)`` to
each of them when numba is importable; without numba the very same
functions remain runnable interpreted (slow, but byte-for-byte the
code the JIT would compile), which is how the no-numba CI legs pin the
numba tier's bit-identity.

Each kernel is a literal translation of its reference implementation in
:mod:`repro.accel.pure`: same traversal order, same float-operation
order, same EPS discipline.  Since both execute identical IEEE-double
operation sequences, residual capacities, flow values, cuts, peel
orders and densities agree bit-for-bit across tiers (the dispatch
property suite asserts it).  Keep the two modules in lockstep.

This module imports numpy at module level and must therefore only be
imported when numpy is available (the registry guards this).
"""

from __future__ import annotations

import numpy as np

#: Must equal :data:`repro.flow.network.EPS`.  Kept as a literal because
#: numba freezes module globals into the compiled code as constants.
EPS = 1e-9

#: Names of the jittable kernels, in registry order.
KERNEL_NAMES = (
    "dinic_max_flow",
    "ggt_retreat",
    "bucket_peel",
    "heap_peel",
)


def dinic_max_flow(source, sink, head, cap, adj_start, adj_arcs):
    """Dinic over flat arrays; mirrors ``pure.dinic_max_flow`` exactly.

    Returns ``(total, bfs_passes, augments)`` like the pure tier -- the
    work counters feed the :mod:`repro.obs` telemetry and are identical
    across tiers by construction.
    """
    n = adj_start.shape[0] - 1
    total = 0.0
    bfs_passes = 0
    augments = 0
    level = np.empty(n, np.int64)
    it = np.empty(n, np.int64)
    queue = np.empty(n, np.int64)
    path = np.empty(n + 1, np.int64)

    while True:
        # --- BFS: build the level graph (early stop at the sink) ------
        level[:] = -1
        level[source] = 0
        queue[0] = source
        layer_start = 0
        layer_end = 1
        depth = 0
        while layer_start < layer_end and level[sink] < 0:
            depth += 1
            nxt_end = layer_end
            for qi in range(layer_start, layer_end):
                u = queue[qi]
                for idx in range(adj_start[u], adj_start[u + 1]):
                    arc = adj_arcs[idx]
                    v = head[arc]
                    if level[v] < 0 and cap[arc] > EPS:
                        level[v] = depth
                        queue[nxt_end] = v
                        nxt_end += 1
            layer_start = layer_end
            layer_end = nxt_end
        bfs_passes += 1
        if level[sink] < 0:
            return total, bfs_passes, augments

        # --- iterative DFS: push a blocking flow ----------------------
        it[:] = adj_start[:n]
        plen = 0
        u = source
        while True:
            if u == sink:
                pushed = cap[path[0]]
                for i in range(plen):
                    if cap[path[i]] < pushed:
                        pushed = cap[path[i]]
                for i in range(plen):
                    arc = path[i]
                    cap[arc] -= pushed
                    cap[arc ^ 1] += pushed
                total += pushed
                augments += 1
                # retreat to just before the first saturated arc
                for i in range(plen):
                    arc = path[i]
                    if cap[arc] <= EPS:
                        u = head[arc ^ 1]
                        plen = i
                        break
                continue
            advanced = False
            end = adj_start[u + 1]
            while it[u] < end:
                arc = adj_arcs[it[u]]
                v = head[arc]
                if cap[arc] > EPS and level[v] == level[u] + 1:
                    path[plen] = arc
                    plen += 1
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if advanced:
                continue
            if u == source:
                break  # blocking flow complete for this phase
            level[u] = -1
            plen -= 1
            arc = path[plen]
            u = head[arc ^ 1]
            it[u] += 1


def ggt_retreat(
    head, cap, base_cap, adj_start, adj_arcs, alpha_arcs, alpha_coeff,
    num_nodes, source, alpha,
):
    """Clamp over-full alpha arcs and drain the excess back to the source.

    Returns ``(clamped, drain_paths)`` like the pure tier (telemetry
    work counters, tier-identical).
    """
    na = alpha_arcs.shape[0]
    exc_node = np.empty(na, np.int64)
    exc_amount = np.empty(na, np.float64)
    ne = 0
    for i in range(na):
        a = alpha_arcs[i]
        c = alpha_coeff[i]
        new_cap = base_cap[a] + c * alpha
        flow = cap[a ^ 1] - base_cap[a ^ 1]
        if flow > new_cap:
            cap[a] = 0.0
            cap[a ^ 1] = base_cap[a ^ 1] + new_cap
            exc_node[ne] = head[a ^ 1]
            exc_amount[ne] = flow - new_cap
            ne += 1
        else:
            cap[a] = new_cap - flow

    parent = np.empty(num_nodes, np.int64)
    stack = np.empty(num_nodes, np.int64)
    path = np.empty(num_nodes + 1, np.int64)
    drain_paths = 0
    for e in range(ne):
        node = exc_node[e]
        remaining = exc_amount[e]
        while remaining > EPS:
            parent[:] = -2
            parent[node] = -1
            stack[0] = node
            sp = 1
            found = False
            while sp > 0 and not found:
                sp -= 1
                u = stack[sp]
                for idx in range(adj_start[u], adj_start[u + 1]):
                    arc = adj_arcs[idx]
                    w = head[arc]
                    if parent[w] == -2 and cap[arc] > EPS:
                        parent[w] = arc
                        if w == source:
                            found = True
                            break
                        stack[sp] = w
                        sp += 1
            if not found:  # pragma: no cover - impossible for clamped max flows
                break
            plen = 0
            w = source
            while w != node:
                arc = parent[w]
                path[plen] = arc
                plen += 1
                w = head[arc ^ 1]
            push = remaining
            for i in range(plen):
                if cap[path[i]] < push:
                    push = cap[path[i]]
            for i in range(plen):
                arc = path[i]
                cap[arc] -= push
                cap[arc ^ 1] += push
            remaining -= push
            drain_paths += 1
    return ne, drain_paths


def bucket_peel(inst, inc_start, inc_ids, deg, alive, in_graph, h, n_graph, num_alive):
    """Bucket-queue min-degree peel; mirrors ``pure.bucket_peel`` exactly.

    Returns ``(core, order, best_removed, best_density)`` with ``core``
    and ``order`` as int64 arrays by internal id.
    """
    n = deg.shape[0]
    max_deg = 0
    for i in range(n):
        if deg[i] > max_deg:
            max_deg = deg[i]
    bin_start = np.zeros(max_deg + 2, np.int64)
    for i in range(n):
        bin_start[deg[i] + 1] += 1
    for d in range(max_deg + 1):
        bin_start[d + 1] += bin_start[d]
    fill = bin_start[: max_deg + 1].copy()
    bin_ptr = bin_start[: max_deg + 1]
    position = np.empty(n, np.int64)
    order = np.empty(n, np.int64)
    for i in range(n):
        d = deg[i]
        p = fill[d]
        position[i] = p
        order[p] = i
        fill[d] += 1

    core = np.zeros(n, np.int64)
    removed = np.zeros(n, np.uint8)
    best_density = (num_alive / n_graph) if n_graph else 0.0
    best_removed = 0
    alive_graph = n_graph
    for i in range(n):
        vi = order[i]
        dv = deg[vi]
        removed[vi] = 1
        core[vi] = dv
        if in_graph[vi]:
            alive_graph -= 1
        for pos in range(inc_start[vi], inc_start[vi + 1]):
            iid = inc_ids[pos]
            if alive[iid] == 0:
                continue
            alive[iid] = 0
            num_alive -= 1
            for k in range(iid * h, iid * h + h):
                ui = inst[k]
                if removed[ui] == 0 and deg[ui] > dv:
                    du = deg[ui]
                    first = bin_ptr[du]
                    w = order[first]
                    if w != ui:
                        pu = position[ui]
                        order[first] = ui
                        order[pu] = w
                        position[ui] = first
                        position[w] = pu
                    bin_ptr[du] += 1
                    deg[ui] = du - 1
        if alive_graph:
            density = num_alive / alive_graph
            if density > best_density:
                best_density = density
                best_removed = i + 1
    return core, order, best_removed, best_density


def heap_peel(inst, inc_start, inc_ids, deg, alive, num_alive, n, h):
    """Lazy-deletion heap peel (min ``(degree, id)``); the engine behind
    :func:`repro.core.peel.min_degree_peel` on the numba tier.

    Keys are encoded ``deg * n + vid`` (unique, lexicographic in
    ``(deg, vid)``), so the sequence of *valid* pops is identical to the
    pure tier's ``heapq`` over ``(deg, vid)`` tuples regardless of heap
    internals.  ``deg`` and ``alive`` are mutated in place; returns
    ``(cnt, order, num_alive_after, num_alive)`` where the first ``cnt``
    entries of ``order`` / ``num_alive_after`` are the removal sequence.
    """
    heap = np.empty(n + inst.shape[0] + 1, np.int64)
    size = 0
    for i in range(n):
        key = deg[i] * n + i
        j = size
        heap[size] = key
        size += 1
        while j > 0:
            up = (j - 1) >> 1
            if heap[up] > heap[j]:
                tmp = heap[up]
                heap[up] = heap[j]
                heap[j] = tmp
                j = up
            else:
                break

    n_all = deg.shape[0]
    removed = np.zeros(n_all, np.uint8)
    out_len = n - 1 if n > 1 else 0
    out_order = np.empty(out_len, np.int64)
    num_alive_after = np.empty(out_len, np.int64)
    cnt = 0
    for _ in range(n - 1):
        vid = -1
        while size > 0:
            key = heap[0]
            size -= 1
            heap[0] = heap[size]
            j = 0
            while True:
                left = 2 * j + 1
                if left >= size:
                    break
                m = left
                right = left + 1
                if right < size and heap[right] < heap[left]:
                    m = right
                if heap[m] < heap[j]:
                    tmp = heap[m]
                    heap[m] = heap[j]
                    heap[j] = tmp
                    j = m
                else:
                    break
            d = key // n
            i = key - d * n
            if removed[i] == 0 and deg[i] == d:
                vid = i
                break
        if vid < 0:
            break
        removed[vid] = 1
        for pos in range(inc_start[vid], inc_start[vid + 1]):
            iid = inc_ids[pos]
            if alive[iid] == 0:
                continue
            alive[iid] = 0
            num_alive -= 1
            for k in range(iid * h, iid * h + h):
                ui = inst[k]
                if removed[ui] == 0:
                    deg[ui] -= 1
                    if ui < n:
                        key = deg[ui] * n + ui
                        j = size
                        heap[size] = key
                        size += 1
                        while j > 0:
                            up = (j - 1) >> 1
                            if heap[up] > heap[j]:
                                tmp = heap[up]
                                heap[up] = heap[j]
                                heap[j] = tmp
                                j = up
                            else:
                                break
        out_order[cnt] = vid
        num_alive_after[cnt] = num_alive
        cnt += 1
    return cnt, out_order, num_alive_after, num_alive
