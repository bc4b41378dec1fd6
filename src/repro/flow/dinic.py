"""Dinic's max-flow algorithm (BFS level graph + iterative blocking flow).

The one max-flow solver of the reproduction: every exact algorithm's
min cut comes from here.  O(V^2 E) in general, much faster on the
shallow, unit-ish networks that the DSD constructions produce (the
paper's reference uses Gusfield's variant; any exact solver yields
identical min cuts, and the test suite checks Dinic against networkx's
max flow as an independent oracle).  The blocking-flow DFS is iterative
so deep level graphs (the Goldberg EDS network chains vertex nodes)
cannot hit the interpreter recursion limit.

The solver runs on the flat arc arrays exposed by
``network.flow_arrays()`` (both :class:`~repro.flow.network.FlowNetwork`
and :class:`~repro.flow.parametric.ParametricNetwork` provide it) and
dispatches through the :mod:`repro.accel` kernel registry: the numba
tier compiles the whole BFS + DFS to native code, the numpy tier
vectorises the BFS level construction above
:data:`~repro.accel.vector.NUMPY_BFS_MIN_ARCS` arcs, and the python
tier runs the portable scalar loops.  All tiers are bit-identical.
"""

from __future__ import annotations

from .. import accel

__all__ = ["max_flow"]


def max_flow(network) -> float:
    """Run Dinic on ``network`` in place; return the flow value pushed.

    Residual capacities are left in the network so the caller can read
    the min cut with ``min_cut_source_side`` / ``cut_vertices``.  When
    the network already carries flow (a warm-started
    :class:`~repro.flow.parametric.ParametricNetwork`), the return value
    is the *additional* flow pushed, and the residual state on exit is a
    max flow all the same.
    """
    source, sink, head, cap, adj_start, adj_arcs = network.flow_arrays()
    if source == sink:
        raise ValueError("source and sink must differ")
    # parametric networks hint their warm-start mode; one-shot networks
    # have no such attribute and always solve cold
    return accel.dinic_max_flow(
        source, sink, head, cap, adj_start, adj_arcs,
        warm=getattr(network, "_warm_hint", False),
    )
