"""Shortcut unpacking for paths over a contracted graph.

The CH query kernels (:func:`repro.search.kernels.csr_ch_path` and
:func:`repro.search.kernels.csr_ch_many_to_many`) search the overlay of
original edges plus shortcuts; :func:`unpack_path` expands such an
overlay path back into original network nodes via each shortcut's
recorded middle node, so callers receive the same
:class:`~repro.search.result.PathResult` node sequences the
Dijkstra-family engines produce.
"""

from __future__ import annotations

from repro.network.graph import NodeId
from repro.search.ch.contract import ContractedGraph

__all__ = ["unpack_path"]


def unpack_path(graph: ContractedGraph, overlay_nodes: list[NodeId]) -> list[NodeId]:
    """Expand a path over overlay edges into original network nodes.

    Each overlay edge ``(u, v)`` is either an original edge (kept as-is)
    or a shortcut with a recorded middle node ``m``, replaced recursively
    by ``(u, m)`` and ``(m, v)``.  Implemented with an explicit stack so
    deeply nested shortcuts cannot hit the interpreter recursion limit.
    """
    if not overlay_nodes:
        return []
    result: list[NodeId] = [overlay_nodes[0]]
    stack: list[tuple[NodeId, NodeId]] = []
    for u, v in zip(reversed(overlay_nodes[:-1]), reversed(overlay_nodes[1:])):
        stack.append((u, v))
    while stack:
        u, v = stack.pop()
        mid = graph.middle(u, v)
        if mid is None:
            result.append(v)
        else:
            stack.append((mid, v))
            stack.append((u, mid))
    return result
