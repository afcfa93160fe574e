"""Property-based tests: CH structural invariants on arbitrary networks.

Oracle parity (CH vs. Dijkstra on random directed/disconnected
networks, point and many-to-many) lives in the engine-conformance
harness (``tests/search/test_engine_conformance.py``); this file keeps
the CH-specific properties: walkability of unpacked paths and the
persistence round trip.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NoPathError
from repro.network.graph import RoadNetwork
from repro.search.ch import (
    contract_network,
    loads_contracted,
    dumps_contracted,
)
from repro.search.kernels import CSRHierarchy, csr_ch_path


@st.composite
def arbitrary_networks(draw, min_nodes=2, max_nodes=24):
    """A random weighted network — possibly directed, possibly disconnected.

    Unlike the ``connected_networks`` strategy used by the classic search
    properties, nothing guarantees reachability here, so unreachable pairs
    are generated with high probability on sparse draws.
    """
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    directed = draw(st.booleans())
    density = draw(st.floats(min_value=0.3, max_value=3.0))
    rng = random.Random(seed)
    net = RoadNetwork(directed=directed)
    for node in range(n):
        net.add_node(node, rng.uniform(0, 10), rng.uniform(0, 10))
    num_edges = int(density * n)
    for _ in range(num_edges):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not net.has_edge(u, v):
            net.add_edge(u, v, rng.uniform(0.1, 5.0))
    return net


@given(arbitrary_networks(), st.data())
@settings(max_examples=40, deadline=None)
def test_ch_paths_are_walkable(net, data):
    hierarchy = CSRHierarchy(contract_network(net))
    nodes = list(net.nodes())
    s = data.draw(st.sampled_from(nodes))
    t = data.draw(st.sampled_from(nodes))
    try:
        path = csr_ch_path(hierarchy, s, t)
    except NoPathError:
        return
    assert path.nodes[0] == s and path.nodes[-1] == t
    total = 0.0
    for u, v in path.edges():
        assert net.has_edge(u, v)
        total += net.edge_weight(u, v)
    assert abs(total - path.distance) < 1e-9


@given(arbitrary_networks(), st.data())
@settings(max_examples=20, deadline=None)
def test_persist_round_trip_preserves_distances(net, data):
    graph = contract_network(net)
    original = CSRHierarchy(graph)
    loaded = CSRHierarchy(loads_contracted(dumps_contracted(graph)))
    nodes = list(net.nodes())
    s = data.draw(st.sampled_from(nodes))
    t = data.draw(st.sampled_from(nodes))
    try:
        distance = csr_ch_path(original, s, t).distance
    except NoPathError:
        try:
            csr_ch_path(loaded, s, t)
        except NoPathError:
            return
        raise AssertionError("round-trip changed reachability")
    assert csr_ch_path(loaded, s, t).distance == distance
