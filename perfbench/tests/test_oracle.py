"""The oracle catches wrong answers, including an injected corruption."""

import pytest

from benchlib.oracle import Answer, Oracle
from repro.core.query import ObfuscatedPathQuery
from repro.network.generators import grid_network
from repro.service.serving import ServingConfig, ServingStack
from repro.service.wire import RouteResponse


@pytest.fixture(scope="module")
def served():
    network = grid_network(8, 8, perturbation=0.3, seed=3)
    nodes = sorted(network.nodes())
    query = ObfuscatedPathQuery(tuple(nodes[:3]), tuple(nodes[-3:]))
    with ServingStack.from_config(
        network, ServingConfig(engine="overlay-csr")
    ) as stack:
        wire = RouteResponse.from_server(stack.answer(query))
    return network, query, wire.paths


def _answer(query, paths, lo=0, hi=0):
    return Answer(query.sources, query.destinations, tuple(paths), lo, hi)


def test_true_answer_passes(served):
    network, query, paths = served
    assert Oracle(network).check([_answer(query, paths)]) == [None]


def _corrupt_cost(paths):
    s, t, nodes, cost = paths[0]
    return [(s, t, nodes, cost * 1.01)] + list(paths[1:])


def _corrupt_walk(paths):
    s, t, nodes, cost = paths[1]
    return [paths[0], (s, t, nodes[:1] + nodes[2:], cost)] + list(paths[2:])


def _swap_table(paths):
    # another query's table: first pair answered twice, last one missing
    return [paths[0]] + list(paths[:-1])


@pytest.mark.parametrize("corrupt, reason", [
    (_corrupt_cost, "cost"),
    (_corrupt_walk, "edge"),
    (_swap_table, "S x T"),
])
def test_injected_corruption_is_caught(served, corrupt, reason):
    network, query, paths = served
    verdict = Oracle(network).check([_answer(query, corrupt(paths))])[0]
    assert verdict is not None and reason in verdict


def test_longer_path_with_consistent_cost_is_caught(served):
    network, query, paths = served
    oracle = Oracle(network)
    s, t, nodes, _ = paths[0]
    # detour through a neighbour of the source and back: a valid walk,
    # priced correctly, but not a shortest path
    hop = next(iter(network.neighbors(s)))
    detour = (s, hop) + tuple(nodes)
    cost = sum(oracle.weight(0, u, v) for u, v in zip(detour, detour[1:]))
    bad = [(s, t, detour, cost)] + list(paths[1:])
    verdict = oracle.check([_answer(query, bad)])[0]
    assert verdict == "cost is not the shortest distance"


def test_epoch_window(served):
    network, query, paths = served
    oracle = Oracle(network)
    # re-weight an edge of the first path so the old answer is stale
    s, t, nodes, _ = paths[0]
    u, v = nodes[0], nodes[1]
    oracle.add_epoch([(u, v, oracle.weight(0, u, v) * 50)])
    assert oracle.check([_answer(query, paths, 0, 1)]) == [None]
    assert oracle.check([_answer(query, paths, 1, 1)])[0] is not None
