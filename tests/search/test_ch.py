"""Unit tests for the Contraction Hierarchies subsystem.

Contraction and persistence live in :mod:`repro.search.ch`; the queries
run on the flat :class:`~repro.search.kernels.CSRHierarchy` kernels (the
``"ch-csr"`` engine).
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import GraphError, NoPathError, UnknownNodeError
from repro.network.generators import grid_network
from repro.network.graph import RoadNetwork
from repro.search import ENGINES, get_engine, list_engines
from repro.search.ch import (
    contract_network,
    dumps_contracted,
    loads_contracted,
    read_contracted,
    unpack_path,
    write_contracted,
)
from repro.search.dijkstra import dijkstra_path
from repro.search.kernels import (
    CSRCHManyToManyProcessor,
    CSRHierarchy,
    csr_ch_many_to_many,
    csr_ch_path,
)
from repro.search.result import SearchStats


@pytest.fixture(scope="module")
def grid():
    return grid_network(12, 12, perturbation=0.1, seed=11)


@pytest.fixture(scope="module")
def contracted(grid):
    return contract_network(grid)


@pytest.fixture(scope="module")
def hierarchy(contracted):
    return CSRHierarchy(contracted)


class TestContraction:
    def test_every_node_ranked_exactly_once(self, grid, contracted):
        ranks = [contracted.rank_of(n) for n in grid.nodes()]
        assert sorted(ranks) == list(range(grid.num_nodes))

    def test_upward_edges_point_upward(self, contracted):
        for node in contracted.nodes():
            for higher in contracted.upward(node):
                assert contracted.rank_of(higher) > contracted.rank_of(node)
            for higher in contracted.downward_in(node):
                assert contracted.rank_of(higher) > contracted.rank_of(node)

    def test_stats_describe_the_run(self, grid, contracted):
        stats = contracted.stats
        assert stats.original_nodes == grid.num_nodes
        assert stats.original_edges == 2 * grid.num_edges  # undirected
        assert stats.witness_searches > 0
        assert stats.overlay_edges >= stats.original_edges

    def test_rejects_bad_witness_limit(self, grid):
        with pytest.raises(ValueError):
            contract_network(grid, witness_settled_limit=0)

    def test_shortcut_middles_are_recorded(self, contracted):
        assert contracted.num_shortcuts > 0
        for (u, v, _w) in contracted.edges():
            mid = contracted.middle(u, v)
            if mid is not None:
                # The middle was contracted before both endpoints.
                assert contracted.rank_of(mid) < contracted.rank_of(u)
                assert contracted.rank_of(mid) < contracted.rank_of(v)


class TestPointQueries:
    # Oracle parity vs. Dijkstra (including on directed and
    # disconnected networks) is covered for every engine by
    # tests/search/test_engine_conformance.py.

    def test_paths_are_walkable_original_edges(self, grid, hierarchy):
        rng = random.Random(4)
        nodes = list(grid.nodes())
        for _ in range(40):
            s, t = rng.sample(nodes, 2)
            path = csr_ch_path(hierarchy, s, t)
            total = sum(grid.edge_weight(u, v) for u, v in path.edges())
            assert total == pytest.approx(path.distance, abs=1e-9)

    def test_trivial_query(self, hierarchy):
        node = hierarchy.node_ids[0]
        path = csr_ch_path(hierarchy, node, node)
        assert path.nodes == (node,)
        assert path.distance == 0.0

    def test_unknown_nodes_raise(self, hierarchy):
        node = hierarchy.node_ids[0]
        with pytest.raises(UnknownNodeError):
            csr_ch_path(hierarchy, "nope", node)
        with pytest.raises(UnknownNodeError):
            csr_ch_path(hierarchy, node, "nope")

    def test_unreachable_raises_no_path(self):
        net = RoadNetwork()
        for i in range(4):
            net.add_node(i, float(i), 0.0)
        net.add_edge(0, 1, 1.0)
        net.add_edge(2, 3, 1.0)
        hierarchy = CSRHierarchy(contract_network(net))
        with pytest.raises(NoPathError):
            csr_ch_path(hierarchy, 0, 3)

    def test_settles_fewer_nodes_than_dijkstra(self, medium_grid):
        hierarchy = CSRHierarchy(contract_network(medium_grid))
        nodes = list(medium_grid.nodes())
        ch_stats, dij_stats = SearchStats(), SearchStats()
        dijkstra_path(medium_grid, nodes[0], nodes[-1], stats=dij_stats)
        csr_ch_path(hierarchy, nodes[0], nodes[-1], stats=ch_stats)
        assert ch_stats.settled_nodes < dij_stats.settled_nodes / 2


class TestUnpacking:
    def test_line_graph_shortcut_unpacks_to_original_nodes(self):
        # A path graph contracts its interior first, leaving one nested
        # shortcut chain between the endpoints.
        net = RoadNetwork()
        n = 8
        for i in range(n):
            net.add_node(i, float(i), 0.0)
        for i in range(n - 1):
            net.add_edge(i, i + 1, 1.0 + 0.1 * i)
        graph = contract_network(net)
        assert graph.num_shortcuts > 0
        path = csr_ch_path(CSRHierarchy(graph), 0, n - 1)
        assert path.nodes == tuple(range(n))
        assert path.distance == pytest.approx(
            sum(1.0 + 0.1 * i for i in range(n - 1))
        )

    def test_unpack_path_expands_overlay_edges(self):
        net = RoadNetwork()
        for i in range(5):
            net.add_node(i, float(i), 0.0)
        for i in range(4):
            net.add_edge(i, i + 1, 1.0)
        graph = contract_network(net)
        # Find an overlay edge that is a shortcut and expand it.
        shortcut = next(
            (u, v) for u, v, _w in graph.edges() if graph.middle(u, v) is not None
        )
        expanded = unpack_path(graph, list(shortcut))
        assert expanded[0] == shortcut[0]
        assert expanded[-1] == shortcut[1]
        assert len(expanded) > 2
        for u, v in zip(expanded, expanded[1:]):
            assert net.has_edge(u, v)

    def test_unpack_empty_path(self, contracted):
        assert unpack_path(contracted, []) == []


class TestManyToMany:
    # MSMD oracle parity is covered for every engine by
    # tests/search/test_engine_conformance.py.

    def test_searches_counts_sweeps(self, grid, hierarchy):
        nodes = list(grid.nodes())
        proc = CSRCHManyToManyProcessor(hierarchy=hierarchy)
        got = proc.process(grid, nodes[:3], nodes[10:14])
        assert got.searches == 3 + 4

    def test_overlapping_sources_and_destinations(self, grid, hierarchy):
        nodes = list(grid.nodes())
        shared = nodes[5]
        paths = csr_ch_many_to_many(hierarchy, [shared, nodes[9]], [shared])
        assert paths[(shared, shared)].distance == 0.0
        assert paths[(shared, shared)].nodes == (shared,)

    def test_unreachable_pair_raises(self):
        net = RoadNetwork()
        for i in range(4):
            net.add_node(i, float(i), 0.0)
        net.add_edge(0, 1, 1.0)
        net.add_edge(2, 3, 1.0)
        proc = CSRCHManyToManyProcessor()
        with pytest.raises(NoPathError):
            proc.process(net, [0], [1, 3])

    def test_processor_caches_contraction_per_network(self, grid):
        proc = CSRCHManyToManyProcessor()
        first = proc.hierarchy_for(grid)
        again = proc.hierarchy_for(grid)
        assert first is again

    def test_registered_in_processor_registry(self):
        proc = ENGINES["ch-csr"].make_processor()
        assert isinstance(proc, CSRCHManyToManyProcessor)
        assert proc.name == "ch-csr"

    def test_unknown_processor_message_lists_ch(self):
        with pytest.raises(KeyError, match="ch-csr"):
            get_engine("bogus")


class TestPersist:
    def test_round_trip_file(self, grid, contracted, hierarchy, tmp_path):
        target = tmp_path / "grid.ch"
        write_contracted(contracted, target)
        loaded = read_contracted(target)
        assert loaded.num_nodes == contracted.num_nodes
        assert loaded.num_shortcuts == contracted.num_shortcuts
        assert loaded.directed == contracted.directed
        reloaded = CSRHierarchy(loaded)
        rng = random.Random(8)
        nodes = list(grid.nodes())
        for _ in range(40):
            s, t = rng.sample(nodes, 2)
            assert csr_ch_path(reloaded, s, t).distance == pytest.approx(
                csr_ch_path(hierarchy, s, t).distance, abs=1e-12
            )

    def test_round_trip_string(self, contracted):
        loaded = loads_contracted(dumps_contracted(contracted))
        assert {n: loaded.rank_of(n) for n in loaded.nodes()} == {
            n: contracted.rank_of(n) for n in contracted.nodes()
        }

    def test_loaded_graph_answers_queries_without_network(self, grid, contracted):
        # The persisted artifact alone answers queries — preprocessing is
        # genuinely paid once per network.
        loaded = loads_contracted(dumps_contracted(contracted))
        nodes = list(grid.nodes())
        ref = dijkstra_path(grid, nodes[0], nodes[-1]).distance
        path = csr_ch_path(CSRHierarchy(loaded), nodes[0], nodes[-1])
        assert path.distance == pytest.approx(ref, abs=1e-9)

    def test_malformed_input_raises(self):
        with pytest.raises(GraphError):
            loads_contracted("rank 0 0\n")  # before 'directed' header
        with pytest.raises(GraphError):
            loads_contracted(
                "directed 0\ncounts 2 0\nrank 0 0\nrank 1 0\n"
            )  # duplicate rank value
        with pytest.raises(GraphError):
            loads_contracted("directed 0\nfrobnicate 1 2\n")

    def test_truncated_file_raises(self, contracted):
        text = dumps_contracted(contracted)
        truncated = "\n".join(text.splitlines()[: len(text.splitlines()) // 2])
        with pytest.raises(GraphError, match="truncated"):
            loads_contracted(truncated)


class TestEngineRegistry:
    def test_all_engines_registered(self):
        assert set(list_engines()) >= {
            "dijkstra",
            "astar",
            "bidirectional-csr",
            "alt",
            "ch-csr",
        }

    @pytest.mark.parametrize(
        "removed, replacement",
        [
            ("bidirectional", "bidirectional-csr"),
            ("ch", "ch-csr"),
            ("overlay", "overlay-csr"),
        ],
    )
    def test_removed_engine_names_its_replacement(self, removed, replacement):
        assert removed not in ENGINES
        with pytest.raises(KeyError, match=f"'{replacement}'"):
            get_engine(removed)

    def test_unknown_engine_raises(self):
        with pytest.raises(KeyError, match="valid"):
            get_engine("teleport")

    def test_every_engine_routes_the_same_distance(self, small_grid):
        nodes = list(small_grid.nodes())
        s, t = nodes[3], nodes[-4]
        ref = dijkstra_path(small_grid, s, t).distance
        for name, engine in ENGINES.items():
            context = engine.prepare(small_grid)
            path = engine.route(small_grid, s, t, context=context)
            assert path.distance == pytest.approx(ref, abs=1e-9), name

    def test_ch_engine_routes_without_context(self, small_grid):
        engine = get_engine("ch-csr")
        nodes = list(small_grid.nodes())
        ref = dijkstra_path(small_grid, nodes[0], nodes[-1]).distance
        path = engine.route(small_grid, nodes[0], nodes[-1])
        assert path.distance == pytest.approx(ref, abs=1e-9)
