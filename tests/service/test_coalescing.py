"""Unit tests for the cross-session query coalescer."""

from __future__ import annotations

import threading

import pytest

from repro.core.obfuscator import PathQueryObfuscator
from repro.core.query import (
    ClientRequest,
    ObfuscatedPathQuery,
    PathQuery,
    ProtectionSetting,
)
from repro.core.system import OpaqueSystem
from repro.exceptions import NoPathError
from repro.network.graph import RoadNetwork
from repro.service.serving import CoalesceConfig, ServingConfig, ServingStack


def _queries(network, n=6, seed=5, offset=40):
    requests = [
        ClientRequest(f"u{i}", PathQuery(i, offset + i), ProtectionSetting(3, 3))
        for i in range(n)
    ]
    obfuscator = PathQueryObfuscator(network, seed=seed)
    records = obfuscator.obfuscate_batch(requests, mode="independent")
    return [r.query for r in records]


def _tables(responses):
    return [
        {
            pair: (path.nodes, path.distance)
            for pair, path in r.candidates.paths.items()
        }
        for r in responses
    ]


class TestWindowSemantics:
    def test_count_threshold_flushes_inline(self, small_grid):
        queries = _queries(small_grid)
        config = CoalesceConfig(max_batch=len(queries), max_wait_s=60.0)
        with ServingStack.from_config(
            small_grid,
            ServingConfig(coalesce=config),
        ) as stack:
            responses = stack.answer_batch(queries)
            snap = stack.coalesce_snapshot()
        assert snap.windows == 1
        assert snap.max_window == len(queries)
        assert snap.shared_windows == 1
        assert all(r.coalesced for r in responses)

    def test_time_threshold_flushes_via_injected_clock(
        self, small_grid, stepping_clock
    ):
        query = _queries(small_grid, n=1)[0]
        config = CoalesceConfig(
            max_batch=64, max_wait_s=1.0, clock=stepping_clock(2.0)
        )
        with ServingStack.from_config(
            small_grid,
            ServingConfig(coalesce=config),
        ) as stack:
            response = stack.answer(query)
            snap = stack.coalesce_snapshot()
        assert snap.windows == 1 and snap.queries == 1
        # A window of one shares nothing: no coalesced marking.
        assert not response.coalesced
        assert snap.shared_windows == 0 and snap.coalesced_queries == 0

    def test_flush_on_empty_window_is_noop(self, small_grid):
        with ServingStack.from_config(
            small_grid,
            ServingConfig(coalesce=CoalesceConfig(max_batch=4)),
        ) as stack:
            assert stack.coalescer.flush() == 0
            assert stack.coalesce_snapshot().windows == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CoalesceConfig(max_batch=0)
        with pytest.raises(ValueError):
            CoalesceConfig(max_wait_s=-1.0)

    def test_snapshot_none_without_coalescer(self, small_grid):
        with ServingStack.from_config(small_grid) as stack:
            assert stack.coalesce_snapshot() is None
            assert stack.coalescer is None


class TestExactness:
    def test_coalesced_responses_byte_identical_to_serial(self, small_grid):
        queries = _queries(small_grid, n=8)
        with ServingStack.from_config(
            small_grid,
            ServingConfig(engine="dijkstra"),
        ) as serial:
            expected = _tables(serial.answer_batch(queries))
        config = CoalesceConfig(max_batch=len(queries), max_wait_s=60.0)
        with ServingStack.from_config(
            small_grid,
            ServingConfig(engine="dijkstra", coalesce=config),
        ) as stack:
            got = _tables(stack.answer_batch(queries))
        assert got == expected

    def test_cross_thread_sessions_share_one_union_pass(self, small_grid):
        queries = _queries(small_grid, n=8)
        with ServingStack.from_config(
            small_grid,
            ServingConfig(engine="ch-csr"),
        ) as serial:
            expected = _tables(serial.answer_batch(queries))
            settled_serial = serial.server.counters.stats.settled_nodes
        config = CoalesceConfig(max_batch=len(queries), max_wait_s=10.0)
        with ServingStack.from_config(
            small_grid,
            ServingConfig(engine="ch-csr", coalesce=config),
        ) as stack:
            outputs: list = [None] * 4
            def session(i):
                outputs[i] = stack.answer_batch(queries[i * 2 : (i + 1) * 2])
            threads = [
                threading.Thread(target=session, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            snap = stack.coalesce_snapshot()
            settled = stack.server.counters.stats.settled_nodes
            coalesced_counter = stack.server.counters.coalesced_queries
        assert _tables([r for out in outputs for r in out]) == expected
        assert snap.windows == 1 and snap.queries == 8
        assert coalesced_counter == 8
        # The union bucket pass shares backward/forward sweeps.
        assert settled <= settled_serial

    def test_failing_query_does_not_poison_window_mates(self, stepping_clock):
        net = RoadNetwork()
        for i in range(4):
            net.add_node(i, float(i), 0.0)
        net.add_edge(0, 1, 1.0)
        net.add_edge(2, 3, 1.0)
        good = ObfuscatedPathQuery((0,), (1,))
        bad = ObfuscatedPathQuery((0,), (3,))
        config = CoalesceConfig(
            max_batch=2, max_wait_s=1.0, clock=stepping_clock(2.0)
        )
        with ServingStack.from_config(net, ServingConfig(coalesce=config)) as stack:
            with pytest.raises(NoPathError):
                stack.answer_batch([good, bad])
            # The good window-mate was evaluated and cached anyway; its
            # lone follow-up window expires via the injected clock.
            response = stack.answer(good)
        assert response.from_cache

    def test_work_attributed_once_across_slices(self, small_grid):
        queries = _queries(small_grid, n=4)
        config = CoalesceConfig(max_batch=4, max_wait_s=60.0)
        with ServingStack.from_config(
            small_grid,
            ServingConfig(coalesce=config),
        ) as stack:
            responses = stack.answer_batch(queries)
            settled = stack.server.counters.stats.settled_nodes
        per_response = [r.candidates.stats.settled_nodes for r in responses]
        assert sum(per_response) == settled
        # First slice carries the pass, the rest carry zero.
        assert per_response[0] == settled
        assert all(count == 0 for count in per_response[1:])


class TestCacheInterplay:
    def test_coalesced_results_populate_result_cache(self, small_grid):
        queries = _queries(small_grid, n=4)
        config = CoalesceConfig(max_batch=4, max_wait_s=60.0)
        with ServingStack.from_config(
            small_grid,
            ServingConfig(coalesce=config),
        ) as stack:
            cold = stack.answer_batch(queries)
            warm = stack.answer_batch(queries)
            snap = stack.snapshot()
        assert all(not r.from_cache for r in cold)
        assert all(r.from_cache for r in warm)
        # Warm responses come straight from the cache: no new union pass.
        assert all(not r.coalesced for r in warm)
        assert snap.result_hits == len(queries)
        assert snap.result_misses == len(queries)

    def test_in_window_duplicates_share_one_slice(self, small_grid):
        query = _queries(small_grid, n=1)[0]
        config = CoalesceConfig(max_batch=3, max_wait_s=60.0)
        with ServingStack.from_config(
            small_grid,
            ServingConfig(coalesce=config),
        ) as stack:
            responses = stack.answer_batch([query, query, query])
        assert [r.from_cache for r in responses] == [False, True, True]
        assert responses[0].candidates is responses[2].candidates
        assert (stack.results.hits, stack.results.misses) == (2, 1)

    def test_preprocessing_artifact_shared_with_union_pass(self, small_grid):
        queries = _queries(small_grid, n=4)
        config = CoalesceConfig(max_batch=4, max_wait_s=60.0)
        with ServingStack.from_config(
            small_grid,
            ServingConfig(engine="ch-csr", coalesce=config),
        ) as stack:
            stack.answer_batch(queries)
            stack.answer_batch(_queries(small_grid, n=4, seed=9))
        assert stack.preprocessing.misses == 1  # one contraction total


class TestSystemIntegration:
    def test_session_report_counts_coalesced_queries(
        self, small_grid, stepping_clock
    ):
        requests = [
            ClientRequest(f"u{i}", PathQuery(i, 40 + i), ProtectionSetting(3, 3))
            for i in range(6)
        ]
        config = CoalesceConfig(
            max_batch=64, max_wait_s=1.0, clock=stepping_clock(2.0)
        )
        with ServingStack.from_config(
            small_grid,
            ServingConfig(coalesce=config),
        ) as stack:
            system = OpaqueSystem(
                small_grid, mode="independent", serving=stack, seed=1
            )
            baseline = OpaqueSystem(
                small_grid, mode="independent", seed=1
            )
            results = system.submit(requests)
            expected = baseline.submit(requests)
            report = system.last_report
        assert {u: p.nodes for u, p in results.items()} == {
            u: p.nodes for u, p in expected.items()
        }
        assert report.coalesced_queries == len(report.records)
        assert report.cached_queries == 0

    def test_service_report_counts_coalesced_queries(
        self, small_grid, stepping_clock
    ):
        from repro.service.simulator import (
            BatchingObfuscationService,
            poisson_arrivals,
        )

        requests = [
            ClientRequest(f"u{i}", PathQuery(i, 40 + i), ProtectionSetting(2, 2))
            for i in range(6)
        ]
        arrivals = poisson_arrivals(requests, rate=50.0, seed=0)
        config = CoalesceConfig(max_batch=32, max_wait_s=0.5,
                                clock=stepping_clock(1.0))
        with ServingStack.from_config(
            small_grid,
            ServingConfig(coalesce=config),
        ) as stack:
            system = OpaqueSystem(small_grid, mode="shared", serving=stack, seed=3)
            _res, report = BatchingObfuscationService(system, window=10.0).run(
                arrivals
            )
        # One 10s window holds all arrivals; its queries coalesce all
        # together (>= 2 distinct queries shared a pass) or not at all.
        assert report.coalesced_queries in (0, report.obfuscated_queries)
        if report.obfuscated_queries < 2:
            assert report.coalesced_queries == 0
