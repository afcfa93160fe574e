"""Serving-layer bench: repeated-network sessions, warm vs. cold.

The acceptance anchor for the serving stack: a workload of repeated
sessions over the *same* road network must get >= 5x faster when the
:class:`~repro.service.serving.ServingStack`'s caches are shared across
sessions (one preprocessing build + result-cache hits) than when every
session starts cold (preprocessing and search paid per session) —
``O(preprocess * sessions)`` collapsing to ``O(preprocess)``.

Also verifies the determinism contract: concurrent dispatch returns
paths byte-identical to serial evaluation.

Run by explicit path (benchmarks are excluded from tier-1 collection):

    PYTHONPATH=src python -m pytest benchmarks/bench_serving.py -s --benchmark-disable
"""

from __future__ import annotations

import time

from repro.core.obfuscator import PathQueryObfuscator
from repro.core.query import ProtectionSetting
from repro.core.system import OpaqueSystem
from repro.network.generators import grid_network
from repro.service.cache import PreprocessingCache, ResultCache
from repro.service.serving import ServingConfig, ServingStack
from repro.workloads.queries import hotspot_queries, requests_from_queries

_ENGINE = "ch-csr"
_SESSIONS = 5
_NET = grid_network(25, 25, perturbation=0.1, seed=21)
_REQUESTS = requests_from_queries(
    hotspot_queries(_NET, 12, num_hotspots=2, seed=21),
    ProtectionSetting(3, 3),
)


def _run_sessions(shared_stack: ServingStack | None) -> tuple[float, list]:
    """Run `_SESSIONS` identical sessions; return (seconds, per-session paths).

    ``shared_stack=None`` is the cold baseline: each session builds a
    fresh stack (empty caches), paying preprocessing and search itself.
    """
    outputs = []
    t0 = time.perf_counter()
    for _ in range(_SESSIONS):
        stack = (
            shared_stack
            if shared_stack is not None
            else ServingStack.from_config(_NET, ServingConfig(engine=_ENGINE))
        )
        system = OpaqueSystem(_NET, mode="independent", serving=stack, seed=3)
        results = system.submit(_REQUESTS)
        outputs.append({u: p.nodes for u, p in results.items()})
        if shared_stack is None:
            stack.close()
    return time.perf_counter() - t0, outputs


def test_serving_cache_speedup_repeated_sessions():
    """Warm shared caches must beat cold per-session setup by >= 5x."""
    t_cold, cold_outputs = _run_sessions(None)

    shared = ServingStack.from_config(
        _NET,
        ServingConfig(engine=_ENGINE),
        preprocessing_cache=PreprocessingCache(),
        result_cache=ResultCache(capacity=1024),
    )
    shared.warm()  # deploy-time build, the one preprocessing payment
    t_warm, warm_outputs = _run_sessions(shared)
    snapshot = shared.snapshot()
    shared.close()

    speedup = t_cold / t_warm
    print(
        f"\n[serving] sessions={_SESSIONS} engine={_ENGINE} "
        f"nodes={_NET.num_nodes}\n"
        f"  cold={t_cold:.2f}s warm={t_warm:.3f}s speedup={speedup:.1f}x\n"
        f"  result cache: {snapshot.result_hits} hits / "
        f"{snapshot.result_misses} misses, "
        f"preprocessing: {snapshot.preprocessing_hits} hits / "
        f"{snapshot.preprocessing_misses} misses"
    )
    assert warm_outputs == cold_outputs, "caching changed the answers"
    assert snapshot.preprocessing_misses == 1  # O(preprocess), not O(sessions)
    assert snapshot.result_hits > 0
    assert speedup >= 5.0


def test_concurrent_dispatch_matches_serial():
    """Concurrency contract: identical responses, any worker count."""
    obfuscator = PathQueryObfuscator(_NET, seed=9)
    records = obfuscator.obfuscate_batch(_REQUESTS, mode="independent")
    queries = [record.query for record in records]

    def tables(workers: int):
        with ServingStack.from_config(
            _NET,
            ServingConfig(engine=_ENGINE, max_workers=workers),
        ) as stack:
            responses = stack.answer_batch(queries)
        return [
            {pair: (p.nodes, p.distance) for pair, p in r.candidates.paths.items()}
            for r in responses
        ]

    serial = tables(1)
    for workers in (2, 8):
        assert tables(workers) == serial
