"""Isolated per-layer costs, measured in-process after the server stopped.

The traced run replays the run's own seeded inputs against the public
pieces below the gateway — a :class:`ServingStack` built from the
server's reported :class:`ServingConfig`, a bare engine processor over
the warmed overlay, and the public re-weight pieces — one call at a
time on an otherwise idle host.  These are isolated costs, not the
in-situ costs the request spans measure.
"""

from __future__ import annotations

import time

from repro.network.csr import CSRGraph
from repro.network.io import read_network
from repro.search import get_engine
from repro.service.cache import network_fingerprint
from repro.service.serving import ServingConfig, ServingStack

from benchlib.stats import median

clock = time.perf_counter

#: replayed queries per layer (bounds the traced run's extra time)
MAX_QUERIES = 40

#: replayed re-weight batches
MAX_POSTS = 6


def serving_config(doc: dict) -> ServingConfig:
    """The :class:`ServingConfig` the server reported in ``/v1/metrics``."""
    if doc.get("coalesce") is not None:
        raise ValueError("the isolated replay does not model a coalescer")
    return ServingConfig(
        engine=doc["engine"],
        max_workers=doc["max_workers"],
        preprocessing_capacity=doc["preprocessing_capacity"],
        result_capacity=doc["result_capacity"],
        customize_workers=doc["customize_workers"],
    )


def _timed(fn, *args, **kwargs):
    t0 = clock()
    out = fn(*args, **kwargs)
    return out, clock() - t0


def measure(
    map_path, config_doc: dict, queries: list, repeat: bool, posts: list
) -> dict[str, float]:
    """Isolated layer costs in the metric units of ``specs.PER_LAYER``.

    ``queries`` are the obfuscated queries the run sent, in order;
    ``repeat`` replays them against a warm result cache (as
    commute-repeat's server saw them); ``posts`` are the change lists
    the run posted to ``/v1/reweight``.
    """
    out: dict[str, float] = {}
    network, out["network.load_s"] = _timed(read_network, map_path)
    csr_s = [_timed(CSRGraph.from_network, network)[1] for _ in range(3)]
    out["network.csr_snapshot_ms"] = median(csr_s) * 1e3

    config = serving_config(config_doc)
    engine = get_engine(config.engine)
    artifact, out["search.customize_s"] = _timed(engine.prepare, network)
    stack = ServingStack.from_config(network, config)
    try:
        stack.preprocessing.put(
            network_fingerprint(network), config.engine, artifact
        )
        sample = queries[:MAX_QUERIES * (10 if repeat else 1)]
        if repeat:
            for query in dict.fromkeys(sample):
                stack.answer_batch([query])
        answer_s = [_timed(stack.answer_batch, [q])[1] for q in sample]
        out["serving.answer_ms"] = median(answer_s) * 1e3

        processor = engine.make_processor()
        processor.use_artifact(artifact)
        process_s, settled = [], []
        for query in list(dict.fromkeys(queries))[:MAX_QUERIES]:
            result, took = _timed(
                processor.process, network, query.sources, query.destinations
            )
            process_s.append(took)
            settled.append(result.stats.settled_nodes)
        out["search.process_ms"] = median(process_s) * 1e3
        out["search.settled_nodes"] = float(median(settled))

        copy_s, fp_s, recust_s, cells, reweight_s = [], [], [], [], []
        for changes in posts[:MAX_POSTS]:
            changes = [(u, v, w) for u, v, w in changes]
            overlay = stack.warm()
            snapshot, took = _timed(stack.network.copy)
            copy_s.append(took)
            for u, v, w in changes:
                snapshot.add_edge(u, v, w)
            touched = overlay.touched_cells(changes)
            cells.append(len(touched))
            recust_s.append(_timed(
                overlay.recustomized_on, snapshot, touched,
                changed_edges=changes,
            )[1])
            fp_s.append(_timed(network_fingerprint, snapshot)[1])
            reweight_s.append(_timed(stack.reweight, changes, epoch=True)[1])
        out["network.copy_ms"] = median(copy_s) * 1e3
        out["cache.fingerprint_ms"] = median(fp_s) * 1e3
        out["search.recustomize_ms"] = median(recust_s) * 1e3
        out["search.cells_recustomized"] = float(median(cells))
        out["serving.reweight_ms"] = median(reweight_s) * 1e3
    finally:
        stack.close()
    return out
