"""One benchmark run: set up, drive, verify, report."""

from __future__ import annotations

import asyncio
import gc
import json
import os
import platform
import shutil
import time
from pathlib import Path

from repro.core.query import ObfuscatedPathQuery
from repro.network.io import write_network

from benchlib import inputs, isolated, specs
from benchlib.drive import Client
from benchlib.oracle import Answer, Oracle
from benchlib.server import ServerProcess
from benchlib.spans import SpanLog
from benchlib.steal import StealClock
from benchlib.stats import (
    mean, median, supported_percentile, windowed, windowed_rate,
)

clock = time.perf_counter

#: share of --seconds spent in the open loop; the closed loop gets the rest
OPEN_SHARE = 0.65

#: the open and the closed loop alternate in this many slices each.  The
#: hypervisor gives this guest's CPUs to other guests for stretches of
#: ~10 s (see benchlib.steal); spread over the run, each phase keeps
#: some windows outside such a stretch for the statistics to use.
SLICES = 3

#: server launches per run; setup_s is their median
SETUP_LAUNCHES = 3

#: closed-loop warm-up before measuring, after commute-repeat's pass over
#: every commuter.  The server's heaps grow during the first seconds of
#: load, and its collector then pauses it far more often than later: on
#: commute-repeat nearly all requests slower than 8 ms fell into the
#: first 5 s of load.
WARM_SECONDS = 3.0

#: reported latency of a failed request: it misses any latency limit
FAILED_LATENCY_S = 30.0


async def run(workload: str, seed: int, seconds: float, trace: bool,
              root: Path, out: Path) -> dict:
    """Run ``workload`` once; returns the full report (see :func:`report`)."""
    network = inputs.make_network()
    map_path = out / "map.txt"
    write_network(network, map_path)
    tmp = out / "tmp"
    tmp.mkdir()
    setups: list[float] = []
    server = None
    client = None
    exit_codes = []
    try:
        for launch in range(SETUP_LAUNCHES):
            server = ServerProcess(map_path, root / "src", tmp,
                                   out / f"server-{launch}.log")
            setups.append(await server.start())
            if launch < SETUP_LAUNCHES - 1:
                exit_codes.append(await server.stop())
        client = Client(network, seed, server.host, server.port,
                        spans=SpanLog() if trace else None)
        # the client's own collector pauses would show up as server
        # latency: keep it off while driving (the run is short-lived)
        gc.disable()
        docs = await _drive(workload, client, server, seconds, trace)
        docs["rss_mb"] = server.rss_mb()
    finally:
        gc.enable()
        if client is not None:
            await client.close()
        if server is not None:
            exit_codes.append(await server.stop())
    shutil.rmtree(tmp, ignore_errors=True)

    verify(network, client)
    layers = {}
    if trace:
        queries = [
            ObfuscatedPathQuery(a.sources, a.destinations)
            for a in client.attempts if a.phase == "open" and a.sources
        ]
        layers = isolated.measure(
            map_path, docs["final"]["config"], queries,
            workload == "commute-repeat", [p.changes for p in client.posts],
        )
    result = report(workload, client, docs, setups, trace, layers)
    result["detail"]["server_clean_exits"] = exit_codes.count(0)
    result["info"] = run_info(root, workload, seed, seconds, trace)
    if trace:
        client.spans.write(out / "spans.jsonl", client.phases["open"][0].start)
    (out / "metrics.json").write_text(json.dumps(docs["final"], indent=1))
    (out / "result.json").write_text(json.dumps(result, indent=1))
    return result


async def _drive(workload, client: Client, server, seconds, trace) -> dict:
    kind = "commute" if workload == "commute-repeat" else "uniform"
    if kind == "commute":
        client.prepare_commuters()
    await client.open(2)
    if kind == "commute":
        await asyncio.gather(*(
            client.user(kind, "warm", clock(), False)
            for _ in range(inputs.COMMUTERS)
        ))
    await client.closed_loop("warm", kind, WARM_SECONDS, 2)
    docs = {"steal": StealClock()}
    docs["steal"].start()
    t = clock()
    docs["m0"] = await server.get_json("/v1/metrics")
    docs["m0_window"] = (t, clock())
    for i in range(SLICES):
        await client.open_loop("open", kind, OPEN_SHARE * seconds / SLICES,
                               inputs.OPEN_RPS[workload], traced=trace)
        if i == 0:
            docs["m1"] = await server.get_json("/v1/metrics")
        await client.closed_loop("closed", kind,
                                 (1 - OPEN_SHARE) * seconds / SLICES, 2,
                                 traced=trace)
    docs["m2"] = await server.get_json("/v1/metrics")
    # the update probe: every workload reports staleness
    events = inputs.feed(client.network)
    await client.updater(events, clock())
    await docs["steal"].stop()
    docs["final"] = await server.get_json("/v1/metrics")
    return docs


def verify(network, client: Client) -> None:
    """Check every answer against the oracle; mark mismatches as failed."""
    oracle = Oracle(network)
    for post in client.posts:
        oracle.add_epoch(post.changes)
    answered = [a for a in client.attempts if a.paths and not a.error]
    verdicts = oracle.check([
        Answer(a.sources, a.destinations, a.paths, *client.epoch_window(a))
        for a in answered
    ])
    for a, reason in zip(answered, verdicts):
        if reason is not None:
            a.error = f"oracle: {reason}"


def _latency_ms(attempts, p: float, steal) -> float:
    values = [a.latency if not a.error else FAILED_LATENCY_S for a in attempts]
    spans = [(a.due, a.done) for a in attempts]
    return windowed(values, p, spans=spans, steal=steal) * 1e3


def _hist(doc: dict) -> tuple[float, int]:
    h = doc["gateway"]["metrics"]["repro_gateway_request_seconds"]
    return h["sum"], h["count"]


def _counter(doc: dict, name: str) -> float:
    return doc["gateway"]["metrics"].get(name, {}).get("value", 0)


def _result_cache(doc: dict) -> tuple[int, int]:
    hits = sum(s["cache"]["result_hits"] for s in doc["shards"])
    misses = sum(s["cache"]["result_misses"] for s in doc["shards"])
    return hits, misses


def report(workload, client: Client, docs, setups, trace, layers) -> dict:
    """The run's metrics, sample counts and pass/fail accounting."""
    attempts = client.attempts
    open_ = [a for a in attempts if a.phase == "open"]
    closed = [a for a in attempts if a.phase == "closed"]
    steal = docs["steal"].share
    staleness = [  # in arrival order, posts being sequential
        post.acked - due
        for post in client.posts if not post.error for due in post.dues
    ]
    failed_requests = [a for a in attempts if a.error]
    failed_posts = [p for p in client.posts if p.error]
    attempted = len(attempts) + len(client.posts)
    failed = len(failed_requests) + len(failed_posts)
    mismatches = sum(a.error.startswith("oracle") for a in attempts)
    filter_errors = sum("filter" in a.error or "another" in a.error
                        for a in attempts)
    e2e = {
        "setup_s": median(setups),
        "latency_p50_ms": _latency_ms(open_, 50, steal),
        "latency_p95_ms": _latency_ms(open_, 95, steal),
        "throughput_rps": windowed_rate(
            [a.done for a in closed if not a.error],
            [(p.start, p.end) for p in client.phases["closed"]], steal=steal),
        # not steal-filtered: a window is about one post, and the posts'
        # own spread (0.7-1.2 s) outweighs the probe's little steal
        "staleness_p50_ms": windowed(staleness, 50) * 1e3,
        "staleness_p95_ms": windowed(staleness, 95) * 1e3,
        "success_rate": 1.0 - failed / attempted,
        "server_rss_mb": docs["rss_mb"],
    }
    detail = {
        "workload": workload,
        "open_rate_rps": inputs.OPEN_RPS[workload],
        "samples": {
            "latency": len(open_), "throughput": len(closed),
            "staleness": len(staleness), "setup": len(setups),
            "posts": len(client.posts),
        },
        "highest_supported_percentile": {
            "latency": supported_percentile(len(open_)),
            "staleness": supported_percentile(len(staleness)),
        },
        "error_rate": failed / attempted,
        "errors": sorted({a.error for a in failed_requests}
                         | {p.error for p in failed_posts}),
        "oracle_mismatches": mismatches,
        "verified_answers": sum(bool(a.paths) for a in attempts) - mismatches,
        "generator_late_max_ms": max(
            (a.sent - a.due for a in open_ if a.sent), default=0.0) * 1e3,
        "setups_s": setups,
        # CPU time the hypervisor gave other guests, per measured phase
        "steal_pct": {
            name: mean([steal(p.start, p.end) for p in slices]) * 100.0
            for name, slices in client.phases.items() if name != "warm"
        } | {"probe": steal(client.posts[0].sent, client.posts[-1].acked)
             * 100.0 if client.posts else 0.0},
    }
    result = {
        "correct": mismatches == 0 and filter_errors == 0
        and detail["verified_answers"] > 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "detail": detail,
    }
    if trace:
        result["per_layer"] = per_layer(client, docs, layers)
    return result


def per_layer(client: Client, docs, layers) -> dict[str, float]:
    """Per-layer metrics of a traced run (see ``specs.PER_LAYER``)."""
    spans = client.spans
    open_ok = [a for a in client.attempts if a.phase == "open" and not a.error]
    traced = {a.rid for a in open_ok if a.traced}
    out: dict[str, float] = {}
    # commute-repeat obfuscates only while setting up its commuters
    obfuscate = spans.durations("core.obfuscate", traced) or spans.durations(
        "core.obfuscate")
    out["core.obfuscate_ms"] = median(obfuscate) * 1e3
    out["core.filter_ms"] = median(spans.durations("core.filter", traced)) * 1e3
    out["core.candidate_paths"] = float(median([a.candidates for a in open_ok]))
    out["wire.encode_ms"] = median(spans.durations("wire.encode", traced)) * 1e3
    out["wire.decode_ms"] = median(spans.durations("wire.decode", traced)) * 1e3
    out["wire.response_bytes"] = float(median([a.response_bytes for a in open_ok]))
    out["gateway.roundtrip_ms"] = median(
        spans.durations("gateway.roundtrip", traced)) * 1e3

    # the histogram window m0 -> m1 also holds the m0 fetch itself: take
    # its client round trip out (an upper bound on its chain time)
    (s0, c0), (s1, c1) = _hist(docs["m0"]), _hist(docs["m1"])
    m0_sent, m0_back = docs["m0_window"]
    chain = (s1 - s0 - (m0_back - m0_sent)) / max(c1 - c0 - 1, 1)
    out["gateway.chain_ms"] = chain * 1e3
    # m1 closes the first open-loop slice: compare like with like
    first = client.phases["open"][0].end
    out["gateway.http_ms"] = (mean(
        [a.received - a.sent for a in open_ok if a.received <= first]
    ) - chain) * 1e3
    final = docs["final"]
    out["gateway.rejected_ratio"] = _counter(
        final, "repro_gateway_rejected_total") / max(
        _counter(final, "repro_gateway_requests_total"), 1)
    out["loadgen.wait_ms"] = median(
        [a.sent - a.due for a in client.attempts
         if a.phase == "open" and a.sent]) * 1e3
    out["gateway.shard_warm_ms"] = max(s["warm_ms"] for s in final["shards"])
    out["gateway.reweight_ms"] = median(
        [p.acked - p.sent for p in client.posts]) * 1e3

    (h0, m0), (h2, m2) = _result_cache(docs["m0"]), _result_cache(docs["m2"])
    out["cache.result_hit_ratio"] = (h2 - h0) / max((h2 - h0) + (m2 - m0), 1)
    out["cache.disk_loads"] = float(
        _counter(final, "repro_preprocessing_cache_disk_loads_total")
        + sum(s["cache"]["preprocessing_disk_loads"] for s in final["shards"]))
    out.update(layers)

    selfs = spans.self_times(traced)
    for name in ("request",) + specs.REQUEST_SPANS:
        out[f"self.{name}_ms"] = selfs.get(name, 0.0) / max(len(traced), 1) * 1e3
    on = median([a.latency for a in open_ok if a.traced])
    off = median([a.latency for a in open_ok if not a.traced])
    out["trace.overhead_pct"] = (on - off) / off * 100.0 if off else 0.0
    return {spec.name: out[spec.name] for spec in specs.PER_LAYER}


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_info(root: Path, workload, seed, seconds, trace) -> dict:
    """Host and code facts of the run, kept apart from the metrics."""
    import numpy
    import scipy

    src_lines = 0
    for path in (root / "src").rglob("*.py"):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "src_lines": src_lines,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }
