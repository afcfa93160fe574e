"""Metric and workload specifications of the serving benchmark.

``BENCHMARK.json`` at the checkout root is the contract the benchmark is
judged by; it may only carry each metric's name, unit and direction and
each workload's one-line reason.  This module holds the rest of what the
benchmark fixes about its metrics: what each one means and, for every
per-layer metric, which end-to-end metric it should move and on which
workload.  ``tests/test_contract.py`` keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

#: unit -> the suffix a metric name carrying that unit must end with
UNIT_SUFFIX = {
    "ms": "_ms",
    "s": "_s",
    "1/s": "_rps",
    "MB": "_mb",
    "%": "_pct",
    "ratio": ("_ratio", "_rate"),
    "count": "",
    "bytes": "_bytes",
}


@dataclass(frozen=True)
class Metric:
    """One reported metric.

    ``moves`` and ``on`` are filled for per-layer metrics only: the
    end-to-end metric a change to this layer should move, and the
    workloads where it should move it (the prediction written down
    before anything is measured).
    """

    name: str
    unit: str
    better: str
    meaning: str
    moves: str = ""
    on: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower",
           "median over 3 launches of `repro serve`: process start to the "
           "first 200 from /v1/health"),
    Metric("latency_p50_ms", "ms", "lower",
           "open-loop user latency, scheduled arrival to filtered path "
           "held (median over windows of the seconds with the least "
           "hypervisor steal, see stats.windowed)"),
    Metric("latency_p95_ms", "ms", "lower",
           "same samples as latency_p50_ms"),
    Metric("throughput_rps", "1/s", "higher",
           "user requests completed per second in the closed-loop slices "
           "(median over the windows with the least hypervisor steal, see "
           "stats.windowed_rate)"),
    Metric("staleness_p50_ms", "ms", "lower",
           "per traffic event of the update probe: scheduled arrival to "
           "the ack of the /v1/reweight that carried it (median over "
           "windows)"),
    Metric("staleness_p95_ms", "ms", "lower",
           "same samples as staleness_p50_ms"),
    Metric("success_rate", "ratio", "higher",
           "1 - error_rate: requests answered correctly over requests "
           "attempted, all phases"),
    Metric("server_rss_mb", "MB", "lower",
           "sum of VmHWM over the server's process tree"),
)

_REQ = "uniform-miss"
#: the update probe that ends every workload
_PROBE = "all (update probe)"
PER_LAYER = (
    Metric("core.obfuscate_ms", "ms", "lower",
           "median PathQueryObfuscator.obfuscate_independent call",
           "latency_p50_ms", _REQ + " (commute-repeat obfuscates once per "
           "commuter: no change predicted)"),
    Metric("core.filter_ms", "ms", "lower",
           "median CandidateResultPathFilter.extract call",
           "latency_p50_ms", _REQ),
    Metric("core.candidate_paths", "count", "lower",
           "candidate paths per answer (|S| x |T|)",
           "latency_p50_ms", _REQ),
    Metric("wire.encode_ms", "ms", "lower",
           "median RouteRequest.to_json + utf-8 encode",
           "latency_p50_ms, throughput_rps", "commute-repeat"),
    Metric("wire.decode_ms", "ms", "lower",
           "median RouteResponse.from_json + rebuild of the server response",
           "latency_p50_ms, throughput_rps", "commute-repeat"),
    Metric("wire.response_bytes", "bytes", "lower",
           "median /v1/route response body size",
           "latency_p50_ms, throughput_rps", "commute-repeat"),
    Metric("gateway.roundtrip_ms", "ms", "lower",
           "median client-side POST /v1/route round trip",
           "latency_p95_ms, throughput_rps",
           "commute-repeat (dominant); small share on uniform-miss"),
    Metric("gateway.chain_ms", "ms", "lower",
           "mean of repro_gateway_request_seconds over the open-loop phase",
           "latency_p95_ms, throughput_rps",
           "commute-repeat (dominant); small share on uniform-miss"),
    Metric("gateway.http_ms", "ms", "lower",
           "mean round trip minus gateway.chain_ms: socket, parse and write",
           "latency_p95_ms, throughput_rps",
           "commute-repeat (dominant); small share on uniform-miss"),
    Metric("gateway.rejected_ratio", "ratio", "lower",
           "429 refusals over admitted requests, all phases",
           "latency_p95_ms, throughput_rps", "commute-repeat"),
    Metric("loadgen.wait_ms", "ms", "lower",
           "median due -> sent in the open-loop phase (how late the "
           "generator ran, obfuscation and encoding included)",
           "latency_p95_ms", "all"),
    Metric("gateway.shard_warm_ms", "ms", "lower",
           "slowest shard's warm_ms (mmap artifact load)",
           "setup_s", "all"),
    Metric("gateway.reweight_ms", "ms", "lower",
           "median POST /v1/reweight round trip of the update probe",
           "staleness_p50_ms, staleness_p95_ms", _PROBE),
    Metric("cache.result_hit_ratio", "ratio", "higher",
           "result-cache hits over lookups, summed over shard snapshots, "
           "open and closed phases",
           "latency_p50_ms", "commute-repeat ~1.0, uniform-miss = 0"),
    Metric("cache.disk_loads", "count", "lower",
           "spilled artifacts reloaded from disk, gateway plus shards",
           "setup_s, staleness_p95_ms", _PROBE),
    Metric("cache.fingerprint_ms", "ms", "lower",
           "isolated: median network_fingerprint of a re-weighted snapshot",
           "staleness_p50_ms", _PROBE),
    Metric("serving.answer_ms", "ms", "lower",
           "isolated: median ServingStack.answer_batch over the run's "
           "queries (cache state as in the workload)",
           "latency_p50_ms, throughput_rps", "uniform-miss"),
    Metric("serving.reweight_ms", "ms", "lower",
           "isolated: median ServingStack.reweight(..., epoch=True) over "
           "the run's posted batches",
           "staleness_p50_ms, staleness_p95_ms", _PROBE),
    Metric("search.process_ms", "ms", "lower",
           "isolated: median bare overlay-csr processor process() call",
           "latency_p50_ms, throughput_rps",
           "uniform-miss (no change on commute-repeat)"),
    Metric("search.settled_nodes", "count", "lower",
           "isolated: median settled nodes per process() call",
           "latency_p50_ms, throughput_rps", "uniform-miss"),
    Metric("search.customize_s", "s", "lower",
           "isolated: overlay-csr engine prepare() on the map",
           "setup_s", "all"),
    Metric("search.recustomize_ms", "ms", "lower",
           "isolated: median OverlayGraph.recustomized_on per posted batch",
           "staleness_p50_ms, staleness_p95_ms", _PROBE),
    Metric("search.cells_recustomized", "count", "lower",
           "median cells touched per posted batch",
           "staleness_p50_ms, staleness_p95_ms", _PROBE),
    Metric("network.load_s", "s", "lower",
           "isolated: read_network of the map file",
           "setup_s", "all"),
    Metric("network.copy_ms", "ms", "lower",
           "isolated: median RoadNetwork.copy",
           "staleness_p50_ms", _PROBE),
    Metric("network.csr_snapshot_ms", "ms", "lower",
           "isolated: CSRGraph.from_network of the map",
           "setup_s, staleness_p50_ms", "all"),
    Metric("self.request_ms", "ms", "lower",
           "mean per request of time inside `request` not covered by a "
           "child span (waiting for the loop or a connection)",
           "latency_p50_ms", "all"),
    Metric("self.core.obfuscate_ms", "ms", "lower",
           "mean self time per request of core.obfuscate",
           "latency_p50_ms", _REQ),
    Metric("self.wire.encode_ms", "ms", "lower",
           "mean self time per request of wire.encode",
           "latency_p50_ms", "commute-repeat"),
    Metric("self.gateway.roundtrip_ms", "ms", "lower",
           "mean self time per request of gateway.roundtrip",
           "latency_p50_ms", "all"),
    Metric("self.wire.decode_ms", "ms", "lower",
           "mean self time per request of wire.decode",
           "latency_p50_ms", "commute-repeat"),
    Metric("self.core.filter_ms", "ms", "lower",
           "mean self time per request of core.filter",
           "latency_p50_ms", _REQ),
    Metric("trace.overhead_pct", "%", "lower",
           "traced vs untraced latency_p50_ms of interleaved open-loop "
           "requests in the traced run",
           "", "all"),
)

#: request span tree of one user request, parent first
REQUEST_SPANS = (
    "core.obfuscate", "wire.encode", "gateway.roundtrip",
    "wire.decode", "core.filter",
)


def metric(name: str) -> Metric:
    """The spec of ``name`` (end-to-end or per-layer)."""
    for spec in END_TO_END + PER_LAYER:
        if spec.name == name:
            return spec
    raise KeyError(name)


def name_matches_unit(spec: Metric) -> bool:
    """Whether ``spec.name`` carries the suffix its unit calls for."""
    suffix = UNIT_SUFFIX.get(spec.unit)
    if suffix is None:
        return False
    if isinstance(suffix, tuple):
        return spec.name.endswith(suffix)
    if suffix == "":
        # counts carry no unit suffix, so they must not borrow one
        return not any(
            spec.name.endswith(s)
            for s in ("_ms", "_s", "_rps", "_mb", "_pct", "_ratio", "_rate")
        )
    return spec.name.endswith(suffix)
