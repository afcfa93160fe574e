"""Gateway fault handling: late worker replies, malformed heads, errors.

Every response must be either the answer to *its own* request or a
typed error: a worker reply that arrives after its call timed out is
dropped (never handed to the next caller on that shard), a request head
the gateway cannot frame gets a 400 or a clean close (never an
unhandled exception), and every exception the gateway catches is
counted by class name in ``/v1/metrics``.
"""

from __future__ import annotations

import json
import logging
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network.generators import grid_network
from repro.service.gateway import (
    API_PREFIX,
    GatewayConfig,
    GatewayServer,
    ShardWorkerPool,
)
from repro.service.serving import ServingConfig


def _raw_exchange(server, payload: bytes, timeout: float = 10.0) -> bytes:
    """Send raw bytes, half-close, and read until the server closes."""
    with socket.create_connection(
        (server.host, server.port), timeout=timeout
    ) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _parse(raw: bytes) -> tuple[int, dict]:
    """Status code and JSON body of the first response in ``raw``."""
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        key, _, value = line.partition(b":")
        if key.strip().lower() == b"content-length":
            length = int(value.strip())
    return status, json.loads(body[:length])


def _metrics(server) -> dict:
    raw = _raw_exchange(
        server, f"GET {API_PREFIX}/metrics HTTP/1.1\r\n\r\n".encode()
    )
    status, doc = _parse(raw)
    assert status == 200
    return doc


def _caught(doc: dict, name: str) -> float:
    counter = doc["gateway"]["metrics"].get(
        f"repro_gateway_caught_{name}_total"
    )
    return counter["value"] if counter is not None else 0


@pytest.fixture(scope="module")
def network():
    return grid_network(8, 8, perturbation=0.1, seed=7)


@pytest.fixture(scope="module")
def server(network):
    with GatewayServer(
        network, ServingConfig(engine="dijkstra"), GatewayConfig()
    ) as gateway_server:
        yield gateway_server


class _ErrorLogCapture(logging.Handler):
    """Collects ERROR records (asyncio logs unhandled exceptions there)."""

    def __init__(self):
        super().__init__(level=logging.ERROR)
        self.records: list[logging.LogRecord] = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture()
def error_log():
    handler = _ErrorLogCapture()
    logging.getLogger().addHandler(handler)
    try:
        yield handler.records
    finally:
        logging.getLogger().removeHandler(handler)


class TestPipeReplies:
    def test_late_reply_never_reaches_the_next_call(self):
        """A batch whose timeout expires, then a ping on the same shard:
        the ping must get ``"pong"``, not the batch's late payload."""
        network = grid_network(20, 20, perturbation=0.1, seed=3)
        nodes = sorted(network.nodes())
        pairs = [
            ((nodes[i], nodes[i + 41]), (nodes[-1 - i], nodes[-60 - i]))
            for i in range(8)
        ]
        pool = ShardWorkerPool(network, ServingConfig(engine="dijkstra"), 1)
        try:
            pool.wait_ready()
            with pytest.raises(RuntimeError, match="timed out"):
                pool.call(0, ("batch", pairs), timeout=0.0)
            assert pool.call(0, ("ping",), timeout=30.0) == "pong"
            # ... and the shard stays in step afterwards.
            answers = pool.call(0, ("batch", pairs[:1]), timeout=30.0)
            assert len(answers) == 1 and "ok" in answers[0]
        finally:
            pool.close()

    def test_worker_counts_failed_requests_by_class(self, network):
        pool = ShardWorkerPool(network, ServingConfig(engine="dijkstra"), 1)
        try:
            with pytest.raises(RuntimeError, match="worker error"):
                pool.call(0, ("reweight", [(0, 63, 1.0)]))  # no such edge
            with pytest.raises(RuntimeError, match="worker error"):
                pool.call(0, ("frobnicate",))
            report = pool.call(0, ("metrics",))
            assert report["exceptions"] == {"EdgeError": 1, "ValueError": 1}
        finally:
            pool.close()


class TestContentLength:
    @pytest.mark.parametrize("value", ["abc", "-5", "", "1e3", "0x10", "5 5"])
    def test_malformed_value_is_400(self, server, value, error_log):
        before = _caught(_metrics(server), "MalformedRequest")
        raw = _raw_exchange(
            server,
            f"POST {API_PREFIX}/route HTTP/1.1\r\n"
            f"Content-Length: {value}\r\n\r\n".encode("latin-1"),
        )
        status, doc = _parse(raw)
        assert status == 400
        assert doc["error"] == "invalid_request"
        assert b"Connection: close" in raw
        assert _caught(_metrics(server), "MalformedRequest") == before + 1
        assert not error_log

    def test_valid_value_still_frames_the_body(self, server):
        body = b'{"sources": [0], "destinations": [63]}'
        raw = _raw_exchange(
            server,
            f"POST {API_PREFIX}/route HTTP/1.1\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body,
        )
        assert _parse(raw)[0] == 200


_TOKEN = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=255),
    min_size=0,
    max_size=12,
)
_VALUE = st.text(
    alphabet=st.characters(
        min_codepoint=32, max_codepoint=255, blacklist_characters="\r\n"
    ),
    max_size=24,
)
_HEADER = st.tuples(
    st.one_of(
        st.sampled_from(
            ["Content-Length", "content-length", "Connection",
             "X-Request-Id", "Host"]
        ),
        _TOKEN,
    ),
    st.one_of(
        st.integers(min_value=-10, max_value=10**7).map(str), _VALUE
    ),
)


@st.composite
def request_heads(draw) -> bytes:
    """A request head with arbitrary method, target, version and headers."""
    method = draw(st.one_of(
        st.sampled_from(["GET", "POST", "PUT", "get"]), _TOKEN
    ))
    target = draw(st.one_of(
        st.sampled_from([f"{API_PREFIX}/{r}" for r in
                         ("route", "batch", "health", "metrics",
                          "reweight", "1.1", "nope")]),
        _TOKEN,
    ))
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", "", "HTTP/9"]))
    first = " ".join(part for part in (method, target, version) if part)
    headers = draw(st.lists(_HEADER, max_size=5))
    lines = [first] + [f"{k}: {v}" for k, v in headers]
    body = draw(st.binary(max_size=64))
    return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body


@given(head=request_heads())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_malformed_heads_get_typed_errors_or_clean_close(
    server, error_log, head
):
    error_log.clear()  # the fixture outlives one hypothesis example
    raw = _raw_exchange(server, head)
    if raw:
        status, doc = _parse(raw)
        if status >= 400:
            assert isinstance(doc.get("error"), str)
    assert not error_log, [r.getMessage() for r in error_log]


class TestReweightErrors:
    def test_validation_errors_are_400(self, server, network):
        u = 0
        v, w = next(iter(network.neighbors(u).items()))
        before = _metrics(server)
        for body in [
            b"{not json",
            b'{"changes": 3}',
            b'{"changes": [[1, 2]]}',
            json.dumps({"changes": [[0, 63, 1.0]]}).encode(),  # no edge
            json.dumps({"changes": [[u, v, -1.0]]}).encode(),  # bad weight
        ]:
            raw = _raw_exchange(
                server,
                f"POST {API_PREFIX}/reweight HTTP/1.1\r\n"
                f"Content-Length: {len(body)}\r\n\r\n".encode() + body,
            )
            status, doc = _parse(raw)
            assert (status, doc["error"]) == (400, "invalid_request"), body
        after = _metrics(server)
        assert _caught(after, "EdgeError") == _caught(before, "EdgeError") + 2
        assert _caught(after, "ValueError") == _caught(before, "ValueError") + 2
        assert _caught(after, "JSONDecodeError") == (
            _caught(before, "JSONDecodeError") + 1
        )

    def test_internal_failure_is_500(self, network, monkeypatch):
        with GatewayServer(network, ServingConfig(engine="dijkstra")) as srv:
            def broken(changes, **kwargs):
                raise RuntimeError("shard broadcast failed")

            monkeypatch.setattr(srv.gateway.stack, "reweight", broken)
            v, w = next(iter(network.neighbors(0).items()))
            body = json.dumps({"changes": [[0, v, w]]}).encode()
            raw = _raw_exchange(
                srv,
                f"POST {API_PREFIX}/reweight HTTP/1.1\r\n"
                f"Content-Length: {len(body)}\r\n\r\n".encode() + body,
            )
            status, doc = _parse(raw)
            assert (status, doc["error"]) == (500, "internal")
            assert _caught(_metrics(srv), "RuntimeError") == 1
