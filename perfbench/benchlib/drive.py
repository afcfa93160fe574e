"""Drives one workload against a running server from one asyncio loop.

The client plays the paper's obfuscator: each user's request is
obfuscated into ``Q(S, T)``, sent as ``POST /v1/route`` on one of at
most two keep-alive connections, decoded, and screened by the candidate
result path filter.  A user's latency runs from the request's scheduled
arrival to the moment the filter hands them their path.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import time
from dataclasses import dataclass, field

from repro.core.filter import CandidateResultPathFilter
from repro.core.server import ServerResponse
from repro.exceptions import ReproError
from repro.search.multi import MSMDResult
from repro.search.result import PathResult
from repro.service.wire import RouteRequest, RouteResponse, WireError, canonical_json
from repro.workloads.loadgen import parse_retry_after

from benchlib import inputs
from benchlib.httpconn import Connection, HTTPError
from benchlib.spans import SpanLog

#: retries of a 429 before it counts as a failure (the loadgen policy)
MAX_RETRIES_429 = 2

clock = time.perf_counter


@dataclass
class Attempt:
    """One user request, as the oracle and the reports need it."""

    rid: str
    phase: str
    due: float
    pair: tuple[int, int]
    sources: tuple[int, ...] = ()
    destinations: tuple[int, ...] = ()
    sent: float = 0.0
    received: float = 0.0
    done: float = 0.0
    paths: tuple = ()
    error: str = ""
    traced: bool = False
    response_bytes: int = 0
    candidates: int = 0

    @property
    def latency(self) -> float:
        """Scheduled arrival to filtered path held (seconds)."""
        return self.done - self.due


@dataclass
class Post:
    """One ``POST /v1/reweight`` carrying every event arrived so far."""

    changes: list
    dues: list[float]
    sent: float = 0.0
    acked: float = 0.0
    error: str = ""


@dataclass
class Phase:
    """Bounds of one slice of a measured phase."""

    name: str
    start: float
    end: float = 0.0


@dataclass
class Client:
    """Client side of one run: users, connections, updater, records."""

    network: object
    seed: int
    host: str
    port: int
    spans: SpanLog | None = None
    attempts: list[Attempt] = field(default_factory=list)
    posts: list[Post] = field(default_factory=list)
    #: per phase name, its slices in time order
    phases: dict[str, list[Phase]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.obfuscator = inputs.make_obfuscator(self.network, self.seed)
        self.filter = CandidateResultPathFilter(self.obfuscator)
        self._uniform = inputs.uniform_pairs(self.network, self.seed)
        self._ids = itertools.count(1)
        self._conns: asyncio.Queue | None = None
        self._all_conns: list[Connection] = []
        self._commute: list = []
        self._commute_order = None

    # -- connections -------------------------------------------------

    async def open(self, n: int) -> None:
        """Open ``n`` request connections (at most 2 in this benchmark)."""
        self._conns = asyncio.Queue()
        for _ in range(n):
            conn = await Connection(self.host, self.port).open()
            self._all_conns.append(conn)
            self._conns.put_nowait(conn)

    async def close(self) -> None:
        """Close every connection this client opened."""
        for conn in self._all_conns:
            await conn.close()
        self._all_conns = []

    # -- users -------------------------------------------------------

    def _rid(self) -> str:
        return f"r{next(self._ids):06x}"

    def _obfuscate(self, user: str, pair: tuple[int, int], sticky=None):
        t0 = clock()
        record = self.obfuscator.obfuscate_independent(
            inputs.request(user, pair), sticky_key=sticky
        )
        return record, t0, clock()

    def prepare_commuters(self) -> None:
        """Obfuscate each commuter once; they re-send that same query.

        Fresh decoys on every repeat would let an observer intersect the
        candidate sets; the sticky obfuscation is the privacy-correct
        behaviour and makes every repeat a result-cache candidate.
        """
        for i, pair in enumerate(inputs.commuter_pairs(self.network, self.seed)):
            record, t0, t1 = self._obfuscate(f"c{i}", pair, sticky=f"c{i}")
            if self.spans is not None:
                self.spans.add(f"c{i:03d}", "core.obfuscate", t0, t1)
            self._commute.append((pair, record))
        # every commuter once (the warm-up pass), then a seeded mix
        rng = random.Random(f"commute-order:{self.seed}")
        n = len(self._commute)
        self._commute_order = itertools.chain(
            range(n), iter(lambda: rng.randrange(n), None)
        )

    async def user(self, kind: str, phase: str, due: float, traced: bool) -> Attempt:
        """One user request from arrival to filtered path (never raises)."""
        rid = self._rid()
        spans = self.spans if traced else None
        if kind == "commute":
            index = next(self._commute_order)
            pair, record = self._commute[index]
            t_obf = None
        else:
            pair = next(self._uniform)
            record, o0, o1 = self._obfuscate(rid, pair)
            t_obf = (o0, o1)
        e0 = clock()
        body = RouteRequest.from_query(record.query).to_json().encode()
        t_enc = (e0, clock())
        a = Attempt(rid, phase, due, pair, tuple(record.query.sources),
                    tuple(record.query.destinations), traced=traced)
        self.attempts.append(a)
        conn = await self._conns.get()
        try:
            a.sent = clock()
            status, headers, payload = await self._post(conn, body, rid)
            a.received = clock()
        except HTTPError as exc:
            a.error = f"transport:{exc}"
        finally:
            self._conns.put_nowait(conn)
        if not a.error:
            if status != 200:
                a.error = f"http:{status}"
            elif headers.get("x-request-id") != rid:
                a.error = "answer carries another request id"
        d1 = f1 = a.received
        if not a.error:
            a.response_bytes = len(payload)
            try:
                wire = RouteResponse.from_json(payload)
                response = _server_response(record.query, wire)
                d1 = clock()
                filtered = self.filter.extract(record, response)
                f1 = clock()
                a.paths = wire.paths
                a.candidates = len(wire.paths)
                path = filtered.paths_by_user[record.requests[0].user]
                if (path.source, path.destination) != pair:
                    a.error = "filter returned another user's path"
            except (WireError, ReproError, KeyError, ValueError) as exc:
                a.error = f"decode-or-filter:{type(exc).__name__}"
        a.done = clock()
        if spans is not None:
            root = spans.add(rid, "request", due, a.done)
            if t_obf is not None:
                spans.add(rid, "core.obfuscate", *t_obf, parent=root)
            spans.add(rid, "wire.encode", *t_enc, parent=root)
            if a.received:
                spans.add(rid, "gateway.roundtrip", a.sent, a.received, parent=root)
            if a.paths:
                spans.add(rid, "wire.decode", a.received, d1, parent=root)
                spans.add(rid, "core.filter", d1, f1, parent=root)
        return a

    async def _post(self, conn, body, rid):
        for attempt in range(MAX_RETRIES_429 + 1):
            status, headers, payload = await conn.request(
                "POST", "/v1/route", body, request_id=rid
            )
            if status != 429 or attempt == MAX_RETRIES_429:
                return status, headers, payload
            hint = parse_retry_after(headers.get("retry-after"), payload)
            await asyncio.sleep(min(0.05 if hint is None else hint, 1.0))

    # -- loops -------------------------------------------------------

    async def closed_loop(
        self, name: str, kind: str, seconds: float, clients: int,
        traced: bool = False,
    ) -> Phase:
        """``clients`` users back to back, each waiting for its answer."""
        phase = Phase(name, clock())
        end = phase.start + seconds

        async def user_loop() -> None:
            while clock() < end:
                await self.user(kind, name, clock(), traced)

        await asyncio.gather(*(user_loop() for _ in range(clients)))
        phase.end = clock()
        self.phases.setdefault(name, []).append(phase)
        return phase

    async def open_loop(
        self, name: str, kind: str, seconds: float, rate: float,
        traced: bool = False,
    ) -> Phase:
        """Users arriving at a fixed ``rate`` whatever the server does.

        With tracing on, every other request is traced, so traced and
        untraced latency share load and time (the tracing overhead).
        """
        phase = Phase(name, clock() + 0.01)
        tasks = []
        for i in range(max(1, round(seconds * rate))):
            due = phase.start + i / rate
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(
                self.user(kind, name, due, traced and i % 2 == 0)
            ))
        await asyncio.gather(*tasks)
        phase.end = clock()
        self.phases.setdefault(name, []).append(phase)
        return phase

    async def updater(self, events, start: float) -> None:
        """Replay ``events`` at their own times through ``/v1/reweight``.

        Every event that has arrived goes into one post; the next post
        leaves as soon as the previous one is acknowledged.  The posts
        hold one of the request connections meanwhile.
        """
        conn = await self._conns.get()
        try:
            await self._replay(conn, events, start)
        finally:
            self._conns.put_nowait(conn)

    async def _replay(self, conn: Connection, events, start: float) -> None:
        dues = [start + e.at_ms / 1000.0 for e in events]
        posted = 0
        while posted < len(events):
            delay = dues[posted] - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            now = clock()
            upto = posted
            while upto < len(events) and dues[upto] <= now:
                upto += 1
            batch = events[posted:upto]
            post = Post([[e.u, e.v, e.weight] for e in batch], dues[posted:upto])
            body = canonical_json({"changes": post.changes}).encode()
            wid = f"w{len(self.posts):05x}"
            post.sent = clock()
            try:
                status, _, _ = await conn.request(
                    "POST", "/v1/reweight", body, request_id=wid, timeout=60.0
                )
                if status != 200:
                    post.error = f"http:{status}"
            except HTTPError as exc:
                post.error = f"transport:{exc}"
            post.acked = clock()
            self.posts.append(post)
            if self.spans is not None:
                self.spans.add(wid, "reweight", post.sent, post.acked)
            posted = upto

    # -- epochs ------------------------------------------------------

    def epoch_window(self, a: Attempt) -> tuple[int, int]:
        """Epochs ``a`` may have been answered from.

        From the last update acknowledged before it was sent to the last
        update posted before its reply arrived.
        """
        lo = sum(1 for p in self.posts if p.acked <= a.sent)
        hi = sum(1 for p in self.posts if p.sent <= a.received)
        return lo, max(lo, hi)


def _server_response(query, wire: RouteResponse) -> ServerResponse:
    """The core server response a wire answer stands for."""
    result = MSMDResult()
    for s, t, nodes, cost in wire.paths:
        result.paths[(s, t)] = PathResult(s, t, tuple(nodes), cost)
    return ServerResponse(query, result, from_cache=wire.from_cache)
