"""Dijkstra oracle that every answer of a run is checked against.

The oracle is :func:`scipy.sparse.csgraph.dijkstra`, an implementation
independent of everything in ``src/``, run over the map's edge list.  A
pure-Python Dijkstra costs ~60 ms per source on the 10k-node map, and a
run verifies thousands of sources, so the compiled one is what makes
checking *every* answer affordable.

Re-weights make the right answer depend on time: epoch ``k`` is the
map after the first ``k`` posted ``/v1/reweight`` batches, and an
answer is accepted when it is exactly right for one epoch in the
window the caller gives (responses carry no epoch stamp yet).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: relative and absolute tolerance on costs: the overlay adds shortcut
#: costs in another order than a plain search, so costs may differ in
#: the last bits
TOLERANCE = 1e-9

#: sources per scipy call (bounds the dense distance block it returns)
_CHUNK = 256


@dataclass(frozen=True)
class Answer:
    """One response to check.

    ``paths`` holds ``(source, destination, nodes, cost)`` entries as
    decoded from the wire; ``lo``/``hi`` bound the epochs it may answer.
    """

    sources: tuple[int, ...]
    destinations: tuple[int, ...]
    paths: tuple
    lo: int = 0
    hi: int = 0


class Oracle:
    """Exact shortest-path distances of a map across re-weight epochs."""

    def __init__(self, network) -> None:
        self.nodes = sorted(network.nodes())
        self.index = {n: i for i, n in enumerate(self.nodes)}
        self.directed = network.directed
        self.base: dict[tuple[int, int], float] = {}
        for u, v, w in network.edges():
            self.base[(u, v)] = float(w)
            if not self.directed:
                self.base[(v, u)] = float(w)
        #: per epoch, the arc weights that differ from :attr:`base`
        self.overrides: list[dict[tuple[int, int], float]] = [{}]
        self._matrices: dict[int, csr_matrix] = {}
        self._dist: dict[tuple[int, int], dict[int, float]] = {}

    @property
    def epochs(self) -> int:
        """Number of epochs after the base map."""
        return len(self.overrides) - 1

    def add_epoch(self, changes: Iterable[Sequence]) -> None:
        """Append the epoch produced by one re-weight batch, in order."""
        current = dict(self.overrides[-1])
        for u, v, w in changes:
            if (u, v) not in self.base:
                raise KeyError("re-weight of a missing edge")
            current[(u, v)] = float(w)
            if not self.directed:
                current[(v, u)] = float(w)
        self.overrides.append(current)

    def weight(self, epoch: int, u: int, v: int) -> float | None:
        """Weight of arc ``u -> v`` in ``epoch`` (``None`` if no arc)."""
        w = self.overrides[epoch].get((u, v))
        return w if w is not None else self.base.get((u, v))

    def _matrix(self, epoch: int) -> csr_matrix:
        matrix = self._matrices.get(epoch)
        if matrix is None:
            weights = dict(self.base)
            weights.update(self.overrides[epoch])
            rows = np.fromiter((self.index[u] for u, _ in weights), np.int64)
            cols = np.fromiter((self.index[v] for _, v in weights), np.int64)
            data = np.fromiter(weights.values(), np.float64)
            n = len(self.nodes)
            matrix = csr_matrix((data, (rows, cols)), shape=(n, n))
            self._matrices = {epoch: matrix}  # epochs are met in order
        return matrix

    def prepare(self, epoch: int, pairs: Iterable[tuple[int, int]]) -> None:
        """Compute (and keep) the distances ``pairs`` need in ``epoch``."""
        wanted: dict[int, set[int]] = {}
        for s, t in pairs:
            if t not in self._dist.get((epoch, s), {}):
                wanted.setdefault(s, set()).add(t)
        sources = sorted(wanted)
        for at in range(0, len(sources), _CHUNK):
            chunk = sources[at:at + _CHUNK]
            table = dijkstra(
                self._matrix(epoch), directed=True,
                indices=[self.index[s] for s in chunk],
            )
            for row, s in zip(table, chunk):
                known = self._dist.setdefault((epoch, s), {})
                for t in wanted[s]:
                    known[t] = float(row[self.index[t]])

    def distance(self, epoch: int, s: int, t: int) -> float:
        """Shortest ``s -> t`` distance in ``epoch``."""
        known = self._dist.get((epoch, s), {})
        if t not in known:
            self.prepare(epoch, [(s, t)])
        return self._dist[(epoch, s)][t]

    def problem(self, answer: Answer, epoch: int) -> str | None:
        """Why ``answer`` is wrong for ``epoch``, or ``None`` if exact.

        The reason names the broken property only, never a node id.
        """
        expected = {(s, t) for s in answer.sources for t in answer.destinations}
        got = [(p[0], p[1]) for p in answer.paths]
        if len(got) != len(expected) or set(got) != expected:
            return "path table does not cover S x T"
        for s, t, nodes, cost in answer.paths:
            if not nodes or nodes[0] != s or nodes[-1] != t:
                return "path endpoints differ from its pair"
            walked = 0.0
            for u, v in zip(nodes, nodes[1:]):
                w = self.weight(epoch, u, v)
                if w is None:
                    return "path uses a missing edge"
                walked += w
            if not _close(walked, cost):
                return "path cost differs from the walk's weight"
            if not _close(self.distance(epoch, s, t), cost):
                return "cost is not the shortest distance"
        return None

    def check(self, answers: Sequence[Answer]) -> list[str | None]:
        """Check each answer; ``None`` where exact for some allowed epoch."""
        by_epoch: dict[int, list[tuple[int, int]]] = {}
        for a in answers:
            by_epoch.setdefault(a.lo, []).extend(
                (s, t) for s in a.sources for t in a.destinations
            )
        for epoch in sorted(by_epoch):
            self.prepare(epoch, by_epoch[epoch])
        verdicts: dict[Answer, str | None] = {}
        for a in answers:
            if a in verdicts:  # repeated queries repeat their answers
                continue
            reason = None
            for epoch in range(a.lo, a.hi + 1):
                reason = self.problem(a, epoch)
                if reason is None:
                    break
            verdicts[a] = reason
        return [verdicts[a] for a in answers]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)
