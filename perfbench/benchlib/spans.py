"""In-memory spans recorded around the benchmark's own calls.

A span is ``(trace, id, parent, name, start, end)``: ``trace`` is shared
by every span of one user request (and is the ``X-Request-Id`` sent
with it), ``parent`` is the id of the span that caused it (0 for a
root).  Spans carry names and times only, so writing them out can leak
no endpoint.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path


class SpanLog:
    """Collects spans while a run is traced; written once at the end."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, str, float, float]] = []

    def add(
        self, trace: str, name: str, start: float, end: float, parent: int = 0
    ) -> int:
        """Record one finished span; returns its id."""
        span_id = len(self.spans) + 1
        self.spans.append((trace, span_id, parent, name, start, end))
        return span_id

    def durations(self, name: str, traces: set[str] | None = None) -> list[float]:
        """Durations (seconds) of every ``name`` span, optionally per trace."""
        return [
            end - start
            for trace, _, _, n, start, end in self.spans
            if n == name and (traces is None or trace in traces)
        ]

    def self_times(self, traces: set[str] | None = None) -> dict[str, float]:
        """Summed self time (seconds) per span name.

        A span's self time is its duration minus the part of its
        interval that its child spans cover.
        """
        children = defaultdict(list)
        for span in self.spans:
            if span[2]:
                children[span[2]].append(span)
        totals: dict[str, float] = defaultdict(float)
        for trace, span_id, _, name, start, end in self.spans:
            if traces is not None and trace not in traces:
                continue
            covered = _covered(
                [(max(s, start), min(e, end))
                 for *_, s, e in children.get(span_id, ())],
            )
            totals[name] += (end - start) - covered
        return dict(totals)

    def write(self, path: Path, origin: float) -> None:
        """Write one JSON object per span, times relative to ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for trace, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "trace": trace, "id": span_id, "parent": parent,
                    "name": name, "start_s": round(start - origin, 6),
                    "end_s": round(end - origin, 6),
                }) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if s > reach:
            total += e - s
            reach = e
        elif e > reach:
            total += e - reach
            reach = e
    return total
