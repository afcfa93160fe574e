"""Order statistics with the benchmark's reporting rule.

A timing is reported as its median and the highest percentile that has at
least :data:`MIN_BEYOND` samples beyond it, together with the sample
count; :func:`supported_percentile` applies that rule to a sample size.

The host's speed drifts by several percent within a run, and a pause of
a few tens of milliseconds moves a tail percentile of a fast workload a
lot.  :func:`windowed` therefore reports the median, over consecutive
windows of a phase, of each window's percentile, using only as many
windows as leave every window enough samples for that percentile.
Given the hypervisor's steal (see :mod:`benchlib.steal`), it first
leaves out the seconds in which other guests took the most CPU, keeping
the quietest ones until they hold a third of the samples and enough for
the percentile.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10

#: percentiles a timing may be reported at, in increasing order
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (an observed sample; 0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(_rank(len(ordered), p), len(ordered)) - 1]


def _rank(n: int, p: float) -> int:
    # rounded first, so that 99.9% of 10000 is rank 9990, not 9991
    return max(math.ceil(round(p / 100.0 * n, 9)), 1)


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``p``-th."""
    return n - _rank(n, p)


def supported_percentile(n: int) -> float | None:
    """The highest :data:`LADDER` percentile with ``MIN_BEYOND`` samples beyond.

    ``None`` when even the median has fewer than ``MIN_BEYOND`` samples
    beyond it.
    """
    best = None
    for p in LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def needed(p: float) -> int:
    """Fewest samples that leave :data:`MIN_BEYOND` beyond the ``p``-th."""
    n = MIN_BEYOND + 1
    while beyond(n, p) < MIN_BEYOND:
        n += 1
    return n


#: most windows a phase is cut into (odd, so the median is a window's)
MAX_WINDOWS = 15

#: share of a phase's samples (or rate windows) the quietest windows
#: must hold; the windows the neighbours stole more from are left out
QUIET_SHARE = 1 / 3

#: width of the time windows a phase's samples are ranked by steal in
QUIET_WINDOW_S = 1.0


def _quietest(shares: list[float], sizes: list[int], least: float) -> list[int]:
    """Indices of the least stolen windows that hold ``least`` samples.

    Windows as stolen from as the last one kept are kept too, so with no
    steal every window counts.  The indices come back in time order.
    """
    kept, held = [], 0
    for i in sorted(range(len(shares)), key=shares.__getitem__):
        if held >= least and shares[i] > shares[kept[-1]]:
            break
        kept.append(i)
        held += sizes[i]
    return sorted(kept)


def _quiet_samples(values, p, spans, steal) -> list[float]:
    """``values`` of the quietest :data:`QUIET_WINDOW_S` windows, in order.

    They hold at least a :data:`QUIET_SHARE` of the samples and
    :func:`needed` ones for the ``p``-th percentile (all, if there are
    not that many).
    """
    first = spans[0][0]
    windows: dict[int, list[int]] = {}
    for i, (start, _) in enumerate(spans):
        windows.setdefault(int((start - first) / QUIET_WINDOW_S), []).append(i)
    members = [windows[w] for w in sorted(windows)]
    shares = [steal(min(spans[i][0] for i in m), max(spans[i][1] for i in m))
              for m in members]
    least = max(needed(p), QUIET_SHARE * len(values))
    keep = _quietest(shares, [len(m) for m in members], least)
    return [values[i] for w in keep for i in members[w]]


def windowed(values: Sequence[float], p: float, windows: int = MAX_WINDOWS,
             spans: Sequence[tuple[float, float]] | None = None,
             steal=None) -> float:
    """Median over up to ``windows`` consecutive windows of their ``p``-th.

    ``values`` are in time order.  With ``spans`` (each sample's start
    and end time) and ``steal`` (the share of CPU stolen between two
    times), only the samples of the quietest seconds count (see
    :func:`_quiet_samples`).  The window count is odd and as large as
    possible with :func:`needed` samples in each window; with fewer
    samples than that this is the plain percentile.
    """
    if steal is not None and values:
        values = _quiet_samples(values, p, spans, steal)
    k = max(1, min(windows, len(values) // needed(p)))
    if k % 2 == 0:
        k -= 1
    n = len(values)
    return median([percentile(values[i * n // k:(i + 1) * n // k], p)
                   for i in range(k)])


def windowed_rate(times: Sequence[float],
                  slices: Sequence[tuple[float, float]],
                  windows: int = MAX_WINDOWS, steal=None) -> float:
    """Median over equal time windows of a phase of events per second.

    ``slices`` are the phase's ``(start, end)`` stretches, each cut into
    ``windows // len(slices)`` windows (at least one).  With ``steal``
    (as for :func:`windowed`) only the quietest :data:`QUIET_SHARE` of
    the windows count.
    """
    rates, bounds = [], []
    per_slice = max(1, windows // len(slices))
    for start, end in slices:
        width = (end - start) / per_slice
        counts = [0] * per_slice
        for t in times:
            if start <= t <= end:
                counts[min(per_slice - 1, int((t - start) / width))] += 1
        rates += [c / width for c in counts]
        bounds += [(start + i * width, start + (i + 1) * width)
                   for i in range(per_slice)]
    if steal is not None:
        keep = _quietest([steal(a, b) for a, b in bounds], [1] * len(rates),
                         QUIET_SHARE * len(rates))
        rates = [rates[i] for i in keep]
    return median(rates)


def median(values: Sequence[float]) -> float:
    """Nearest-rank median (0 when empty)."""
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0 when empty)."""
    return sum(values) / len(values) if values else 0.0
