"""CPU time the hypervisor gives to other guests, sampled during a run.

On a shared virtual machine the host runs other guests on this guest's
CPUs for stretches of several seconds.  Linux counts that time as
*steal* in ``/proc/stat``.  The benchmark's processes all share the
guest, so every request in flight during such a stretch waits: on
commute-repeat a 9% steal tripled the open loop's p95.  The clock
samples the counter in the background so the statistics can tell which
windows of a phase measured the server and which measured the
neighbours (see :func:`benchlib.stats.windowed`).
"""

from __future__ import annotations

import asyncio
import bisect
import time

#: seconds between samples
PERIOD_S = 0.1


def read_jiffies() -> tuple[int, int]:
    """All CPUs' (stolen, total) time so far in jiffies; zeros if unknown."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


class StealClock:
    """Background sampler of the steal counter; :meth:`share` reads it."""

    def __init__(self, read=read_jiffies, clock=time.perf_counter) -> None:
        self._read = read
        self._clock = clock
        self.times: list[float] = []
        self.samples: list[tuple[int, int]] = []
        self._task: asyncio.Task | None = None

    def sample(self) -> None:
        """Take one sample now."""
        self.samples.append(self._read())
        self.times.append(self._clock())

    async def _run(self) -> None:
        while True:
            self.sample()
            await asyncio.sleep(PERIOD_S)

    def start(self) -> None:
        """Sample every :data:`PERIOD_S` until :meth:`stop`."""
        self._task = asyncio.create_task(self._run())

    async def stop(self) -> None:
        """Stop sampling (one last sample closes the record)."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        self.sample()

    def share(self, start: float, end: float) -> float:
        """Share of CPU time stolen over the samples spanning ``[start, end]``."""
        if len(self.times) < 2:
            return 0.0
        i = max(bisect.bisect_right(self.times, start) - 1, 0)
        j = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        if j <= i:
            j = min(i + 1, len(self.times) - 1)
            i = j - 1
        total = self.samples[j][1] - self.samples[i][1]
        stolen = self.samples[j][0] - self.samples[i][0]
        return stolen / total if total > 0 else 0.0
