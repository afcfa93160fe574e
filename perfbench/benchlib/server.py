"""Out-of-process lifecycle of the real deployment, ``repro serve``.

The server runs as its own process tree (gateway plus shard workers),
started exactly as an operator would start it; the benchmark only talks
to it over HTTP and reads ``/proc`` for its memory high-water mark.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import sys
import time
from pathlib import Path

from benchlib.httpconn import Connection, HTTPError

#: the deployment under test; every other ``repro serve`` flag keeps its
#: default
SERVE_ARGS = ("--port", "0", "--workers", "2", "--engine", "overlay-csr")

_BANNER = re.compile(r"listening on http://([^:/]+):(\d+)/")

#: seconds a launch may take before the run gives up
START_TIMEOUT_S = 120.0


class ServerError(RuntimeError):
    """The server could not be started or stopped cleanly."""


def _children(pid: int) -> list[int]:
    found = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        tasks = list(task_dir.iterdir())
    except OSError:
        return found
    for task in tasks:
        try:
            found += [int(c) for c in (task / "children").read_text().split()]
        except OSError:
            continue
    return found


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its live descendants."""
    tree, todo = [], [pid]
    while todo:
        p = todo.pop()
        tree.append(p)
        todo += _children(p)
    return tree


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set size of ``pid`` in KiB (0 once it is gone)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


class ServerProcess:
    """One ``repro serve`` launch, logging into ``log_path``.

    ``src`` is the checkout's source root, put on the child's
    ``PYTHONPATH``; ``tmp`` becomes its ``TMPDIR`` so the gateway's
    artifact spill directory stays inside the checkout.
    """

    def __init__(self, map_path: Path, src: Path, tmp: Path, log_path: Path):
        self.map_path = map_path
        self.src = src
        self.tmp = tmp
        self.log_path = log_path
        self.host = "127.0.0.1"
        self.port = 0
        self.setup_s = 0.0
        self.proc: asyncio.subprocess.Process | None = None
        self._log = None
        self._drain: asyncio.Task | None = None

    async def start(self) -> float:
        """Launch and wait for the first 200 from ``/v1/health``.

        Returns the set-up time in seconds, process start included.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        env["PYTHONUNBUFFERED"] = "1"
        env["TMPDIR"] = str(self.tmp)
        self._log = open(self.log_path, "ab")
        t0 = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro", "serve", str(self.map_path),
            *SERVE_ARGS,
            stdout=asyncio.subprocess.PIPE,
            stderr=self._log,
            env=env,
            process_group=0,
        )
        try:
            await asyncio.wait_for(self._await_banner(), START_TIMEOUT_S)
            await asyncio.wait_for(self._await_health(), START_TIMEOUT_S)
        except (asyncio.TimeoutError, ServerError):
            await self.stop()
            raise ServerError(
                f"server did not come up; see {self.log_path.name}"
            ) from None
        self.setup_s = time.perf_counter() - t0
        self._drain = asyncio.create_task(self._copy_stdout())
        return self.setup_s

    async def _await_banner(self) -> None:
        while True:
            line = await self.proc.stdout.readline()
            if not line:
                raise ServerError("server exited before binding")
            self._log.write(line)
            match = _BANNER.search(line.decode("utf-8", "replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return

    async def _await_health(self) -> None:
        conn = Connection(self.host, self.port)
        try:
            while True:
                try:
                    status, _, _ = await conn.request("GET", "/v1/health")
                except HTTPError:
                    status = 0
                if status == 200:
                    return
                await asyncio.sleep(0.005)
        finally:
            await conn.close()

    async def _copy_stdout(self) -> None:
        while True:
            line = await self.proc.stdout.readline()
            if not line:
                return
            self._log.write(line)

    async def get_json(self, path: str) -> dict:
        """GET ``path`` on a fresh connection, closed before returning."""
        conn = Connection(self.host, self.port)
        try:
            status, _, body = await conn.request("GET", path, timeout=60.0)
        finally:
            await conn.close()
        if status != 200:
            raise ServerError(f"GET {path} answered {status}")
        return json.loads(body)

    def rss_mb(self) -> float:
        """Sum of VmHWM over the server's process tree, in MB."""
        if self.proc is None:
            return 0.0
        pids = process_tree(self.proc.pid)
        return sum(vm_hwm_kb(p) for p in pids) * 1024 / 1e6

    async def stop(self, timeout: float = 15.0) -> int | None:
        """SIGINT the gateway, wait for its whole tree to end.

        Callers close their client connections first: a keep-alive
        connection still open at teardown makes the gateway log an
        ``Event loop is closed`` traceback.  Anything still alive after
        ``timeout`` is killed.  Returns the gateway's exit code.
        """
        if self.proc is None:
            return None
        tree = process_tree(self.proc.pid)
        code = self.proc.returncode
        if code is None:
            try:
                self.proc.send_signal(signal.SIGINT)
            except ProcessLookupError:
                pass
            try:
                code = await asyncio.wait_for(self.proc.wait(), timeout)
            except asyncio.TimeoutError:
                self._kill_group()
                code = await self.proc.wait()
        deadline = time.monotonic() + timeout
        while any(_alive(p) for p in tree[1:]):
            if time.monotonic() > deadline:
                self._kill_group()
                for p in tree[1:]:
                    try:
                        os.kill(p, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                deadline = time.monotonic() + timeout
            await asyncio.sleep(0.02)
        if self._drain is not None:
            await self._drain
            self._drain = None
        if self._log is not None:
            self._log.close()
            self._log = None
        self.proc = None
        return code

    def _kill_group(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
