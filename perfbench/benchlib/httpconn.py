"""Minimal keep-alive HTTP/1.1 client connection on asyncio streams."""

from __future__ import annotations

import asyncio


class HTTPError(Exception):
    """A request that got no complete HTTP response."""


class Connection:
    """One keep-alive connection; one request in flight at a time."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def open(self) -> "Connection":
        """Connect (idempotent)."""
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        return self

    async def close(self) -> None:
        """Close the socket and wait until it is closed."""
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        request_id: str | None = None,
        timeout: float = 30.0,
    ) -> tuple[int, dict[str, str], bytes]:
        """Send one request; return ``(status, headers, body)``.

        Any transport failure closes the connection (the next request
        reconnects) and raises :class:`HTTPError`.
        """
        try:
            return await asyncio.wait_for(
                self._exchange(method, path, body, request_id), timeout
            )
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError, OSError, ValueError) as exc:
            await self.close()
            raise HTTPError(type(exc).__name__) from exc

    async def _exchange(self, method, path, body, request_id):
        await self.open()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if body:
            head += "Content-Type: application/json\r\n"
        if request_id is not None:
            head += f"X-Request-Id: {request_id}\r\n"
        self._writer.write(head.encode("latin-1") + b"\r\n" + body)
        await self._writer.drain()
        block = await self._reader.readuntil(b"\r\n\r\n")
        lines = block.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                key, value = line.split(":", 1)
                headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        payload = await self._reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, payload
