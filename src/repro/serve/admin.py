"""The admin/scrape plane: a minimal asyncio HTTP sidecar.

A :class:`CryptoServer` started with an ``admin_port`` binds this
second listener next to the frame protocol.  It speaks just enough
HTTP/1.1 for a scraper, a load balancer or ``curl``:

- ``GET /metrics`` — the Prometheus text exposition (process-global
  registry plus the server's windowed quantile families);
- ``GET /healthz`` — liveness: 200 whenever the process can answer;
- ``GET /readyz`` — readiness, drain-aware: 200 while serving, 503
  once :meth:`CryptoServer.stop` has begun (so a gateway stops
  routing to a draining instance before its socket closes);
- ``GET /quantiles`` — the windowed p50/p95/p99/max/burn-rate
  snapshot as JSON (what ``repro-aes loadgen`` scrapes to print
  server-observed latency next to client-observed);
- ``GET /trace`` — the process tracer's events plus its wall-clock
  epoch, JSON; ``{"enabled": false}`` while tracing is off.  A
  client merges these onto its own timeline with
  :meth:`repro.obs.tracing.Tracer.add_events`.

The plane is deliberately inert: every handler renders
already-aggregated numbers, no endpoint accepts a body, mutates
state or touches a :class:`~repro.serve.server.Session` — the
``taint.secret-in-*`` lint pack guards that boundary (a corpus case
proves it fires if session state ever reaches a response here).
Reads are bounded in both bytes and seconds, mirroring the frame
protocol's discipline: a stalled or hostile scraper costs one
connection, never the event loop.
"""

from __future__ import annotations

import asyncio
import json
import logging
from typing import Callable, Dict, Optional, Tuple

from repro.obs.tracing import active_tracer

_LOG = logging.getLogger(__name__)

#: Longest accepted request line / single header line, bytes.
MAX_LINE_BYTES = 4096
#: Most header lines read before the request is rejected.
MAX_HEADER_LINES = 64

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    503: "Service Unavailable",
}


class AdminServer:
    """The HTTP sidecar; all content comes from injected callables,
    so the plane itself holds no serving state (and no secrets)."""

    def __init__(self, host: str, port: int, *,
                 metrics_text: Callable[[], str],
                 quantiles: Callable[[], Dict[str, object]],
                 ready: Callable[[], bool],
                 io_timeout: float = 10.0) -> None:
        self._host = host
        self._port = port
        self._metrics_text = metrics_text
        self._quantiles = quantiles
        self._ready = ready
        self._io_timeout = io_timeout
        self._server: Optional[asyncio.base_events.Server] = None

    # ------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind the admin listener."""
        if self._server is not None:
            raise RuntimeError("admin server already started")
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._port
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — useful with ``port=0``."""
        if self._server is None:
            raise RuntimeError("admin server not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def stop(self) -> None:
        """Close the listener; in-flight responses finish on close."""
        if self._server is None:
            return
        self._server.close()
        try:
            async with asyncio.timeout(5.0):
                await self._server.wait_closed()
        except asyncio.TimeoutError:  # pragma: no cover - defensive
            pass
        self._server = None

    # ----------------------------------------------------- connections
    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            status, content_type, body = await self._handle(reader)
            payload = body.encode()
            head = (
                f"HTTP/1.1 {status} {_STATUS_TEXT[status]}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n"
                f"\r\n"
            ).encode("ascii")
            writer.write(head)
            writer.write(payload)
            async with asyncio.timeout(self._io_timeout):
                await writer.drain()
        except (ConnectionError, asyncio.TimeoutError):
            pass  # scraper vanished or stalled; nothing to answer
        except Exception:  # pragma: no cover - defensive
            _LOG.exception("admin request failed")
        finally:
            writer.close()
            try:
                async with asyncio.timeout(5.0):
                    await writer.wait_closed()
            except (asyncio.TimeoutError, ConnectionError):
                pass

    async def _readline(self, reader: asyncio.StreamReader) -> bytes:
        async with asyncio.timeout(self._io_timeout):
            line = await reader.readline()
        if len(line) > MAX_LINE_BYTES:
            raise ValueError("header line exceeds the line limit")
        return line

    async def _handle(self, reader: asyncio.StreamReader
                      ) -> Tuple[int, str, str]:
        """Parse one request, route it, return (status, type, body)."""
        try:
            request_line = (await self._readline(reader)).decode(
                "ascii", "replace"
            )
            parts = request_line.split()
            if len(parts) != 3:
                return 400, "text/plain", "malformed request line\n"
            method, target, _version = parts
            # Drain (and bound) the headers; none are interpreted.
            for _ in range(MAX_HEADER_LINES):
                line = await self._readline(reader)
                if line in (b"\r\n", b"\n", b""):
                    break
            else:
                return 400, "text/plain", "too many headers\n"
        except (ValueError, asyncio.TimeoutError):
            return 400, "text/plain", "malformed request\n"
        if method != "GET":
            return 405, "text/plain", "admin plane is GET-only\n"
        path = target.split("?", 1)[0]
        return self._route(path)

    # --------------------------------------------------------- routing
    def _route(self, path: str) -> Tuple[int, str, str]:
        if path == "/healthz":
            return 200, "text/plain", "ok\n"
        if path == "/readyz":
            if self._ready():
                return 200, "text/plain", "ready\n"
            return 503, "text/plain", "draining\n"
        if path == "/metrics":
            return (200, "text/plain; version=0.0.4",
                    self._metrics_text())
        if path == "/quantiles":
            return (200, "application/json",
                    json.dumps(self._quantiles(), sort_keys=True)
                    + "\n")
        if path == "/trace":
            return (200, "application/json",
                    json.dumps(_trace_body()) + "\n")
        return 404, "text/plain", f"no such endpoint {path}\n"


def _trace_body() -> Dict[str, object]:
    """The ``/trace`` payload: events plus the tracer's wall-clock
    epoch, which lets another process shift them onto its timeline."""
    tracer = active_tracer()
    if tracer is None:
        return {"enabled": False, "events": []}
    return {
        "enabled": True,
        "epoch_unix": tracer.epoch_unix,
        "events": tracer.events(),
    }


__all__ = ["AdminServer", "MAX_HEADER_LINES", "MAX_LINE_BYTES"]
