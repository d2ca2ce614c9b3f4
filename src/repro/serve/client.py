"""Async client for the crypto service, plus a closed-loop load
generator.

:class:`CryptoClient` speaks the frame protocol of
:mod:`repro.serve.protocol` over one TCP connection, one request in
flight at a time (request ids are still carried and checked, so a
response mismatch is detected rather than silently mis-attributed).
Every socket await is bounded by a timeout, and transient failures —
connection loss, response timeouts, and the retryable server statuses
(``TIMEOUT`` / ``OVERLOADED`` / ``SHUTTING_DOWN``) — are retried with
capped exponential backoff and jitter, the standard way a fleet of
clients avoids synchronizing its retries into a thundering herd.

:func:`run_load` is the closed-loop load generator behind
``repro-aes loadgen`` and the bench's ``serve`` scenario: N client
coroutines each load a key and issue encrypt requests back-to-back,
and the report carries achieved requests/sec and byte rates.
:func:`run_session_load` is its cluster-aware sibling: M concurrent
*keyed sessions*, each pinning a distinct session id so the gateway
shards them across workers, with ``NO_KEY`` responses (a restarted
worker lost the session's key) absorbed by re-sending ``LOAD_KEY``.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.tracing import (
    active_tracer,
    format_span_id,
    new_span_id,
    trace_record,
)
from repro.serve.protocol import (
    KEY_BYTES,
    RETRYABLE_STATUSES,
    Frame,
    FrameError,
    Mode,
    Op,
    Status,
    read_frame,
    write_frame,
)


class RequestFailed(ConnectionError):
    """Every retry attempt failed at the transport level."""


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter.

    Attempt *n* (0-based) sleeps ``base_delay * 2**n`` seconds,
    capped at ``max_delay``, then scaled down by up to ``jitter``
    (a fraction in [0, 1)) chosen uniformly at random — so two
    clients that fail together do not retry together.
    """

    attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5

    def delay(self, attempt: int, rng: random.Random) -> float:
        """The backoff before retry number ``attempt`` (0-based)."""
        capped = min(self.max_delay,
                     self.base_delay * (2.0 ** attempt))
        return capped * (1.0 - self.jitter * rng.random())


class CryptoClient:
    """One connection to a :class:`~repro.serve.server.CryptoServer`.

    Use as an async context manager, or call :meth:`connect` /
    :meth:`close` explicitly.  ``rng`` seeds the backoff jitter only
    (determinism for tests); it is never used for key material.
    """

    def __init__(self, host: str, port: int,
                 connect_timeout: float = 5.0,
                 request_timeout: float = 30.0,
                 retry: Optional[RetryPolicy] = None,
                 rng: Optional[random.Random] = None,
                 session_id: int = 0) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        #: Carried in every frame's header.  Zero (the default) means
        #: anonymous; against a cluster gateway a nonzero id is what
        #: pins this client's requests to one worker shard.
        self.session_id = session_id
        self.retry = retry or RetryPolicy()
        self._rng = rng or random.Random()
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._request_ids = itertools.count(1)
        # Whether to carry trace context on the wire (only attempted
        # while tracing is enabled).  Flipped off for the connection's
        # lifetime the first time a peer rejects the extension, so a
        # v2 client keeps working against a v1 server.
        self._trace_wire = True

    async def __aenter__(self) -> "CryptoClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def connect(self) -> None:
        """Open (or re-open) the connection, bounded by
        ``connect_timeout``."""
        await self.close()
        async with asyncio.timeout(self.connect_timeout):
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port)

    async def close(self) -> None:
        """Close the connection; safe to call when not connected."""
        writer, self._reader, self._writer = self._writer, None, None
        if writer is None:
            return
        writer.close()
        try:
            async with asyncio.timeout(5.0):
                await writer.wait_closed()
        except (asyncio.TimeoutError, ConnectionError):
            pass

    @property
    def connected(self) -> bool:
        """Whether a transport is currently open."""
        return self._writer is not None

    # -------------------------------------------------------- requests
    async def request(self, op: Op, mode: Mode = Mode.RAW,
                      payload: bytes = b"") -> Frame:
        """Send one request; return the server's response frame.

        Retries per the :class:`RetryPolicy` on transport failures
        and on :data:`RETRYABLE_STATUSES`.  When retries are
        exhausted the last error *response* is returned as-is (the
        caller inspects ``frame.status``); a transport-level
        exhaustion raises :class:`RequestFailed`.
        """
        last_error: Optional[Exception] = None
        last_response: Optional[Frame] = None
        for attempt in range(max(1, self.retry.attempts)):
            if attempt:
                await asyncio.sleep(
                    self.retry.delay(attempt - 1, self._rng)
                )
            try:
                response = await self._roundtrip(op, mode, payload)
            except (ConnectionError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError, FrameError) as exc:
                last_error = exc
                await self.close()
                continue
            last_response = response
            if response.status not in RETRYABLE_STATUSES:
                return response
        if last_response is not None:
            return last_response
        raise RequestFailed(
            f"{op.name} failed after {self.retry.attempts} "
            f"attempt(s): {last_error!r}"
        )

    async def _roundtrip(self, op: Op, mode: Mode,
                         payload: bytes) -> Frame:
        if not self.connected:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        request_id = next(self._request_ids)
        trace_id = span_id = 0
        if self._trace_wire and active_tracer() is not None:
            trace_id = new_span_id()
            span_id = new_span_id()
        frame = Frame(op=op, mode=mode,
                      session_id=self.session_id,
                      request_id=request_id, payload=payload,
                      trace_id=trace_id, parent_span_id=span_id)
        start = time.perf_counter()
        await write_frame(self._writer, frame,
                          timeout=self.request_timeout)
        response = await read_frame(self._reader,
                                    timeout=self.request_timeout)
        if trace_id:
            # The client half of the cross-process pair: the server's
            # serve.request span carries the same trace_id.
            trace_record("request", start, time.perf_counter(),
                         category="client", op=op.name.lower(),
                         trace_id=format_span_id(trace_id),
                         span_id=format_span_id(span_id))
        if response is None:
            raise ConnectionError("server closed the connection")
        if (trace_id and response.status is Status.BAD_FRAME
                and response.request_id == 0):
            # A v1 peer rejects the traced frame before decoding the
            # header, so its BAD_FRAME reply carries request id 0.
            # Downgrade for this connection and let the retry loop
            # resend the request untraced.
            self._trace_wire = False
            raise FrameError(
                "peer declined the trace extension; "
                "retrying without it",
                recoverable=False,
            )
        if response.request_id != request_id:
            raise FrameError(
                f"response for request {response.request_id}, "
                f"expected {request_id}",
                recoverable=False,
            )
        return response

    # ---------------------------------------------------- conveniences
    async def load_key(self, key: bytes) -> Frame:
        """Install the session key server-side (LOAD_KEY)."""
        return await self.request(Op.LOAD_KEY, payload=bytes(key))

    async def encrypt(self, mode: Mode, payload: bytes) -> Frame:
        """ENCRYPT under ``mode`` (payload per the mode convention)."""
        return await self.request(Op.ENCRYPT, mode, payload)

    async def decrypt(self, mode: Mode, payload: bytes) -> Frame:
        """DECRYPT under ``mode`` (payload per the mode convention)."""
        return await self.request(Op.DECRYPT, mode, payload)

    async def ping(self, payload: bytes = b"") -> Frame:
        """Round-trip an echo frame."""
        return await self.request(Op.PING, payload=payload)

    async def shutdown(self) -> Frame:
        """Ask the server to drain and stop."""
        return await self.request(Op.SHUTDOWN)


# ------------------------------------------------------------ loadgen
@dataclass
class LoadReport:
    """What one :func:`run_load` run achieved."""

    clients: int
    requests: int
    errors: int
    seconds: float
    bytes_out: int
    bytes_in: int
    mode: str
    payload_bytes: int
    statuses: Dict[str, int] = field(default_factory=dict)
    #: Client-observed per-request latency percentiles in seconds
    #: (keys ``p50_s``/``p95_s``/``p99_s``/``max_s``); empty when no
    #: request completed a round-trip.
    latency: Dict[str, float] = field(default_factory=dict)

    @property
    def requests_per_s(self) -> float:
        """Completed requests per wall-clock second."""
        if self.seconds <= 0:
            return 0.0
        return self.requests / self.seconds

    @property
    def mb_per_s(self) -> float:
        """Request-payload megabytes pushed per second."""
        if self.seconds <= 0:
            return 0.0
        return self.bytes_out / self.seconds / (1024 * 1024)

    def render(self) -> str:
        """One human-readable summary block."""
        lines = [
            f"loadgen: {self.clients} client(s) x "
            f"{self.requests // max(1, self.clients)} request(s), "
            f"mode={self.mode}, payload={self.payload_bytes} B",
            f"  completed : {self.requests} ok, {self.errors} error(s)"
            f" in {self.seconds:.3f}s",
            f"  throughput: {self.requests_per_s:,.1f} req/s, "
            f"{self.mb_per_s:.2f} MB/s out",
        ]
        if self.statuses:
            status_text = ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.statuses.items())
            )
            lines.append(f"  statuses  : {status_text}")
        if self.latency:
            lines.append(
                "  latency   : "
                + ", ".join(
                    f"{key[:-2]}={self.latency[key] * 1000:.2f}ms"
                    for key in ("p50_s", "p95_s", "p99_s", "max_s")
                    if key in self.latency
                )
                + " (client-observed)"
            )
        return "\n".join(lines)


def latency_percentiles(samples: List[float]) -> Dict[str, float]:
    """Nearest-rank p50/p95/p99 plus max of a latency sample list.

    Exact (not estimated — the loadgen holds every sample), so the
    client side of the loadgen report is ground truth against which
    the server's windowed estimates can be judged.
    """
    if not samples:
        return {}
    ordered = sorted(samples)
    count = len(ordered)

    def rank(q: float) -> float:
        return ordered[min(count - 1,
                           max(0, math.ceil(q * count) - 1))]

    return {
        "p50_s": rank(0.50),
        "p95_s": rank(0.95),
        "p99_s": rank(0.99),
        "max_s": ordered[-1],
    }


def _build_payload(mode: Mode, payload_bytes: int,
                   seed: int) -> bytes:
    """The deterministic request payload both loadgens share."""
    if mode is Mode.ECB and payload_bytes < 16:
        raise ValueError(
            "ECB needs payload_bytes >= 16 (one full block)"
        )
    prefix_rng = random.Random(seed)
    nonce = prefix_rng.randbytes(8)
    body = prefix_rng.randbytes(payload_bytes)
    if mode is Mode.ECB:
        # Truncate to whole blocks so every request is well-formed.
        return body[:(len(body) // 16) * 16]
    if mode is Mode.CTR:
        return nonce + body
    if mode is Mode.GCM:
        return prefix_rng.randbytes(12) + body
    raise ValueError(f"loadgen mode must be a cipher mode, "
                     f"not {mode.name}")


async def run_load(host: str, port: int, key: bytes,
                   clients: int = 8, requests: int = 32,
                   mode: Mode = Mode.CTR,
                   payload_bytes: int = 1024,
                   seed: int = 2003,
                   shutdown: bool = False,
                   retry: Optional[RetryPolicy] = None) -> LoadReport:
    """Closed-loop load: ``clients`` coroutines, ``requests`` each.

    Every client connects, installs ``key``, then issues ENCRYPT
    requests back-to-back (closed loop: the next request leaves when
    the previous response lands).  Payloads are deterministic from
    ``seed`` so runs compare like against like.  With ``shutdown``
    set, one final SHUTDOWN frame asks the server to drain and stop
    — how the CI smoke ends a serve process cleanly.
    """
    if clients < 1 or requests < 1:
        raise ValueError("clients and requests must be >= 1")
    payload = _build_payload(mode, payload_bytes, seed)

    counts: Dict[str, int] = {"ok": 0, "errors": 0,
                              "bytes_out": 0, "bytes_in": 0}
    statuses: Dict[str, int] = {}
    latencies: List[float] = []

    async def one_client(index: int) -> None:
        client = CryptoClient(
            host, port, retry=retry,
            rng=random.Random(seed * 1000 + index),
        )
        answered = 0
        try:
            await client.connect()
            response = await client.load_key(key)
            if response.status is not Status.OK:
                counts["errors"] += requests
                return
            for _ in range(requests):
                sent = time.perf_counter()
                response = await client.encrypt(mode, payload)
                latencies.append(time.perf_counter() - sent)
                answered += 1
                name = response.status.name.lower()
                statuses[name] = statuses.get(name, 0) + 1
                if response.status is Status.OK:
                    counts["ok"] += 1
                    counts["bytes_out"] += len(payload)
                    counts["bytes_in"] += len(response.payload)
                else:
                    counts["errors"] += 1
        except (RequestFailed, ConnectionError,
                asyncio.TimeoutError):
            # A dead client answers nothing more: every request it
            # still owed the run failed, and the report must say so
            # (an all-errors run has to exit nonzero in CI).
            counts["errors"] += requests - answered
        finally:
            await client.close()

    start = time.perf_counter()
    await asyncio.gather(*(one_client(i) for i in range(clients)))
    seconds = time.perf_counter() - start

    if shutdown:
        closer = CryptoClient(host, port, retry=RetryPolicy(attempts=1))
        try:
            await closer.shutdown()
        except (RequestFailed, ConnectionError, asyncio.TimeoutError):
            pass
        finally:
            await closer.close()

    return LoadReport(
        clients=clients,
        requests=counts["ok"],
        errors=counts["errors"],
        seconds=seconds,
        bytes_out=counts["bytes_out"],
        bytes_in=counts["bytes_in"],
        mode=mode.name.lower(),
        payload_bytes=payload_bytes,
        statuses=statuses,
        latency=latency_percentiles(latencies),
    )


def derive_session_key(base_key: bytes, session_id: int) -> bytes:
    """A per-session AES key from one base key and a session id.

    ``blake2b`` keyed-derivation (not a seeded RNG — key material
    never comes from ``random``): deterministic given the base key,
    so a session that must re-install its key after a worker restart
    derives the same bytes, and distinct session ids give
    independent keys.
    """
    return hashlib.blake2b(
        base_key,
        digest_size=KEY_BYTES,
        salt=session_id.to_bytes(8, "big"),
        person=b"repro-session",
    ).digest()


async def run_session_load(host: str, port: int, base_key: bytes,
                           sessions: int = 8, requests: int = 32,
                           mode: Mode = Mode.CTR,
                           payload_bytes: int = 1024,
                           seed: int = 2003,
                           retry: Optional[RetryPolicy] = None,
                           ) -> LoadReport:
    """Cluster closed loop: ``sessions`` concurrent keyed sessions.

    Each session is one client pinning a distinct nonzero session id
    — against a cluster gateway that is what consistent-hash-routes
    it to one worker shard — under its own derived key.  Two failure
    modes beyond :func:`run_load` are absorbed here, because they are
    normal cluster weather rather than errors: transport drops and
    retryable statuses go through the client's backoff as usual, and
    a ``NO_KEY`` response (the shard restarted and lost the session's
    key) re-sends ``LOAD_KEY`` and retries the request.
    """
    if sessions < 1 or requests < 1:
        raise ValueError("sessions and requests must be >= 1")
    payload = _build_payload(mode, payload_bytes, seed)

    counts: Dict[str, int] = {"ok": 0, "errors": 0,
                              "bytes_out": 0, "bytes_in": 0}
    statuses: Dict[str, int] = {}
    latencies: List[float] = []

    async def one_session(index: int) -> None:
        session_id = index + 1
        session_key = derive_session_key(base_key, session_id)
        client = CryptoClient(
            host, port, retry=retry, session_id=session_id,
            rng=random.Random(seed * 1000 + index),
        )
        answered = 0
        reloads = 0
        try:
            await client.connect()
            response = await client.load_key(session_key)
            if response.status is not Status.OK:
                counts["errors"] += requests
                return
            done = 0
            while done < requests:
                sent = time.perf_counter()
                response = await client.encrypt(mode, payload)
                if (response.status is Status.NO_KEY
                        and reloads < 2 * sessions + 4):
                    # The shard lost this session's key (worker
                    # restart): re-install and retry the request
                    # without counting it — bounded, so a server
                    # that *never* keeps keys still terminates.
                    reloads += 1
                    reload = await client.load_key(session_key)
                    if reload.status is Status.OK:
                        continue
                latencies.append(time.perf_counter() - sent)
                done += 1
                answered += 1
                name = response.status.name.lower()
                statuses[name] = statuses.get(name, 0) + 1
                if response.status is Status.OK:
                    counts["ok"] += 1
                    counts["bytes_out"] += len(payload)
                    counts["bytes_in"] += len(response.payload)
                else:
                    counts["errors"] += 1
        except (RequestFailed, ConnectionError,
                asyncio.TimeoutError):
            counts["errors"] += requests - answered
        finally:
            await client.close()

    start = time.perf_counter()
    await asyncio.gather(*(one_session(i) for i in range(sessions)))
    seconds = time.perf_counter() - start

    return LoadReport(
        clients=sessions,
        requests=counts["ok"],
        errors=counts["errors"],
        seconds=seconds,
        bytes_out=counts["bytes_out"],
        bytes_in=counts["bytes_in"],
        mode=mode.name.lower(),
        payload_bytes=payload_bytes,
        statuses=statuses,
        latency=latency_percentiles(latencies),
    )


__all__ = ["CryptoClient", "LoadReport", "RequestFailed",
           "RetryPolicy", "derive_session_key",
           "latency_percentiles", "run_load", "run_session_load"]
