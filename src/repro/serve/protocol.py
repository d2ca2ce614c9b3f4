"""The wire protocol of the crypto service: versioned binary frames.

The paper's deployment story (§2) is a network link protected by the
Rijndael IP after an asymmetric key exchange; :mod:`repro.serve` is
the software realization of that link, and this module is its
normative wire format — the network analogue of the pin-level bus
protocol in ``docs/protocol.md``.

A frame is a 4-byte big-endian length prefix followed by a fixed
18-byte header and a payload::

    +--------+-------+---------+----+------+--------+
    | length | magic | version | op | mode | status |
    | 4      | 2     | 1       | 1  | 1    | 1      |
    +--------+-------+---------+----+------+--------+
    | session id | request id | payload |
    | 4          | 8          | ...     |
    +------------+------------+---------+

The length prefix counts the header plus payload (never itself).
Limits are explicit and enforced *before* any allocation or crypto,
in the same up-front style as :func:`repro.aes.gcm._check_lengths`:
an oversized length prefix is rejected as soon as the 4 bytes are
read, so a hostile peer cannot make the server buffer an arbitrary
payload.  Malformed frames raise :class:`FrameError`; the error's
``recoverable`` flag tells the connection loop whether the byte
stream is still framed (bad magic inside a well-sized frame) or
desynchronized beyond repair (truncation, oversized prefix).

Requests carry ``status == Status.OK``; responses echo the request's
``op``/``mode``/``request_id`` and set ``status`` to the verdict.
Error responses put a short UTF-8 diagnostic in the payload — never
key material.

Version :data:`TRACE_VERSION` frames additionally carry a 16-byte
trace context (trace id + parent span id) between the header and the
payload, letting a client stitch its ``request`` span to the
server's ``serve.request`` span in one merged Chrome trace.  The
extension is negotiated downward: a version-1 peer answers a traced
frame with a well-delimited ``BAD_FRAME``, and the client falls back
to plain frames for the rest of the connection.
"""

from __future__ import annotations

import asyncio
import enum
import struct
from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Two magic bytes opening every frame body ("RJ" for Rijndael).
MAGIC = b"RJ"

#: Protocol version this module speaks.  A peer announcing any other
#: version is rejected with a recoverable :class:`FrameError` — the
#: frame is well-delimited, so the connection survives.
VERSION = 1

#: Negotiated extension version: identical to :data:`VERSION` frames
#: except that a 16-byte trace context (trace id + parent span id,
#: two big-endian u64s) sits between the header and the payload.  A
#: peer that only speaks version 1 rejects such a frame with a
#: well-delimited BAD_FRAME response, which the client takes as the
#: signal to fall back to plain version-1 frames — so tracing is
#: strictly opt-in on the wire and v1 deployments interoperate.
TRACE_VERSION = 2

#: Frame header layout past the length prefix: magic, version, op,
#: mode, status, session id, request id.
_HEADER = struct.Struct(">2sBBBBIQ")
HEADER_BYTES = _HEADER.size

#: The optional trace-context extension of :data:`TRACE_VERSION`
#: frames: trace id, then parent span id.
_TRACE_EXT = struct.Struct(">QQ")
TRACE_EXT_BYTES = _TRACE_EXT.size

#: Hard cap on one frame's payload.  Mirrors the up-front operand
#: limits of :func:`repro.aes.gcm._check_lengths`: the bound is
#: checked on lengths alone, before any buffer exists.  1 MiB per
#: frame keeps the server's worst-case buffering bounded while still
#: covering the bench payload sizes; bulk transfers chunk client-side.
MAX_PAYLOAD_BYTES = 1 << 20

#: Largest legal length-prefix value (header + trace extension +
#: payload) — sized so a traced frame still carries a full payload.
MAX_FRAME_BYTES = HEADER_BYTES + TRACE_EXT_BYTES + MAX_PAYLOAD_BYTES


class Op(enum.IntEnum):
    """Request operations the service understands."""

    LOAD_KEY = 1     #: payload = 16-byte AES-128 session key
    ENCRYPT = 2      #: payload per :class:`Mode`, returns ciphertext
    DECRYPT = 3      #: payload per :class:`Mode`, returns plaintext
    PING = 4         #: payload echoed back verbatim
    SHUTDOWN = 5     #: ask the server to drain and stop


class Mode(enum.IntEnum):
    """Cipher mode selector for ENCRYPT/DECRYPT frames.

    Payload conventions (all lengths in bytes):

    - ``ECB`` — payload is the 16-aligned data; response is the
      transformed data.
    - ``CTR`` — payload is an 8-byte nonce followed by data of any
      length; encrypt and decrypt are the same operation.
    - ``GCM`` — encrypt: 12-byte IV + plaintext, response is
      ciphertext + 16-byte tag; decrypt: 12-byte IV + ciphertext +
      16-byte tag, response is the plaintext (or an ``AUTH_FAILED``
      error frame releasing nothing).
    """

    RAW = 0          #: no cipher mode (LOAD_KEY / PING / SHUTDOWN)
    ECB = 1
    CTR = 2
    GCM = 3


class Status(enum.IntEnum):
    """Response verdicts (requests always carry ``OK``)."""

    OK = 0
    BAD_FRAME = 1        #: frame failed to decode
    BAD_REQUEST = 2      #: frame decoded but the payload is invalid
    NO_KEY = 3           #: crypto op before any LOAD_KEY
    AUTH_FAILED = 4      #: GCM tag verification failed
    TIMEOUT = 5          #: per-request execution budget exhausted
    OVERLOADED = 6       #: bounded request queue is full
    SHUTTING_DOWN = 7    #: server is draining; no new work accepted
    INTERNAL = 8         #: unexpected server-side failure


#: Statuses a client may transparently retry: transient server-side
#: conditions where the request itself was well-formed.
RETRYABLE_STATUSES = frozenset(
    {Status.TIMEOUT, Status.OVERLOADED, Status.SHUTTING_DOWN}
)

#: GCM geometry shared by client and server: IV and tag sizes.
GCM_IV_BYTES = 12
GCM_TAG_BYTES = 16
CTR_NONCE_BYTES = 8
KEY_BYTES = 16


class FrameError(ValueError):
    """A frame failed to decode.

    ``recoverable`` is True when the byte stream is still framed
    (the bad bytes were confined to one well-delimited frame) and the
    connection loop may answer with a ``BAD_FRAME`` response and keep
    reading; False when the stream is desynchronized (truncated read,
    oversized length prefix) and the connection must close.
    """

    def __init__(self, message: str,
                 recoverable: bool = True) -> None:
        super().__init__(message)
        self.recoverable = recoverable


@dataclass(frozen=True)
class Frame:
    """One decoded protocol frame.

    ``trace_id`` / ``parent_span_id`` are the optional trace context:
    both zero on plain version-1 frames; either nonzero makes the
    frame encode as a :data:`TRACE_VERSION` frame carrying the
    16-byte extension.  Responses echo the request's context so the
    client can stitch its span to the server's.
    """

    op: Op
    mode: Mode = Mode.RAW
    status: Status = Status.OK
    session_id: int = 0
    request_id: int = 0
    payload: bytes = field(default=b"", repr=False)
    trace_id: int = 0
    parent_span_id: int = 0

    def response(self, status: Status = Status.OK,
                 payload: bytes = b"") -> "Frame":
        """The response frame answering this request."""
        return Frame(op=self.op, mode=self.mode, status=status,
                     session_id=self.session_id,
                     request_id=self.request_id, payload=payload,
                     trace_id=self.trace_id,
                     parent_span_id=self.parent_span_id)

    def error(self, status: Status, message: str = "") -> "Frame":
        """An error response; the diagnostic rides in the payload."""
        return self.response(status, message.encode("utf-8"))


#: Length prefix and header packed as one struct, so the send path
#: materializes the fixed-size head in a single allocation and never
#: concatenates it with the payload.
_WIRE_HEAD = struct.Struct(">I2sBBBBIQ")

#: The traced variant: prefix, header and the 16-byte trace context
#: in one 38-byte pack — still a single allocation for the head.
_WIRE_HEAD_TRACE = struct.Struct(">I2sBBBBIQQQ")


def encode_frame_views(frame: Frame) -> Tuple[bytes, bytes]:
    """Serialize ``frame`` as ``(head, payload)`` — the zero-copy form.

    ``head`` is the 4-byte length prefix and 18-byte header in one
    22-byte buffer (38 bytes when the frame carries a trace context);
    ``payload`` is the frame's own payload object, untouched, when it
    is already immutable ``bytes`` (the codec's one defensive copy
    happens only for mutable payload types).  Writing both parts back
    to back puts exactly ``encode_frame``'s bytes on the wire without
    ever building the concatenation.
    """
    payload = frame.payload
    if not isinstance(payload, bytes):
        payload = bytes(payload)
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise FrameError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame limit"
        )
    if frame.trace_id or frame.parent_span_id:
        head = _WIRE_HEAD_TRACE.pack(
            HEADER_BYTES + TRACE_EXT_BYTES + len(payload),
            MAGIC, TRACE_VERSION, int(frame.op), int(frame.mode),
            int(frame.status), frame.session_id & 0xFFFFFFFF,
            frame.request_id & 0xFFFFFFFFFFFFFFFF,
            frame.trace_id & 0xFFFFFFFFFFFFFFFF,
            frame.parent_span_id & 0xFFFFFFFFFFFFFFFF,
        )
        return head, payload
    head = _WIRE_HEAD.pack(
        HEADER_BYTES + len(payload),
        MAGIC, VERSION, int(frame.op), int(frame.mode),
        int(frame.status), frame.session_id & 0xFFFFFFFF,
        frame.request_id & 0xFFFFFFFFFFFFFFFF,
    )
    return head, payload


def encode_frame(frame: Frame) -> bytes:
    """Serialize ``frame`` to one length-prefixed wire buffer.

    Compatibility entry point for callers that want a single
    ``bytes``; the streaming send path uses
    :func:`encode_frame_views` and never joins the parts.
    """
    return b"".join(encode_frame_views(frame))


def decode_payload(header: bytes, payload: bytes,
                   trace: Optional[Tuple[int, int]] = None) -> Frame:
    """Decode a frame from its 18-byte header and payload, already
    split by the transport — the length was parsed exactly once by
    the caller and the payload buffer is adopted as-is (no copy).

    ``trace`` is the already-split 16-byte trace context of a
    :data:`TRACE_VERSION` frame as ``(trace_id, parent_span_id)``;
    when the transport did not split it (``None``), the extension is
    taken from the front of ``payload`` instead.

    Raises :class:`FrameError` on any malformation; every failure
    here is *recoverable* — the caller consumed exactly the framed
    byte count, so the stream stays aligned.
    """
    if len(header) != HEADER_BYTES:
        raise FrameError(
            f"header split must be exactly {HEADER_BYTES} bytes, "
            f"got {len(header)}"
        )
    magic, version, op, mode, status, session_id, request_id = \
        _HEADER.unpack(header)
    if magic != MAGIC:
        # Diagnostics carry lengths and enum values only — echoing
        # the received bytes would reflect attacker-controlled data
        # back onto the wire in the BAD_FRAME response.
        raise FrameError(f"bad magic (want {MAGIC!r})")
    if version != VERSION and version != TRACE_VERSION:
        raise FrameError(
            f"protocol version mismatch: peer speaks {version}, "
            f"this build speaks {VERSION} "
            f"(or {TRACE_VERSION} with the trace extension)"
        )
    trace_id = parent_span_id = 0
    if version == TRACE_VERSION:
        if trace is None:
            if len(payload) < TRACE_EXT_BYTES:
                raise FrameError(
                    f"traced frame carries {len(payload)} body "
                    f"bytes past the header, too few for the "
                    f"{TRACE_EXT_BYTES}-byte trace context"
                )
            trace = _TRACE_EXT.unpack_from(payload)
            payload = payload[TRACE_EXT_BYTES:]
        trace_id, parent_span_id = trace
    try:
        frame_op = Op(op)
        frame_mode = Mode(mode)
        frame_status = Status(status)
    except ValueError as exc:
        raise FrameError(f"unknown field value: {exc}") from None
    return Frame(op=frame_op, mode=frame_mode, status=frame_status,
                 session_id=session_id, request_id=request_id,
                 payload=payload, trace_id=trace_id,
                 parent_span_id=parent_span_id)


def decode_body(body: bytes) -> Frame:
    """Decode a frame body (everything after the length prefix).

    Raises :class:`FrameError` on any malformation; every failure
    here is *recoverable* — the caller consumed exactly the framed
    byte count, so the stream stays aligned.
    """
    if len(body) < HEADER_BYTES:
        raise FrameError(
            f"frame body of {len(body)} bytes is shorter than the "
            f"{HEADER_BYTES}-byte header"
        )
    return decode_payload(body[:HEADER_BYTES], body[HEADER_BYTES:])


def decode_frame(data: bytes) -> Frame:
    """Decode one complete length-prefixed frame from ``data``.

    The byte count must match the prefix exactly; this is the
    non-streaming entry point the codec tests exercise.
    """
    if len(data) < 4:
        raise FrameError("frame shorter than the length prefix",
                         recoverable=False)
    body_len = int.from_bytes(data[:4], "big")
    if body_len > MAX_FRAME_BYTES:
        raise FrameError(
            f"length prefix {body_len} exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit",
            recoverable=False,
        )
    if len(data) - 4 != body_len:
        raise FrameError(
            f"frame truncated: prefix promises {body_len} bytes, "
            f"got {len(data) - 4}",
            recoverable=False,
        )
    return decode_body(data[4:])


async def read_frame(reader: asyncio.StreamReader,
                     timeout: Optional[float] = None) -> Optional[Frame]:
    """Read one frame from a stream; ``None`` on clean EOF.

    One ``timeout`` deadline bounds the idle wait for the length
    prefix, and a fresh one, started when the prefix arrives, bounds
    the rest of the frame (``None`` waits forever; callers on
    untrusted sockets pass a real number).  A peer dripping the frame
    out piece by piece thus gets ``timeout`` in total, not per read,
    and a frame that starts late in the idle window still gets its
    full ``timeout``.  EOF *between* frames returns ``None``; EOF inside
    a frame raises an unrecoverable :class:`FrameError`, as does an
    oversized length prefix — in both cases the stream cannot be
    re-synchronized and the connection must close.
    """
    async with asyncio.timeout(timeout) as deadline:
        try:
            prefix = await reader.readexactly(4)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean EOF on a frame boundary
            raise FrameError("connection closed mid-prefix",
                             recoverable=False) from None
        if timeout is not None:
            deadline.reschedule(
                asyncio.get_running_loop().time() + timeout)
        body_len = int.from_bytes(prefix, "big")
        if body_len > MAX_FRAME_BYTES:
            raise FrameError(
                f"length prefix {body_len} exceeds the "
                f"{MAX_FRAME_BYTES}-byte frame limit",
                recoverable=False,
            )
        try:
            if body_len < HEADER_BYTES:
                # Undersized frames go through decode_body so the
                # failure classifies exactly as before (recoverable:
                # the promised byte count was fully consumed).
                body = await reader.readexactly(body_len)
                return decode_body(body)
            header = await reader.readexactly(HEADER_BYTES)
            remaining = body_len - HEADER_BYTES
            trace: Optional[Tuple[int, int]] = None
            if header[2] == TRACE_VERSION \
                    and remaining >= TRACE_EXT_BYTES:
                # The trace context is read as its own 16-byte chunk
                # so the payload buffer below is still adopted
                # unsliced; an undersized traced frame skips this
                # read and classifies in decode_payload (recoverable
                # — fully consumed).
                ext = await reader.readexactly(TRACE_EXT_BYTES)
                trace = _TRACE_EXT.unpack(ext)
                remaining -= TRACE_EXT_BYTES
            payload = await reader.readexactly(remaining)
        except asyncio.IncompleteReadError:
            raise FrameError("connection closed mid-frame",
                             recoverable=False) from None
    # The length was parsed exactly once (above); the payload bytes
    # land in the frame as the very object readexactly produced.
    return decode_payload(header, payload, trace)


async def write_frame(writer: asyncio.StreamWriter, frame: Frame,
                      timeout: Optional[float] = None) -> None:
    """Serialize ``frame`` and drain the transport, bounded by
    ``timeout`` so a stalled peer cannot wedge the writer.

    Head and payload are written as two parts — the transport
    buffers them back to back, so no joined copy of the frame is
    ever built (see :func:`encode_frame_views`).
    """
    head, payload = encode_frame_views(frame)
    writer.write(head)
    if payload:
        writer.write(payload)
    async with asyncio.timeout(timeout):
        await writer.drain()


__all__ = [
    "CTR_NONCE_BYTES",
    "GCM_IV_BYTES",
    "GCM_TAG_BYTES",
    "HEADER_BYTES",
    "KEY_BYTES",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "MAX_PAYLOAD_BYTES",
    "RETRYABLE_STATUSES",
    "TRACE_EXT_BYTES",
    "TRACE_VERSION",
    "VERSION",
    "Frame",
    "FrameError",
    "Mode",
    "Op",
    "Status",
    "decode_body",
    "decode_frame",
    "decode_payload",
    "encode_frame",
    "encode_frame_views",
    "read_frame",
    "write_frame",
]
