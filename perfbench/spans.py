"""The benchmark's own spans: wrappers around each layer's calls.

Only traced passes install these.  Each wrapper records one span
``[name, start, end, span_id, parent_id, trace_id, amount]`` with
``time.perf_counter`` moments, which are CLOCK_MONOTONIC on Linux and
therefore comparable between the load process and the server.

- Parents come from a per-thread stack of open synchronous spans.
  Async wrappers (frame reads and writes) are leaves with no parent,
  because coroutines interleave on one thread.
- ``trace_id`` is the wire trace context the client puts on each
  frame.  The server-side frame read remembers it per payload object,
  and the wrapper on the server's crypto-op table hands it to every
  span opened on that executor thread.
- ``amount`` is the work a call carries: blocks for the engine,
  backend and GHASH, 1 for everything else.

A wrapper is installed where the caller looks the name up, which is
not always where it is defined: ``repro.serve.server`` binds
``read_frame``/``write_frame`` and the ECB entries of ``_CRYPTO_OPS``
at import, and ``repro.aes.gcm``/``modes`` bind ``AES128``.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = List[Any]
_now = time.perf_counter

#: Prefix of the line the traced server prints its spans on.
MARKER = "PERFBENCH-SPANS "


class Recorder:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: id(payload) -> (payload, trace id) of frames read but not
        #: yet executed; the payload reference keeps the id unique.
        self._pending: Dict[int, Tuple[bytes, int]] = {}

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float,
               trace: int = 0) -> None:
        """Record a span with no parent: a frame read or write, or an
        instant (accept, connect) when ``start == end``."""
        self.spans.append([name, start, end, next(self._ids), 0, trace,
                           1])

    def sync(self, name: str, fn: Callable[..., Any],
             amount: Optional[Callable[..., int]] = None
             ) -> Callable[..., Any]:
        """Wrap a synchronous call: one span per call, nested under
        the innermost open span of this thread."""
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            size = amount(*args, **kwargs) if amount else 1
            stack.append(span_id)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                self.spans.append([name, start, end, span_id, parent,
                                   getattr(local, "trace", 0), size])
        return wrapper

    def frame_io(self, name: str, fn: Callable[..., Any],
                 writes: bool, remember: bool = False
                 ) -> Callable[..., Any]:
        """Wrap ``read_frame``/``write_frame``; the trace id comes
        from the frame written or read."""
        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = _now()
            result = await fn(*args, **kwargs)
            end = _now()
            frame = args[1] if writes else result
            if frame is not None:
                self.record(name, start, end, frame.trace_id)
                if remember and frame.trace_id and \
                        frame.op.name in ("ENCRYPT", "DECRYPT"):
                    self._pending[id(frame.payload)] = (
                        frame.payload, frame.trace_id)
            return result
        return wrapper

    def op(self, fn: Callable[[bytes, bytes], bytes]
           ) -> Callable[[bytes, bytes], bytes]:
        """Wrap a crypto-op table entry: it runs on an executor thread
        and carries its request's trace id to the spans below it."""
        inner = self.sync("server.op", fn)

        @functools.wraps(fn)
        def wrapper(key: bytes, payload: bytes) -> bytes:
            entry = self._pending.pop(id(payload), None)
            trace = entry[1] if entry and entry[0] is payload else 0
            self._local.trace = trace
            try:
                return inner(key, payload)
            finally:
                self._local.trace = 0
        return wrapper


def _blocks(data: bytes) -> int:
    return len(data) // 16


def _ghash_blocks(h: int, parts) -> int:
    return sum(-(-len(part) // 16) for part in parts)


def install_server(recorder: Recorder) -> Dict[str, str]:
    """Wrap every serving-path layer in this (server) process.

    Returns what ``auto`` chose, for the run's provenance.
    """
    from repro.aes import cipher, gcm, ghash, modes
    from repro.perf import backends, engine, evp
    from repro.serve import server

    sync = recorder.sync

    # Frame codec and crypto-op dispatch, as the server looks them up.
    server.read_frame = recorder.frame_io(
        "server.read_frame", server.read_frame, writes=False,
        remember=True)
    server.write_frame = recorder.frame_io(
        "server.write_frame", server.write_frame, writes=True)
    original_accept = server.CryptoServer._on_connection

    async def on_connection(self, reader, writer):
        recorder.record("server.accept", _now(), _now())
        await original_accept(self, reader, writer)
    server.CryptoServer._on_connection = on_connection

    # Mode layer.  ECB entries of the op table were bound at import.
    for name in ("ecb_encrypt", "ecb_decrypt", "ctr_xcrypt"):
        setattr(modes, name, sync(f"modes.{name}",
                                  getattr(modes, name)))
    for name in ("gcm_encrypt", "gcm_decrypt"):
        setattr(gcm, name, sync(f"modes.{name}", getattr(gcm, name)))
    table = server._CRYPTO_OPS
    for pair, fn in list(table.items()):
        if fn.__name__ in ("ecb_encrypt", "ecb_decrypt"):
            fn = getattr(modes, fn.__name__)
        table[pair] = recorder.op(fn)

    # Engine and backend: instance attributes of the process-wide
    # engine, which the mode layer fetches on every call.
    eng = engine.default_engine()
    eng.xcrypt_ctr = sync("engine.xcrypt_ctr", eng.xcrypt_ctr)
    eng.keystream = sync("engine.keystream", eng.keystream)
    eng.gctr = sync("engine.gctr", eng.gctr)
    eng.encrypt_blocks = sync("engine.encrypt_blocks",
                              eng.encrypt_blocks,
                              lambda key, data: _blocks(data))
    backend = eng.backend
    backend.encrypt_blocks = sync("backend.encrypt_blocks",
                                  backend.encrypt_blocks,
                                  lambda key, data: _blocks(data))
    cache = getattr(backend, "cache", None)
    if cache is not None:
        cache.words = sync("backend.roundkey_lookup", cache.words)
    backends.expand_key = sync("backend.expand_key",
                               backends.expand_key)

    # GHASH: the provider object gcm fetches per call.  A digest under
    # a subkey with no live tables is a first digest.
    provider = ghash.default_provider()
    warm: set = set()
    digest = provider.digest
    first = sync("ghash.first_digest", digest, _ghash_blocks)
    later = sync("ghash.digest", digest, _ghash_blocks)

    def traced_digest(h, parts):
        if h in warm:
            return later(h, parts)
        warm.add(h)
        return first(h, parts)
    provider.digest = traced_digest
    forget = ghash.forget

    def traced_forget(h):
        warm.discard(h)
        forget(h)
    ghash.forget = traced_forget

    # Golden cipher, as gcm, modes and engine.forget_key find it.
    golden = _golden_class(cipher.AES128, sync)
    for module in (cipher, gcm, modes):
        module.AES128 = golden

    return {
        "backend": backend.name,
        "vectorized": str(bool(backend.vectorized)).lower(),
        "ghash_provider": provider.name,
        "evp_registered": str(evp.have_evp()).lower(),
    }


def _golden_class(base: type, sync: Callable[..., Any]) -> type:
    """``AES128`` with its key expansion and block calls timed."""
    init = sync("cipher.key_expansion", base.__init__)
    encrypt = sync("cipher.encrypt_block", base.encrypt_block)
    decrypt = sync("cipher.decrypt_block", base.decrypt_block)
    return type(base.__name__, (base,), {
        "__init__": init,
        "encrypt_block": encrypt,
        "decrypt_block": decrypt,
    })


def install_client(recorder: Recorder) -> Callable[[], None]:
    """Wrap the client's frame codec and connects (load process).

    Returns the function that puts the originals back, so untraced
    passes of the same process run unwrapped.
    """
    from repro.serve import client

    write, read = client.write_frame, client.read_frame
    connect = client.CryptoClient.connect

    async def traced_connect(self):
        recorder.record("client.connect", _now(), _now())
        await connect(self)

    def restore() -> None:
        client.write_frame, client.read_frame = write, read
        client.CryptoClient.connect = connect

    client.write_frame = recorder.frame_io("client.write_frame", write,
                                           writes=True)
    client.read_frame = recorder.frame_io("client.read_frame", read,
                                          writes=False)
    client.CryptoClient.connect = traced_connect
    return restore


def program_spans(events: List[Dict[str, Any]]) -> List[Span]:
    """The program's ``serve.*`` and client ``request`` trace events
    (``repro.obs.tracing``) as spans.

    The tracer stamps microseconds from its private epoch; the
    ``perfbench.epoch`` marker, recorded at a known ``perf_counter``
    moment, gives that epoch back.
    """
    marker = next(e for e in events if e["name"] == "perfbench.epoch")
    origin = marker["args"]["at"] - marker["ts"] / 1e6
    spans: List[Span] = []
    for event in events:
        if event.get("ph") != "X" or not (
                event["name"].startswith("serve.")
                or event["name"] == "request"):
            continue
        args = event.get("args") or {}
        trace = int(args.get("trace_id", "0"), 16)
        start = origin + event["ts"] / 1e6
        spans.append([event["name"], start, start + event["dur"] / 1e6,
                      0, 0, trace, 1])
    return spans


def mark_epoch(tracer: Any) -> None:
    """Record the marker :func:`program_spans` aligns by."""
    at = _now()
    tracer.record_span("perfbench.epoch", at, at, at=at)
