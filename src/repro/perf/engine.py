"""The batch throughput engine: one interface over every backend.

:class:`BatchEngine` is the software counterpart of the paper's IP
wrapper: the caller hands it a key and a buffer, and the backend
behind it processes every block in one call on the calling thread.

Only the *batchable* primitives live here: ECB in both directions,
CTR keystream generation, and GCTR (GCM's 32-bit-counter variant).
Each transforms an independent block stream, so a whole buffer goes
to the backend as one batch.  The feedback modes (CBC, CFB) are
deliberately absent: block *i* needs ciphertext *i - 1*, so no
amount of batching hides per-block latency
— in hardware terms, the paper's 50-cycle block latency is the whole
story for a chained mode, and :mod:`repro.aes.modes` keeps those
loops serial.

Hot-swapping backends behind this one interface mirrors the dynamic-
reconfiguration direction of the related FPGA work: the caller's code
does not change when the implementation under it does.
"""

from __future__ import annotations

import time
from typing import Optional, Union

from repro.obs.metrics import global_registry
from repro.obs.tracing import trace_span
from repro.perf.backends import Backend, get_backend

BLOCK = 16

# Engine instrumentation: children are bound once at import so the
# per-call cost on the hot path is a dict-free method call.
_REGISTRY = global_registry()
_OPS = _REGISTRY.counter(
    "repro_engine_ops_total",
    "Batch-engine primitive invocations",
    labels=("primitive",),
)
_BLOCKS = _REGISTRY.counter(
    "repro_engine_blocks_total",
    "16-byte blocks processed by the batch engine",
)
_CALL_SECONDS = _REGISTRY.histogram(
    "repro_engine_shard_seconds",
    "Wall-clock seconds spent in one backend call",
    labels=("backend",),
)
_BACKEND_SELECTED = _REGISTRY.counter(
    "repro_engine_backend_selected_total",
    "Backend choices made at engine construction",
    labels=("backend",),
)
_OPS_KEYSTREAM = _OPS.labels(primitive="keystream")
_OPS_GCTR = _OPS.labels(primitive="gctr")


#: Backend method names of the two ECB directions; they double as the
#: ``primitive`` label and the trace-span suffix.
_ENCRYPT = "encrypt_blocks"
_DECRYPT = "decrypt_blocks"
_OPS_ECB = {direction: _OPS.labels(primitive=direction)
            for direction in (_ENCRYPT, _DECRYPT)}


class BackendMismatch(ValueError):
    """A backend disagreed bit-for-bit with the golden model."""


class BatchEngine:
    """Batched block-cipher work over a pluggable backend.

    ``backend`` is a registry name (``baseline`` / ``sliced`` /
    ``evp`` / ``auto``) or a :class:`~repro.perf.backends.Backend`
    instance.  Every call runs on the calling thread; callers that
    want concurrency (the serve layer's executor) run several engine
    calls at once instead.
    """

    def __init__(self, backend: Union[str, Backend] = "auto"):
        if isinstance(backend, str):
            backend = get_backend(backend)
        self._backend = backend
        _BACKEND_SELECTED.labels(backend=backend.name).inc()

    @property
    def backend(self) -> Backend:
        """The backend currently doing the block math."""
        return self._backend

    # ------------------------------------------------------------ ECB
    def encrypt_blocks(self, key: bytes, data: bytes) -> bytes:
        """Encrypt an aligned buffer block-by-block (ECB direction)."""
        return self._blocks(_ENCRYPT, key, data)

    def decrypt_blocks(self, key: bytes, data: bytes) -> bytes:
        """Decrypt an aligned buffer block-by-block (inverse cipher)."""
        return self._blocks(_DECRYPT, key, data)

    def _blocks(self, direction: str, key: bytes, data: bytes) -> bytes:
        """Validate, count, trace and time one ECB-direction call."""
        key = bytes(key)
        if len(key) != BLOCK:
            raise ValueError(
                f"AES-128 key must be {BLOCK} bytes, got {len(key)}"
            )
        data = bytes(data)
        if len(data) % BLOCK:
            raise ValueError(
                f"data must be a multiple of {BLOCK} bytes"
            )
        if not data:
            return b""
        blocks = len(data) // BLOCK
        _OPS_ECB[direction].inc()
        _BLOCKS.inc(blocks)
        backend = self._backend
        with trace_span(f"engine.{direction}", backend=backend.name,
                        blocks=blocks):
            start = time.perf_counter()
            out = getattr(backend, direction)(key, data)
            _CALL_SECONDS.labels(backend=backend.name).observe(
                time.perf_counter() - start
            )
        return out

    # ------------------------------------------------------------ CTR
    def keystream(self, key: bytes, nonce: bytes, blocks: int,
                  initial: int = 0) -> bytes:
        """CTR keystream: E(nonce || counter), 64-bit counter.

        Matches :func:`repro.aes.modes.ctr_keystream`: an 8-byte
        nonce, the counter big-endian in the low 8 bytes, starting at
        ``initial``.
        """
        nonce = bytes(nonce)
        if len(nonce) != 8:
            raise ValueError("CTR nonce must be 8 bytes")
        if blocks < 0:
            raise ValueError("block count must be non-negative")
        if blocks == 0:
            return b""
        _OPS_KEYSTREAM.inc()
        counters = b"".join(
            nonce + counter.to_bytes(8, "big")
            for counter in range(initial, initial + blocks)
        )
        return self.encrypt_blocks(key, counters)

    def xcrypt_ctr(self, key: bytes, nonce: bytes,
                   data: bytes) -> bytes:
        """CTR encrypt/decrypt (symmetric): data xor keystream."""
        data = bytes(data)
        blocks = (len(data) + BLOCK - 1) // BLOCK
        stream = self.keystream(key, nonce, blocks)
        return _xor_bytes(data, stream[:len(data)])

    # ----------------------------------------------------------- GCTR
    def gctr(self, key: bytes, icb: bytes, data: bytes) -> bytes:
        """SP 800-38D GCTR: 32-bit increment of the low counter word.

        Includes the modulo-2^32 counter wrap of ``inc32`` — which
        the GCM entry points make unreachable by enforcing the
        plaintext length limit before any counter is consumed.
        """
        icb = bytes(icb)
        if len(icb) != BLOCK:
            raise ValueError(f"ICB must be {BLOCK} bytes")
        data = bytes(data)
        if not data:
            return b""
        _OPS_GCTR.inc()
        blocks = (len(data) + BLOCK - 1) // BLOCK
        head, start = icb[:12], int.from_bytes(icb[12:], "big")
        counters = b"".join(
            head + ((start + i) & 0xFFFFFFFF).to_bytes(4, "big")
            for i in range(blocks)
        )
        stream = self.encrypt_blocks(key, counters)
        return _xor_bytes(data, stream[:len(data)])


def _xor_bytes(data: bytes, stream: bytes) -> bytes:
    """XOR two equal-length buffers via one bignum op (C speed)."""
    if len(data) != len(stream):
        raise ValueError("XOR operands must be the same length")
    value = int.from_bytes(data, "little") ^ \
        int.from_bytes(stream, "little")
    return value.to_bytes(len(data), "little")


_DEFAULT: Optional[BatchEngine] = None


def default_engine() -> BatchEngine:
    """The process-wide engine the mode layer routes bulk work through.

    Auto-selects the sliced backend (numpy-vectorized for large
    batches when available) — the fastest configuration that needs
    no tuning.  Callers wanting a specific backend build their own
    :class:`BatchEngine`.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = BatchEngine()
    return _DEFAULT


def forget_key(key: bytes) -> None:
    """Key-material hygiene: zeroize per-key caches for ``key``.

    Derives the key's GHASH subkey through the default engine, then
    drops the expanded schedules from the engine's
    :class:`~repro.perf.backends.RoundKeyCache` and the GHASH byte
    tables derived from the subkey — both are overwritten with zeros,
    not merely dropped, as soon as no other session's request is
    still reading them.  The serve layer calls this on session
    teardown; callers with private engines wipe their own backend's
    cache.

    Best-effort by design: a malformed key has nothing cached, and
    hygiene on teardown must never raise into connection cleanup.
    """
    engine = default_engine()
    try:
        subkey = int.from_bytes(
            engine.encrypt_blocks(key, bytes(BLOCK)), "big")
    except (TypeError, ValueError):
        return
    cache = getattr(engine.backend, "cache", None)
    if cache is not None:
        cache.discard(key)
    from repro.aes import ghash as _ghash
    _ghash.forget(subkey)
