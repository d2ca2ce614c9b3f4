"""The batch throughput engine: one interface over every backend.

:class:`BatchEngine` is the software counterpart of the paper's IP
wrapper: the caller hands it a key and a buffer, and the engine picks
how the blocks actually get processed — which backend runs the T-table
math, and whether the buffer is sharded across worker threads with
``concurrent.futures``.

Only the *parallelizable* primitives live here: ECB in both
directions, CTR keystream generation, and GCTR (GCM's 32-bit-counter
variant).  Each transforms an independent block stream, so a buffer
can be cut into contiguous shards and processed concurrently.  The
feedback modes (CBC, CFB) are deliberately absent: block *i* needs
ciphertext *i - 1*, so no amount of batching hides per-block latency
— in hardware terms, the paper's 50-cycle block latency is the whole
story for a chained mode, and :mod:`repro.aes.modes` keeps those
loops serial.

Hot-swapping backends behind this one interface mirrors the dynamic-
reconfiguration direction of the related FPGA work: the caller's code
does not change when the implementation under it does.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Union

from repro.obs.metrics import global_registry
from repro.obs.tracing import trace_span
from repro.perf.backends import Backend, get_backend

BLOCK = 16

#: Below this many blocks a shard is not worth a thread hop.
MIN_SHARD_BLOCKS = 256

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
_SHARD_SECONDS = _REGISTRY.histogram(
    "repro_engine_shard_seconds",
    "Wall-clock seconds spent encrypting one shard",
    labels=("backend",),
)
_WORKERS_EFFECTIVE = _REGISTRY.gauge(
    "repro_engine_workers_effective",
    "Effective worker count of the last sharded call",
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

    ``backend`` is a registry name (``baseline`` / ``ttable`` /
    ``sliced`` / ``auto``) or a :class:`~repro.perf.backends.Backend`
    instance.  ``workers`` > 1 shards large buffers across a thread
    pool; the default of 1 keeps everything on the calling thread
    (CPython's GIL serializes the pure-Python backends anyway — the
    sharding pays off for vectorized or future native backends, and
    the shard plan is identical either way, so results never depend
    on the worker count).
    """

    def __init__(self, backend: Union[str, Backend] = "auto",
                 workers: int = 1):
        if isinstance(backend, str):
            backend = get_backend(backend)
        self._backend = backend
        self._workers = max(1, int(workers))
        self._effective_workers = 1
        _BACKEND_SELECTED.labels(backend=backend.name).inc()

    @property
    def backend(self) -> Backend:
        """The backend currently doing the block math."""
        return self._backend

    @property
    def workers(self) -> int:
        """Configured shard ceiling for the parallelizable primitives."""
        return self._workers

    @property
    def effective_workers(self) -> int:
        """Workers the last call actually used.

        The shard plan can produce fewer shards than the configured
        ``workers`` (small buffers shard less); the executor is sized
        to the shards, never the configured ceiling, and this property
        (plus the ``repro_engine_workers_effective`` gauge) reports
        what really ran.
        """
        return self._effective_workers

    # ------------------------------------------------------------ ECB
    def encrypt_blocks(self, key: bytes, data: bytes) -> bytes:
        """Encrypt an aligned buffer block-by-block (ECB direction)."""
        return self._blocks(_ENCRYPT, key, data)

    def decrypt_blocks(self, key: bytes, data: bytes) -> bytes:
        """Decrypt an aligned buffer block-by-block (inverse cipher)."""
        return self._blocks(_DECRYPT, key, data)

    def _blocks(self, direction: str, key: bytes, data: bytes) -> bytes:
        """Validate, count, trace and shard one ECB-direction call."""
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
        _OPS_ECB[direction].inc()
        _BLOCKS.inc(len(data) // BLOCK)
        shards = self._shards(data)
        effective = min(self._workers, len(shards))
        self._effective_workers = effective
        _WORKERS_EFFECTIVE.set(effective)
        run = getattr(self._backend, direction)

        def one_shard(shard: bytes) -> bytes:
            start = time.perf_counter()
            out = run(key, shard)
            _SHARD_SECONDS.labels(backend=self._backend.name).observe(
                time.perf_counter() - start
            )
            return out

        with trace_span(f"engine.{direction}",
                        backend=self._backend.name,
                        blocks=len(data) // BLOCK,
                        shards=len(shards), workers=effective):
            if len(shards) == 1:
                return one_shard(data)
            with ThreadPoolExecutor(max_workers=effective) as pool:
                return b"".join(pool.map(one_shard, shards))

    def xcrypt_ecb(self, key: bytes, data: bytes) -> bytes:
        """ECB encryption over the batch path (see
        :meth:`decrypt_blocks` for the inverse direction)."""
        return self.encrypt_blocks(key, data)

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

    # ------------------------------------------------------- sharding
    def _shards(self, data: bytes) -> List[bytes]:
        """Cut an aligned buffer into contiguous worker shards.

        The plan depends only on the buffer size and the configured
        worker count — never on timing — so output ordering (and thus
        the ciphertext) is deterministic.
        """
        blocks = len(data) // BLOCK
        if self._workers == 1 or blocks < 2 * MIN_SHARD_BLOCKS:
            return [data]
        shard_count = min(self._workers,
                          max(1, blocks // MIN_SHARD_BLOCKS))
        per_shard = -(-blocks // shard_count)  # ceil
        step = per_shard * BLOCK
        return [data[i:i + step] for i in range(0, len(data), step)]


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

    Auto-selects the sliced backend (numpy-vectorized when available)
    with serial sharding — the fastest configuration that needs no
    tuning.  Callers wanting a specific backend or worker count build
    their own :class:`BatchEngine`.
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
    not merely dropped.  The serve layer calls this on session
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
