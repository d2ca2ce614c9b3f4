"""Bulk block-cipher backends for the batch throughput engine.

A backend turns ``(key, many 16-byte blocks)`` into ciphertext — or,
through ``decrypt_blocks``, back into plaintext — in one call.  Three
are provided, in increasing order of software ambition:

``baseline``
    The straightforward model, exactly as the mode layer used it
    before the engine existed: construct :class:`repro.aes.cipher.
    AES128` (one key expansion per call) and loop block by block.
    This is the reference every other backend must match bit-for-bit,
    and the denominator of every speedup the bench reports.

``ttable``
    The per-block T-table path (:class:`repro.aes.fast.FastAES128`):
    fused round tables, still one Python method call per block.  It
    decrypts through the sliced pure-Python inverse loop.

``sliced``
    The batch backend this module exists for.  Round keys come from a
    shared :class:`RoundKeyCache` (an LRU keyed by the raw key), so a
    hot key pays for expansion once across calls — the software
    analogue of the paper's ``wr_key``-once-stream-many usage model.
    The state is held *word-sliced*: four parallel vectors of 32-bit
    column words for the whole batch, walked round-by-round so the
    table lookups run in a tight inner loop over all blocks at once.
    Batches of at least :data:`_NP_MIN_BLOCKS` blocks run as numpy
    ``uint32`` gathers when numpy is importable; smaller ones (and
    every batch where numpy is absent) run a pure-Python sliced loop.
    numpy is detected, never required.

Decryption uses the FIPS-197 §5.3.5 *equivalent inverse cipher*: the
same loop as encryption over inverse tables Td0..Td3, with
InvMixColumns folded into round keys 1..9 — the software form of the
paper's decrypt-only and both variants, which reuse one datapath with
inverse tables.
"""

from __future__ import annotations

import struct as _struct
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.aes.cipher import AES128
from repro.aes.constants import INV_SBOX, SBOX
from repro.aes.fast import T0, T1, T2, T3, FastAES128
from repro.aes.key_schedule import expand_key
from repro.gf.galois import gf_mul

try:  # optional vectorization — detected, never required
    import numpy as _np
except ImportError:  # pragma: no cover - exercised where numpy absent
    _np = None

BLOCK = 16

#: AES-128 round count; the schedule is 4 * (_ROUNDS + 1) words.
_ROUNDS = 10

#: Below this many blocks the sliced backend runs its pure-Python loop
#: even when numpy is present: numpy's fixed cost per call (array
#: conversions plus ~40 small gathers per round pass) outweighs the
#: gathers' per-block saving on short batches.  Measured on a 2-vCPU
#: x86-64 host (CPython 3.11, numpy 2.4), pure-Python time over numpy
#: time per call, medians of 15 interleaved reps, both directions:
#: 8 blocks 0.24-0.26, 32 blocks 0.89-0.97, 36 blocks 0.99-1.09,
#: 64 blocks 1.65-1.85 (numpy ≈400-740 µs a call as the host's speed
#: drifts).  The loops cross at 32-36 blocks.
_NP_MIN_BLOCKS = 32


def have_numpy() -> bool:
    """True when the sliced backend will vectorize with numpy."""
    return _np is not None


def numpy_version() -> Optional[str]:
    """The detected numpy version, or ``None`` when absent."""
    return None if _np is None else str(_np.__version__)


def _rot8(word: int) -> int:
    return ((word >> 8) | (word << 24)) & 0xFFFFFFFF


def _build_inverse_tables() -> Tuple[Tuple[int, ...], ...]:
    """Td0..Td3, built the way :mod:`repro.aes.fast` builds T0..T3.

    Td0[x] = (0e·Si[x], 09·Si[x], 0d·Si[x], 0b·Si[x]) packed
    big-endian — InvSubBytes fused with one InvMixColumns column;
    Td1..Td3 are byte rotations of Td0.
    """
    td0 = tuple(
        (gf_mul(s, 14) << 24) | (gf_mul(s, 9) << 16)
        | (gf_mul(s, 13) << 8) | gf_mul(s, 11)
        for s in INV_SBOX
    )
    td1 = tuple(_rot8(w) for w in td0)
    td2 = tuple(_rot8(w) for w in td1)
    td3 = tuple(_rot8(w) for w in td2)
    return td0, td1, td2, td3


TD0, TD1, TD2, TD3 = _build_inverse_tables()


class _Direction:
    """Tables and column order one sliced loop runs with.

    The loops hold a block's four column words in ``order``.  The
    inverse cipher's InvShiftRows is ShiftRows mirrored, so holding
    its columns as (0, 3, 2, 1) lets the inverse run the forward
    loop body unchanged; the order is its own inverse, so it also
    maps the loop's words back to columns on output.
    """

    __slots__ = ("tables", "order", "_np_tables")

    def __init__(self, tables: Tuple[Tuple[int, ...], ...],
                 order: Tuple[int, int, int, int]) -> None:
        self.tables = tables
        self.order = order
        self._np_tables = None

    def np_tables(self):
        """The tables as numpy ``uint32`` arrays, built on first use."""
        if self._np_tables is None:
            self._np_tables = tuple(
                _np.array(t, dtype=_np.uint32) for t in self.tables)
        return self._np_tables


_FORWARD = _Direction((T0, T1, T2, T3, SBOX), (0, 1, 2, 3))
_INVERSE = _Direction((TD0, TD1, TD2, TD3, INV_SBOX), (0, 3, 2, 1))


def _inv_mix_word(word: int) -> int:
    """InvMixColumns of one column word: Td·[S[x]] cancels InvSubBytes."""
    return (TD0[SBOX[word >> 24]] ^ TD1[SBOX[(word >> 16) & 0xFF]]
            ^ TD2[SBOX[(word >> 8) & 0xFF]] ^ TD3[SBOX[word & 0xFF]])


def inverse_schedule(schedule: Sequence[int]) -> List[int]:
    """The equivalent inverse cipher's 44 round-key words.

    FIPS-197 §5.3.5: the encryption round keys in reverse round
    order, with InvMixColumns applied to rounds 1..9 — laid out in
    the inverse loop's column order so it indexes them exactly as
    the forward loop indexes the encryption schedule.
    """
    out: List[int] = []
    order = _INVERSE.order
    for rnd in range(_ROUNDS, -1, -1):
        words = schedule[4 * rnd:4 * rnd + 4]
        if 0 < rnd < _ROUNDS:
            words = [_inv_mix_word(w) for w in words]
        out.extend(words[j] for j in order)
    return out


#: Packed layout of one cached schedule: 44 big-endian 32-bit words.
_SCHEDULE = _struct.Struct(f">{4 * (_ROUNDS + 1)}I")


class RoundKeyCache:
    """LRU cache of expanded AES-128 schedules, keyed by the raw key.

    The paper's device expands on the fly precisely to avoid storing
    schedules; software has the opposite economics — expansion is ~5x
    the cost of one T-table block, so a streaming channel that
    re-keys rarely should pay it once.  Capacity is bounded so a
    multi-tenant server cannot grow the cache without limit.  Each
    entry holds both directions: the encryption schedule and the
    equivalent inverse cipher's (:func:`inverse_schedule`).

    Hygiene: each entry lives in a private ``bytearray`` that is
    **overwritten with zeros** when it is evicted, discarded or
    cleared — derived key material never waits in freed memory for
    the allocator to hand it to someone else.  ``words`` unpacks a
    fresh tuple per call, so callers never hold a reference into the
    wipeable buffer.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self._capacity = capacity
        self._entries: "OrderedDict[bytes, bytearray]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        """Maximum number of cached schedules."""
        return self._capacity

    @staticmethod
    def _wipe(packed: bytearray) -> None:
        packed[:] = bytes(len(packed))

    def words(self, key: bytes, inverse: bool = False
              ) -> Tuple[int, ...]:
        """The 44-word schedule for ``key``, expanding on first use;
        ``inverse=True`` gives the decryption schedule."""
        key = bytes(key)
        if len(key) != BLOCK:
            raise ValueError(
                f"AES-128 key must be {BLOCK} bytes, got {len(key)}"
            )
        offset = _SCHEDULE.size if inverse else 0
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return _SCHEDULE.unpack_from(entry, offset)
        schedule = expand_key(key, _ROUNDS)
        packed = bytearray(2 * _SCHEDULE.size)
        _SCHEDULE.pack_into(packed, 0, *schedule)
        _SCHEDULE.pack_into(packed, _SCHEDULE.size,
                            *inverse_schedule(schedule))
        self._entries[key] = packed
        if len(self._entries) > self._capacity:
            _, evicted = self._entries.popitem(last=False)
            self._wipe(evicted)
        return _SCHEDULE.unpack_from(packed, offset)

    def discard(self, key: bytes) -> None:
        """Zeroize and drop one key's schedules, if cached.

        The serve layer calls this (via ``engine.forget_key``) on
        session teardown so a closed session's schedules do not
        outlive it in the process-wide cache.
        """
        entry = self._entries.pop(bytes(key), None)
        if entry is not None:
            self._wipe(entry)

    def clear(self) -> None:
        """Zeroize and drop every cached schedule (hygiene hook)."""
        for entry in self._entries.values():
            self._wipe(entry)
        self._entries.clear()


class Backend:
    """Interface every bulk backend implements.

    ``encrypt_blocks`` and ``decrypt_blocks`` receive validated input
    — a 16-byte key and a 16-byte-aligned buffer — and return the ECB
    encryption (decryption) of every block.  Engines layer counter
    generation, XOR and sharding on top.
    """

    #: Registry/bench name; subclasses override.
    name = "abstract"

    @property
    def vectorized(self) -> bool:
        """True when the hot loop runs vectorized (numpy)."""
        return False

    def encrypt_blocks(self, key: bytes, data: bytes) -> bytes:
        """Encrypt every 16-byte block of ``data`` under ``key``."""
        raise NotImplementedError

    def decrypt_blocks(self, key: bytes, data: bytes) -> bytes:
        """Decrypt every 16-byte block of ``data`` under ``key``."""
        raise NotImplementedError


class BaselineBackend(Backend):
    """The pre-engine software path: per-call expansion, per-block loop."""

    name = "baseline"

    def encrypt_blocks(self, key: bytes, data: bytes) -> bytes:
        aes = AES128(key)
        return b"".join(
            aes.encrypt_block(data[i:i + BLOCK])
            for i in range(0, len(data), BLOCK)
        )

    def decrypt_blocks(self, key: bytes, data: bytes) -> bytes:
        aes = AES128(key)
        return b"".join(
            aes.decrypt_block(data[i:i + BLOCK])
            for i in range(0, len(data), BLOCK)
        )


class TTableBackend(Backend):
    """Per-block T-table path (:class:`repro.aes.fast.FastAES128`).

    Decryption reuses the sliced pure-Python inverse loop with a
    schedule expanded per call — no second inverse table set.
    """

    name = "ttable"

    def encrypt_blocks(self, key: bytes, data: bytes) -> bytes:
        return FastAES128(key).encrypt_ecb(data)

    def decrypt_blocks(self, key: bytes, data: bytes) -> bytes:
        if len(key) != BLOCK:
            raise ValueError(
                f"AES-128 key must be {BLOCK} bytes, got {len(key)}")
        if not data:
            return b""
        schedule = inverse_schedule(expand_key(bytes(key), _ROUNDS))
        return _sliced_python(schedule, data, _INVERSE)


class SlicedBackend(Backend):
    """Word-sliced batch T-table backend with an LRU round-key cache.

    ``vectorize=None`` (the default) auto-detects numpy;
    ``vectorize=False`` forces the pure-Python sliced loop (the tests
    run both against the golden model); ``vectorize=True`` demands
    numpy and raises if it is missing.  Either way, batches under
    :data:`_NP_MIN_BLOCKS` blocks run the pure-Python loop.
    """

    name = "sliced"

    def __init__(self, cache: Optional[RoundKeyCache] = None,
                 vectorize: Optional[bool] = None):
        if vectorize is None:
            vectorize = _np is not None
        if vectorize and _np is None:
            raise RuntimeError("numpy is not available; "
                               "use vectorize=False")
        self._vectorize = bool(vectorize)
        self._cache = cache if cache is not None else RoundKeyCache()

    @property
    def cache(self) -> RoundKeyCache:
        """The round-key LRU this backend amortizes expansion through."""
        return self._cache

    @property
    def vectorized(self) -> bool:
        """True when large batches take the numpy gather path."""
        return self._vectorize

    def encrypt_blocks(self, key: bytes, data: bytes) -> bytes:
        if not data:
            return b""
        return self._run(self._cache.words(key), data, _FORWARD)

    def decrypt_blocks(self, key: bytes, data: bytes) -> bytes:
        if not data:
            return b""
        return self._run(self._cache.words(key, inverse=True), data,
                         _INVERSE)

    def _run(self, rk: Sequence[int], data: bytes,
             direction: _Direction) -> bytes:
        if self._vectorize and len(data) >= _NP_MIN_BLOCKS * BLOCK:
            return _sliced_numpy(rk, data, direction)
        return _sliced_python(rk, data, direction)


def _sliced_python(rk: Sequence[int], data: bytes,
                   direction: _Direction) -> bytes:
    """Pure-Python word-sliced batch: rounds outer, blocks inner."""
    t0, t1, t2, t3, sbox = direction.tables
    c0, c1, c2, c3 = direction.order
    k0, k1, k2, k3 = rk[0], rk[1], rk[2], rk[3]
    blocks = list(_struct.iter_unpack(">4I", data))
    s0 = [w[c0] ^ k0 for w in blocks]
    s1 = [w[c1] ^ k1 for w in blocks]
    s2 = [w[c2] ^ k2 for w in blocks]
    s3 = [w[c3] ^ k3 for w in blocks]

    for rnd in range(1, _ROUNDS):
        base = 4 * rnd
        k0, k1, k2, k3 = rk[base], rk[base + 1], rk[base + 2], \
            rk[base + 3]
        n0: List[int] = []
        n1: List[int] = []
        n2: List[int] = []
        n3: List[int] = []
        for a, b, c, d in zip(s0, s1, s2, s3):
            n0.append(t0[a >> 24] ^ t1[(b >> 16) & 0xFF]
                      ^ t2[(c >> 8) & 0xFF] ^ t3[d & 0xFF] ^ k0)
            n1.append(t0[b >> 24] ^ t1[(c >> 16) & 0xFF]
                      ^ t2[(d >> 8) & 0xFF] ^ t3[a & 0xFF] ^ k1)
            n2.append(t0[c >> 24] ^ t1[(d >> 16) & 0xFF]
                      ^ t2[(a >> 8) & 0xFF] ^ t3[b & 0xFF] ^ k2)
            n3.append(t0[d >> 24] ^ t1[(a >> 16) & 0xFF]
                      ^ t2[(b >> 8) & 0xFF] ^ t3[c & 0xFF] ^ k3)
        s0, s1, s2, s3 = n0, n1, n2, n3

    k0, k1, k2, k3 = rk[40], rk[41], rk[42], rk[43]
    out: List[int] = []
    for a, b, c, d in zip(s0, s1, s2, s3):
        words = (
            ((sbox[a >> 24] << 24) | (sbox[(b >> 16) & 0xFF] << 16)
             | (sbox[(c >> 8) & 0xFF] << 8) | sbox[d & 0xFF]) ^ k0,
            ((sbox[b >> 24] << 24) | (sbox[(c >> 16) & 0xFF] << 16)
             | (sbox[(d >> 8) & 0xFF] << 8) | sbox[a & 0xFF]) ^ k1,
            ((sbox[c >> 24] << 24) | (sbox[(d >> 16) & 0xFF] << 16)
             | (sbox[(a >> 8) & 0xFF] << 8) | sbox[b & 0xFF]) ^ k2,
            ((sbox[d >> 24] << 24) | (sbox[(a >> 16) & 0xFF] << 16)
             | (sbox[(b >> 8) & 0xFF] << 8) | sbox[c & 0xFF]) ^ k3,
        )
        out.extend((words[c0], words[c1], words[c2], words[c3]))
    return _struct.pack(f">{len(out)}I", *out)


def _sliced_numpy(rk: Sequence[int], data: bytes,
                  direction: _Direction) -> bytes:
    """Vectorized word-sliced batch: uint32 gathers over all blocks."""
    t0, t1, t2, t3, sbox = direction.np_tables()
    c0, c1, c2, c3 = direction.order
    state = _np.frombuffer(data, dtype=">u4").reshape(-1, 4)
    state = state.astype(_np.uint32)
    s0 = state[:, c0] ^ _np.uint32(rk[0])
    s1 = state[:, c1] ^ _np.uint32(rk[1])
    s2 = state[:, c2] ^ _np.uint32(rk[2])
    s3 = state[:, c3] ^ _np.uint32(rk[3])

    mask = _np.uint32(0xFF)
    for rnd in range(1, _ROUNDS):
        base = 4 * rnd
        n0 = (t0[s0 >> 24] ^ t1[(s1 >> 16) & mask]
              ^ t2[(s2 >> 8) & mask] ^ t3[s3 & mask]
              ^ _np.uint32(rk[base]))
        n1 = (t0[s1 >> 24] ^ t1[(s2 >> 16) & mask]
              ^ t2[(s3 >> 8) & mask] ^ t3[s0 & mask]
              ^ _np.uint32(rk[base + 1]))
        n2 = (t0[s2 >> 24] ^ t1[(s3 >> 16) & mask]
              ^ t2[(s0 >> 8) & mask] ^ t3[s1 & mask]
              ^ _np.uint32(rk[base + 2]))
        n3 = (t0[s3 >> 24] ^ t1[(s0 >> 16) & mask]
              ^ t2[(s1 >> 8) & mask] ^ t3[s2 & mask]
              ^ _np.uint32(rk[base + 3]))
        s0, s1, s2, s3 = n0, n1, n2, n3

    def final(a, b, c, d, word):
        return ((sbox[a >> 24] << _np.uint32(24))
                | (sbox[(b >> 16) & mask] << _np.uint32(16))
                | (sbox[(c >> 8) & mask] << _np.uint32(8))
                | sbox[d & mask]) ^ _np.uint32(word)

    out = _np.empty((len(s0), 4), dtype=_np.uint32)
    out[:, c0] = final(s0, s1, s2, s3, rk[40])
    out[:, c1] = final(s1, s2, s3, s0, rk[41])
    out[:, c2] = final(s2, s3, s0, s1, rk[42])
    out[:, c3] = final(s3, s0, s1, s2, rk[43])
    return out.astype(">u4").tobytes()


def available_backends() -> Dict[str, Backend]:
    """Fresh instances of every backend, keyed by registry name."""
    backends: Dict[str, Backend] = {
        BaselineBackend.name: BaselineBackend(),
        TTableBackend.name: TTableBackend(),
        SlicedBackend.name: SlicedBackend(),
    }
    # The OpenSSL-EVP ceiling registers only where a libcrypto passes
    # its load-time FIPS-197 self-test; ``auto`` still means sliced —
    # the ceiling is opt-in, not a silent default.
    from repro.perf.evp import EvpBackend, have_evp
    if have_evp():
        backends[EvpBackend.name] = EvpBackend()
    return backends


def get_backend(name: str) -> Backend:
    """Instantiate a backend by registry name (``auto`` -> sliced)."""
    if name == "auto":
        return SlicedBackend()
    backends = available_backends()
    if name not in backends:
        if name == "evp":
            raise ValueError(
                "backend 'evp' needs a loadable OpenSSL libcrypto, "
                "which is unavailable here (try 'sliced')")
        known = ", ".join(sorted(backends))
        raise ValueError(f"unknown backend {name!r}; "
                         f"choose from {known} (or 'auto')")
    return backends[name]
