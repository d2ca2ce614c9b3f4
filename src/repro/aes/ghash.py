"""GHASH: one digest whose fold is chosen by input size.

GHASH is multiplication in GF(2^128) with GCM's reflected bit order
(SP 800-38D §6.3): field elements live in 128-bit ints whose bit 127
is the coefficient of x^0, and the reduction polynomial
x^128 + x^7 + x^2 + x + 1 reflects to :data:`_R` acting on the low
end of the integer.  :mod:`repro.aes.gcm` keeps a table-free
``_ghash`` as the golden model; the digest here is cross-checked
against it (see ``tests/aes/test_ghash.py`` and the bench equivalence
gate).

:meth:`Ghash.digest` folds each part one of two ways:

- below :data:`_VECTOR_MIN_BLOCKS` blocks, or without numpy, with
  per-subkey byte tables ``T[j][v] = (v · x^(8j)) · H``, so a block
  multiply is 16 lookups and 16 xors instead of 128 shift/xor rounds;
- at or above it, with numpy lanes: :data:`VECTOR_LANES` interleaved
  Horner accumulators each step by ``H^W`` (a batched table multiply
  over uint64 hi/lo halves), folded at the end by ``W`` scalar
  multiplies with ``H``.

The tables live in one :class:`~repro.perf.keycache.ZeroizingLRU` per
process, keyed by subkey: bounded, locked, zeroized when dropped, and
never wiped while a digest is still reading them.

A *message* is a sequence of byte parts; each part is padded to the
16-byte block boundary independently (exactly GCM's layout: padded
AAD, padded ciphertext, lengths block), so callers never build the
fully padded concatenation.
"""

from __future__ import annotations

import threading
from typing import Any, List, Optional, Sequence, Tuple

from repro.perf.keycache import ZeroizingLRU

try:  # optional vectorization — detected, never required
    import numpy as _np
except ImportError:  # pragma: no cover - exercised where numpy absent
    _np = None

BLOCK = 16

#: GHASH reduction polynomial x^128 + x^7 + x^2 + x + 1, reflected:
#: the GCM spec treats bit 0 as the x^0 coefficient of the *leftmost*
#: bit, so reduction works on the low end of the reversed integer.
_R = 0xE1000000000000000000000000000000

_MASK64 = (1 << 64) - 1

#: Lane width of the numpy fold: how many independent Horner
#: accumulators step together through one batched ``· H^W`` multiply.
#: Wide enough that numpy's per-op overhead amortizes, small enough
#: that the final ``W`` scalar combine multiplies stay cheap.
VECTOR_LANES = 256

#: Below this many whole blocks a part takes the byte-table fold: the
#: lane fold needs at least two full chunks before the batched
#: multiply beats plain table lookups.
_VECTOR_MIN_BLOCKS = 2 * VECTOR_LANES


def gf128_mul(x: int, y: int) -> int:
    """Multiply in GF(2^128) with GCM's bit order (SP 800-38D §6.3)."""
    if not (0 <= x < (1 << 128) and 0 <= y < (1 << 128)):
        raise ValueError("GF(2^128) elements are 128-bit")
    z = 0
    v = x
    for bit in range(128):
        if (y >> (127 - bit)) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def have_numpy() -> bool:
    """Whether large parts take the numpy lane fold here."""
    return _np is not None


# ------------------------------------------------------------ byte tables

def _build_tables(h: int) -> List[List[int]]:
    """Byte tables for ``· h``: ``tables[j][v]`` is the product of
    ``h`` with the field element whose j-th big-endian byte is ``v``.

    A multiply is then 16 lookups: xor of ``tables[j][byte_j(y)]``.
    Built from the 128 single-bit products ``x^k · h`` (iterated
    multiply-by-x), then a fill over each byte's 256 values using the
    lowest set bit, so construction is ~4k xors, not 16×256 full
    multiplies.
    """
    basis = [0] * 128
    p = h
    for k in range(128):
        # p == x^k · h; int bit (127 - k) carries the x^k coefficient.
        basis[127 - k] = p
        if p & 1:
            p = (p >> 1) ^ _R
        else:
            p >>= 1
    tables: List[List[int]] = []
    for j in range(16):
        low = 120 - 8 * j  # int bit of this byte's bit 0
        row = [0] * 256
        for v in range(1, 256):
            lsb = v & -v
            row[v] = row[v ^ lsb] ^ basis[low + lsb.bit_length() - 1]
        tables.append(row)
    return tables


_BYTE_SHIFTS = tuple(120 - 8 * j for j in range(16))


def _table_mul(y: int, tables: List[List[int]]) -> int:
    """``y · h`` via the byte tables built for ``h``."""
    z = 0
    for j, shift in enumerate(_BYTE_SHIFTS):
        z ^= tables[j][(y >> shift) & 0xFF]
    return z


def _pow_gf128(h: int, n: int) -> int:
    """``h^n`` by square-and-multiply (n >= 1)."""
    acc = h
    for bit in bin(n)[3:]:
        acc = gf128_mul(acc, acc)
        if bit == "1":
            acc = gf128_mul(acc, h)
    return acc


class _TableSet:
    """Everything cached for one subkey: byte tables for ``H`` and,
    built on the first lane fold, the numpy hi/lo pair of ``H^W``'s
    tables that the lanes step by."""

    __slots__ = ("h", "tables", "lane_pack")

    def __init__(self, h: int) -> None:
        self.h = h
        self.tables = _build_tables(h)
        self.lane_pack: Optional[Tuple[Any, Any]] = None

    def lane_tables(self) -> Tuple[Any, Any]:
        # Built under a lock so racing digests never orphan an
        # unwiped copy.
        with _LANE_BUILD:
            if self.lane_pack is None:
                tables = _build_tables(
                    _pow_gf128(self.h, VECTOR_LANES))
                self.lane_pack = (
                    _np.array([[e >> 64 for e in row]
                               for row in tables], dtype=_np.uint64),
                    _np.array([[e & _MASK64 for e in row]
                               for row in tables], dtype=_np.uint64),
                )
            return self.lane_pack

    def wipe(self) -> None:
        """Zeroize: table entries are linear in the subkey."""
        self.h = 0
        for row in self.tables:
            row[:] = [0] * 256
        if self.lane_pack is not None:
            for array in self.lane_pack:
                array.fill(0)
            self.lane_pack = None


_LANE_BUILD = threading.Lock()

_TABLES: "ZeroizingLRU[int, _TableSet]" = ZeroizingLRU(
    16, _TableSet, _TableSet.wipe)


def forget(h: int) -> None:
    """Drop (and zeroize) any cached tables derived from subkey ``h``.

    The serve layer calls this via ``repro.perf.engine.forget_key``
    on session teardown.  A digest still reading the tables finishes
    on them; the wipe follows when it returns.
    """
    _TABLES.discard(h)


# ---------------------------------------------------------------- digest

def _fold_table(y: int, part: bytes,
                tables: List[List[int]]) -> int:
    full = len(part) - len(part) % BLOCK
    for index in range(0, full, BLOCK):
        y = _table_mul(
            y ^ int.from_bytes(part[index:index + BLOCK], "big"),
            tables)
    if full < len(part):
        tail = part[full:] + bytes(BLOCK - (len(part) - full))
        y = _table_mul(y ^ int.from_bytes(tail, "big"), tables)
    return y


def _fold_lanes(y: int, part: bytes, table_set: _TableSet) -> int:
    """The numpy lane fold of one part (see :class:`Ghash`)."""
    blocks = len(part) // BLOCK
    lanes = VECTOR_LANES
    chunks = blocks // lanes
    head = (blocks - chunks * lanes) * BLOCK
    # Scalar prefix so the vector body is an exact chunk multiple.
    y = _fold_table(y, part[:head], table_set.tables)
    body = len(part) // BLOCK * BLOCK
    words = _np.frombuffer(
        part, dtype=">u8", count=(body - head) // 8, offset=head,
    ).astype(_np.uint64).reshape(-1, 2)
    hi = _np.ascontiguousarray(words[:, 0]).reshape(chunks, lanes)
    lo = _np.ascontiguousarray(words[:, 1]).reshape(chunks, lanes)
    # Fold the running digest into the first block.
    hi[0, 0] ^= _np.uint64(y >> 64)
    lo[0, 0] ^= _np.uint64(y & _MASK64)
    t_hi, t_lo = table_set.lane_tables()
    u8 = _np.uint64(0xFF)
    shifts = [_np.uint64(56 - 8 * j) for j in range(8)]
    y_hi = hi[0].copy()
    y_lo = lo[0].copy()
    for chunk in range(1, chunks):
        z_hi = t_hi[0][(y_hi >> shifts[0]) & u8]
        z_lo = t_lo[0][(y_hi >> shifts[0]) & u8]
        for j in range(1, 8):
            idx = (y_hi >> shifts[j]) & u8
            z_hi ^= t_hi[j][idx]
            z_lo ^= t_lo[j][idx]
        for j in range(8):
            idx = (y_lo >> shifts[j]) & u8
            z_hi ^= t_hi[8 + j][idx]
            z_lo ^= t_lo[8 + j][idx]
        y_hi = z_hi ^ hi[chunk]
        y_lo = z_lo ^ lo[chunk]
    # Scalar Horner combine: W multiplies with H's tables.
    acc = 0
    tables = table_set.tables
    hi_list = y_hi.tolist()
    lo_list = y_lo.tolist()
    for lane in range(lanes):
        acc = _table_mul(
            acc ^ (hi_list[lane] << 64) ^ lo_list[lane], tables)
    # Tail (partial block) after the vector body.
    return _fold_table(acc, part[body:], table_set.tables)


class Ghash:
    """The one GHASH path ``gcm`` routes through.

    ``name`` says which fold large parts take here: ``vector`` with
    numpy, ``table`` without.  With ``W`` lanes and blocks
    ``X_1..X_m`` (``m = kW`` after the table-folded prefix), lane
    ``r`` Horner-folds ``X_{r+1}, X_{r+1+W}, ...`` stepping by
    ``H^W``; its result then carries weight ``H^{W-r}``, so a final
    scalar Horner pass ``acc = (acc ^ Y_r) · H`` recovers the exact
    GHASH value.  The running digest folds into the first block, so
    parts chain exactly like the table fold.
    """

    @property
    def name(self) -> str:
        return "vector" if _np is not None else "table"

    def digest(self, h: int, parts: Sequence[bytes]) -> int:
        """GHASH of the parts, each zero-padded to a block boundary."""
        with _TABLES.lease(h) as table_set:
            y = 0
            for part in parts:
                if _np is None or \
                        len(part) // BLOCK < _VECTOR_MIN_BLOCKS:
                    y = _fold_table(y, part, table_set.tables)
                else:
                    y = _fold_lanes(y, part, table_set)
            return y


_GHASH = Ghash()


def default_provider() -> Ghash:
    """The process-wide GHASH object ``gcm`` looks ``digest`` up on."""
    return _GHASH


def get_provider(name: str = "auto") -> Ghash:
    """The same object; ``auto`` is the only name."""
    if name != "auto":
        raise ValueError(
            f"unknown ghash provider {name!r}: the one path is 'auto'")
    return _GHASH


__all__ = [
    "BLOCK",
    "Ghash",
    "VECTOR_LANES",
    "default_provider",
    "forget",
    "get_provider",
    "gf128_mul",
    "have_numpy",
]
