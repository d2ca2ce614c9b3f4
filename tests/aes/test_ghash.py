"""Property suite for GHASH: the golden model and the one digest.

Three paths are checked, each against an independent reference that
shares no code with :mod:`repro.aes.ghash`:

- ``bitwise`` — the golden table-free ``repro.aes.gcm._ghash``;
- ``table`` — the one digest with numpy blocked, so every part takes
  the byte-table fold;
- ``vector`` — the one digest as it runs here with numpy, so parts at
  or above ``_VECTOR_MIN_BLOCKS`` take the numpy lane fold.

The reference multiplies in normal bit order: bit-reverse both
operands, carry-less multiply, reduce modulo
x^128 + x^7 + x^2 + x + 1, reverse back.  The sweep covers short
lengths (0..3 blocks ± 1 byte), both sides of the lane threshold,
and multi-part messages laid out like GCM's AAD/ciphertext/lengths
split.  The NIST GCM cases then pin the end-to-end mode on each path.
"""

import functools
import random
import sys
import threading

import pytest

from repro.aes import ghash as ghash_mod
from repro.aes.gcm import _ghash, gcm_decrypt, gcm_encrypt
from repro.aes.ghash import (
    _VECTOR_MIN_BLOCKS,
    VECTOR_LANES,
    get_provider,
    gf128_mul,
)
from repro.perf.keycache import ZeroizingLRU

BLOCK = 16

SHORT_LENGTHS = sorted({
    max(0, n * BLOCK + d) for n in range(4) for d in (-1, 0, 1)
})

#: Both sides of the lane threshold (``_VECTOR_MIN_BLOCKS``, 512
#: blocks), whole blocks and ragged tails.
LONG_LENGTHS = (
    (_VECTOR_MIN_BLOCKS - 1) * BLOCK,
    (_VECTOR_MIN_BLOCKS - 1) * BLOCK + 15,
    2 * VECTOR_LANES * BLOCK,
    2 * VECTOR_LANES * BLOCK + 5,
    3 * VECTOR_LANES * BLOCK + BLOCK - 1,
)


def _padded(part: bytes) -> bytes:
    return part + bytes((-len(part)) % BLOCK)


# ------------------------------------------------- independent reference

_POLY = (1 << 128) | 0x87  # x^128 + x^7 + x^2 + x + 1


def _reverse(x: int) -> int:
    return int(f"{x:0128b}"[::-1], 2)


def _poly_mul(a: int, b: int) -> int:
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        b >>= 1
    for bit in range(product.bit_length() - 1, 127, -1):
        if (product >> bit) & 1:
            product ^= _POLY << (bit - 128)
    return product


@functools.lru_cache(maxsize=64)
def _reference(h: int, padded: bytes) -> int:
    """GHASH per SP 800-38D §6.4 in normal polynomial bit order."""
    h_poly = _reverse(h)
    y = 0
    for index in range(0, len(padded), BLOCK):
        x = _reverse(int.from_bytes(padded[index:index + BLOCK], "big"))
        y = _poly_mul(y ^ x, h_poly)
    return _reverse(y)


def _expected(h: int, parts) -> int:
    return _reference(h, b"".join(_padded(p) for p in parts))


# ---------------------------------------------------------------- paths

class _Golden:
    """The golden ``_ghash`` over byte parts, padded independently."""

    def digest(self, h, parts):
        return _ghash(h, b"".join(_padded(p) for p in parts))


PATHS = [
    ("bitwise", _Golden()),
    ("table", ghash_mod.default_provider()),
    ("vector", ghash_mod.default_provider()),
]


def _pin(name, monkeypatch):
    """Put the process on path ``name``: the golden model as gcm's
    digest, numpy blocked, or numpy as found (skip without it)."""
    if name == "bitwise":
        monkeypatch.setattr(ghash_mod.default_provider(), "digest",
                            _Golden().digest)
    elif name == "table":
        monkeypatch.setattr(ghash_mod, "_np", None)
    elif not ghash_mod.have_numpy():
        pytest.skip("numpy not available")


def _data(length: int) -> bytes:
    return random.Random(length).randbytes(length)


_H = random.Random(0x6A55).getrandbits(128)


@pytest.mark.parametrize("name,provider", PATHS)
class TestAgainstGolden:
    """Every path agrees with the independent reference, so the one
    digest and the golden model agree with each other bit for bit."""

    @pytest.fixture(autouse=True)
    def _path(self, name, monkeypatch):
        _pin(name, monkeypatch)

    @pytest.mark.parametrize("length", SHORT_LENGTHS)
    def test_short_lengths(self, name, provider, length):
        data = _data(length)
        assert provider.digest(_H, (data,)) == _expected(_H, (data,))

    @pytest.mark.parametrize("length", LONG_LENGTHS)
    def test_lane_threshold_lengths(self, name, provider, length):
        data = _data(length)
        assert provider.digest(_H, (data,)) == _expected(_H, (data,))

    def test_multi_part_gcm_layout(self, name, provider):
        """aad | ciphertext | lengths, each padded independently."""
        rng = random.Random(0x6A56)
        for aad_len, ct_len in [(0, 0), (0, 60), (20, 0), (20, 60),
                                (17, 4096), (1, BLOCK),
                                (3, _VECTOR_MIN_BLOCKS * BLOCK + 7)]:
            aad = rng.randbytes(aad_len)
            ct = rng.randbytes(ct_len)
            lengths = ((8 * aad_len).to_bytes(8, "big")
                       + (8 * ct_len).to_bytes(8, "big"))
            parts = (aad, ct, lengths)
            assert provider.digest(_H, parts) == _expected(_H, parts)

    def test_empty_message(self, name, provider):
        assert provider.digest(_H, ()) == 0
        assert provider.digest(_H, (b"", b"")) == 0

    def test_zero_subkey(self, name, provider):
        assert provider.digest(0, (_data(64),)) == 0


@pytest.mark.parametrize("name", ["bitwise", "table", "vector"])
class TestNistVectorsPerProvider:
    """The canonical GCM cases on each path."""

    K96 = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
    IV96 = bytes.fromhex("cafebabefacedbaddecaf888")
    P60 = bytes.fromhex(
        "d9313225f88406e5a55909c5aff5269a"
        "86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525"
        "b16aedf5aa0de657ba637b39"
    )
    AAD = bytes.fromhex(
        "feedfacedeadbeeffeedfacedeadbeefabaddad2")

    @pytest.fixture(autouse=True)
    def _path(self, name, monkeypatch):
        _pin(name, monkeypatch)

    def test_case_1_empty(self, name):
        ct, tag = gcm_encrypt(bytes(16), bytes(12), b"")
        assert ct == b""
        assert tag.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_case_4_with_aad(self, name):
        ct, tag = gcm_encrypt(self.K96, self.IV96, self.P60, self.AAD)
        assert tag.hex() == "5bc94fbc3221a5db94fae95ae7121a47"
        assert gcm_decrypt(self.K96, self.IV96, ct, tag,
                           self.AAD) == self.P60

    def test_long_iv_round_trip(self, name):
        """The non-96-bit IV path routes J0 through the digest."""
        rng = random.Random(37)
        iv = rng.randbytes(37)
        key = rng.randbytes(16)
        pt = rng.randbytes(100)
        ct, tag = gcm_encrypt(key, iv, pt)
        assert gcm_decrypt(key, iv, ct, tag) == pt


class TestRandomizedEquivalence:
    def test_random_lengths_including_empty(self, monkeypatch):
        """Tail-only padding digests identically to the fully padded
        golden over random lengths, including empty AAD and a
        0-length payload, with numpy as found and blocked."""
        rng = random.Random(2003)
        digest = get_provider().digest
        for _ in range(40):
            h = rng.getrandbits(128)
            aad = rng.randbytes(rng.choice([0, 1, 20, 333]))
            ct = rng.randbytes(rng.choice([0, 1, 60, 4097, 8200]))
            lengths = ((8 * len(aad)).to_bytes(8, "big")
                       + (8 * len(ct)).to_bytes(8, "big"))
            want = _ghash(h, _padded(aad) + _padded(ct) + lengths)
            assert digest(h, (aad, ct, lengths)) == want, \
                (len(aad), len(ct))
            with monkeypatch.context() as blocked:
                blocked.setattr(ghash_mod, "_np", None)
                assert digest(h, (aad, ct, lengths)) == want, \
                    (len(aad), len(ct), "numpy blocked")


class TestRegistry:
    def test_bitwise_and_table_always_available(self, monkeypatch):
        """Without numpy the one path folds with byte tables, and the
        golden bitwise model needs nothing either."""
        monkeypatch.setattr(ghash_mod, "_np", None)
        assert not ghash_mod.have_numpy()
        assert get_provider().name == "table"
        data = _data(2 * VECTOR_LANES * BLOCK)
        assert get_provider().digest(_H, (data,)) == _ghash(_H, data)

    def test_vector_tracks_numpy(self, monkeypatch):
        assert ((get_provider().name == "vector")
                == ghash_mod.have_numpy())
        monkeypatch.setattr(ghash_mod, "_np", None)
        assert get_provider().name == "table"

    def test_auto_prefers_vector_with_numpy(self):
        expected = "vector" if ghash_mod.have_numpy() else "table"
        assert get_provider("auto").name == expected

    def test_unknown_provider_rejected(self):
        """``auto`` is the only name; the retired provider names are
        unknown too."""
        for name in ("quantum", "bitwise", "table", "vector"):
            with pytest.raises(ValueError, match="unknown ghash"):
                get_provider(name)

    def test_default_provider_is_process_wide(self):
        first = ghash_mod.default_provider()
        assert ghash_mod.default_provider() is first
        assert get_provider("auto") is first

    def test_gf128_mul_reexported_from_gcm(self):
        from repro.aes import gcm
        assert gcm.gf128_mul is gf128_mul


def _zeroed(table_set) -> bool:
    return not any(any(row) for row in table_set.tables)


class TestTableHygiene:
    def test_forget_zeroizes_tables(self):
        h = _H | 1
        digest = get_provider().digest
        digest(h, (_data(2 * VECTOR_LANES * BLOCK),))
        with ghash_mod._TABLES.lease(h) as table_set:
            pass
        assert not _zeroed(table_set)
        ghash_mod.forget(h)
        assert h not in ghash_mod._TABLES
        assert _zeroed(table_set)
        assert table_set.lane_pack is None

    def test_eviction_zeroizes_tables(self):
        cache = ZeroizingLRU(1, ghash_mod._TableSet,
                             ghash_mod._TableSet.wipe)
        with cache.lease(3) as first:
            assert not _zeroed(first)
        with cache.lease(5):  # evicts subkey 3
            pass
        assert 3 not in cache
        assert _zeroed(first)

    def test_clear_zeroizes_everything(self):
        cache = ZeroizingLRU(4, ghash_mod._TableSet,
                             ghash_mod._TableSet.wipe)
        sets = []
        for k in (3, 5, 7):
            with cache.lease(k) as table_set:
                sets.append(table_set)
        cache.clear()
        assert len(cache) == 0
        assert all(_zeroed(table_set) for table_set in sets)

    @pytest.mark.parametrize("numpy", ["found", "blocked"])
    def test_forget_inside_digest_keeps_tables_until_it_returns(
            self, numpy, monkeypatch):
        """A session teardown that forgets the subkey while another
        session's digest is mid-message must not change that digest
        (the deferred wipe itself is tested in ``test_keycache``)."""
        if numpy == "blocked":
            monkeypatch.setattr(ghash_mod, "_np", None)
        h = _H ^ 0x5A
        aad = _data(20)
        ct = _data(_VECTOR_MIN_BLOCKS * BLOCK + 9)
        lengths = bytes(16)

        def parts():
            yield aad
            ghash_mod.forget(h)  # another session tears down
            yield ct
            yield lengths

        want = _ghash(h, _padded(aad) + _padded(ct) + lengths)
        assert get_provider().digest(h, parts()) == want
        assert h not in ghash_mod._TABLES

    def test_concurrent_forget_never_corrupts_a_digest(self):
        """Digests racing a loop of ``forget`` on the same subkey, with
        the interpreter switching threads as often as it can."""
        h = _H ^ 0xA5
        data = _data(64 * BLOCK + 5)
        want = _ghash(h, _padded(data))
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                ghash_mod.forget(h)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        churner = threading.Thread(target=churn)
        churner.start()
        try:
            wrong = sum(get_provider().digest(h, (data,)) != want
                        for _ in range(200))
        finally:
            stop.set()
            churner.join()
            sys.setswitchinterval(interval)
        assert wrong == 0
