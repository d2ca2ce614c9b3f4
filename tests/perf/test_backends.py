"""Backends must agree bit-for-bit with the straightforward model."""

import random
import time

import pytest

from repro.aes.cipher import AES128
from repro.aes.key_schedule import expand_key
from repro.aes.vectors import (
    FIPS197_APPENDIX_C1,
    SP800_38A_ECB128_CIPHERTEXT,
    SP800_38A_ECB128_KEY,
    SP800_38A_ECB128_PLAINTEXT,
)
from repro.perf import backends as backends_mod
from repro.perf.backends import (
    _FORWARD,
    _INVERSE,
    _NP_MIN_BLOCKS,
    _SCHEDULE,
    BaselineBackend,
    RoundKeyCache,
    SlicedBackend,
    TTableBackend,
    _sliced_numpy,
    _sliced_python,
    available_backends,
    get_backend,
    have_numpy,
    inverse_schedule,
)
from repro.perf.evp import EvpBackend, have_evp

needs_numpy = pytest.mark.skipif(not have_numpy(),
                                 reason="numpy not available")


def serial_ecb(key, data):
    aes = AES128(key)
    return b"".join(aes.encrypt_block(data[i:i + 16])
                    for i in range(0, len(data), 16))


def serial_ecb_decrypt(key, data):
    aes = AES128(key)
    return b"".join(aes.decrypt_block(data[i:i + 16])
                    for i in range(0, len(data), 16))


def all_backends():
    backends = [BaselineBackend(), TTableBackend(),
                SlicedBackend(vectorize=False)]
    if have_numpy():
        backends.append(SlicedBackend(vectorize=True))
    if have_evp():
        backends.append(EvpBackend())
    return backends


@pytest.mark.parametrize("backend", all_backends(),
                         ids=lambda b: f"{b.name}-"
                         f"{'np' if b.vectorized else 'py'}")
class TestEquivalence:
    def test_nist_ecb_vector(self, backend):
        got = backend.encrypt_blocks(SP800_38A_ECB128_KEY,
                                     SP800_38A_ECB128_PLAINTEXT)
        assert got == SP800_38A_ECB128_CIPHERTEXT

    def test_random_corpus(self, backend):
        rng = random.Random(7)
        for _ in range(3):
            key = rng.randbytes(16)
            data = rng.randbytes(16 * rng.randrange(1, 33))
            assert backend.encrypt_blocks(key, data) == \
                serial_ecb(key, data)

    def test_empty(self, backend):
        assert backend.encrypt_blocks(bytes(16), b"") == b""

    def test_fips197_decrypt(self, backend):
        vector = FIPS197_APPENDIX_C1
        assert backend.decrypt_blocks(vector.key, vector.ciphertext) \
            == vector.plaintext

    def test_round_trip(self, backend):
        rng = random.Random(13)
        key = rng.randbytes(16)
        data = rng.randbytes(16 * (_NP_MIN_BLOCKS + 3))
        assert backend.decrypt_blocks(
            key, backend.encrypt_blocks(key, data)) == data

    def test_random_decrypt_corpus(self, backend):
        rng = random.Random(17)
        for blocks in (1, 2, _NP_MIN_BLOCKS - 1, _NP_MIN_BLOCKS, 48):
            key = rng.randbytes(16)
            data = rng.randbytes(16 * blocks)
            assert backend.decrypt_blocks(key, data) == \
                serial_ecb_decrypt(key, data)

    def test_empty_decrypt(self, backend):
        assert backend.decrypt_blocks(bytes(16), b"") == b""


class TestSlicedVariants:
    def test_pure_matches_vectorized(self):
        if not have_numpy():
            pytest.skip("numpy not available")
        rng = random.Random(11)
        key = rng.randbytes(16)
        data = rng.randbytes(16 * 50)
        pure = SlicedBackend(vectorize=False)
        fast = SlicedBackend(vectorize=True)
        assert pure.encrypt_blocks(key, data) == \
            fast.encrypt_blocks(key, data)
        assert pure.decrypt_blocks(key, data) == \
            fast.decrypt_blocks(key, data)

    @needs_numpy
    @pytest.mark.parametrize("blocks", [_NP_MIN_BLOCKS - 1,
                                        _NP_MIN_BLOCKS,
                                        _NP_MIN_BLOCKS + 1])
    def test_pure_matches_vectorized_at_threshold(self, blocks):
        rng = random.Random(11 + blocks)
        key = rng.randbytes(16)
        data = rng.randbytes(16 * blocks)
        cache = RoundKeyCache()
        for schedule, direction in (
                (cache.words(key), _FORWARD),
                (cache.words(key, inverse=True), _INVERSE)):
            assert _sliced_python(schedule, data, direction) == \
                _sliced_numpy(schedule, data, direction)

    @needs_numpy
    def test_numpy_loop_selected_by_batch_size(self, monkeypatch):
        calls = []

        def spy(rk, data, direction):
            calls.append(len(data) // 16)
            return _sliced_python(rk, data, direction)

        monkeypatch.setattr(backends_mod, "_sliced_numpy", spy)
        backend = SlicedBackend()
        key = bytes(range(16))
        for run in (backend.encrypt_blocks, backend.decrypt_blocks):
            calls.clear()
            run(key, bytes(16 * (_NP_MIN_BLOCKS - 1)))
            assert calls == []
            run(key, bytes(16 * _NP_MIN_BLOCKS))
            assert calls == [_NP_MIN_BLOCKS]

    @needs_numpy
    def test_bulk_decrypt_costs_like_encrypt(self):
        """1 MiB through the numpy inverse loop stays within 2x of
        the forward loop (best of three, same buffer)."""
        backend = SlicedBackend()
        key = bytes(range(16))
        data = random.Random(19).randbytes(1 << 20)

        def best(run):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                run(key, data)
                times.append(time.perf_counter() - start)
            return min(times)

        assert best(backend.decrypt_blocks) <= \
            2 * best(backend.encrypt_blocks)

    def test_inverse_schedule_is_equivalent_inverse_cipher(self):
        """FIPS-197 §5.3.5: round keys in reverse round order, with
        InvMixColumns on rounds 1..9 (checked against the golden
        transform), held in the inverse loop's column order."""
        from repro.aes.state import State
        from repro.aes.transforms import inv_mix_columns

        schedule = expand_key(FIPS197_APPENDIX_C1.key, 10)
        dk = inverse_schedule(schedule)
        for rnd in range(11):
            words = schedule[4 * rnd:4 * rnd + 4]
            if 0 < rnd < 10:
                packed = b"".join(w.to_bytes(4, "big") for w in words)
                mixed = inv_mix_columns(State(packed)).to_bytes()
                words = [int.from_bytes(mixed[i:i + 4], "big")
                         for i in range(0, 16, 4)]
            base = 4 * (10 - rnd)
            assert dk[base:base + 4] == \
                [words[j] for j in _INVERSE.order]

    def test_vectorize_flag_reported(self):
        assert SlicedBackend(vectorize=False).vectorized is False
        if have_numpy():
            assert SlicedBackend().vectorized is True

    def test_shares_injected_cache(self):
        cache = RoundKeyCache(capacity=4)
        backend = SlicedBackend(cache=cache, vectorize=False)
        backend.encrypt_blocks(bytes(16), bytes(16))
        assert len(cache) == 1


class TestRoundKeyCache:
    def test_words_match_expand_key(self):
        cache = RoundKeyCache()
        key = bytes(range(16))
        assert cache.words(key) == tuple(expand_key(key, 10))

    def test_hit_does_not_grow(self):
        cache = RoundKeyCache()
        cache.words(bytes(16))
        cache.words(bytes(16))
        assert len(cache) == 1

    def test_lru_eviction_order(self):
        cache = RoundKeyCache(capacity=2)
        k1, k2, k3 = (bytes([i]) + bytes(15) for i in range(3))
        cache.words(k1)
        cache.words(k2)
        cache.words(k1)      # refresh k1: k2 is now the LRU entry
        cache.words(k3)      # evicts k2
        assert len(cache) == 2
        cache.words(k1)      # still cached: no growth
        assert len(cache) == 2

    def test_clear(self):
        cache = RoundKeyCache()
        cache.words(bytes(16))
        cache.clear()
        assert len(cache) == 0

    def test_rejects_bad_key(self):
        with pytest.raises(ValueError):
            RoundKeyCache().words(bytes(8))

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RoundKeyCache(capacity=0)


class TestRoundKeyCacheHygiene:
    """Evicted / discarded / cleared schedules must be zeroized, and
    handed-out schedules must never alias the wipeable buffer."""

    @staticmethod
    def _buffer(cache, key):
        return cache._entries[bytes(key)]

    def test_eviction_zeroizes_schedule(self):
        cache = RoundKeyCache(capacity=2)
        k1, k2, k3 = (bytes([i]) + bytes(15) for i in range(3))
        cache.words(k1)
        evicted = self._buffer(cache, k1)
        assert any(evicted)
        cache.words(k2)
        cache.words(k3)  # evicts k1
        assert len(cache) == 2
        assert not any(evicted), \
            "evicted schedule still reachable through the old buffer"

    def test_discard_zeroizes_schedule(self):
        cache = RoundKeyCache()
        key = bytes(range(16))
        cache.words(key)
        buffer = self._buffer(cache, key)
        cache.discard(key)
        assert len(cache) == 0
        assert not any(buffer)

    def test_discard_unknown_key_is_noop(self):
        cache = RoundKeyCache()
        cache.discard(bytes(16))  # nothing cached: must not raise
        assert len(cache) == 0

    def test_clear_zeroizes_every_schedule(self):
        cache = RoundKeyCache()
        keys = [bytes([i]) + bytes(15) for i in range(4)]
        buffers = []
        for key in keys:
            cache.words(key)
            buffers.append(self._buffer(cache, key))
        cache.clear()
        assert len(cache) == 0
        assert all(not any(buffer) for buffer in buffers)

    def test_inverse_schedule_lives_in_the_entry(self):
        cache = RoundKeyCache()
        key = bytes(range(16))
        inverse = cache.words(key, inverse=True)
        buffer = self._buffer(cache, key)
        assert _SCHEDULE.unpack_from(buffer, _SCHEDULE.size) == inverse
        assert inverse == tuple(
            inverse_schedule(expand_key(key, 10)))

    @pytest.mark.parametrize("how", ["evict", "discard", "clear"])
    def test_inverse_schedule_zeroized(self, how):
        cache = RoundKeyCache(capacity=1)
        key = bytes(range(16))
        cache.words(key, inverse=True)
        buffer = self._buffer(cache, key)
        assert any(buffer[_SCHEDULE.size:])
        if how == "evict":
            cache.words(bytes(16))
        elif how == "discard":
            cache.discard(key)
        else:
            cache.clear()
        assert key not in cache._entries
        assert not any(buffer[_SCHEDULE.size:])

    def test_words_tuple_survives_wipe(self):
        """Callers hold an unpacked tuple, never the buffer — a
        concurrent wipe must not corrupt in-flight schedules."""
        cache = RoundKeyCache()
        key = bytes(range(16))
        schedule = cache.words(key)
        cache.discard(key)
        assert schedule == tuple(expand_key(key, 10))

    def test_forget_key_drops_engine_and_ghash_state(self):
        from repro.aes import ghash as ghash_mod
        from repro.aes.cipher import AES128
        from repro.perf.engine import default_engine, forget_key

        key = bytes(range(16))
        engine = default_engine()
        cache = getattr(engine.backend, "cache", None)
        engine.xcrypt_ecb(key, bytes(32))  # populate schedule cache
        subkey = int.from_bytes(
            AES128(key).encrypt_block(bytes(16)), "big")
        ghash_mod.get_provider("table").digest(subkey, (b"x" * 16,))
        assert subkey in ghash_mod._TABLES
        forget_key(key)
        if cache is not None:
            assert key not in cache._entries
        assert subkey not in ghash_mod._TABLES

    def test_forget_key_builds_no_golden_cipher(self, monkeypatch):
        from repro.aes import cipher
        from repro.aes import ghash as ghash_mod
        from repro.perf.engine import default_engine, forget_key

        key = bytes(range(16))
        subkey = int.from_bytes(
            AES128(key).encrypt_block(bytes(16)), "big")
        default_engine().decrypt_blocks(key, bytes(16))
        ghash_mod.get_provider("table").digest(subkey, (b"x" * 16,))

        def refuse(*args, **kwargs):
            raise AssertionError("forget_key built a golden AES128")

        monkeypatch.setattr(cipher.AES128, "__init__", refuse)
        forget_key(key)
        cache = default_engine().backend.cache
        assert key not in cache._entries
        assert subkey not in ghash_mod._TABLES

    def test_forget_key_tolerates_garbage(self):
        from repro.perf.engine import forget_key
        forget_key(b"short")  # malformed keys have nothing cached


class TestRegistry:
    def test_registry_names(self):
        from repro.perf.evp import have_evp
        expected = {"baseline", "ttable", "sliced"}
        if have_evp():
            expected.add("evp")
        assert set(available_backends()) == expected

    def test_get_backend_auto(self):
        assert get_backend("auto").name == "sliced"

    def test_get_backend_unknown(self):
        with pytest.raises(ValueError):
            get_backend("quantum")
