"""OpenSSL-EVP ceiling backend: equivalence and guarded registration.

The whole suite degrades gracefully: where no libcrypto loads (or it
fails its FIPS-197 self-test) the equivalence tests skip and the
registration tests assert the backend stays absent — the guard is
the feature under test.
"""

import random

import pytest

from repro.perf.backends import available_backends, get_backend
from repro.perf.bench import cross_check
from repro.perf.engine import BatchEngine
from repro.perf.evp import EvpBackend, have_evp, openssl_version

BLOCK = 16

needs_evp = pytest.mark.skipif(
    not have_evp(), reason="no self-test-passing libcrypto here")

_RNG = random.Random(0xE7B)


class TestRegistration:
    def test_registry_tracks_availability(self):
        assert ("evp" in available_backends()) == have_evp()

    def test_version_tracks_availability(self):
        version = openssl_version()
        if have_evp():
            assert isinstance(version, str) and version
        else:
            assert version is None

    def test_get_backend_message_when_absent(self):
        if have_evp():
            assert get_backend("evp").name == "evp"
        else:
            with pytest.raises(ValueError, match="libcrypto"):
                get_backend("evp")

    def test_auto_stays_sliced(self):
        # The ceiling is opt-in: auto must not silently change the
        # default stack even where OpenSSL is present.
        assert get_backend("auto").name == "sliced"


@needs_evp
class TestEquivalence:
    def test_matches_baseline_blocks(self):
        backend = EvpBackend()
        baseline = available_backends()["baseline"]
        key = _RNG.randbytes(16)
        for blocks in (1, 2, 48, 257):
            data = _RNG.randbytes(blocks * BLOCK)
            assert backend.encrypt_blocks(key, data) == \
                baseline.encrypt_blocks(key, data)

    def test_empty_input(self):
        assert EvpBackend().encrypt_blocks(bytes(16), b"") == b""

    def test_rejects_ragged_input(self):
        with pytest.raises(ValueError, match="multiple"):
            EvpBackend().encrypt_blocks(bytes(16), b"x" * 17)

    def test_rejects_bad_key_length(self):
        with pytest.raises(ValueError, match="16 bytes"):
            EvpBackend().encrypt_blocks(b"short", bytes(BLOCK))

    def test_cross_check_gate_includes_evp(self):
        # The bench equivalence gate exercises ECB, CTR with a
        # ragged tail, and the GCTR counter wrap through the engine.
        summary = cross_check({"evp": EvpBackend()},
                              corpus_blocks=16)
        assert "evp" in summary["backends"]
        assert summary["mismatches"] == 0

    def test_engine_modes_through_evp(self):
        engine = BatchEngine("evp")
        ref = BatchEngine("baseline")
        key = _RNG.randbytes(16)
        nonce = _RNG.randbytes(8)
        data = _RNG.randbytes(5 * BLOCK - 3)
        assert engine.xcrypt_ctr(key, nonce, data) == \
            ref.xcrypt_ctr(key, nonce, data)


@needs_evp
class TestProbe:
    def test_library_failing_decrypt_kat_is_not_registered(
            self, monkeypatch):
        from repro.perf import evp

        class BadDecrypt(evp._Lib):
            def ecb(self, key, data, decrypt):
                out = super().ecb(key, data, decrypt)
                return bytes(len(out)) if decrypt else out

        monkeypatch.setattr(evp, "_Lib", BadDecrypt)
        monkeypatch.setattr(evp, "_LIB", None)
        monkeypatch.setattr(evp, "_PROBED", False)
        assert not have_evp()
        assert "evp" not in available_backends()
