"""OpenSSL EVP backend over ctypes: the hardware-AES ceiling.

The RTOS multi-FPGA line of work treats AES engines as swappable
units behind one fabric; the software analogue is registering the
platform's best engine — OpenSSL's EVP AES-128-ECB, which runs on
AES-NI where the CPU has it — behind the same :class:`Backend`
interface the pure-Python backends implement.  The bench equivalence
gate then cross-checks it bit-for-bit like any other backend, and
its rows show how far the Python ladder is from the hardware ceiling.
Both directions are registered: ``EVP_EncryptUpdate`` and
``EVP_DecryptUpdate`` over AES-128-ECB.

Everything is guarded: no libcrypto, no exported symbols, or a
failed FIPS-197 self-test simply means :func:`have_evp` is false and
the backend never registers.  No new Python dependencies — ctypes
only.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import threading
from typing import Optional, Tuple

from repro.perf.backends import Backend

_BLOCK = 16

#: FIPS-197 Appendix C.1 known answer, checked once at load in both
#: directions: a libcrypto that cannot reproduce it is not used.
_KAT_KEY = bytes(range(16))
_KAT_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
_KAT_CIPHERTEXT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

_CANDIDATES: Tuple[Optional[str], ...] = (
    ctypes.util.find_library("crypto"),
    "libcrypto.so.3",
    "libcrypto.so.1.1",
    "libcrypto.so",
    "libcrypto.dylib",
    "libcrypto-3-x64.dll",
)


class _Lib:
    """Resolved libcrypto handle plus the EVP entry points we use."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self.new = lib.EVP_CIPHER_CTX_new
        self.new.restype = ctypes.c_void_p
        self.new.argtypes = ()
        self.free = lib.EVP_CIPHER_CTX_free
        self.free.restype = None
        self.free.argtypes = (ctypes.c_void_p,)
        self.aes_128_ecb = lib.EVP_aes_128_ecb
        self.aes_128_ecb.restype = ctypes.c_void_p
        self.aes_128_ecb.argtypes = ()
        init_types = (
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_char_p, ctypes.c_char_p,
        )
        update_types = (
            ctypes.c_void_p, ctypes.c_char_p,
            ctypes.POINTER(ctypes.c_int), ctypes.c_char_p,
            ctypes.c_int,
        )
        #: decrypt flag -> (init, update, name stem for errors).
        self.directions = {}
        for decrypt, stem in ((False, "Encrypt"), (True, "Decrypt")):
            init = getattr(lib, f"EVP_{stem}Init_ex")
            init.restype = ctypes.c_int
            init.argtypes = init_types
            update = getattr(lib, f"EVP_{stem}Update")
            update.restype = ctypes.c_int
            update.argtypes = update_types
            self.directions[decrypt] = (init, update, f"EVP_{stem}")
        self.set_padding = lib.EVP_CIPHER_CTX_set_padding
        self.set_padding.restype = ctypes.c_int
        self.set_padding.argtypes = (ctypes.c_void_p, ctypes.c_int)
        version = getattr(lib, "OpenSSL_version", None)
        if version is not None:
            version.restype = ctypes.c_char_p
            version.argtypes = (ctypes.c_int,)
            self.version = version(0).decode("ascii", "replace")
        else:
            self.version = "OpenSSL (version symbol unavailable)"

    def ecb(self, key: bytes, data: bytes, decrypt: bool) -> bytes:
        """Raw AES-128-ECB over ``data`` (padding disabled).

        A fresh context per call keeps the backend thread-safe under
        the serve layer's executor threads with zero shared state.
        """
        init, update, stem = self.directions[decrypt]
        ctx = self.new()
        if not ctx:
            raise RuntimeError("EVP_CIPHER_CTX_new failed")
        try:
            if init(ctx, self.aes_128_ecb(), None, key, None) != 1:
                raise RuntimeError(f"{stem}Init_ex failed")
            if self.set_padding(ctx, 0) != 1:
                raise RuntimeError(
                    "EVP_CIPHER_CTX_set_padding failed")
            out = ctypes.create_string_buffer(len(data))
            written = ctypes.c_int(0)
            if update(ctx, out, ctypes.byref(written), data,
                      len(data)) != 1:
                raise RuntimeError(f"{stem}Update failed")
            if written.value != len(data):
                raise RuntimeError(
                    f"{stem}Update wrote {written.value} of "
                    f"{len(data)} bytes")
            return out.raw
        finally:
            self.free(ctx)


_LIB: Optional[_Lib] = None
_PROBED = False
_PROBE_LOCK = threading.Lock()


def _probe() -> Optional[_Lib]:
    global _LIB, _PROBED
    if _PROBED:
        return _LIB
    with _PROBE_LOCK:
        if _PROBED:
            return _LIB
        for name in _CANDIDATES:
            if not name:
                continue
            try:
                lib = _Lib(ctypes.CDLL(name))
            except (OSError, AttributeError):
                continue
            try:
                passed = (
                    lib.ecb(_KAT_KEY, _KAT_PLAINTEXT, False)
                    == _KAT_CIPHERTEXT
                    and lib.ecb(_KAT_KEY, _KAT_CIPHERTEXT, True)
                    == _KAT_PLAINTEXT)
            except RuntimeError:
                continue
            if passed:
                _LIB = lib
                break
        _PROBED = True
    return _LIB


def have_evp() -> bool:
    """Whether a self-test-passing libcrypto was found."""
    return _probe() is not None


def openssl_version() -> Optional[str]:
    """The loaded library's version banner, or None when absent."""
    lib = _probe()
    return lib.version if lib is not None else None


class EvpBackend(Backend):
    """AES-128-ECB through OpenSSL EVP — the platform ceiling."""

    name = "evp"
    vectorized = True

    def encrypt_blocks(self, key: bytes, data: bytes) -> bytes:
        return self._ecb(key, data, decrypt=False)

    def decrypt_blocks(self, key: bytes, data: bytes) -> bytes:
        return self._ecb(key, data, decrypt=True)

    @staticmethod
    def _ecb(key: bytes, data: bytes, decrypt: bool) -> bytes:
        if len(key) != 16:
            raise ValueError("AES-128 key must be 16 bytes")
        if len(data) % _BLOCK:
            raise ValueError(
                f"data length {len(data)} is not a multiple of "
                f"{_BLOCK}")
        lib = _probe()
        if lib is None:
            raise RuntimeError(
                "OpenSSL EVP is unavailable in this environment")
        if not data:
            return b""
        return lib.ecb(key, data, decrypt)


__all__ = ["EvpBackend", "have_evp", "openssl_version"]
