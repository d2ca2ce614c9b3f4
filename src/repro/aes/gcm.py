"""AES-GCM: authenticated encryption (NIST SP 800-38D).

The modern way the paper's "backbone communication channels" actually
deploy AES: counter-mode confidentiality plus a GHASH authentication
tag.  Two properties make GCM a natural fit for the paper's device:

- it only ever uses the **encrypt** direction (the cheapest variant);
- GHASH is multiplication in GF(2^128) — the same carry-less algebra
  as the cipher's GF(2^8), 16 bytes at a time, implemented here from
  first principles like everything else in this library.

Every AES block — the hash subkey H, the tag mask E(K, J0) and the
payload keystream — runs on the batch engine
(:func:`repro.perf.engine.default_engine`); GHASH runs on the one
digest of :mod:`repro.aes.ghash`.  Verified against the canonical
NIST GCM test cases; no constant-time claims.
"""

from __future__ import annotations

import hmac as _hmac
from typing import Tuple

from repro.aes.ghash import default_provider as _ghash_provider
from repro.aes.modes import _bulk_engine as _engine
from repro.obs.metrics import global_registry

BLOCK = 16

#: One increment per GCM API call; ``op`` is encrypt / decrypt, and
#: auth failures get their own counter so a spike is visible without
#: scraping logs.
_GCM_OPS = global_registry().counter(
    "repro_aes_gcm_ops_total",
    "GCM operations by direction",
    labels=("op",),
)
_GCM_AUTH_FAILURES = global_registry().counter(
    "repro_aes_gcm_auth_failures_total",
    "GCM tag verification failures",
)

#: GHASH reduction polynomial and the golden bitwise multiply now
#: live in :mod:`repro.aes.ghash` next to the fast digest; the
#: re-exports keep this module the public home of the primitive.
from repro.aes.ghash import _R, gf128_mul  # noqa: E402,F401


#: SP 800-38D §5.2.1.1 operand bounds.  len(P) <= 2^39 - 256 bits:
#: the plaintext may consume at most 2^32 - 2 counter blocks, so the
#: 32-bit GCTR counter can never wrap back onto J0 (tag keystream) or
#: J0 + 1 (first payload counter).  AAD and IV are bounded by their
#: 64-bit length fields in the GHASH length block / J0 derivation.
MAX_PLAINTEXT_BYTES = ((1 << 39) - 256) // 8
MAX_AAD_BYTES = ((1 << 64) - 1) // 8
MAX_IV_BYTES = ((1 << 64) - 1) // 8


class AuthenticationError(ValueError):
    """Raised when a GCM tag fails verification."""


def _check_lengths(plaintext_len: int, aad_len: int,
                   iv_len: int) -> None:
    """Enforce the SP 800-38D operand limits *before* any processing.

    Without the plaintext bound, a message longer than 2^32 - 2
    blocks silently wraps :func:`_inc32` and re-encrypts earlier
    counters — keystream reuse, the one unforgivable CTR failure.
    The check runs on lengths alone, ahead of key expansion and of
    the first counter increment.
    """
    if iv_len == 0:
        raise ValueError("GCM requires a non-empty IV")
    if iv_len > MAX_IV_BYTES:
        raise ValueError(
            f"GCM IV exceeds the SP 800-38D limit of "
            f"{MAX_IV_BYTES} bytes"
        )
    if plaintext_len > MAX_PLAINTEXT_BYTES:
        raise ValueError(
            f"GCM plaintext exceeds the SP 800-38D limit of "
            f"{MAX_PLAINTEXT_BYTES} bytes (2^39 - 256 bits); "
            f"longer messages would wrap the 32-bit counter and "
            f"reuse keystream"
        )
    if aad_len > MAX_AAD_BYTES:
        raise ValueError(
            f"GCM AAD exceeds the SP 800-38D limit of "
            f"{MAX_AAD_BYTES} bytes"
        )


def _ghash(h: int, data: bytes) -> int:
    """Golden table-free GHASH; the digest in
    :mod:`repro.aes.ghash` is cross-checked against it."""
    y = 0
    for index in range(0, len(data), BLOCK):
        chunk = data[index:index + BLOCK]
        chunk = chunk + bytes(BLOCK - len(chunk))
        y = gf128_mul(y ^ int.from_bytes(chunk, "big"), h)
    return y


def _inc32(block: bytes) -> bytes:
    """inc32 of SP 800-38D §6.2: the low 4 bytes wrap modulo 2^32.

    The wrap is what the spec defines, but a wrapped counter repeats
    keystream — so :func:`_check_lengths` bounds every message to at
    most 2^32 - 2 payload blocks, making the wrap unreachable from
    the GCM entry points.
    """
    head, counter = block[:12], int.from_bytes(block[12:], "big")
    return head + ((counter + 1) & 0xFFFFFFFF).to_bytes(4, "big")


def _subkey_and_mask(key: bytes, iv: bytes) -> Tuple[int, bytes, int]:
    """H, J0 and the tag mask E(K, J0), all on the batch engine.

    A 96-bit IV fixes J0 up front, so H = E(K, 0^128) and E(K, J0)
    are one two-block call; any other IV length hashes into J0
    (SP 800-38D §7.1) under H, so H comes first.
    """
    engine = _engine()
    if len(iv) == 12:
        j0 = iv + b"\x00\x00\x00\x01"
        out = engine.encrypt_blocks(key, bytes(BLOCK) + j0)
        h, mask = out[:BLOCK], out[BLOCK:]
    else:
        h = engine.encrypt_blocks(key, bytes(BLOCK))
        lengths = bytes(8) + (8 * len(iv)).to_bytes(8, "big")
        j0 = _ghash_provider().digest(
            int.from_bytes(h, "big"), (iv, lengths)).to_bytes(16, "big")
        mask = engine.encrypt_blocks(key, j0)
    return int.from_bytes(h, "big"), j0, int.from_bytes(mask, "big")


def _lengths_block(aad: bytes, ciphertext: bytes) -> bytes:
    return (8 * len(aad)).to_bytes(8, "big") + \
        (8 * len(ciphertext)).to_bytes(8, "big")


def _tag(h: int, mask: int, aad: bytes, ciphertext: bytes) -> bytes:
    """GHASH(A, C) xor E(K, J0)."""
    # Each part is padded to the block boundary by the digest
    # (tail block only) — no fully padded concatenation is built.
    s = _ghash_provider().digest(
        h, (aad, ciphertext, _lengths_block(aad, ciphertext)))
    return (s ^ mask).to_bytes(16, "big")


def gcm_encrypt(key: bytes, iv: bytes, plaintext: bytes,
                aad: bytes = b"") -> Tuple[bytes, bytes]:
    """Encrypt and authenticate; returns (ciphertext, 16-byte tag)."""
    _check_lengths(len(plaintext), len(aad), len(iv))
    _GCM_OPS.labels(op="encrypt").inc()
    h, j0, mask = _subkey_and_mask(key, bytes(iv))
    ciphertext = _engine().gctr(key, _inc32(j0), bytes(plaintext))
    return ciphertext, _tag(h, mask, bytes(aad), ciphertext)


def gcm_decrypt(key: bytes, iv: bytes, ciphertext: bytes, tag: bytes,
                aad: bytes = b"") -> bytes:
    """Verify and decrypt; raises :class:`AuthenticationError` on a
    bad tag (and releases no plaintext in that case)."""
    _check_lengths(len(ciphertext), len(aad), len(iv))
    _GCM_OPS.labels(op="decrypt").inc()
    h, j0, mask = _subkey_and_mask(key, bytes(iv))
    expected = _tag(h, mask, bytes(aad), bytes(ciphertext))
    if not _hmac.compare_digest(expected, bytes(tag)):
        _GCM_AUTH_FAILURES.inc()
        raise AuthenticationError("GCM tag verification failed")
    return _engine().gctr(key, _inc32(j0), bytes(ciphertext))
