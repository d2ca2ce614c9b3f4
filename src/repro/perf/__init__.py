"""Batched software throughput engine and benchmark harness.

The paper's §1 motivation is that backbone channels "cannot lose
processing speed running cryptography algorithms in general software".
This subpackage is the software side of that argument, engineered the
way high-traffic deployments actually run block ciphers:

- :mod:`repro.perf.backends` — one bulk block-cipher backend per
  role, each with ``encrypt_blocks`` and ``decrypt_blocks``: the
  straightforward model (:class:`repro.aes.cipher.AES128`, the golden
  reference) and the default word-sliced *batch* T-table backend,
  which amortizes key expansion through an LRU round-key cache and
  processes many blocks per call — vectorized with numpy for large
  batches when numpy is available, pure Python otherwise.
- :mod:`repro.perf.keycache` — the one locked, zeroizing LRU behind
  the round-key cache and the GHASH tables of :mod:`repro.aes.ghash`.
- :mod:`repro.perf.evp` — the opt-in OpenSSL EVP ceiling, registered
  only where libcrypto passes its known-answer test.
- :mod:`repro.perf.engine` — :class:`~repro.perf.engine.BatchEngine`,
  one interface over every backend for the batchable modes (ECB in
  both directions, CTR keystream, GCTR), one backend call per
  buffer.
  Feedback modes (CBC/CFB) stay serial by construction — the paper's
  point that chaining makes per-block latency the whole story.
- :mod:`repro.perf.bench` — the benchmark harness: a pinned workload
  matrix (backend x mode x message size), a bit-for-bit equivalence
  gate against the golden model before any timing, and the persisted
  ``BENCH_software_throughput.json`` trajectory that later PRs assert
  no-regression against.

ECB and CTR in :mod:`repro.aes.modes` and every AES block of
:mod:`repro.aes.gcm` (payload, H and E(K, J0)) route through
:func:`repro.perf.engine.default_engine`.
"""

from repro.perf.backends import (
    Backend,
    BaselineBackend,
    RoundKeyCache,
    SlicedBackend,
    available_backends,
    get_backend,
    have_numpy,
    numpy_version,
)
from repro.perf.engine import (
    BackendMismatch,
    BatchEngine,
    default_engine,
    forget_key,
)
from repro.perf.evp import EvpBackend, have_evp, openssl_version

__all__ = [
    "Backend",
    "BackendMismatch",
    "BaselineBackend",
    "BatchEngine",
    "EvpBackend",
    "RoundKeyCache",
    "SlicedBackend",
    "available_backends",
    "default_engine",
    "forget_key",
    "get_backend",
    "have_evp",
    "have_numpy",
    "numpy_version",
    "openssl_version",
]
