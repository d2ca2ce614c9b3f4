"""Software throughput benchmark: the persisted perf trajectory.

This is the harness behind ``repro-aes bench``.  It does three things,
in a fixed order:

1. **Equivalence gate** — every backend is cross-checked bit-for-bit
   against the straightforward model (:class:`repro.aes.cipher.AES128`)
   on random corpora across every batch primitive (ECB, CTR with a
   partial tail, GCTR across the 32-bit counter wrap) *before* any
   timing happens.  A fast wrong answer is worthless; a mismatch
   raises :class:`~repro.perf.engine.BackendMismatch` and the CLI
   exits non-zero, which is what the CI smoke job keys off.
2. **Pinned workload matrix** — backend x mode x message size, the
   software analogue of the area/throughput trade-off tables in the
   MixColumn-architectures literature.  Slow backends are measured on
   a capped prefix of the payload and scaled (per-block cost is size-
   independent for the streaming modes); the cap is recorded honestly
   in ``measured_blocks``.  A serial CBC row rides along as the
   chained-mode reference — the case where, as the paper argues, no
   batching helps and per-block latency is the whole story.
3. **Trajectory record** — the results land in
   ``BENCH_software_throughput.json`` (schema below) so subsequent
   PRs can assert no-regression against a persisted baseline instead
   of folklore.

JSON schema (``repro-aes/software-throughput/v7``)::

    {
      "schema": "repro-aes/software-throughput/v7",
      "created_unix": 1754000000,
      "quick": true,
      "git_rev": "f5387c8..." | "unknown",
      "host": {"platform": ..., "python": ..., "machine": ...,
               "cpu_count": ..., "numpy": "2.4.6" | null,
               "openssl": "OpenSSL 3.x ..." | null},
      "equivalence": {"backends": [...], "primitives": [...],
                      "corpus_blocks": ..., "mismatches": 0,
                      "ghash_providers": ["vector" | "table"],
                      "ghash_cases": ..., "ghash_mismatches": 0},
      "workloads": [
        {"backend": "sliced", "vectorized": true, "mode": "ctr",
         "chained": false, "size_bytes": 1048576, "blocks": 65536,
         "measured_blocks": 65536, "reps": 1, "seconds": ...,
         "blocks_per_s": ..., "mb_per_s": ...,
         "speedup_vs_baseline": ...}
      ],
      "ghash": {
        "providers": ["bitwise", "vector" | "table"],
        "workloads": [
          {"provider": "vector", "vectorized": true,
           "kind": "digest" | "gcm", "size_bytes": ...,
           "blocks": ..., "measured_blocks": ..., "reps": ...,
           "seconds": ..., "blocks_per_s": ..., "mb_per_s": ...,
           "speedup_vs_bitwise": ...}
        ]
      } | null,
      "obs": {"repro_engine_ops_total": {...}, ...},
      "serve": {"clients": 8, "requests_per_client": 16,
                "mode": "ctr", "payload_bytes": 16384,
                "requests": 128, "errors": 0, "seconds": ...,
                "requests_per_s": ..., "mb_per_s": ...,
                "latency": {"p50_s": ..., "p95_s": ...,
                            "p99_s": ..., "max_s": ...} | null
               } | null,
      "cluster": {"mode": "ctr", "payload_bytes": 16384,
                  "sessions": 8, "requests_per_session": 16,
                  "rows": [
                    {"workers": 1, "requests": ..., "errors": 0,
                     "seconds": ..., "requests_per_s": ...,
                     "mb_per_s": ..., "speedup_vs_single": 1.0}
                  ]} | null
    }

The ``obs`` section is a :mod:`repro.obs.metrics` snapshot of the
engine instrumentation accumulated during the run; ``serve`` is a
loopback run of the :mod:`repro.serve` service recording what the
whole stack achieves in requests/s and client-observed latency next
to the raw engine rates; ``ghash`` times the one GHASH path against
the golden ``bitwise`` fold; ``cluster`` drives the same closed
loop through the :mod:`repro.serve.cluster` gateway, one row per
worker-process count (on a single-CPU host ``speedup_vs_single``
honestly reads "barely").  v7 dropped v6's top-level ``workers``
field with the engine's thread sharding.  :func:`load_report` reads
only the schema :func:`run_bench` writes; older trajectory files
live in git history.
"""

from __future__ import annotations

import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.aes.cipher import AES128
from repro.aes.vectors import SP800_38A_ECB128_KEY
from repro.perf.backends import (
    _NP_MIN_BLOCKS,
    Backend,
    available_backends,
    numpy_version,
)
from repro.obs.metrics import global_registry
from repro.obs.tracing import trace_span
from repro.perf.engine import BackendMismatch, BatchEngine

BLOCK = 16

SCHEMA = "repro-aes/software-throughput/v7"

DEFAULT_OUT = "BENCH_software_throughput.json"

#: The pinned message sizes (bytes) of the full and quick matrices.
FULL_SIZES = (16384, 262144, 1048576)
QUICK_SIZES = (16384, 1048576)

#: Parallelizable modes every backend is timed on.
BATCH_MODES = ("ecb", "ctr")

#: Measurement caps, in blocks, per backend name.  The baseline runs
#: ~1.5k blocks/s in CPython, so timing a full 1 MiB through it would
#: dominate the whole bench; a capped prefix gives the same per-block
#: cost.  ``measured_blocks`` records what actually ran.
_MEASURE_CAPS = {"baseline": 2048}
_MEASURE_CAPS_QUICK = {"baseline": 512}

#: Same discipline for the GHASH section: the golden bitwise fold runs
#: ~50k blocks/s, so it is timed on a capped prefix and scaled.
_BITWISE_CAP = 4096
_BITWISE_CAP_QUICK = 1024

#: Seed for every corpus/payload this harness generates — pinned so
#: the trajectory compares like against like across PRs.
_SEED = 2003


# ------------------------------------------------------- golden model
def _serial_ecb(key: bytes, data: bytes) -> bytes:
    aes = AES128(key)
    return b"".join(aes.encrypt_block(data[i:i + BLOCK])
                    for i in range(0, len(data), BLOCK))


def _serial_ecb_decrypt(key: bytes, data: bytes) -> bytes:
    aes = AES128(key)
    return b"".join(aes.decrypt_block(data[i:i + BLOCK])
                    for i in range(0, len(data), BLOCK))


def _serial_ctr(key: bytes, nonce: bytes, data: bytes) -> bytes:
    aes = AES128(key)
    out = bytearray()
    for index in range(0, len(data), BLOCK):
        counter = (index // BLOCK).to_bytes(8, "big")
        stream = aes.encrypt_block(nonce + counter)
        chunk = data[index:index + BLOCK]
        out.extend(c ^ s for c, s in zip(chunk, stream))
    return bytes(out)


def _serial_gctr(key: bytes, icb: bytes, data: bytes) -> bytes:
    aes = AES128(key)
    head, start = icb[:12], int.from_bytes(icb[12:], "big")
    out = bytearray()
    for index in range(0, len(data), BLOCK):
        counter = (start + index // BLOCK) & 0xFFFFFFFF
        stream = aes.encrypt_block(head + counter.to_bytes(4, "big"))
        chunk = data[index:index + BLOCK]
        out.extend(c ^ s for c, s in zip(chunk, stream))
    return bytes(out)


# --------------------------------------------------- equivalence gate
def cross_check(backends: Optional[Dict[str, Backend]] = None,
                corpus_blocks: int = 48,
                seed: int = _SEED) -> Dict[str, object]:
    """Verify every backend against the straightforward model.

    ECB runs in both directions over buffers of 1,
    ``_NP_MIN_BLOCKS - 1``, ``_NP_MIN_BLOCKS`` and ``corpus_blocks``
    blocks, so the sliced backend's pure-Python and numpy loops are
    both gated; CTR and GCTR run on a ragged ``corpus_blocks`` buffer.
    Raises :class:`BackendMismatch` naming the first divergent
    (backend, primitive) pair; returns the summary recorded in the
    bench JSON when everything agrees.
    """
    if backends is None:
        backends = available_backends()
    rng = random.Random(seed)
    keys = [SP800_38A_ECB128_KEY,
            bytes(rng.randrange(256) for _ in range(16))]
    aligned = [rng.randbytes(blocks * BLOCK) for blocks in sorted({
        1, _NP_MIN_BLOCKS - 1, _NP_MIN_BLOCKS, corpus_blocks})]
    ragged = rng.randbytes(corpus_blocks * BLOCK - 7)
    nonce = rng.randbytes(8)
    # An ICB 2 blocks short of the 32-bit wrap: the corpus crosses it.
    icb = rng.randbytes(12) + (0xFFFFFFFE).to_bytes(4, "big")

    primitives: Dict[
        str, Callable[[BatchEngine, bytes], List[Tuple[bytes, bytes]]]
    ] = {
        "ecb": lambda eng, key: [
            (eng.encrypt_blocks(key, data), _serial_ecb(key, data))
            for data in aligned],
        "ecb_decrypt": lambda eng, key: [
            (eng.decrypt_blocks(key, data),
             _serial_ecb_decrypt(key, data))
            for data in aligned],
        "ctr": lambda eng, key: [(eng.xcrypt_ctr(key, nonce, ragged),
                                  _serial_ctr(key, nonce, ragged))],
        "gctr": lambda eng, key: [(eng.gctr(key, icb, ragged),
                                   _serial_gctr(key, icb, ragged))],
    }
    for name, backend in sorted(backends.items()):
        engine = BatchEngine(backend)
        for primitive, run in primitives.items():
            for key in keys:
                for got, want in run(engine, key):
                    if got != want:
                        raise BackendMismatch(
                            f"backend {name!r} diverges from the "
                            f"straightforward model on {primitive} "
                            f"({len(want) // BLOCK} blocks, "
                            f"seed {seed})"
                        )
    return {
        "backends": sorted(backends),
        "primitives": sorted(primitives),
        "corpus_blocks": corpus_blocks,
        "keys": len(keys),
        "mismatches": 0,
    }


def cross_check_ghash(seed: int = _SEED) -> Dict[str, object]:
    """Verify the one GHASH digest against the golden ``_ghash``.

    The corpus sweeps message lengths 0..3 blocks ± 1 byte (the byte
    table fold), a multi-part split (GCM's AAD/ciphertext/lengths
    layout), and a buffer long enough to take the numpy lane fold.
    Raises :class:`BackendMismatch` on the first divergence; returns
    the summary merged into the bench JSON's ``equivalence`` section.
    """
    from repro.aes import ghash as ghash_mod
    from repro.aes.gcm import _ghash as golden

    ghash = ghash_mod.default_provider()
    rng = random.Random(seed)
    subkeys = [rng.getrandbits(128) for _ in range(2)]
    lengths = sorted({
        max(0, n * BLOCK + d)
        for n in range(4) for d in (-1, 0, 1)
    } | {2 * ghash_mod.VECTOR_LANES * BLOCK + 5})
    cases = 0
    for subkey in subkeys:
        for length in lengths:
            data = rng.randbytes(length)
            split = rng.randrange(length + 1)
            for parts in ((data,), (data[:split], data[split:])):
                cases += 1
                padded = b"".join(
                    p + bytes((-len(p)) % BLOCK) for p in parts)
                if ghash.digest(subkey, parts) != golden(subkey, padded):
                    raise BackendMismatch(
                        f"ghash {ghash.name!r} diverges from the golden "
                        f"_ghash on a {length}-byte message split "
                        f"{tuple(len(p) for p in parts)} (seed {seed})"
                    )
    return {
        "ghash_providers": [ghash.name],
        "ghash_cases": cases,
        "ghash_mismatches": 0,
    }


# ------------------------------------------------------------- timing
def host_fingerprint() -> Dict[str, object]:
    """Where these numbers were measured (trajectories only compare
    within a fingerprint; CI hosts vary run to run)."""
    from repro.perf.evp import openssl_version
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version(),
        "openssl": openssl_version(),
    }


def git_revision(root: Optional[Path] = None) -> str:
    """The commit hash these numbers were measured at, best-effort.

    Returns ``"unknown"`` when git is absent, the tree is not a
    repository, or anything else goes wrong — provenance must never
    fail a bench run.
    """
    if root is None:
        root = Path(__file__).resolve().parents[3]
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True,
            timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = proc.stdout.strip()
    if proc.returncode == 0 and rev:
        return rev
    return "unknown"


# ----------------------------------------------------- serve scenario
def serve_scenario(quick: bool = False,
                   clients: Optional[int] = None,
                   requests: Optional[int] = None,
                   payload_bytes: Optional[int] = None
                   ) -> Dict[str, object]:
    """Loopback serve run: in-process server, closed-loop clients.

    The workload matrix above times the engine primitives alone; this
    scenario times the whole service stack — frame codec, asyncio
    scheduling, the bounded queue, executor hand-off and the crypto —
    as a client fleet sees it.  Runs entirely on loopback inside one
    process (no subprocess, no fixed port), so it is as pinned as the
    matrix: same seed, same payload discipline.
    """
    import asyncio

    from repro.serve.client import run_load
    from repro.serve.protocol import Mode
    from repro.serve.server import CryptoServer, ServeConfig

    if clients is None:
        clients = 4 if quick else 8
    if requests is None:
        requests = 8 if quick else 16
    if payload_bytes is None:
        payload_bytes = 4096 if quick else 16384
    session_key = random.Random(_SEED).randbytes(16)

    async def _run() -> Dict[str, object]:
        server = CryptoServer(ServeConfig(port=0))
        await server.start()
        try:
            host, port = server.address
            report = await run_load(
                host, port, session_key,
                clients=clients, requests=requests,
                mode=Mode.CTR, payload_bytes=payload_bytes,
                seed=_SEED,
            )
        finally:
            await server.stop()
        return {
            "clients": clients,
            "requests_per_client": requests,
            "mode": report.mode,
            "payload_bytes": payload_bytes,
            "requests": report.requests,
            "errors": report.errors,
            "seconds": round(report.seconds, 6),
            "requests_per_s": round(report.requests_per_s, 1),
            "mb_per_s": round(report.mb_per_s, 3),
            # Client-observed latency percentiles next to the rates
            # (None when no request completed a round-trip).
            "latency": {
                key: round(value, 6)
                for key, value in report.latency.items()
            } or None,
        }

    with trace_span("bench.serve", clients=clients,
                    requests=requests):
        return asyncio.run(_run())


# --------------------------------------------------- cluster scenario
def cluster_scenario(quick: bool = False,
                     worker_counts: Optional[Sequence[int]] = None,
                     sessions: Optional[int] = None,
                     requests: Optional[int] = None,
                     payload_bytes: Optional[int] = None
                     ) -> Dict[str, object]:
    """Gateway-routed cluster run: requests/s versus worker count.

    The serve scenario above times one server process; this one
    stands up the whole :mod:`repro.serve.cluster` topology — a
    supervisor spawning N worker processes plus the session-sharded
    gateway — and drives :func:`repro.serve.client.run_session_load`
    through the gateway, once per worker count.  Each row records the
    closed-loop rate and ``speedup_vs_single`` against the 1-worker
    row, which is the scaling claim the topology exists to make.  On
    a single-CPU host the speedup saturates near 1.0x; the row
    records whatever the host actually delivers (``host.cpu_count``
    above says why).
    """
    import asyncio

    from repro.serve.client import run_session_load
    from repro.serve.cluster import Cluster, ClusterConfig
    from repro.serve.protocol import Mode

    if worker_counts is None:
        worker_counts = (1, 2) if quick else (1, 2, 4)
    counts = tuple(sorted(set(int(w) for w in worker_counts)))
    if not counts or any(w < 1 for w in counts):
        raise ValueError("worker counts must be positive integers")
    if sessions is None:
        sessions = 4 if quick else 8
    if requests is None:
        requests = 8 if quick else 16
    if payload_bytes is None:
        payload_bytes = 4096 if quick else 16384
    base_key = random.Random(_SEED).randbytes(16)

    async def _run(workers: int) -> Dict[str, object]:
        cluster = Cluster(ClusterConfig(workers=workers,
                                        gateway_port=0))
        await cluster.start()
        try:
            host, port = cluster.address
            report = await run_session_load(
                host, port, base_key,
                sessions=sessions, requests=requests,
                mode=Mode.CTR, payload_bytes=payload_bytes,
                seed=_SEED,
            )
        finally:
            await cluster.stop()
        return {
            "workers": workers,
            "requests": report.requests,
            "errors": report.errors,
            "seconds": round(report.seconds, 6),
            "requests_per_s": round(report.requests_per_s, 1),
            "mb_per_s": round(report.mb_per_s, 3),
        }

    rows: List[Dict[str, object]] = []
    for workers in counts:
        with trace_span("bench.cluster", workers=workers,
                        sessions=sessions):
            rows.append(asyncio.run(_run(workers)))

    single = (float(rows[0]["requests_per_s"])  # type: ignore[arg-type]
              if rows[0]["workers"] == 1 else None)
    for row in rows:
        rate = float(row["requests_per_s"])  # type: ignore[arg-type]
        row["speedup_vs_single"] = (
            round(rate / single, 2) if single else None
        )
    return {
        "mode": "ctr",
        "payload_bytes": payload_bytes,
        "sessions": sessions,
        "requests_per_session": requests,
        "rows": rows,
    }


def ghash_section(quick: bool = False,
                  sizes: Optional[Sequence[int]] = None,
                  reps: Optional[int] = None) -> Dict[str, object]:
    """Time the one GHASH path against the golden bitwise fold.

    Rows per size: ``bitwise`` ``digest`` runs the golden
    :func:`repro.aes.gcm._ghash` on a capped prefix like the baseline
    cipher backend, and is the denominator of every
    ``speedup_vs_bitwise``; the one path's ``digest`` row isolates the
    GF(2^128) fold, and its ``gcm`` row runs :func:`repro.aes.gcm.
    gcm_encrypt` to show what the mode users actually feel.
    """
    from repro.aes import ghash as ghash_mod
    from repro.aes.gcm import _ghash as golden
    from repro.aes.gcm import gcm_encrypt

    if sizes is None:
        sizes = QUICK_SIZES if quick else FULL_SIZES
    sizes = sorted(set(int(s) for s in sizes))
    if reps is None:
        reps = 1 if quick else 3
    cap = _BITWISE_CAP_QUICK if quick else _BITWISE_CAP

    rng = random.Random(_SEED)
    subkey = rng.getrandbits(128)
    key = SP800_38A_ECB128_KEY
    iv = rng.randbytes(12)
    payload = rng.randbytes(max(sizes))

    ghash = ghash_mod.default_provider()
    vectorized = ghash_mod.have_numpy()
    runs: List[Tuple[str, bool, str, Optional[int], Callable]] = [
        ("bitwise", False, "digest", cap,
         lambda p: golden(subkey, p)),
        (ghash.name, vectorized, "digest", None,
         lambda p: ghash.digest(subkey, (p,))),
        (ghash.name, vectorized, "gcm", None,
         lambda p: gcm_encrypt(key, iv, p)),
    ]
    rows: List[Dict[str, object]] = []
    base: Dict[int, float] = {}
    for name, vector, kind, limit, run in runs:
        for size in sizes:
            blocks = size // BLOCK
            measured = blocks if limit is None else min(blocks, limit)
            piece = payload[:measured * BLOCK]
            with trace_span("bench.ghash", provider=name, kind=kind,
                            size_bytes=size):
                seconds = _measure(lambda: run(piece), reps)
            per_rep = seconds / reps if reps else 0.0
            rate = (measured / per_rep) if per_rep > 0 else 0.0
            if name == "bitwise":
                base[size] = rate
            denom = base.get(size)
            rows.append({
                "provider": name,
                "vectorized": vector,
                "kind": kind,
                "size_bytes": size,
                "blocks": blocks,
                "measured_blocks": measured,
                "reps": reps,
                "seconds": round(seconds, 6),
                "blocks_per_s": round(rate, 1),
                "mb_per_s": round(rate * BLOCK / (1024 * 1024), 3),
                "speedup_vs_bitwise": (
                    round(rate / denom, 2) if denom else None),
            })
    return {"providers": ["bitwise", ghash.name], "workloads": rows}


def _measure(fn: Callable[[], object], reps: int) -> float:
    fn()  # warm-up: table/array builds, cache fills
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return time.perf_counter() - start


def run_bench(quick: bool = False,
              sizes: Optional[Sequence[int]] = None,
              reps: Optional[int] = None,
              backend_names: Optional[Sequence[str]] = None,
              corpus_blocks: int = 48,
              serve: bool = True,
              ghash: bool = True,
              cluster: bool = True
              ) -> Dict[str, object]:
    """Equivalence-gate then time the pinned workload matrix.

    Returns the full report dict (the JSON payload).  ``sizes`` and
    ``reps`` override the pinned matrix for smoke tests; the defaults
    are the persisted-trajectory configuration.  ``ghash=False``
    skips the GHASH section (``"ghash": null``).  ``cluster=False``
    skips the multi-process cluster scaling section
    (``"cluster": null``) — useful where spawning worker processes is
    unwelcome (sandboxes, coverage runs).
    """
    all_backends = available_backends()
    if backend_names:
        unknown = sorted(set(backend_names) - set(all_backends))
        if unknown:
            raise ValueError(f"unknown backends: {', '.join(unknown)}")
        backends = {name: all_backends[name]
                    for name in backend_names}
    else:
        backends = all_backends
    if "baseline" not in backends:
        # Speedups are *defined* relative to the straightforward
        # model; it always runs.
        backends["baseline"] = all_backends["baseline"]

    with trace_span("bench.cross_check",
                    backends=",".join(sorted(backends))):
        equivalence = cross_check(backends,
                                  corpus_blocks=corpus_blocks)
        equivalence.update(cross_check_ghash())

    if sizes is None:
        sizes = QUICK_SIZES if quick else FULL_SIZES
    sizes = sorted(set(int(s) for s in sizes))
    if any(s < BLOCK or s % BLOCK for s in sizes):
        raise ValueError(
            f"workload sizes must be positive multiples of {BLOCK}"
        )
    if reps is None:
        reps = 1 if quick else 3
    caps = _MEASURE_CAPS_QUICK if quick else _MEASURE_CAPS

    rng = random.Random(_SEED)
    key = SP800_38A_ECB128_KEY
    nonce = rng.randbytes(8)
    iv = rng.randbytes(16)
    payload = rng.randbytes(max(sizes))

    rows: List[Dict[str, object]] = []
    for name in sorted(backends):
        engine = BatchEngine(backends[name])
        cap = caps.get(name)
        for mode in BATCH_MODES:
            for size in sizes:
                blocks = size // BLOCK
                measured = blocks if cap is None else min(blocks, cap)
                piece = payload[:measured * BLOCK]
                if mode == "ecb":
                    fn = lambda p=piece: engine.encrypt_blocks(key, p)
                else:
                    fn = lambda p=piece: engine.xcrypt_ctr(
                        key, nonce, p)
                with trace_span("bench.workload", backend=name,
                                mode=mode, size_bytes=size):
                    seconds = _measure(fn, reps)
                rows.append(_row(name, backends[name], mode, False,
                                 size, blocks, measured, reps,
                                 seconds))

    # Serial chained-mode reference: CBC through the straightforward
    # model.  No backend can batch it — that is the point.
    from repro.aes.modes import cbc_encrypt
    cbc_size = min(sizes)
    cbc_blocks = cbc_size // BLOCK
    cap = caps.get("baseline")
    measured = cbc_blocks if cap is None else min(cbc_blocks, cap)
    piece = payload[:measured * BLOCK]
    with trace_span("bench.workload", backend="baseline",
                    mode="cbc", size_bytes=cbc_size):
        seconds = _measure(lambda: cbc_encrypt(key, iv, piece), reps)
    rows.append(_row("baseline", backends["baseline"], "cbc", True,
                     cbc_size, cbc_blocks, measured, reps, seconds))

    _attach_speedups(rows)
    ghash_rows = ghash_section(quick=quick, sizes=sizes, reps=reps) \
        if ghash else None
    serve_row = serve_scenario(quick=quick) if serve else None
    cluster_section = cluster_scenario(quick=quick) if cluster \
        else None
    return {
        "schema": SCHEMA,
        "created_unix": int(time.time()),
        "quick": bool(quick),
        "git_rev": git_revision(),
        "host": host_fingerprint(),
        "equivalence": equivalence,
        "workloads": rows,
        "ghash": ghash_rows,
        "obs": global_registry().snapshot(prefix="repro_engine_"),
        "serve": serve_row,
        "cluster": cluster_section,
    }


def _row(name: str, backend: Backend, mode: str, chained: bool,
         size: int, blocks: int, measured: int, reps: int,
         seconds: float) -> Dict[str, object]:
    per_rep = seconds / reps if reps else 0.0
    blocks_per_s = (measured / per_rep) if per_rep > 0 else 0.0
    return {
        "backend": name,
        "vectorized": backend.vectorized,
        "mode": mode,
        "chained": chained,
        "size_bytes": size,
        "blocks": blocks,
        "measured_blocks": measured,
        "reps": reps,
        "seconds": round(seconds, 6),
        "blocks_per_s": round(blocks_per_s, 1),
        "mb_per_s": round(blocks_per_s * BLOCK / (1024 * 1024), 3),
    }


def _attach_speedups(rows: List[Dict[str, object]]) -> None:
    baseline: Dict[object, float] = {}
    for row in rows:
        if row["backend"] == "baseline":
            baseline[(row["mode"], row["size_bytes"])] = \
                float(row["blocks_per_s"])  # type: ignore[arg-type]
    for row in rows:
        base = baseline.get((row["mode"], row["size_bytes"]))
        rate = float(row["blocks_per_s"])  # type: ignore[arg-type]
        row["speedup_vs_baseline"] = (
            round(rate / base, 2) if base else None
        )


def write_report(report: Dict[str, object], out: Path) -> Path:
    """Persist the trajectory JSON (pretty-printed, trailing newline)."""
    out = Path(out)
    out.write_text(json.dumps(report, indent=2, sort_keys=True)
                   + "\n")
    return out


def load_report(path: Path) -> Dict[str, object]:
    """Read a persisted trajectory file written by :func:`run_bench`.

    Any other schema raises ``ValueError``.
    """
    report = json.loads(Path(path).read_text())
    schema = report.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            f"unrecognized bench schema {schema!r} in {path} "
            f"(expected {SCHEMA!r})"
        )
    return report


def render_report(report: Dict[str, object]) -> str:
    """Human-readable table of one bench run."""
    lines = []
    host = report["host"]
    numpy_note = host["numpy"] or "absent"  # type: ignore[index]
    rev = str(report["git_rev"])[:12]
    lines.append(
        f"software throughput "
        f"({'quick' if report['quick'] else 'full'} matrix, "
        f"numpy={numpy_note}, rev={rev})"
    )
    header = (f"{'backend':<10} {'mode':<5} {'size':>9} "
              f"{'blocks/s':>12} {'MB/s':>9} {'vs baseline':>12}")
    lines.append(header)
    lines.append("-" * len(header))
    for row in report["workloads"]:  # type: ignore[union-attr]
        tag = "*" if row["vectorized"] else " "
        lines.append(
            f"{row['backend']:<10}{tag}{row['mode']:<5} "
            f"{_human_size(row['size_bytes']):>9} "
            f"{row['blocks_per_s']:>12,.0f} "
            f"{row['mb_per_s']:>9.2f} "
            f"{_times(row['speedup_vs_baseline']):>12}"
        )
    ghash = report.get("ghash")
    if ghash:
        lines.append("ghash (digest | end-to-end gcm, vs bitwise digest):")
        by_key: Dict[object, Dict[str, object]] = {
            (row["provider"], row["kind"], row["size_bytes"]): row
            for row in ghash["workloads"]  # type: ignore[index]
        }
        name = ghash["providers"][-1]  # type: ignore[index]
        for (provider, kind, size), digest in by_key.items():
            gcm = by_key.get((provider, "gcm", size))
            if provider != name or kind != "digest" or gcm is None:
                continue
            tag = "*" if digest["vectorized"] else " "
            lines.append(
                f"  {name:<8}{tag}{_human_size(size):>9} "
                f"{digest['mb_per_s']:>9.2f} MB/s "
                f"{_times(digest['speedup_vs_bitwise']):>9} | "
                f"gcm {gcm['mb_per_s']:>9.2f} MB/s "
                f"{_times(gcm['speedup_vs_bitwise']):>9}"
            )
    eq: Dict[str, object] = report["equivalence"]  # type: ignore[assignment]
    backends_n = len(eq["backends"])  # type: ignore[arg-type]
    primitives_n = len(eq["primitives"])  # type: ignore[arg-type]
    lines.append(
        f"equivalence: {backends_n} backend(s) "
        f"x {primitives_n} primitive(s) "
        f"x {eq['keys']} key(s), "
        f"{eq['mismatches']} mismatch(es)"
    )
    ghash_providers = eq["ghash_providers"]
    assert isinstance(ghash_providers, list)
    lines.append(
        f"ghash equivalence: "
        f"{len(ghash_providers)} provider(s), "
        f"{eq['ghash_cases']} case(s), "
        f"{eq['ghash_mismatches']} mismatch(es)"
    )
    serve = report.get("serve")
    if serve:
        lines.append(
            f"serve: {serve['clients']} client(s) x "  # type: ignore[index]
            f"{serve['requests_per_client']} req, "  # type: ignore[index]
            f"{serve['mode']} "  # type: ignore[index]
            f"{_human_size(serve['payload_bytes'])}: "  # type: ignore[index]
            f"{serve['requests_per_s']:,.0f} req/s, "  # type: ignore[index]
            f"{serve['mb_per_s']:.2f} MB/s, "  # type: ignore[index]
            f"{serve['errors']} error(s)"  # type: ignore[index]
        )
        latency = serve.get("latency")  # type: ignore[union-attr]
        if latency:
            lines.append(
                "serve latency: "
                + ", ".join(
                    f"{key[:-2]}={latency[key] * 1000:.2f}ms"
                    for key in ("p50_s", "p95_s", "p99_s", "max_s")
                    if latency.get(key) is not None
                )
            )
    cluster = report.get("cluster")
    if cluster:
        sessions = cluster["sessions"]  # type: ignore[index]
        per_sess = cluster["requests_per_session"]  # type: ignore[index]
        mode_name = cluster["mode"]  # type: ignore[index]
        payload = cluster["payload_bytes"]  # type: ignore[index]
        lines.append(
            f"cluster: {sessions} session(s) x {per_sess} req, "
            f"{mode_name} {_human_size(payload)}:"
        )
        for row in cluster["rows"]:  # type: ignore[index]
            lines.append(
                f"  {row['workers']} worker(s): "
                f"{row['requests_per_s']:>8,.0f} req/s, "
                f"{row['mb_per_s']:.2f} MB/s, "
                f"{row['errors']} error(s), "
                f"{_times(row['speedup_vs_single'])} vs single"
            )
    lines.append("(* = numpy-vectorized; baseline rows may be "
                 "measured on a capped prefix, see measured_blocks)")
    return "\n".join(lines)


def _times(speedup: object) -> str:
    return f"{speedup:.2f}x" if speedup else "-"


def _human_size(size: int) -> str:
    if size % (1024 * 1024) == 0:
        return f"{size // (1024 * 1024)} MiB"
    if size % 1024 == 0:
        return f"{size // 1024} KiB"
    return f"{size} B"


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    """Tiny direct entry point (``python -m repro.perf.bench``)."""
    report = run_bench(quick="--quick" in (argv or sys.argv[1:]))
    write_report(report, Path(DEFAULT_OUT))
    print(render_report(report))
    return 0
