"""The serving benchmark: one workload, one seed, one JSON result.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-small --seed 1 \\
        --seconds 15 --trace 0

It spawns ``python -m repro.cli serve`` (``src`` on ``PYTHONPATH``)
and drives it over loopback TCP from this process with two
connections, closed loop.  Every response is checked against an
oracle computed before timing.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer breakdown of traced
passes.  The last stdout line is the result; the lines before it are
a human-readable table and a ``report:`` line with the provenance.
The exit code is 0 only when every response was correct.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Server spawns per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Frame-read replays per frame of the workload's pool.
REPLAYS = 5

#: This process's CPUs at start, before it pins itself.  The server
#: gets the first and the load process the second: on a shared 2-vCPU
#: host, letting the scheduler stack both on one CPU mid-run made the
#: run-to-run p99 spread several times wider.  With one CPU nothing is
#: pinned.
CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU, LOAD_CPU = (CPUS[0], CPUS[1]) if len(CPUS) >= 2 \
    else (None, None)

#: Seconds of closed loop between two host-speed probes.
SLICE_S = 0.5

#: Units of the end-to-end metrics; the first five are the result.
UNITS = {
    "requests_per_ref_s": "1/ref_s", "latency_p50_ref_ms": "ref_ms",
    "latency_p99_ref_ms": "ref_ms", "setup_s": "s",
    "server_rss_mb": "MB", "requests_per_s": "1/s",
    "latency_p50_ms": "ms", "latency_p99_ms": "ms",
    "failed_ratio": "ratio", "latency_samples": "count",
    "host_speed_ratio": "ratio",
}
RESULT = list(UNITS)[:5]


def _layer_unit(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ns", "ns"), ("_pct", "%"),
                         ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _nearest_rank(ordered: List[float], q: float) -> float:
    return ordered[min(len(ordered) - 1,
                       max(0, math.ceil(q * len(ordered)) - 1))]


# ------------------------------------------------------------ phases


async def _spawn(traced: bool, cycle, tally
                 ) -> Tuple[harness.ServerProcess, float]:
    server = harness.ServerProcess(harness.serve_argv(traced),
                                   SERVER_CPU)
    try:
        return server, await harness.setup_probe(server, cycle, tally)
    except BaseException:
        server.kill()
        raise


@dataclass
class Window:
    """The timed part of an untraced run, in wall and reference time."""

    ok: int = 0
    wall_s: float = 0.0
    ref_s: float = 0.0
    latencies: List[float] = field(default_factory=list)
    ref_latencies: List[float] = field(default_factory=list)


def _speed() -> float:
    return harness.host_speed((SERVER_CPU, LOAD_CPU), LOAD_CPU)


async def _measure(server, workload, lanes, seconds: float,
                   tally) -> Window:
    """Warm (persistent workloads only), then run closed loop for
    ``seconds`` in slices of ``SLICE_S``, probing the host's speed
    between slices while no request is in flight."""
    # The set-up probe's teardown forgets its key; let it finish.
    await harness.wait_idle(server)
    conns = None
    if workload.persistent:
        conns = harness.Persistent(server, lanes)
        await conns.open(tally)
        await conns.run(tally, cycles=len(lanes[0]))
    window = Window()
    speed = _speed()
    while window.wall_s < seconds:
        part = harness.Tally()
        start = time.perf_counter()
        if conns is not None:
            await conns.run(part, deadline=start + SLICE_S)
        else:
            await harness.churn(server, lanes, part,
                                deadline=start + SLICE_S)
        elapsed = time.perf_counter() - start
        if conns is None:
            await harness.wait_idle(server)
        before, speed = speed, _speed()
        factor = (before + speed) / 2
        window.ok += part.ok
        window.wall_s += elapsed
        window.ref_s += elapsed * factor
        window.latencies += part.latencies
        window.ref_latencies += [x * factor for x in part.latencies]
        tally.absorb(part)
        if part.failed:
            break
    if conns is not None:
        await conns.close()
    if not window.ok:
        raise harness.BenchError("no request succeeded: "
                                 + " | ".join(tally.errors[:3]))
    return window


async def run_untraced(workload, seed: int, oracle, seconds: float,
                       tally) -> Dict[str, float]:
    lanes = workloads.build_cycles(workload, seed, oracle)
    setups: List[float] = []
    server = None
    for index in range(SETUPS):
        server, setup = await _spawn(False, lanes[0][0], tally)
        setups.append(setup)
        if index < SETUPS - 1:
            await server.stop()
    try:
        window = await _measure(server, workload, lanes, seconds, tally)
        rss = server.peak_rss_mb()
        await server.stop()
    except BaseException:
        server.kill()
        raise
    wall = sorted(window.latencies)
    ref = sorted(window.ref_latencies)
    return {
        "requests_per_ref_s": window.ok / window.ref_s,
        "latency_p50_ref_ms": _nearest_rank(ref, 0.50) * 1e3,
        "latency_p99_ref_ms": _nearest_rank(ref, 0.99) * 1e3,
        "setup_s": statistics.median(setups),
        "server_rss_mb": rss,
        "requests_per_s": window.ok / window.wall_s,
        "latency_p50_ms": _nearest_rank(wall, 0.50) * 1e3,
        "latency_p99_ms": _nearest_rank(wall, 0.99) * 1e3,
        "failed_ratio": tally.failed / max(1, tally.attempted),
        "latency_samples": len(wall),
        "host_speed_ratio": window.ref_s / window.wall_s,
    }


async def _replay_read_frame(lanes) -> float:
    """Median microseconds of ``read_frame(timeout=io_timeout)`` over
    a StreamReader pre-filled with the workload's request frames: the
    frame read's CPU cost with no idle wait."""
    from repro.serve.protocol import Frame, encode_frame, read_frame
    from repro.serve.server import ServeConfig

    timeout = ServeConfig().io_timeout
    frames = [encode_frame(Frame(op=r.op, mode=r.mode, request_id=n,
                                 payload=r.payload))
              for n, r in enumerate(
                  (r for c in lanes[0] for r in c.requests), 1)]
    wire = b"".join(frames)
    times: List[float] = []
    for _ in range(REPLAYS):
        reader = asyncio.StreamReader()
        reader.feed_data(wire)
        reader.feed_eof()
        for _ in frames:
            start = time.perf_counter()
            await read_frame(reader, timeout=timeout)
            times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


async def _pass(server, workload, lanes, tally) -> layers.Pass:
    """``workload.traced_cycles`` whole cycles per connection, warm
    first unless the workload is key churn."""
    timed = harness.Tally()
    await harness.wait_idle(server)
    if workload.persistent:
        conns = harness.Persistent(server, lanes)
        await conns.open(tally)
        await conns.run(tally, cycles=1)
        start = time.perf_counter()
        await conns.run(timed, cycles=workload.traced_cycles)
        busy = end = time.perf_counter()
        await conns.close()
        await harness.wait_idle(server)
    else:
        # Key churn's window also holds the teardown of its last
        # connections, which the gauge confirms has run.
        start = time.perf_counter()
        await harness.churn(server, lanes, timed,
                            cycles=workload.traced_cycles)
        busy = time.perf_counter()
        await harness.wait_idle(server)
        end = time.perf_counter()
    tally.absorb(timed)
    expected = (workload.traced_cycles * len(workload.mix)
                * workloads.CONNECTIONS)
    if timed.ok != expected:
        raise harness.BenchError(
            f"pass answered {timed.ok}/{expected} requests: "
            + " | ".join(timed.errors[:3]))
    return layers.Pass(start, end, busy - start, timed.ok)


async def run_traced(workload, seed: int, oracle, seconds: float,
                     tally) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Alternate untraced and traced passes of the same cycles on two
    servers, a plain one and one started through ``traced_server.py``,
    for ``seconds`` and at least three pairs.  Alternating keeps host
    drift out of ``trace.overhead_pct``.  Pass ``i`` uses seed
    ``seed + (i + 1) // 2``, so the counts are compared across a
    repeated seed and across two seeds."""
    from repro.obs.tracing import disable_tracing, enable_tracing

    lanes = {0: workloads.build_cycles(workload, seed, oracle)}
    metrics = {"protocol.read_frame_us": await _replay_read_frame(lanes[0])}
    recorder = spans.Recorder()
    client_spans: List[spans.Span] = []
    untraced: List[layers.Pass] = []
    traced: List[layers.Pass] = []
    servers: List[harness.ServerProcess] = []
    try:
        for tracing in (False, True):
            server, _ = await _spawn(tracing, lanes[0][0][0], tally)
            servers.append(server)
        deadline = time.perf_counter() + seconds
        while len(traced) < 3 or time.perf_counter() < deadline:
            offset = (len(traced) + 1) // 2
            if offset not in lanes:
                lanes[offset] = workloads.build_cycles(
                    workload, seed + offset, oracle)
            untraced.append(await _pass(servers[0], workload,
                                        lanes[offset], tally))
            restore = spans.install_client(recorder)
            tracer = enable_tracing()
            spans.mark_epoch(tracer)
            try:
                traced.append(await _pass(servers[1], workload,
                                          lanes[offset], tally))
            finally:
                disable_tracing()
                restore()
                client_spans += spans.program_spans(tracer.events())
        for server in servers:
            await server.stop()
    except BaseException:
        for server in servers:
            server.kill()
        raise
    dump = _server_dump(servers[1])
    all_spans = (dump["spans"] + spans.program_spans(dump["events"])
                 + recorder.spans + client_spans)

    selected = [layers.select(all_spans, window) for window in traced]
    per_pass = [layers.counts(chosen) for chosen in selected]
    if any(c != per_pass[0] for c in per_pass[1:]):
        raise harness.BenchError(
            f"per-request counts differ between traced passes: "
            f"{per_pass}")
    requests = sum(window.requests for window in traced)
    metrics.update(layers.per_layer(
        [s for chosen in selected for s in chosen], requests))
    metrics["ghash.first_digest_us"] = layers.first_digest_us(
        dump["spans"])
    metrics["trace.overhead_pct"] = 100.0 * (
        1.0 - _rate(traced) / _rate(untraced))
    return metrics, dump["chosen"]


def _rate(passes: List[layers.Pass]) -> float:
    return (sum(p.requests for p in passes)
            / sum(p.busy for p in passes))


def _server_dump(server) -> dict:
    for line in reversed(server.stdout):
        if line.startswith(spans.MARKER):
            return json.loads(line[len(spans.MARKER):])
    raise harness.BenchError("traced server printed no spans")


# ------------------------------------------------------------ result
def provenance(workload: str, seed: int, oracle,
               chosen: Optional[Dict[str, str]]) -> Dict[str, object]:
    from repro.aes import ghash
    from repro.perf import backends, evp

    if chosen is None:
        backend = backends.get_backend("auto")
        chosen = {
            "backend": backend.name,
            "vectorized": str(bool(backend.vectorized)).lower(),
            "ghash_provider": ghash.get_provider("auto").name,
            "evp_registered": str(evp.have_evp()).lower(),
        }
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(CPUS),
        "cpu_server": SERVER_CPU,
        "cpu_load": LOAD_CPU,
        "python": platform.python_version(),
        "numpy": backends.numpy_version(),
        "oracle": oracle.name,
        "oracle_openssl": oracle.version,
        "libcrypto": evp.openssl_version(),
        **chosen,
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
    }


def _git_rev() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _print_table(workload: str, metrics: Dict[str, float],
                 units: Dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"{workload:15s} {name:28s} {value:14.4f} "
              f"{units[name]}")


async def run(args: argparse.Namespace) -> int:
    if LOAD_CPU is not None:
        os.sched_setaffinity(0, {LOAD_CPU})
    workload = workloads.WORKLOADS[args.workload]
    oracle = workloads.Oracle()
    tally = harness.Tally()
    if args.trace:
        shown, chosen = await run_traced(workload, args.seed, oracle,
                                         args.seconds, tally)
        units = {name: _layer_unit(name) for name in shown}
        result = shown
    else:
        shown = await run_untraced(workload, args.seed, oracle,
                                   args.seconds, tally)
        chosen = None
        units = UNITS
        result = {name: shown[name] for name in RESULT}
    correct = tally.failed == 0
    _print_table(workload.name, shown, units)
    report = {
        "provenance": provenance(workload.name, args.seed, oracle,
                                 chosen),
        "trace": args.trace, "seconds": args.seconds,
        "attempted": tally.attempted, "failed": tally.failed,
        "errors": tally.errors, "metrics": shown,
    }
    print("report: " + json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.items()},
    }))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return asyncio.run(run(args))
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import harness
        import layers
        import spans
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
