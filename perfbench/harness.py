"""Server processes and the closed-loop load loops.

The load side is this process; the server is a separate
``python -m repro.cli serve`` process on loopback TCP (or, for a
traced pass, the same command started through ``traced_server.py``).
Every request goes through :class:`repro.serve.client.CryptoClient`
with retries off, so a non-OK status is a failure, not a hidden
retry.
"""

from __future__ import annotations

import asyncio
import os
import queue
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.client import CryptoClient, RetryPolicy
from repro.serve.protocol import Status

from workloads import Cycle, Request

ROOT = Path(__file__).resolve().parent.parent
NO_RETRY = RetryPolicy(attempts=1)
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

#: Iterations of the host-speed kernel per CPU in one probe.  The
#: probe times them as one block: the closed loop it stands in for
#: feels the host's stalls too, so a stall must count here as well.
SPEED_ITERATIONS = 120_000
#: The kernel rate, in iterations per second, of the reference host
#: that reference time is measured on: a round figure inside the
#: 7–14 million the 2-vCPU development host showed.
REF_SPEED = 10_000_000


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


def _kernel(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def host_speed(cpus: Sequence[Optional[int]],
               home: Optional[int]) -> float:
    """This host's speed right now relative to :data:`REF_SPEED`,
    averaged over ``cpus``.  The calling thread runs the kernel on
    each CPU in turn, then moves back to ``home``."""
    rates = []
    for cpu in cpus:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        _kernel(SPEED_ITERATIONS)
        elapsed = time.perf_counter() - start
        rates.append(SPEED_ITERATIONS / elapsed / REF_SPEED)
    if home is not None:
        os.sched_setaffinity(0, {home})
    return sum(rates) / len(rates)


# ------------------------------------------------------------ servers
class ServerProcess:
    """One spawned server, its address and its captured output."""

    def __init__(self, argv: Sequence[str],
                 cpu: Optional[int] = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        self.stdout: List[str] = []
        self.stderr: List[str] = []
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._readers = [
            threading.Thread(target=self._drain,
                             args=(self.proc.stdout, self.stdout),
                             daemon=True),
            threading.Thread(target=self._drain,
                             args=(self.proc.stderr, self.stderr),
                             daemon=True),
        ]
        for reader in self._readers:
            reader.start()
        if cpu is not None:
            # Threads the server starts later inherit this mask.
            os.sched_setaffinity(self.proc.pid, {cpu})
        self.address: Tuple[str, int] = ("", 0)
        self.admin: Tuple[str, int] = ("", 0)

    def _drain(self, stream, sink: List[str]) -> None:
        for line in stream:
            sink.append(line.rstrip("\n"))
            if sink is self.stdout:
                self._lines.put(sink[-1])
        if sink is self.stdout:
            self._lines.put(None)

    def wait_ready(self) -> None:
        """Block until the "serving on" and "admin on" lines."""
        deadline = time.perf_counter() + START_TIMEOUT_S
        found: Dict[str, str] = {}
        while len(found) < 2:
            try:
                line = self._lines.get(timeout=max(
                    0.0, deadline - time.perf_counter()))
            except queue.Empty:
                self.kill()
                raise BenchError("server did not start in time")
            if line is None:
                self.kill()
                raise BenchError("server exited before serving: "
                                 + " | ".join(self.stderr[-5:]))
            for prefix in ("serving on ", "admin on "):
                if line.startswith(prefix):
                    found[prefix] = line
        self.address = _parse_address(found["serving on "])
        self.admin = _parse_address(found["admin on "])

    def peak_rss_mb(self) -> float:
        """VmHWM, the peak resident set, of the server process."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    async def stop(self) -> None:
        """SHUTDOWN frame, then wait for exit (kill on a hang)."""
        if self.proc.poll() is None:
            client = CryptoClient(*self.address, retry=NO_RETRY)
            try:
                await client.shutdown()
            except (ConnectionError, asyncio.TimeoutError, OSError,
                    ValueError):
                pass  # already going; the wait below decides
            finally:
                await client.close()
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(None, self.proc.wait,
                                       STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("server did not stop after SHUTDOWN")
        for reader in self._readers:
            await loop.run_in_executor(None, reader.join,
                                       STOP_TIMEOUT_S)
        if self.proc.returncode != 0:
            raise BenchError(
                f"server exited {self.proc.returncode}: "
                + " | ".join(self.stderr[-5:]))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for reader in self._readers:
            reader.join(STOP_TIMEOUT_S)


def _parse_address(line: str) -> Tuple[str, int]:
    host, _, port = line.split()[-1].rpartition(":")
    return host, int(port)


def serve_argv(traced: bool) -> List[str]:
    """The serve command: the CLI itself, or through the traced
    launcher.  The admin plane is on for both, so the two servers of
    a traced run differ only in tracing."""
    head = [str(Path(__file__).with_name("traced_server.py"))] \
        if traced else ["-m", "repro.cli"]
    return [*head, "serve", "--port", "0", "--admin-port", "0"]


# ------------------------------------------------------------ checks
@dataclass
class Tally:
    """Outcomes of checked crypto requests.  LOAD_KEY is not a crypto
    request; a failed LOAD_KEY fails the requests it would carry."""

    attempted: int = 0
    failed: int = 0
    ok: int = 0
    latencies: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.attempted += count
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(why)

    def absorb(self, other: "Tally") -> None:
        """Add ``other``'s outcomes; its latencies stay its own."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.ok += other.ok
        self.errors.extend(other.errors[:max(0, 5 - len(self.errors))])


async def _send(client: CryptoClient, request: Request,
                tally: Tally) -> bool:
    """One timed, checked crypto request; False on any failure."""
    start = time.perf_counter()
    try:
        response = await client.request(request.op, request.mode,
                                        request.payload)
    except (ConnectionError, asyncio.TimeoutError, OSError,
            ValueError) as exc:
        tally.fail(1, f"{request.op.name} {request.mode.name}: {exc!r}")
        return False
    elapsed = time.perf_counter() - start
    if response.status is not Status.OK:
        tally.fail(1, f"{request.op.name} {request.mode.name}: "
                      f"status {response.status.name}")
        return False
    if response.payload != request.expected:
        tally.fail(1, f"{request.op.name} {request.mode.name}: "
                      f"output differs from the oracle")
        return False
    tally.attempted += 1
    tally.ok += 1
    tally.latencies.append(elapsed)
    return True


async def _load_key(client: CryptoClient, cycle: Cycle,
                    tally: Tally) -> bool:
    try:
        response = await client.load_key(cycle.key)
    except (ConnectionError, asyncio.TimeoutError, OSError,
            ValueError) as exc:
        tally.fail(len(cycle.requests), f"LOAD_KEY: {exc!r}")
        return False
    if response.status is not Status.OK:
        tally.fail(len(cycle.requests),
                   f"LOAD_KEY: status {response.status.name}")
        return False
    return True


# ------------------------------------------------------------ loops
async def setup_probe(server: ServerProcess, cycle: Cycle,
                      tally: Tally) -> float:
    """Seconds from spawning ``server`` to the OK reply of its first
    crypto request (after LOAD_KEY); the probe connection closes, so
    its key's caches are forgotten again."""
    server.wait_ready()
    async with CryptoClient(*server.address, retry=NO_RETRY) as client:
        if not await _load_key(client, cycle, tally):
            raise BenchError("setup probe: " + tally.errors[-1])
        if not await _send(client, cycle.requests[0], tally):
            raise BenchError("setup probe: " + tally.errors[-1])
        return time.perf_counter() - server.spawned_at


class Persistent:
    """``len(lanes)`` connections, each with one key loaded once."""

    def __init__(self, server: ServerProcess,
                 lanes: List[List[Cycle]]) -> None:
        self.lanes = lanes
        self.clients = [CryptoClient(*server.address, retry=NO_RETRY)
                        for _ in lanes]
        self.position = [0] * len(lanes)

    async def open(self, tally: Tally) -> None:
        for client, cycles in zip(self.clients, self.lanes):
            await client.connect()
            if not await _load_key(client, cycles[0], tally):
                raise BenchError(tally.errors[-1])

    async def close(self) -> None:
        for client in self.clients:
            await client.close()

    async def run(self, tally: Tally, cycles: Optional[int] = None,
                  deadline: Optional[float] = None) -> None:
        """Closed loop on every connection: ``cycles`` whole cycles
        each, or until ``deadline`` (then the in-flight request
        finishes)."""
        async def lane(index: int) -> None:
            client, pool = self.clients[index], self.lanes[index]
            done = 0
            while True:
                cycle = pool[self.position[index] % len(pool)]
                for request in cycle.requests:
                    if deadline is not None and \
                            time.perf_counter() >= deadline:
                        return
                    if not await _send(client, request, tally):
                        return
                self.position[index] += 1
                done += 1
                if cycles is not None and done >= cycles:
                    return

        await asyncio.gather(*(lane(i) for i in range(len(self.lanes))))


async def churn(server: ServerProcess, lanes: List[List[Cycle]],
                tally: Tally, cycles: Optional[int] = None,
                deadline: Optional[float] = None) -> None:
    """The key-churn loop: per cycle, a fresh connection, LOAD_KEY,
    the cycle's requests, close."""
    async def lane(index: int) -> None:
        pool = lanes[index]
        done = 0
        while cycles is None or done < cycles:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            cycle = pool[done % len(pool)]
            done += 1
            client = CryptoClient(*server.address, retry=NO_RETRY)
            try:
                await client.connect()
                if not await _load_key(client, cycle, tally):
                    return
                for request in cycle.requests:
                    if not await _send(client, request, tally):
                        return
            except (ConnectionError, asyncio.TimeoutError,
                    OSError) as exc:
                tally.fail(len(cycle.requests), f"connect: {exc!r}")
                return
            finally:
                await client.close()

    await asyncio.gather(*(lane(i) for i in range(len(lanes))))


async def open_connections(server: ServerProcess) -> int:
    """The server's open-connection gauge, scraped from its admin
    plane's ``/metrics``."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(*server.admin), 5.0)
    try:
        writer.write(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n"
                     b"Connection: close\r\n\r\n")
        body = await asyncio.wait_for(reader.read(), 5.0)
    finally:
        writer.close()
        await writer.wait_closed()
    for line in body.decode("utf-8", "replace").splitlines():
        if line.startswith("repro_serve_open_connections "):
            return int(float(line.split()[1]))
    raise BenchError("admin /metrics lacks repro_serve_open_connections")


async def wait_idle(server: ServerProcess) -> None:
    """Block until every closed connection's teardown (session close,
    key forgetting) has run on the server."""
    deadline = time.perf_counter() + 10.0
    while await open_connections(server):
        if time.perf_counter() > deadline:
            raise BenchError("server connections did not drain")
        await asyncio.sleep(0.005)
