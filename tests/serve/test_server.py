"""End-to-end loopback tests of the crypto server.

Everything runs in-process on a loopback socket with an OS-assigned
port; each scenario owns its own event loop via ``asyncio.run`` so no
state leaks between tests.
"""

import asyncio
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.aes import gcm, modes
from repro.obs.metrics import global_registry
from repro.serve.client import CryptoClient, RetryPolicy, run_load
from repro.serve.protocol import (
    CTR_NONCE_BYTES,
    GCM_IV_BYTES,
    GCM_TAG_BYTES,
    HEADER_BYTES,
    MAX_PAYLOAD_BYTES,
    Frame,
    Mode,
    Op,
    Status,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.serve.server import (
    GCM_MAX_PLAINTEXT_BYTES,
    INLINE_MAX_BYTES,
    CryptoServer,
    ServeConfig,
    Session,
)


def _counter_total(name: str, **labels) -> float:
    metric = global_registry().get(name)
    if metric is None:
        return 0.0
    total = 0.0
    for child in metric.children():
        pairs = dict(child.label_pairs)
        if all(pairs.get(k) == v for k, v in labels.items()):
            total += child.value
    return total


async def _started(config: ServeConfig = None) -> CryptoServer:
    server = CryptoServer(config or ServeConfig(port=0))
    await server.start()
    return server


class TestEndToEnd:
    def test_concurrent_clients_match_mode_layer(self):
        """>= 8 concurrent clients, each with its own key, across
        ECB/CTR/GCM — every response must match the mode layer
        bit for bit."""

        async def scenario():
            server = await _started()
            host, port = server.address
            rng = random.Random(2003)
            jobs = []
            for index in range(9):
                key = rng.randbytes(16)
                data = rng.randbytes(16 * (4 + index))
                nonce = rng.randbytes(8)
                iv = rng.randbytes(12)
                jobs.append((key, data, nonce, iv))

            async def one_client(index):
                key, data, nonce, iv = jobs[index]
                async with CryptoClient(host, port) as client:
                    reply = await client.load_key(key)
                    assert reply.status is Status.OK
                    # ECB: encrypt then decrypt round-trips, and the
                    # ciphertext is the mode layer's answer.
                    reply = await client.encrypt(Mode.ECB, data)
                    assert reply.status is Status.OK
                    assert reply.payload == \
                        modes.ecb_encrypt(key, data)
                    back = await client.decrypt(Mode.ECB,
                                                reply.payload)
                    assert back.payload == data
                    # CTR with a ragged tail.
                    ragged = data[:-5]
                    reply = await client.encrypt(Mode.CTR,
                                                 nonce + ragged)
                    assert reply.payload == \
                        modes.ctr_xcrypt(key, nonce, ragged)
                    # GCM: ciphertext||tag, and decrypt releases the
                    # plaintext.
                    reply = await client.encrypt(Mode.GCM, iv + data)
                    ct, tag = gcm.gcm_encrypt(key, iv, data)
                    assert reply.payload == ct + tag
                    back = await client.decrypt(Mode.GCM,
                                                iv + reply.payload)
                    assert back.status is Status.OK
                    assert back.payload == data

            try:
                await asyncio.gather(
                    *(one_client(i) for i in range(len(jobs)))
                )
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_gcm_auth_failure_error_frame_and_counter(self):
        async def scenario():
            server = await _started()
            host, port = server.address
            key = bytes(range(16))
            iv = b"\x01" * 12
            before = _counter_total(
                "repro_aes_gcm_auth_failures_total"
            )
            async with CryptoClient(host, port) as client:
                await client.load_key(key)
                reply = await client.encrypt(Mode.GCM, iv + b"secret")
                corrupted = bytearray(reply.payload)
                corrupted[-1] ^= 0x01  # break the tag
                bad = await client.decrypt(Mode.GCM,
                                           iv + bytes(corrupted))
                assert bad.status is Status.AUTH_FAILED
                assert b"secret" not in bad.payload
                # The connection survives the auth failure.
                ok = await client.ping(b"still-alive")
                assert ok.payload == b"still-alive"
            await server.stop()
            after = _counter_total(
                "repro_aes_gcm_auth_failures_total"
            )
            assert after == before + 1

        asyncio.run(scenario())

    def test_crypto_before_load_key_is_no_key(self):
        async def scenario():
            server = await _started()
            host, port = server.address
            async with CryptoClient(host, port) as client:
                reply = await client.encrypt(Mode.ECB, b"x" * 16)
                assert reply.status is Status.NO_KEY
            await server.stop()

        asyncio.run(scenario())

    def test_bad_payloads_answer_bad_request(self):
        async def scenario():
            server = await _started()
            host, port = server.address
            async with CryptoClient(host, port) as client:
                reply = await client.load_key(b"short")
                assert reply.status is Status.BAD_REQUEST
                await client.load_key(bytes(16))
                # Misaligned ECB data.
                reply = await client.encrypt(Mode.ECB, b"x" * 15)
                assert reply.status is Status.BAD_REQUEST
                # CTR payload shorter than its nonce prefix.
                reply = await client.encrypt(Mode.CTR, b"abc")
                assert reply.status is Status.BAD_REQUEST
                # GCM decrypt without room for IV + tag.
                reply = await client.decrypt(Mode.GCM, b"tiny")
                assert reply.status is Status.BAD_REQUEST
                # RAW is not a cipher mode.
                reply = await client.encrypt(Mode.RAW, b"x" * 16)
                assert reply.status is Status.BAD_REQUEST
            await server.stop()

        asyncio.run(scenario())

    def test_oversized_gcm_encrypt_rejected_before_crypto(self):
        """A GCM ENCRYPT whose ciphertext+tag response would not fit
        one frame must bounce with BAD_REQUEST — not raise while
        framing the response and kill the worker task."""

        async def scenario():
            server = await _started()
            host, port = server.address
            async with CryptoClient(host, port) as client:
                await client.load_key(bytes(16))
                too_big = (bytes(12)
                           + bytes(GCM_MAX_PLAINTEXT_BYTES + 1))
                assert len(too_big) <= MAX_PAYLOAD_BYTES
                reply = await client.encrypt(Mode.GCM, too_big)
                assert reply.status is Status.BAD_REQUEST
                # The worker survived and still drains the queue.
                ok = await client.ping(b"alive")
                assert ok.payload == b"alive"
            await server.stop()

        asyncio.run(scenario())

    @pytest.mark.parametrize("op", [Op.ENCRYPT, Op.DECRYPT],
                             ids=lambda op: op.name)
    @pytest.mark.parametrize("mode", [Mode.ECB, Mode.CTR, Mode.GCM],
                             ids=lambda mode: mode.name)
    def test_max_payload_within_request_timeout(self, mode, op):
        """Every (op, mode) the server accepts is bounded work: its
        largest legal request answers OK inside the default
        ``request_timeout`` and matches the mode layer bit for bit."""
        key = bytes(range(16))
        rng = random.Random(7)
        if mode is Mode.ECB:
            payload = rng.randbytes(MAX_PAYLOAD_BYTES)
            want = (modes.ecb_encrypt if op is Op.ENCRYPT
                    else modes.ecb_decrypt)(key, payload)
        elif mode is Mode.CTR:
            nonce = rng.randbytes(CTR_NONCE_BYTES)
            data = rng.randbytes(MAX_PAYLOAD_BYTES - CTR_NONCE_BYTES)
            payload = nonce + data
            want = modes.ctr_xcrypt(key, nonce, data)
        elif op is Op.ENCRYPT:
            iv = rng.randbytes(GCM_IV_BYTES)
            plaintext = rng.randbytes(GCM_MAX_PLAINTEXT_BYTES)
            payload = iv + plaintext
            ct, tag = gcm.gcm_encrypt(key, iv, plaintext)
            want = ct + tag
        else:
            iv = rng.randbytes(GCM_IV_BYTES)
            want = rng.randbytes(
                MAX_PAYLOAD_BYTES - GCM_IV_BYTES - GCM_TAG_BYTES)
            ct, tag = gcm.gcm_encrypt(key, iv, want)
            payload = iv + ct + tag
        assert len(payload) <= MAX_PAYLOAD_BYTES
        timeout = ServeConfig().request_timeout

        async def scenario():
            server = await _started()
            host, port = server.address
            try:
                async with CryptoClient(
                    host, port, retry=RetryPolicy(attempts=1)
                ) as client:
                    await client.load_key(key)
                    loop = asyncio.get_running_loop()
                    start = loop.time()
                    reply = await client.request(op, mode, payload)
                    elapsed = loop.time() - start
            finally:
                await server.stop()
            assert reply.status is Status.OK, reply.payload
            assert elapsed < timeout
            assert reply.payload == want

        asyncio.run(scenario())

    def test_unframeable_response_answers_internal(self):
        """Defense in depth behind the up-front size checks: if a
        handler ever produces a response too large to frame, the
        connection gets a small INTERNAL error and the worker
        lives on."""

        async def scenario():
            server = await _started()

            async def huge(session: Session, frame: Frame) -> Frame:
                return frame.response(
                    payload=b"\x00" * (MAX_PAYLOAD_BYTES + 1)
                )

            server._handlers[Op.PING] = huge
            host, port = server.address
            async with CryptoClient(
                host, port, retry=RetryPolicy(attempts=1)
            ) as client:
                reply = await client.ping(b"x")
                assert reply.status is Status.INTERNAL
                # The same connection (and worker) still serves.
                reply = await client.load_key(bytes(16))
                assert reply.status is Status.OK
            await server.stop()

        asyncio.run(scenario())

    def test_malformed_frame_answered_connection_survives(self):
        async def scenario():
            server = await _started()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            try:
                # A well-delimited frame with bad magic: BAD_FRAME
                # response, and the stream stays usable.
                from repro.serve.protocol import encode_frame
                wire = bytearray(encode_frame(Frame(op=Op.PING)))
                wire[4:6] = b"XX"
                writer.write(bytes(wire))
                await writer.drain()
                reply = await read_frame(reader, timeout=5.0)
                assert reply.status is Status.BAD_FRAME
                # The same connection still answers a good frame.
                await write_frame(
                    writer, Frame(op=Op.PING, request_id=3,
                                  payload=b"ok"),
                    timeout=5.0,
                )
                reply = await read_frame(reader, timeout=5.0)
                assert reply.status is Status.OK
                assert reply.payload == b"ok"
            finally:
                writer.close()
                await server.stop()

        asyncio.run(scenario())

    def test_slow_drip_frame_closes_within_io_timeout(self):
        """``io_timeout`` bounds a whole frame, not each read: a peer
        sending prefix, header and payload each inside the timeout,
        but the frame as a whole past it, is cut off after about one
        ``io_timeout`` instead of being served."""
        io_timeout = 1.0

        async def scenario():
            server = await _started(
                ServeConfig(port=0, io_timeout=io_timeout))
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            wire = encode_frame(Frame(op=Op.PING, request_id=1,
                                      payload=b"drip"))
            pieces = (wire[:4], wire[4:4 + HEADER_BYTES],
                      wire[4 + HEADER_BYTES:])

            async def drip():
                try:
                    for index, piece in enumerate(pieces):
                        if index:
                            await asyncio.sleep(0.6 * io_timeout)
                        writer.write(piece)
                        await writer.drain()
                except ConnectionError:
                    pass  # the server already hung up

            loop = asyncio.get_running_loop()
            start = loop.time()
            dripper = loop.create_task(drip())
            try:
                reply = await read_frame(reader, timeout=4 * io_timeout)
            except ConnectionError:
                reply = None
            closed_after = loop.time() - start
            dripper.cancel()
            writer.close()
            await server.stop()
            return reply, closed_after

        reply, closed_after = asyncio.run(scenario())
        assert reply is None  # EOF: the drip was never answered
        assert closed_after < 1.5 * io_timeout

    def test_frame_after_long_idle_gets_a_full_io_timeout(self):
        """The idle wait and the frame have separate deadlines: a
        frame whose prefix arrives late in the idle window is still
        served when the rest follows within ``io_timeout``."""
        io_timeout = 1.0

        async def scenario():
            server = await _started(
                ServeConfig(port=0, io_timeout=io_timeout))
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            wire = encode_frame(Frame(op=Op.PING, request_id=7,
                                      payload=b"late"))
            try:
                await asyncio.sleep(0.7 * io_timeout)
                writer.write(wire[:4])
                await asyncio.sleep(0.5 * io_timeout)
                writer.write(wire[4:])
                return await read_frame(reader, timeout=5.0)
            finally:
                writer.close()
                await server.stop()

        reply = asyncio.run(scenario())
        assert reply is not None
        assert reply.status is Status.OK
        assert (reply.request_id, reply.payload) == (7, b"late")

    def test_slow_handler_trips_timeout_connection_survives(self):
        async def scenario():
            config = ServeConfig(port=0, request_timeout=0.1)
            server = await _started(config)

            async def stalled(session: Session,
                              frame: Frame) -> Frame:
                await asyncio.sleep(30.0)
                return frame.response()

            server._handlers[Op.PING] = stalled
            host, port = server.address
            async with CryptoClient(
                host, port, retry=RetryPolicy(attempts=1)
            ) as client:
                reply = await client.ping(b"hello")
                assert reply.status is Status.TIMEOUT
                # The worker abandoned the request; the connection
                # still serves other ops.
                reply = await client.load_key(bytes(16))
                assert reply.status is Status.OK
            await server.stop()

        asyncio.run(scenario())

    def test_full_queue_answers_overloaded(self):
        async def scenario():
            # One worker wedged by a stalled handler, queue depth 1:
            # the first request occupies the worker, the second sits
            # in the queue, the third must bounce with OVERLOADED.
            config = ServeConfig(port=0, queue_depth=1, workers=1,
                                 request_timeout=30.0,
                                 drain_timeout=0.2)
            server = await _started(config)

            async def stalled(session, frame):
                await asyncio.sleep(30.0)
                return frame.response()

            server._handlers[Op.PING] = stalled
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for request_id in (1, 2, 3):
                    await write_frame(
                        writer,
                        Frame(op=Op.PING, request_id=request_id),
                        timeout=5.0,
                    )
                reply = await read_frame(reader, timeout=5.0)
                assert reply.status is Status.OVERLOADED
                assert reply.request_id == 3
            finally:
                writer.close()
                await server.stop()

        asyncio.run(scenario())

    def test_graceful_shutdown_drains_inflight(self):
        async def scenario():
            config = ServeConfig(port=0, workers=2,
                                 drain_timeout=10.0)
            server = await _started(config)

            release = asyncio.Event()
            processed = []

            async def gated(session, frame):
                await release.wait()
                processed.append(frame.request_id)
                return frame.response(payload=b"done")

            server._handlers[Op.PING] = gated
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            await write_frame(writer, Frame(op=Op.PING, request_id=7),
                              timeout=5.0)
            await asyncio.sleep(0.05)  # let it get queued
            stopper = asyncio.get_running_loop().create_task(
                server.stop()
            )
            await asyncio.sleep(0.05)
            release.set()  # in-flight request completes during drain
            reply = await read_frame(reader, timeout=5.0)
            assert reply.status is Status.OK
            assert reply.payload == b"done"
            await stopper
            assert processed == [7]
            writer.close()

        asyncio.run(scenario())

    def test_shutdown_frame_stops_server(self):
        async def scenario():
            server = await _started()
            host, port = server.address
            async with CryptoClient(host, port) as client:
                reply = await client.shutdown()
                assert reply.status is Status.OK
            await asyncio.wait_for(server.wait_stopped(), 10.0)
            # The remotely-triggered stop task is strongly referenced
            # (the loop keeps only weak refs to tasks, so an
            # anonymous one could be collected mid-shutdown).
            assert server._stop_task is not None
            assert server._stop_task.done()
            # New requests while stopping answer SHUTTING_DOWN or the
            # listener is already closed.
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.open_connection(host, port)

        asyncio.run(scenario())

    def test_worker_task_exception_storm_server_survives(self):
        """Seed-bug regression (PR 5): a burst of handler exceptions
        must not thin out the worker pool.  Every request in the
        storm gets an INTERNAL error frame, every worker task is
        still alive afterwards, and the next honest request is
        served normally."""

        async def scenario():
            config = ServeConfig(port=0, workers=2)
            server = await _started(config)

            async def exploding(session: Session,
                                frame: Frame) -> Frame:
                raise RuntimeError("handler bug")

            honest_ping = server._handlers[Op.PING]
            server._handlers[Op.PING] = exploding
            host, port = server.address

            async def one_client() -> list:
                async with CryptoClient(
                    host, port, retry=RetryPolicy(attempts=1)
                ) as client:
                    return [await client.ping(b"boom")
                            for _ in range(3)]

            # Far more failures than workers, across 8 concurrent
            # connections.
            replies = [
                reply
                for batch in await asyncio.gather(
                    *(one_client() for _ in range(8)))
                for reply in batch
            ]
            assert len(replies) == 24
            assert all(r.status is Status.INTERNAL for r in replies)
            # No worker died: the tasks the storm would have killed
            # before the _worker hardening are all alive.
            assert len(server._workers) == 2
            assert not any(t.done() for t in server._workers)
            # And the pool still serves honest traffic.
            server._handlers[Op.PING] = honest_ping
            async with CryptoClient(
                host, port, retry=RetryPolicy(attempts=1)
            ) as client:
                reply = await client.ping(b"hello")
                assert reply.status is Status.OK
                reply = await client.load_key(bytes(16))
                assert reply.status is Status.OK
                ct = await client.encrypt(Mode.ECB, bytes(32))
                assert ct.status is Status.OK
            await server.stop()

        asyncio.run(scenario())

    def test_requests_during_drain_answer_shutting_down(self):
        async def scenario():
            server = await _started(ServeConfig(port=0))
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            server._stopping = True  # simulate an in-progress drain
            try:
                await write_frame(writer,
                                  Frame(op=Op.PING, request_id=1),
                                  timeout=5.0)
                reply = await read_frame(reader, timeout=5.0)
                assert reply.status is Status.SHUTTING_DOWN
            finally:
                writer.close()
                server._stopping = False
                await server.stop()

        asyncio.run(scenario())


class _CountingExecutor(ThreadPoolExecutor):
    """A one-thread pool that counts the jobs handed to it."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.jobs = 0

    def submit(self, fn, /, *args, **kwargs):
        self.jobs += 1
        return super().submit(fn, *args, **kwargs)


def _request_of(op, mode, key, size, rng):
    """A legal ``size``-byte (op, mode) payload and the mode layer's
    answer to it."""
    if mode is Mode.ECB:
        payload = rng.randbytes(size)
        fn = modes.ecb_encrypt if op is Op.ENCRYPT else modes.ecb_decrypt
        return payload, fn(key, payload)
    if mode is Mode.CTR:
        payload = rng.randbytes(size)
        nonce, data = payload[:CTR_NONCE_BYTES], payload[CTR_NONCE_BYTES:]
        return payload, modes.ctr_xcrypt(key, nonce, data)
    iv = rng.randbytes(GCM_IV_BYTES)
    if op is Op.ENCRYPT:
        plaintext = rng.randbytes(size - GCM_IV_BYTES)
        ct, tag = gcm.gcm_encrypt(key, iv, plaintext)
        return iv + plaintext, ct + tag
    plaintext = rng.randbytes(size - GCM_IV_BYTES - GCM_TAG_BYTES)
    ct, tag = gcm.gcm_encrypt(key, iv, plaintext)
    return iv + ct + tag, plaintext


class TestInlineDispatch:
    @pytest.mark.parametrize("op", [Op.ENCRYPT, Op.DECRYPT],
                             ids=lambda op: op.name)
    @pytest.mark.parametrize("mode", [Mode.ECB, Mode.CTR, Mode.GCM],
                             ids=lambda mode: mode.name)
    def test_small_requests_skip_the_executor(self, mode, op):
        """A payload of ``INLINE_MAX_BYTES`` runs inline and never
        reaches the executor; the smallest legal payload above it
        (one byte more, one block more for ECB) does.  Both answer
        bit-exact against the mode layer."""
        key = bytes(range(16))
        rng = random.Random(11)
        step = 16 if mode is Mode.ECB else 1
        requests = [_request_of(op, mode, key, size, rng)
                    for size in (INLINE_MAX_BYTES,
                                 INLINE_MAX_BYTES + step)]

        async def scenario():
            server = await _started()
            server._executor.shutdown()
            server._executor = counting = _CountingExecutor()
            host, port = server.address
            jobs = []
            try:
                async with CryptoClient(
                    host, port, retry=RetryPolicy(attempts=1)
                ) as client:
                    await client.load_key(key)
                    for payload, want in requests:
                        reply = await client.request(op, mode, payload)
                        assert reply.status is Status.OK, reply.payload
                        assert reply.payload == want
                        jobs.append(counting.jobs)
            finally:
                await server.stop()
            return jobs

        assert asyncio.run(scenario()) == [0, 1]

    def test_inline_backlog_yields_between_requests(self, monkeypatch):
        """A burst of inline requests must not run back to back in
        one event-loop step: between two steps of a probe task, each
        worker finishes at most one request, so the loop polls its
        sockets after every inline request of a worker."""
        import repro.serve.server as server_module

        slot = (Op.ENCRYPT, Mode.GCM)
        real = server_module._CRYPTO_OPS[slot]
        done = [0]

        def counted(key, payload):
            done[0] += 1
            return real(key, payload)

        monkeypatch.setitem(server_module._CRYPTO_OPS, slot, counted)
        key = bytes(range(16))
        payload = bytes(INLINE_MAX_BYTES)
        connections, per_connection = 8, 8

        async def scenario():
            config = ServeConfig(port=0, workers=1)
            server = await _started(config)
            host, port = server.address
            streams = []
            for _ in range(connections):
                reader, writer = await asyncio.open_connection(
                    host, port)
                await write_frame(writer, Frame(op=Op.LOAD_KEY,
                                                request_id=0,
                                                payload=key),
                                  timeout=5.0)
                reply = await read_frame(reader, timeout=5.0)
                assert reply.status is Status.OK
                streams.append((reader, writer))

            most = 0
            finished = False

            async def probe():
                nonlocal most
                while not finished:
                    before = done[0]
                    await asyncio.sleep(0)
                    most = max(most, done[0] - before)

            loop = asyncio.get_running_loop()
            prober = loop.create_task(probe())
            try:
                for _, writer in streams:
                    writer.write(b"".join(
                        encode_frame(Frame(op=Op.ENCRYPT,
                                           mode=Mode.GCM,
                                           request_id=index + 1,
                                           payload=payload))
                        for index in range(per_connection)))
                for reader, _ in streams:
                    for _ in range(per_connection):
                        reply = await read_frame(reader, timeout=10.0)
                        assert reply.status is Status.OK
            finally:
                finished = True
                await prober
                for _, writer in streams:
                    writer.close()
                await server.stop()
            return most, config.workers

        most, workers = asyncio.run(scenario())
        assert done[0] == connections * per_connection
        assert 1 <= most <= workers


class TestSharedKeySessions:
    def test_teardown_never_corrupts_another_sessions_gcm(self):
        """Two sessions load one key.  One sends 64 KiB GCM encrypts
        (lane-folded GHASH, on the executor) while the other keeps
        connecting, loading the key and closing; each close forgets
        the key's schedules and GHASH tables.  Every reply must be OK
        and match ``gcm_encrypt`` run before the server started."""
        rng = random.Random(0x5E55)
        key = rng.randbytes(16)
        jobs = [(rng.randbytes(GCM_IV_BYTES), rng.randbytes(64 * 1024))
                for _ in range(40)]
        wants = [b"".join(gcm.gcm_encrypt(key, iv, pt))
                 for iv, pt in jobs]

        async def scenario():
            server = await _started()
            host, port = server.address
            finished = asyncio.Event()
            churns = 0

            async def churn():
                nonlocal churns
                while not finished.is_set():
                    async with CryptoClient(host, port) as client:
                        reply = await client.load_key(key)
                        assert reply.status is Status.OK
                    churns += 1

            bad = []
            churner = asyncio.get_running_loop().create_task(churn())
            try:
                async with CryptoClient(
                    host, port, retry=RetryPolicy(attempts=1)
                ) as client:
                    await client.load_key(key)
                    for index, ((iv, pt), want) in enumerate(
                            zip(jobs, wants)):
                        reply = await client.encrypt(Mode.GCM, iv + pt)
                        if (reply.status is not Status.OK
                                or reply.payload != want):
                            bad.append((index, reply.status.name))
            finally:
                finished.set()
                await churner
                await server.stop()
            return bad, churns

        bad, churns = asyncio.run(scenario())
        assert churns > 0
        assert bad == []


class TestObservability:
    def test_request_and_byte_counters_move(self):
        async def scenario():
            server = await _started()
            host, port = server.address
            before_ok = _counter_total("repro_serve_requests_total",
                                       status="ok")
            before_in = _counter_total("repro_serve_bytes_total",
                                       direction="in")
            report = await run_load(host, port, bytes(16),
                                    clients=2, requests=3,
                                    payload_bytes=256)
            await server.stop()
            assert report.requests == 6
            assert report.errors == 0
            after_ok = _counter_total("repro_serve_requests_total",
                                      status="ok")
            after_in = _counter_total("repro_serve_bytes_total",
                                      direction="in")
            # 2 LOAD_KEYs + 6 encrypts all landed OK.
            assert after_ok - before_ok == 8
            assert after_in > before_in

        asyncio.run(scenario())

    def test_session_repr_redacts_key(self):
        session = Session(session_id=5, key=b"\xaa" * 16)
        text = repr(session)
        assert "aa" * 8 not in text
        assert "loaded" in text

    def test_latency_histogram_populated(self):
        async def scenario():
            server = await _started()
            host, port = server.address
            async with CryptoClient(host, port) as client:
                await client.ping(b"x")
            await server.stop()

        asyncio.run(scenario())
        metric = global_registry().get("repro_serve_request_seconds")
        assert metric is not None
        totals = [child.count for child in metric.children()]
        assert sum(totals) >= 1
