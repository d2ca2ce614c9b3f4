"""``aio.*`` rules: the PR-5 task-retention bug class, blocking calls
inside coroutines, dropped coroutine objects and cross-boundary
mutation."""

import textwrap

from repro.checks.crypto_lint import SourceFile
from repro.checks.engine import KIND_FLOW, CheckConfig, run_rules
from repro.checks.flow import FlowSubject


def lint(rule_id, config=None, /, **modules):
    sources = tuple(
        SourceFile.parse(f"{name}.py", textwrap.dedent(code))
        for name, code in modules.items()
    )
    return run_rules({KIND_FLOW: [FlowSubject(sources)]},
                     config, only=[rule_id])


class TestTaskNotRetained:
    def test_discarded_create_task_triggers(self):
        # The exact shape of the PR-5 production bug.
        findings = lint("aio.task-not-retained", mod="""
            import asyncio

            class Server:
                async def _handle(self):
                    asyncio.get_running_loop().create_task(
                        self.stop())

                async def stop(self):
                    pass
            """)
        assert len(findings) == 1
        assert "discarded" in findings[0].message

    def test_underscore_binding_triggers(self):
        findings = lint("aio.task-not-retained", mod="""
            import asyncio

            async def f(coro):
                _ = asyncio.create_task(coro)
            """)
        assert len(findings) == 1

    def test_never_read_local_triggers(self):
        findings = lint("aio.task-not-retained", mod="""
            import asyncio

            async def f(coro):
                task = asyncio.create_task(coro)
                return None
            """)
        assert len(findings) == 1
        assert "never read" in findings[0].message

    def test_attribute_pin_is_clean(self):
        # The PR-5 fix: pin the task on the instance.
        findings = lint("aio.task-not-retained", mod="""
            import asyncio

            class Server:
                async def _handle(self):
                    self._stop_task = asyncio.create_task(
                        self.stop())

                async def stop(self):
                    pass
            """)
        assert findings == []

    def test_awaited_local_is_clean(self):
        findings = lint("aio.task-not-retained", mod="""
            import asyncio

            async def f(coro):
                task = asyncio.create_task(coro)
                await task
            """)
        assert findings == []


class TestBlockingInCoroutine:
    def test_direct_sleep_triggers(self):
        findings = lint("aio.blocking-in-coroutine", mod="""
            import time

            async def f():
                time.sleep(0.1)
            """)
        assert len(findings) == 1
        assert "time.sleep" in findings[0].message

    def test_sync_crypto_entry_point_triggers(self):
        findings = lint("aio.blocking-in-coroutine", mod="""
            async def f(engine, key, data):
                return engine.encrypt_blocks(key, data)
            """)
        assert len(findings) == 1

    def test_transitive_helper_chain_triggers_with_path(self):
        findings = lint("aio.blocking-in-coroutine", mod="""
            import time

            def leaf():
                time.sleep(1)

            def middle():
                leaf()

            async def f():
                middle()
            """)
        assert len(findings) == 1
        assert "middle -> leaf -> time.sleep" in \
            findings[0].message

    def test_asyncio_sleep_is_clean(self):
        findings = lint("aio.blocking-in-coroutine", mod="""
            import asyncio

            async def f():
                await asyncio.sleep(0.1)
            """)
        assert findings == []

    def test_executor_routing_is_clean(self):
        findings = lint("aio.blocking-in-coroutine", mod="""
            import asyncio

            async def f(engine, key, data):
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(
                    None, engine.encrypt_blocks, key, data)
            """)
        assert findings == []


#: The server's dispatch shape: a module-level table of named
#: functions, looked up into a local and called.  ``{body}`` is the
#: call site under test.
_DISPATCH = """
from repro.aes import modes

INLINE_MAX_BYTES = 2048
OTHER_LIMIT = 2048

def _ctr(k, payload):
    return modes.ctr_xcrypt(k, payload[:8], payload[8:])

OPS = {{"ecb": modes.ecb_encrypt, "ctr": _ctr}}

async def serve(loop, name, key, payload):
    work = OPS.get(name)
{body}
"""


def _dispatch_findings(body):
    return lint("aio.blocking-in-coroutine",
                mod=_DISPATCH.format(body=textwrap.indent(
                    textwrap.dedent(body), "    ")))


class TestInlineDispatch:
    """A call through the crypto table is a blocking call, accepted
    only under the configured inline size limit."""

    def test_unguarded_table_call_triggers(self):
        findings = _dispatch_findings("""
            return work(key, payload)
            """)
        assert len(findings) == 1
        assert "dispatch table OPS" in findings[0].message

    def test_size_guarded_inline_call_is_clean(self):
        findings = _dispatch_findings("""
            if len(payload) <= INLINE_MAX_BYTES:
                return work(key, payload)
            return await loop.run_in_executor(None, work, key, payload)
            """)
        assert findings == []

    def test_guard_against_literal_triggers(self):
        findings = _dispatch_findings("""
            if len(payload) <= 2048:
                return work(key, payload)
            return await loop.run_in_executor(None, work, key, payload)
            """)
        assert len(findings) == 1

    def test_guard_against_other_name_triggers(self):
        findings = _dispatch_findings("""
            if len(payload) <= OTHER_LIMIT:
                return work(key, payload)
            return await loop.run_in_executor(None, work, key, payload)
            """)
        assert len(findings) == 1

    def test_guard_on_the_key_triggers(self):
        findings = _dispatch_findings("""
            if len(key) <= INLINE_MAX_BYTES:
                return work(key, payload)
            return await loop.run_in_executor(None, work, key, payload)
            """)
        assert len(findings) == 1

    def test_call_in_else_branch_triggers(self):
        findings = _dispatch_findings("""
            if len(payload) > INLINE_MAX_BYTES:
                return await loop.run_in_executor(
                    None, work, key, payload)
            else:
                return work(key, payload)
            """)
        assert len(findings) == 1

    def test_transitive_table_entry_triggers_with_path(self):
        findings = lint("aio.blocking-in-coroutine", mod="""
            from repro.aes import modes

            def _ctr(k, payload):
                return modes.ctr_xcrypt(k, payload[:8], payload[8:])

            OPS = {"ctr": _ctr}

            async def serve(name, key, payload):
                work = OPS[name]
                return work(key, payload)
            """)
        assert len(findings) == 1
        assert "_ctr -> modes.ctr_xcrypt" in findings[0].message

    def test_server_guard_reinjection(self):
        """The shipped server is clean only because of its guard:
        swapping the limit for its literal value is caught."""
        from pathlib import Path

        import repro.serve.server as server

        text = Path(server.__file__).read_text()
        guard = "if len(payload) <= INLINE_MAX_BYTES:"
        assert text.count(guard) == 1

        def findings(code):
            source = SourceFile.parse("src/repro/serve/server.py", code)
            return run_rules({KIND_FLOW: [FlowSubject((source,))]},
                             None, only=["aio.blocking-in-coroutine"])

        assert findings(text) == []
        broken = findings(text.replace(
            guard, f"if len(payload) <= {server.INLINE_MAX_BYTES}:"))
        assert [f.location.obj for f in broken] == \
            ["CryptoServer._op_xcrypt"]


class TestUnawaitedCoroutine:
    def test_bare_statement_call_triggers(self):
        findings = lint("aio.unawaited-coroutine", mod="""
            class Server:
                async def run(self):
                    self.flush()

                async def flush(self):
                    pass
            """)
        assert len(findings) == 1
        assert "Server.flush" in findings[0].message

    def test_awaited_call_is_clean(self):
        findings = lint("aio.unawaited-coroutine", mod="""
            class Server:
                async def run(self):
                    await self.flush()

                async def flush(self):
                    pass
            """)
        assert findings == []

    def test_sync_receiver_method_is_clean(self):
        # writer.close() is synchronous; an unrelated class having an
        # async close() must not contaminate it.
        findings = lint("aio.unawaited-coroutine", mod="""
            class Client:
                async def close(self):
                    pass

            def shutdown(writer):
                writer.close()
            """)
        assert findings == []


class TestUnlockedSharedMutation:
    def test_unlocked_cross_boundary_mutation_triggers(self):
        findings = lint("aio.unlocked-shared-mutation", mod="""
            class Engine:
                async def submit_job(self, loop, job):
                    self.pending.append(job)
                    await loop.run_in_executor(None, self._drain)

                def _drain(self):
                    while self.pending:
                        self.pending.pop()
            """)
        assert len(findings) >= 2
        assert all("pending" in f.message for f in findings)

    def test_locked_mutation_is_clean(self):
        findings = lint("aio.unlocked-shared-mutation", mod="""
            class Engine:
                async def submit_job(self, loop, job):
                    async with self._lock:
                        self.pending.append(job)
                    await loop.run_in_executor(None, self._drain)

                def _drain(self):
                    with self._lock:
                        while self.pending:
                            self.pending.pop()
            """)
        assert findings == []

    def test_loop_only_state_is_clean(self):
        findings = lint("aio.unlocked-shared-mutation", mod="""
            class Engine:
                async def submit_job(self, loop, job):
                    self.stats += 1
                    await loop.run_in_executor(None, self._work)

                def _work(self):
                    return 1
            """)
        assert findings == []
