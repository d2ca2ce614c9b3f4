"""Async-service rules: bounded queues and timeout-wrapped awaits."""

import textwrap

from repro.checks.crypto_lint import SourceFile
from repro.checks.engine import KIND_SOURCE, CheckConfig, run_rules

SERVE_PATH = "src/repro/serve/snippet.py"


def lint(code, rule_id, path=SERVE_PATH, config=None):
    source = SourceFile.parse(path, textwrap.dedent(code))
    return run_rules({KIND_SOURCE: [source]}, config,
                     only=[rule_id])


class TestUnboundedQueue:
    def test_bare_queue_triggers(self):
        findings = lint(
            """
            import asyncio
            queue = asyncio.Queue()
            """, "serve.unbounded-queue")
        assert len(findings) == 1
        assert "maxsize" in findings[0].message

    def test_maxsize_zero_triggers(self):
        findings = lint(
            """
            import asyncio
            queue = asyncio.Queue(maxsize=0)
            """, "serve.unbounded-queue")
        assert len(findings) == 1

    def test_negative_maxsize_triggers(self):
        """asyncio treats every maxsize <= 0 as unbounded, and -1
        parses as a unary minus, not a negative constant."""
        findings = lint(
            """
            import asyncio
            a = asyncio.Queue(maxsize=-1)
            b = asyncio.Queue(-4)
            """, "serve.unbounded-queue")
        assert len(findings) == 2

    def test_priority_and_lifo_variants_covered(self):
        findings = lint(
            """
            import asyncio
            a = asyncio.LifoQueue()
            b = asyncio.PriorityQueue()
            """, "serve.unbounded-queue")
        assert len(findings) == 2

    def test_bounded_queue_is_fine(self):
        findings = lint(
            """
            import asyncio
            queue = asyncio.Queue(maxsize=64)
            """, "serve.unbounded-queue")
        assert findings == []

    def test_positional_bound_is_fine(self):
        findings = lint(
            """
            import asyncio
            def make(depth):
                return asyncio.Queue(depth)
            """, "serve.unbounded-queue")
        assert findings == []

    def test_non_asyncio_queue_ignored(self):
        findings = lint(
            """
            import queue
            q = queue.Queue()
            """, "serve.unbounded-queue")
        assert findings == []

    def test_out_of_scope_file_ignored(self):
        findings = lint(
            """
            import asyncio
            queue = asyncio.Queue()
            """, "serve.unbounded-queue",
            path="src/repro/perf/engine.py")
        assert findings == []

    def test_scope_is_configurable(self):
        config = CheckConfig(serve_path_patterns=("*everything*",))
        findings = lint(
            """
            import asyncio
            queue = asyncio.Queue()
            """, "serve.unbounded-queue",
            path="lib/everything/net.py", config=config)
        assert len(findings) == 1


class TestMissingTimeout:
    def test_bare_readexactly_triggers(self):
        findings = lint(
            """
            async def f(reader):
                return await reader.readexactly(4)
            """, "serve.missing-timeout")
        assert len(findings) == 1
        assert "readexactly" in findings[0].message

    def test_bare_drain_triggers(self):
        findings = lint(
            """
            async def f(writer, data):
                writer.write(data)
                await writer.drain()
            """, "serve.missing-timeout")
        assert len(findings) == 1

    def test_bare_open_connection_triggers(self):
        findings = lint(
            """
            import asyncio
            async def f(host, port):
                return await asyncio.open_connection(host, port)
            """, "serve.missing-timeout")
        assert len(findings) == 1

    def test_wait_for_wrapped_is_fine(self):
        findings = lint(
            """
            import asyncio
            async def f(reader, writer):
                data = await asyncio.wait_for(
                    reader.readexactly(4), 5.0)
                writer.write(data)
                await asyncio.wait_for(writer.drain(), 5.0)
            """, "serve.missing-timeout")
        assert findings == []

    def test_timeout_scope_is_fine(self):
        findings = lint(
            """
            import asyncio
            async def f(reader, writer, timeout):
                async with asyncio.timeout(timeout):
                    data = await reader.readexactly(4)
                    if data:
                        await writer.drain()
                async with asyncio.timeout_at(timeout):
                    await writer.wait_closed()
            """, "serve.missing-timeout")
        assert findings == []

    def test_await_after_timeout_scope_triggers(self):
        findings = lint(
            """
            import asyncio
            async def f(reader, timeout):
                async with asyncio.timeout(timeout):
                    prefix = await reader.readexactly(4)
                return await reader.readexactly(len(prefix))
            """, "serve.missing-timeout")
        assert [f.location.line for f in findings] == [6]

    def test_nested_function_in_timeout_scope_triggers(self):
        """The deadline bounds the enclosing body, not the body of a
        function merely defined there."""
        findings = lint(
            """
            import asyncio
            async def f(reader, writer, timeout):
                async with asyncio.timeout(timeout):
                    async def later():
                        return await reader.readexactly(4)
                    await writer.drain()
                    return later
            """, "serve.missing-timeout")
        assert [f.location.obj for f in findings] == ["readexactly"]

    def test_other_async_with_does_not_bound(self):
        findings = lint(
            """
            async def f(reader, lock):
                async with lock:
                    return await reader.readexactly(4)
            """, "serve.missing-timeout")
        assert len(findings) == 1

    def test_unrelated_awaits_ignored(self):
        findings = lint(
            """
            import asyncio
            async def f(queue):
                item = await queue.get()
                await asyncio.sleep(0.1)
                return item
            """, "serve.missing-timeout")
        assert findings == []

    def test_out_of_scope_file_ignored(self):
        findings = lint(
            """
            async def f(reader):
                return await reader.readexactly(4)
            """, "serve.missing-timeout",
            path="examples/demo.py")
        assert findings == []


class TestRepositoryIsClean:
    def test_serve_sources_pass_their_own_rules(self):
        """The shipped serving layer obeys both disciplines."""
        from pathlib import Path

        import repro.serve as serve_pkg

        sources = []
        for path in Path(serve_pkg.__file__).parent.glob("*.py"):
            rel = f"src/repro/serve/{path.name}"
            sources.append(SourceFile.parse(rel, path.read_text()))
        findings = run_rules(
            {KIND_SOURCE: sources}, None,
            only=["serve.unbounded-queue", "serve.missing-timeout"],
        )
        assert findings == []

    def test_rules_registered_with_error_severity(self):
        from repro.checks.engine import Severity, registry

        rules = registry()
        for rule_id in ("serve.unbounded-queue",
                        "serve.missing-timeout"):
            assert rule_id in rules
            assert rules[rule_id].severity is Severity.ERROR
