"""Async-service lint for the :mod:`repro.serve` subsystem.

The serving layer has failure modes the crypto lint cannot see: an
unbounded ``asyncio.Queue`` silently converts overload into memory
growth instead of backpressure, and a bare await on a stream
operation lets one stalled peer wedge a connection task forever.
Both are structural properties visible in the AST, so they are
enforced the same way the constant-time discipline is — as registry
rules that ``repro-aes lint --strict`` gates on.

Both rules are *path-scoped*: they fire only on files matching
:attr:`repro.checks.engine.CheckConfig.serve_path_patterns`, because
the disciplines are service-layer requirements, not repository-wide
style.  A bounded queue elsewhere may be wrong; in the serving layer
an unbounded one always is.

- ``serve.unbounded-queue`` — an ``asyncio.Queue`` (or Lifo/Priority
  variant) constructed without a positive ``maxsize``.  The service's
  backpressure contract (``docs/serving.md``) depends on the request
  queue rejecting work when full; asyncio treats *every*
  ``maxsize <= 0`` as "infinite", so an absent, zero or negative
  bound is the defect.
- ``serve.missing-timeout`` — an ``await`` applied directly to a
  stream call that can block on the peer (``readexactly``, ``drain``,
  ``wait_closed``, ``open_connection``, ...) with no bound: neither
  wrapped in ``asyncio.wait_for`` nor inside the body of an
  ``async with asyncio.timeout(...)`` / ``timeout_at(...)`` scope of
  the same function.  Every socket await in the serving layer is
  bounded; the codec helpers exist precisely so call sites never
  write a bare stream await.
"""

from __future__ import annotations

import ast
import fnmatch
from typing import Iterator, Set

from repro.checks.crypto_lint import SourceFile
from repro.checks.engine import (
    KIND_SOURCE,
    CheckConfig,
    Finding,
    Location,
    Severity,
    rule,
)

#: Queue constructors whose default capacity is unbounded.
_QUEUE_TYPES = {"Queue", "LifoQueue", "PriorityQueue"}

#: Stream-API attribute calls that block on the remote peer.  A bare
#: ``await`` on any of these is a hang waiting to happen; each must
#: sit inside ``asyncio.wait_for`` (or ``wait``) or a timeout scope.
_RISKY_AWAITS = {
    "read", "readline", "readexactly", "readuntil", "drain",
    "wait_closed", "open_connection", "start_tls",
}

#: Wrappers that bound an await: the timeout context managers and
#: ``asyncio.wait_for`` / ``asyncio.wait``.
_TIMEOUT_WRAPPERS = {"wait_for", "wait", "timeout", "timeout_at"}

#: Context managers whose ``async with`` body runs under a deadline.
_TIMEOUT_SCOPES = {"timeout", "timeout_at"}

#: Nodes that open a new function: a deadline in the enclosing body
#: does not bound the awaits of a function defined inside it.
_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _in_scope(subject: SourceFile, config: CheckConfig) -> bool:
    path = subject.path.replace("\\", "/")
    return any(fnmatch.fnmatch(path, pattern)
               for pattern in config.serve_path_patterns)


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _maxsize_const(value: ast.expr):
    """The numeric constant a maxsize expression evaluates to, or
    ``None`` for anything non-constant.  ``-1`` parses as a unary
    minus over a constant, so that shape is folded here too."""
    if (isinstance(value, ast.UnaryOp)
            and isinstance(value.op, ast.USub)):
        inner = _maxsize_const(value.operand)
        return -inner if isinstance(inner, (int, float)) else None
    if (isinstance(value, ast.Constant)
            and isinstance(value.value, (int, float))
            and not isinstance(value.value, bool)):
        return value.value
    return None


def _queue_bound(node: ast.Call) -> bool:
    """Whether this queue construction carries a positive maxsize."""
    candidates = list(node.args[:1])
    candidates.extend(kw.value for kw in node.keywords
                      if kw.arg == "maxsize")
    for value in candidates:
        const = _maxsize_const(value)
        if const is not None and const <= 0:
            return False  # asyncio treats maxsize <= 0 as unbounded
        return True       # positive or non-constant: assume a bound
    return False          # no maxsize at all


@rule(
    "serve.unbounded-queue",
    Severity.ERROR,
    KIND_SOURCE,
    "asyncio queue constructed without a positive maxsize — overload "
    "becomes memory growth instead of backpressure",
)
def check_unbounded_queue(subject: SourceFile,
                          config: CheckConfig) -> Iterator[Finding]:
    """Flag ``asyncio.Queue()`` (and variants) with no real bound."""
    if not _in_scope(subject, config):
        return
    for node in ast.walk(subject.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name not in _QUEUE_TYPES:
            continue
        if isinstance(node.func, ast.Attribute):
            base = node.func.value
            if not (isinstance(base, ast.Name)
                    and base.id == "asyncio"):
                continue
        if _queue_bound(node):
            continue
        yield Finding(
            rule="serve.unbounded-queue",
            severity=Severity.ERROR,
            message=(f"asyncio.{name}() without a positive maxsize: "
                     f"the serving layer's backpressure contract "
                     f"needs a bounded queue"),
            location=Location(file=subject.path, line=node.lineno,
                              obj=name),
        )


def _risky_await_name(node: ast.Await) -> str:
    """The risky stream-call name under this await, or ''."""
    value = node.value
    if not isinstance(value, ast.Call):
        return ""
    name = _call_name(value)
    return name if name in _RISKY_AWAITS else ""


def _is_timeout_wrapped(value: ast.expr) -> bool:
    """Whether an awaited expression is an ``asyncio.wait_for``-style
    wrapper (whose first argument is the risky call)."""
    return (isinstance(value, ast.Call)
            and _call_name(value) in _TIMEOUT_WRAPPERS)


def _opens_timeout_scope(node: ast.AsyncWith) -> bool:
    return any(isinstance(item.context_expr, ast.Call)
               and _call_name(item.context_expr) in _TIMEOUT_SCOPES
               for item in node.items)


def _scoped_awaits(tree: ast.AST) -> Set[int]:
    """Ids of the awaits lexically inside the body of an ``async with
    asyncio.timeout(...)`` of their own function."""
    scoped: Set[int] = set()

    def visit(node: ast.AST, inside: bool) -> None:
        if isinstance(node, _FUNCTION_NODES):
            inside = False
        elif inside and isinstance(node, ast.Await):
            scoped.add(id(node))
        if isinstance(node, ast.AsyncWith) \
                and _opens_timeout_scope(node):
            for item in node.items:
                visit(item, inside)
            for stmt in node.body:
                visit(stmt, True)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return scoped


@rule(
    "serve.missing-timeout",
    Severity.ERROR,
    KIND_SOURCE,
    "bare await on a stream operation (read/drain/connect) outside "
    "asyncio.wait_for or an asyncio.timeout scope — a stalled peer "
    "wedges the task forever",
)
def check_missing_timeout(subject: SourceFile,
                          config: CheckConfig) -> Iterator[Finding]:
    """Flag awaits on peer-blocking stream calls with no timeout."""
    if not _in_scope(subject, config):
        return
    scoped = _scoped_awaits(subject.tree)
    for node in ast.walk(subject.tree):
        if not isinstance(node, ast.Await) or id(node) in scoped:
            continue
        if _is_timeout_wrapped(node.value):
            continue
        name = _risky_await_name(node)
        if not name:
            continue
        yield Finding(
            rule="serve.missing-timeout",
            severity=Severity.ERROR,
            message=(f"bare 'await ...{name}(...)' with no "
                     f"asyncio.wait_for or asyncio.timeout bound: a "
                     f"stalled peer blocks this task indefinitely"),
            location=Location(file=subject.path, line=node.lineno,
                              obj=name),
        )


#: Functions that put frame bytes on the wire.  The zero-copy codec
#: contract says these write head and payload as separate parts;
#: any buffer concatenation or join here rebuilds the copy tax the
#: split codec exists to remove.
_SEND_PATH_NAMES = {"write_frame"}
_SEND_PATH_PREFIXES = ("_send",)


def _is_send_path(name: str) -> bool:
    return (name in _SEND_PATH_NAMES
            or name.startswith(_SEND_PATH_PREFIXES))


def _function_nodes(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


@rule(
    "serve.codec-copy",
    Severity.ERROR,
    KIND_SOURCE,
    "frame bytes copied on the wire path — a defensive bytes() of a "
    "payload, or buffer concatenation inside a send function",
)
def check_codec_copy(subject: SourceFile,
                     config: CheckConfig) -> Iterator[Finding]:
    """Enforce the zero-copy codec invariants of ``docs/serving.md``.

    Two shapes, both structural:

    - ``bytes(<anything>.payload)`` anywhere in the serving layer: a
      frame payload is immutable ``bytes`` by contract, so wrapping
      it in ``bytes()`` re-copies up to ``MAX_PAYLOAD_BYTES`` per
      frame for nothing.
    - ``+`` concatenation or ``join`` inside a send-path function
      (``write_frame`` / ``_send*``): the send path writes head and
      payload as two parts; building a joined buffer reintroduces a
      full-frame copy per response.
    """
    if not _in_scope(subject, config):
        return
    for node in ast.walk(subject.tree):
        if not isinstance(node, ast.Call):
            continue
        if (isinstance(node.func, ast.Name)
                and node.func.id == "bytes"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Attribute)
                and node.args[0].attr == "payload"):
            yield Finding(
                rule="serve.codec-copy",
                severity=Severity.ERROR,
                message=("bytes(...payload) re-copies an immutable "
                         "frame payload; pass the payload object "
                         "through"),
                location=Location(file=subject.path,
                                  line=node.lineno, obj="bytes"),
            )
    for func in _function_nodes(subject.tree):
        name = getattr(func, "name", "")
        if not _is_send_path(name):
            continue
        for node in ast.walk(func):
            offence = ""
            if (isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Add)):
                offence = "'+' concatenation"
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"):
                offence = "a join()"
            if not offence:
                continue
            yield Finding(
                rule="serve.codec-copy",
                severity=Severity.ERROR,
                message=(f"send path {name}() builds wire bytes via "
                         f"{offence}: write head and payload as "
                         f"separate parts instead"),
                location=Location(file=subject.path,
                                  line=node.lineno, obj=name),
            )


__all__ = [
    "check_codec_copy",
    "check_missing_timeout",
    "check_unbounded_queue",
]
