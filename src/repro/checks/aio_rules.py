"""``aio.*`` — asyncio concurrency-hazard rules.

The serving layer's two post-PR-5 production bugs were both *silent*
concurrency defects: a remotely-triggered ``stop()`` task created
with ``create_task`` and never bound anywhere (the event loop keeps
only weak references, so the GC could collect the task mid-shutdown),
and worker tasks that died permanently on an exception path.  The
first is exactly ``aio.task-not-retained``; the lint that would have
caught the second lives in the e2e exception-storm regression test —
but every rule here targets the same family: hazards the event loop
never reports, it just misbehaves.

Rules (all over the :class:`~repro.checks.flow.FlowProgram`, so
helper indirection does not hide a hazard):

- ``aio.task-not-retained`` (error) — the result of
  ``asyncio.create_task`` / ``ensure_future`` is discarded, bound to
  ``_``, or bound to a local that is never read again.  A task
  nothing references is garbage the moment the statement ends;
  `asyncio` documents that the loop holds only weak references, so
  "fire and forget" means "fire and maybe never run".  Pin it to an
  attribute, a collection, or await it.
- ``aio.blocking-in-coroutine`` (error) — a direct call, inside an
  ``async def``, to something that blocks the loop: ``time.sleep``,
  ``socket.*``, or one of the synchronous crypto entry points
  (``BatchEngine`` methods, the mode-layer functions) that must be
  routed through ``run_in_executor``.  Detection is transitive: an
  ``async def`` calling a sync helper whose call chain reaches a
  blocking primitive is flagged with the chain spelled out, and a
  call through a module-level dispatch table (``work =
  _CRYPTO_OPS.get(key)`` then ``work(...)``) counts as a call of
  every function in the table.  The one sanctioned exception is a
  size-bounded inline fast path: a call in the body of ``if
  len(x) <= LIMIT:`` whose last positional argument (the data
  operand) is ``x`` itself, with ``LIMIT`` one of
  :data:`_INLINE_SIZE_LIMITS`.
- ``aio.unawaited-coroutine`` (error) — a bare-statement call to an
  in-program ``async def``: the coroutine object is created and
  dropped, the body never runs.  Python warns at runtime only if the
  object is garbage-collected while the warning machinery is active;
  statically it is always wrong.
- ``aio.unlocked-shared-mutation`` (warning) — a ``self.*`` attribute
  is mutated on both sides of the loop/executor boundary (an
  ``async def`` method on one side, a method handed to
  ``run_in_executor``/``submit`` on the other) without a lock.  The
  GIL keeps individual bytecodes atomic, not read-modify-write
  sequences; state shared across that boundary needs a
  ``threading.Lock`` (or a redesign that stops sharing it).
"""

from __future__ import annotations

import ast
import fnmatch
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.checks.engine import (
    KIND_FLOW,
    CheckConfig,
    Finding,
    Location,
    Severity,
    rule,
)
from repro.checks.flow import (
    FlowProgram,
    FlowSubject,
    FunctionInfo,
    call_name,
    own_nodes,
)

#: Task-spawning calls whose result is the only strong reference.
_SPAWN_CALLS = {"create_task", "ensure_future"}

#: Executor hand-off calls: their callable arguments run on threads.
_EXECUTOR_CALLS = {"run_in_executor", "submit"}

#: Methods that mutate their receiver in place.
_MUTATING_METHODS = {
    "append", "extend", "insert", "add", "update", "remove",
    "discard", "pop", "popleft", "clear", "setdefault",
}


def _location(info: FunctionInfo, node: ast.AST) -> Location:
    return Location(file=info.path,
                    line=getattr(node, "lineno", 0),
                    obj=info.display)


# ------------------------------------------------------------ retention
def _spawn_call(node: ast.AST) -> Optional[ast.Call]:
    if isinstance(node, ast.Call) and \
            call_name(node) in _SPAWN_CALLS:
        return node
    return None


def _reads_of(info: FunctionInfo, name: str,
              skip: ast.AST) -> int:
    """Loads of ``name`` in the function outside ``skip``."""
    skipped = set()
    for sub in ast.walk(skip):
        skipped.add(id(sub))
    count = 0
    for node in own_nodes(info.node):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and node.id == name and \
                isinstance(node.ctx, ast.Load):
            count += 1
    return count


@rule("aio.task-not-retained", Severity.ERROR, KIND_FLOW,
      "create_task/ensure_future result not retained — the event "
      "loop holds only a weak reference, so the task can be "
      "garbage-collected mid-flight")
def task_not_retained(subject: FlowSubject,
                      config: CheckConfig) -> Iterator[Finding]:
    program = subject.program(config)
    for info in program:
        for node in own_nodes(info.node):
            spawn: Optional[ast.Call] = None
            how = ""
            if isinstance(node, ast.Expr):
                spawn = _spawn_call(node.value)
                how = "discarded"
            elif isinstance(node, ast.Assign):
                spawn = _spawn_call(node.value)
                if spawn is not None:
                    targets = node.targets
                    if len(targets) == 1 and \
                            isinstance(targets[0], ast.Name):
                        name = targets[0].id
                        if name == "_":
                            how = "bound to '_'"
                        elif _reads_of(info, name, node) == 0:
                            how = (f"bound to {name!r}, which is "
                                   f"never read again")
                        else:
                            spawn = None  # retained via the local
                    else:
                        spawn = None  # attribute/tuple bind retains
            if spawn is None:
                continue
            yield Finding(
                "aio.task-not-retained", Severity.ERROR,
                f"result of {call_name(spawn)}() is {how}: the "
                f"loop keeps only a weak reference, so the task "
                f"may be garbage-collected before it runs; pin it "
                f"to an attribute or await it",
                _location(info, node),
            )


# ------------------------------------------------------------- blocking
#: Names whose ``len(x) <= NAME`` guard sanctions a blocking call of
#: ``x``: a deliberate inline fast path whose cost ``NAME`` bounds.
_INLINE_SIZE_LIMITS = ("INLINE_MAX_BYTES",)


def _size_guard_operand(test: ast.expr) -> str:
    """``x`` for ``len(x) <= LIMIT`` / ``len(x) < LIMIT`` with
    ``LIMIT`` one of :data:`_INLINE_SIZE_LIMITS`, else ''."""
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.LtE, ast.Lt))):
        return ""
    left, right = test.left, test.comparators[0]
    if isinstance(left, ast.Call) and isinstance(left.func, ast.Name) \
            and left.func.id == "len" and len(left.args) == 1 \
            and isinstance(left.args[0], ast.Name) \
            and isinstance(right, ast.Name) \
            and right.id in _INLINE_SIZE_LIMITS:
        return left.args[0].id
    return ""


def _size_guarded(info: FunctionInfo) -> Set[int]:
    """Ids of the calls in the true branch of a size guard whose last
    positional argument, the data operand of every crypto entry point
    (``work(key, payload)``, ``ctr_xcrypt(key, nonce, data)``), is the
    measured value."""
    guarded: Set[int] = set()
    for node in own_nodes(info.node):
        if not isinstance(node, ast.If):
            continue
        operand = _size_guard_operand(node.test)
        if not operand:
            continue
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call) and sub.args \
                        and isinstance(sub.args[-1], ast.Name) \
                        and sub.args[-1].id == operand:
                    guarded.add(id(sub))
    return guarded


def _blocking_reason(program: FlowProgram, call: ast.Call,
                     info: FunctionInfo) -> Optional[str]:
    """Why ``call`` blocks the loop, phrased for a finding, or None."""
    direct = program.direct_blocking_call(call)
    if direct is not None:
        return f"blocking {direct}()"
    edge = program.resolve(call, info)
    if edge is None or edge.callee.is_async:
        return None
    chain = program.blocking_chain(edge.callee)
    if chain is None:
        return None
    path = " -> ".join((edge.callee.display, *chain))
    return f"{edge.callee.display}(), which blocks transitively ({path})"


@rule("aio.blocking-in-coroutine", Severity.ERROR, KIND_FLOW,
      "blocking call (time.sleep/socket/sync crypto) executed "
      "directly inside an async def instead of run_in_executor")
def blocking_in_coroutine(subject: FlowSubject,
                          config: CheckConfig) -> Iterator[Finding]:
    program = subject.program(config)
    for info in program:
        if not info.is_async:
            continue
        guarded = _size_guarded(info)
        for node in own_nodes(info.node):
            if not isinstance(node, ast.Call) or id(node) in guarded:
                continue
            reason = _blocking_reason(program, node, info)
            how = "calls"
            if reason is None:
                table, targets = program.dispatch_targets(node, info)
                how = f"calls, through dispatch table {table},"
                reason = next(
                    (r for r in (_blocking_reason(program, t, info)
                                 for t in targets) if r), None)
            if reason is None:
                continue
            yield Finding(
                "aio.blocking-in-coroutine", Severity.ERROR,
                f"async def {info.name} {how} {reason}; route it "
                f"through loop.run_in_executor so the event loop "
                f"stays responsive",
                _location(info, node),
            )


# ------------------------------------------------------------ unawaited
@rule("aio.unawaited-coroutine", Severity.ERROR, KIND_FLOW,
      "bare-statement call to an async def: the coroutine object "
      "is created and dropped without ever running")
def unawaited_coroutine(subject: FlowSubject,
                        config: CheckConfig) -> Iterator[Finding]:
    program = subject.program(config)
    for info in program:
        for node in own_nodes(info.node):
            if not isinstance(node, ast.Expr) or \
                    not isinstance(node.value, ast.Call):
                continue
            call = node.value
            edge = program.resolve(call, info)
            if edge is None or not edge.callee.is_async:
                continue
            yield Finding(
                "aio.unawaited-coroutine", Severity.ERROR,
                f"{edge.callee.display}() is a coroutine "
                f"function; calling it without await (or "
                f"create_task) builds a coroutine object and "
                f"silently drops it",
                _location(info, node),
            )


# --------------------------------------------------- shared mutation
def _self_attr(node: ast.AST) -> str:
    """``self.x`` -> ``"x"``, else ''."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and \
            node.value.id == "self":
        return node.attr
    return ""


def _looks_like_lock(node: ast.AST) -> bool:
    name = ""
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Call):
        return _looks_like_lock(node.func)
    return fnmatch.fnmatch(name.lower(), "*lock*")


class _MutationScan:
    """Reads, mutations and lock coverage of one method body."""

    def __init__(self, info: FunctionInfo):
        self.info = info
        self.reads: Set[str] = set()
        #: attr -> [(stmt node, under_lock)]
        self.mutations: Dict[str, List[Tuple[ast.AST, bool]]] = {}
        node = info.node
        assert isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef))
        for stmt in node.body:
            self._scan(stmt, locked=False)

    def _scan(self, node: ast.AST, locked: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            covers = any(_looks_like_lock(item.context_expr)
                         for item in node.items)
            for item in node.items:
                self._scan(item.context_expr, locked)
            for child in node.body:
                self._scan(child, locked or covers)
            return
        self._record(node, locked)
        for child in ast.iter_child_nodes(node):
            self._scan(child, locked)

    def _record(self, node: ast.AST, locked: bool) -> None:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                attr = _self_attr(target)
                if not attr and isinstance(target, ast.Subscript):
                    attr = _self_attr(target.value)
                if attr:
                    self.mutations.setdefault(attr, []).append(
                        (node, locked))
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _MUTATING_METHODS:
            attr = _self_attr(node.func.value)
            if attr:
                self.mutations.setdefault(attr, []).append(
                    (node, locked))
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            attr = _self_attr(node)
            if attr:
                self.reads.add(attr)


def _executor_target_names(methods: List[FunctionInfo]) -> Set[str]:
    """Methods of this class handed to an executor by reference."""
    targets: Set[str] = set()
    for info in methods:
        for node in own_nodes(info.node):
            if not (isinstance(node, ast.Call)
                    and call_name(node) in _EXECUTOR_CALLS):
                continue
            for arg in node.args:
                attr = _self_attr(arg)
                if attr:
                    targets.add(attr)
    return targets


@rule("aio.unlocked-shared-mutation", Severity.WARNING, KIND_FLOW,
      "self.* state mutated on both sides of the event-loop/"
      "executor-thread boundary without a lock")
def unlocked_shared_mutation(
        subject: FlowSubject,
        config: CheckConfig) -> Iterator[Finding]:
    program = subject.program(config)
    classes: Dict[Tuple[str, str], List[FunctionInfo]] = {}
    for info in program:
        if info.class_name:
            classes.setdefault((info.path, info.class_name),
                               []).append(info)
    for (path, class_name), methods in sorted(classes.items()):
        target_names = _executor_target_names(methods)
        if not target_names:
            continue
        loop_side = [m for m in methods if m.is_async]
        thread_side = [m for m in methods
                       if not m.is_async and m.name in target_names]
        if not loop_side or not thread_side:
            continue
        loop_scans = [_MutationScan(m) for m in loop_side]
        thread_scans = [_MutationScan(m) for m in thread_side]
        loop_mut = {a for s in loop_scans for a in s.mutations}
        loop_touch = loop_mut | {a for s in loop_scans
                                 for a in s.reads}
        thread_mut = {a for s in thread_scans for a in s.mutations}
        thread_touch = thread_mut | {a for s in thread_scans
                                     for a in s.reads}
        hazards = (thread_mut & loop_touch) | \
                  (loop_mut & thread_touch)
        for scan in (*loop_scans, *thread_scans):
            side = ("event loop" if scan.info.is_async
                    else "executor thread")
            for attr in sorted(hazards):
                for stmt, locked in scan.mutations.get(attr, ()):
                    if locked:
                        continue
                    yield Finding(
                        "aio.unlocked-shared-mutation",
                        Severity.WARNING,
                        f"self.{attr} is mutated on the {side} in "
                        f"{scan.info.display} while the other side "
                        f"of the loop/executor boundary also "
                        f"touches it; guard it with a lock or stop "
                        f"sharing it",
                        _location(scan.info, stmt),
                    )


__all__ = [
    "blocking_in_coroutine",
    "task_not_retained",
    "unawaited_coroutine",
    "unlocked_shared_mutation",
]
