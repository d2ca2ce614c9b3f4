"""Interprocedural call-graph + fixpoint dataflow over the AST.

The constant-time lint (:mod:`repro.checks.crypto_lint`) keeps its
taint deliberately shallow: one level of same-module call-site
propagation, no transitive closure.  That is the right trade for a
per-file style gate, but both post-PR-5 production bugs lived exactly
one hop past it — a secret-carrying object handed to a helper that
logs it, and a fire-and-forget task three calls from where its owner
should have pinned it.  This module is the package-wide engine those
hazards need:

- **Program** — every scanned :class:`SourceFile` parsed into one
  :class:`FlowProgram`; functions are indexed across files, so a
  ``server.py`` caller reaching a ``helpers.py`` callee is one edge.
- **Call graph** — calls resolve by name, preferring the same class
  (for ``self.x(...)``), then the same module, then a unique
  program-wide definition; ambiguous names resolve to nothing
  (conservative: no propagation beats wrong propagation).
- **Fixpoint taint** — seeds are parameters named like key material
  (:func:`repro.checks.secrets.is_secret_name`), parameters annotated
  with a secret-carrier type
  (:attr:`~repro.checks.engine.CheckConfig.secret_carrier_types`,
  e.g. the serving layer's ``Session``), and locals assigned from a
  carrier constructor.  Taint flows through assignments, into callee
  parameters at call sites, and back out of calls whose resolved
  callee returns secret data — iterated to a fixpoint bounded by
  :attr:`~repro.checks.engine.CheckConfig.flow_max_depth` call-graph
  hops, so a pathological chain cannot make the analysis creep.
- **Sanitizers** — the same model the shallow lint uses:
  ``len``/``isinstance``/``type``/``hmac.compare_digest`` launder,
  reading a public frame attribute
  (:attr:`~repro.checks.engine.CheckConfig.public_attributes`)
  projects protocol state rather than key bits, and an
  ``is None`` / ``is not None`` identity check reveals only
  presence.
- **Blocking closure** — the same machinery, reused by the ``aio.*``
  pack: a synchronous function that (transitively, same bound) calls
  a blocking primitive is marked blocking, so an ``async def``
  invoking it directly is caught even through helper indirection.

The rule packs over this engine live in
:mod:`repro.checks.taint_rules` (``taint.*`` secret-leak sinks) and
:mod:`repro.checks.aio_rules` (``aio.*`` concurrency hazards), both
registered against :data:`repro.checks.engine.KIND_FLOW` subjects.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, \
    Tuple

from fnmatch import fnmatch

from repro.checks.crypto_lint import SourceFile
from repro.checks.engine import CheckConfig
from repro.checks.secrets import SANITIZERS, is_secret_name


@dataclass(frozen=True, eq=False)
class FlowSubject:
    """The whole scanned source set, handed to KIND_FLOW rules.

    One lint run builds exactly one of these (see
    :func:`repro.checks.runner.build_subjects`); the analyzed
    :class:`FlowProgram` is cached per config so the nine flow rules
    share a single fixpoint instead of re-running it.
    """

    sources: Tuple[SourceFile, ...]
    _cache: List[Tuple[CheckConfig, "FlowProgram"]] = field(
        default_factory=list, repr=False)

    def program(self, config: CheckConfig) -> "FlowProgram":
        if self._cache and self._cache[0][0] is config:
            return self._cache[0][1]
        program = FlowProgram(self.sources, config)
        self._cache[:] = [(config, program)]
        return program


@dataclass
class FunctionInfo:
    """One function or method definition, program-wide identity."""

    qualname: str          # "path::Class.name" or "path::name"
    name: str
    path: str
    node: ast.AST          # FunctionDef | AsyncFunctionDef
    class_name: Optional[str]
    is_async: bool
    params: Tuple[str, ...]       # positional parameter names

    @property
    def display(self) -> str:
        if self.class_name:
            return f"{self.class_name}.{self.name}"
        return self.name


@dataclass(frozen=True)
class CallEdge:
    """One resolved call site."""

    call: ast.Call
    callee: FunctionInfo
    #: Positional shift for implicit self/cls at attribute calls.
    offset: int


def own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def dotted_call_name(node: ast.Call) -> str:
    """``time.sleep(...)`` -> ``"time.sleep"`` (best effort)."""
    parts: List[str] = []
    cursor: ast.AST = node.func
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if isinstance(cursor, ast.Name):
        parts.append(cursor.id)
    return ".".join(reversed(parts))


def _is_none_check(node: ast.Compare) -> bool:
    """``x is None`` / ``x is not None``: presence, not key bits."""
    return (
        all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and all(isinstance(c, ast.Constant) and c.value is None
                for c in node.comparators)
    )


def _annotation_names(node: Optional[ast.AST]) -> Set[str]:
    """Every bare name an annotation mentions (Optional[Session],
    "Session", serve.Session all yield Session)."""
    if node is None:
        return set()
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and \
                isinstance(sub.value, str):
            # A string annotation is itself (possibly dotted) a name.
            names.update(part.strip()
                         for part in sub.value.replace("[", " ")
                         .replace("]", " ").replace(",", " ")
                         .replace(".", " ").split())
    return names


def _assign_targets(node: ast.AST) -> List[str]:
    """Plain-name targets of an assignment-like statement."""
    if isinstance(node, ast.Assign):
        sources: Sequence[ast.AST] = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        sources = [node.target]
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        sources = [node.target]
    elif isinstance(node, ast.NamedExpr):
        sources = [node.target]
    else:
        return []
    targets: List[str] = []

    def collect(target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            targets.append(target.id)
        elif isinstance(target, ast.Subscript):
            collect(target.value)
        elif isinstance(target, ast.Starred):
            collect(target.value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                collect(element)
        # Attribute stores (self.x = secret) do not taint the object.

    for target in sources:
        collect(target)
    return targets


class FlowProgram:
    """The analyzed program: call graph plus taint/blocking fixpoints.

    Build one per lint run (via :meth:`FlowSubject.program`); rules
    then ask :meth:`taint`, :meth:`secret_reads`,
    :meth:`blocking_chain` and :attr:`coroutine_names` about any
    function the program contains.
    """

    def __init__(self, sources: Sequence[SourceFile],
                 config: CheckConfig) -> None:
        self.config = config
        self.functions: Dict[str, FunctionInfo] = {}
        self._by_name: Dict[str, List[FunctionInfo]] = {}
        self._edges: Dict[str, List[CallEdge]] = {}
        #: Call-site-seeded tainted parameters per function.
        self.seeds: Dict[str, Set[str]] = {}
        #: Functions whose return value carries secret data.
        self.returns_secret: Set[str] = set()
        #: Sync functions that (transitively) call a blocking
        #: primitive: qualname -> the call chain that proves it.
        self._blocking: Dict[str, Tuple[str, ...]] = {}
        #: Module-level dicts whose values are all named functions:
        #: (path, dict name) -> the value expressions.
        self._tables: Dict[Tuple[str, str], List[ast.expr]] = {}
        self._taint_cache: Dict[str, Set[str]] = {}
        self._collect(sources)
        self._resolve_calls()
        self._taint_fixpoint()
        self._blocking_fixpoint()

    # ------------------------------------------------------ collection
    def _collect(self, sources: Sequence[SourceFile]) -> None:
        for source in sources:
            self._collect_scope(source.path, source.tree, None)
            self._collect_tables(source.path, source.tree)

    def _collect_tables(self, path: str, tree: ast.AST) -> None:
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign):
                target = node.target
            else:
                continue
            value = node.value
            if isinstance(target, ast.Name) \
                    and isinstance(value, ast.Dict) and value.values \
                    and all(isinstance(v, (ast.Name, ast.Attribute))
                            for v in value.values):
                self._tables[(path, target.id)] = list(value.values)

    def _collect_scope(self, path: str, scope: ast.AST,
                       class_name: Optional[str]) -> None:
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                self._add_function(path, node, class_name)
                # Nested defs are functions in their own right.
                self._collect_scope(path, node, class_name)
            elif isinstance(node, ast.ClassDef):
                self._collect_scope(path, node, node.name)
            elif isinstance(node, (ast.If, ast.Try, ast.With)):
                self._collect_scope(path, node, class_name)

    def _add_function(self, path: str, node: ast.AST,
                      class_name: Optional[str]) -> None:
        assert isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef))
        args = node.args
        params = tuple(a.arg for a in (*args.posonlyargs, *args.args))
        prefix = f"{class_name}." if class_name else ""
        qualname = f"{path}::{prefix}{node.name}"
        if qualname in self.functions:
            # Redefinition (overload stubs, platform forks): keep the
            # first, which is what a reader meets first too.
            return
        info = FunctionInfo(
            qualname=qualname, name=node.name, path=path, node=node,
            class_name=class_name,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            params=params,
        )
        self.functions[qualname] = info
        self._by_name.setdefault(node.name, []).append(info)

    def __iter__(self) -> Iterator[FunctionInfo]:
        for qualname in sorted(self.functions):
            yield self.functions[qualname]

    # ------------------------------------------------------ call graph
    def resolve(self, call: ast.Call,
                caller: FunctionInfo) -> Optional[CallEdge]:
        """The unique in-program callee of a call site, if any."""
        func = call.func
        name = call_name(call)
        candidates = self._by_name.get(name, [])
        if not candidates:
            return None
        plain = [c for c in candidates if c.class_name is None]
        if isinstance(func, ast.Name):
            # A bare name: a plain function, same module preferred.
            chosen = self._pick(plain or candidates, caller)
            offset = 0
        else:
            base = func.value if isinstance(func, ast.Attribute) \
                else None
            if isinstance(base, ast.Name) and \
                    base.id in ("self", "cls") and caller.class_name:
                # Only the caller's own class: resolving self.x() to
                # some OTHER class that happens to define x() is how
                # ``writer.close()`` ends up "calling" an unrelated
                # async ``close`` and the fixpoint goes wrong.
                own = [c for c in candidates
                       if c.class_name == caller.class_name
                       and c.path == caller.path]
                chosen = self._pick(own, caller) if own else None
            else:
                # An attribute call on an arbitrary receiver
                # (``modes.ecb_encrypt(...)``, ``obj.helper(...)``):
                # without receiver types, only a module-level
                # function is a safe target.  Foreign-class methods
                # are never unique enough to bet a fixpoint on.
                chosen = self._pick(plain, caller) if plain else None
            offset = (
                1 if chosen is not None and chosen.class_name
                and chosen.params[:1] in (("self",), ("cls",))
                else 0
            )
        if chosen is None or chosen is caller:
            return None
        return CallEdge(call=call, callee=chosen, offset=offset)

    @staticmethod
    def _pick(candidates: List[FunctionInfo],
              caller: FunctionInfo) -> Optional[FunctionInfo]:
        local = [c for c in candidates if c.path == caller.path]
        pool = local or candidates
        # Ambiguity resolves to nothing: wrong edges poison a taint
        # fixpoint far worse than missing ones.
        return pool[0] if len(pool) == 1 else None

    def _resolve_calls(self) -> None:
        for info in self:
            edges: List[CallEdge] = []
            for node in own_nodes(info.node):
                if isinstance(node, ast.Call):
                    edge = self.resolve(node, info)
                    if edge is not None:
                        edges.append(edge)
            self._edges[info.qualname] = edges

    def edges(self, info: FunctionInfo) -> List[CallEdge]:
        return self._edges.get(info.qualname, [])

    def dispatch_targets(self, call: ast.Call, caller: FunctionInfo,
                         ) -> Tuple[str, List[ast.Call]]:
        """A call through a module-level dispatch table, fanned out.

        A call of a local bound from ``TABLE.get(key)`` or
        ``TABLE[key]`` may reach any value of ``TABLE``.  Returns the
        table name and one synthetic call per value, carrying the
        original arguments, so the resolution and blocking queries
        apply to each unchanged; ``("", [])`` for any other call.
        """
        if not isinstance(call.func, ast.Name):
            return "", []
        for node in own_nodes(caller.node):
            if not (isinstance(node, ast.Assign)
                    and _assign_targets(node) == [call.func.id]):
                continue
            lookup = node.value
            if isinstance(lookup, ast.Call) \
                    and isinstance(lookup.func, ast.Attribute) \
                    and lookup.func.attr == "get":
                base = lookup.func.value
            elif isinstance(lookup, ast.Subscript):
                base = lookup.value
            else:
                continue
            if isinstance(base, ast.Name) \
                    and (caller.path, base.id) in self._tables:
                return base.id, [
                    ast.copy_location(
                        ast.Call(func=value, args=call.args,
                                 keywords=call.keywords), call)
                    for value in self._tables[(caller.path, base.id)]
                ]
        return "", []

    # ----------------------------------------------------- taint reads
    def declassified_call(self, node: ast.Call) -> bool:
        """True when a call produces data-plane output, not secrets.

        Ciphertext and recovered plaintext are *derived* from the key
        but are exactly what the system is built to hand out; tracking
        them as key material floods every downstream consumer (the
        bench report, the response frame, the throughput log line)
        with false taint.  Calls whose name matches
        :attr:`CheckConfig.declassified_call_names` therefore launder:
        the call result is clean and tainted names inside its argument
        list are not "read" by the surrounding expression.

        Executor dispatch is understood: the value of
        ``loop.run_in_executor(None, gcm_encrypt, key, data)`` (or
        ``pool.submit(...)``) is whatever the handed-over callable
        produces, so the declassifier matches against *that* name —
        otherwise the exact routing the ``aio.*`` pack demands would
        re-taint the result the direct call launders.
        """
        patterns = self.config.declassified_call_names
        name = call_name(node)
        if name in ("run_in_executor", "submit"):
            index = 1 if name == "run_in_executor" else 0
            if len(node.args) > index:
                target = node.args[index]
                ref = ""
                if isinstance(target, ast.Name):
                    ref = target.id
                elif isinstance(target, ast.Attribute):
                    ref = target.attr
                return any(fnmatch(ref, pattern)
                           for pattern in patterns)
        return any(fnmatch(name, pattern) for pattern in patterns)

    def tainted_reads(self, node: ast.AST, tainted: Set[str],
                      caller: FunctionInfo) -> List[str]:
        """What secret data an expression actually reads.

        Returns human-readable descriptions: tainted names, and
        ``callee()`` for calls whose resolved callee returns secret
        data.  Sanitizer and declassifier calls, public-attribute
        projections and is-None identity checks are skipped
        wholesale.  Lambda bodies are skipped too: a lambda
        *expression* captures names for later, it does not read them
        here, and pretending otherwise is how a timing closure taints
        a benchmark report.
        """
        found: List[str] = []
        public = set(self.config.public_attributes)
        carriers = set(self.config.secret_carrier_types)

        def walk(n: ast.AST) -> None:
            if isinstance(n, ast.Lambda):
                return
            if isinstance(n, ast.Call):
                if call_name(n) in SANITIZERS or \
                        self.declassified_call(n):
                    return
                if call_name(n) in carriers:
                    found.append(f"{call_name(n)}(...)")
                    # fall through: arguments may read more taint
                else:
                    edge = self.resolve(n, caller)
                    if edge is not None and \
                            edge.callee.qualname in self.returns_secret:
                        found.append(f"{call_name(n)}()")
            if isinstance(n, ast.Compare) and _is_none_check(n):
                return
            if isinstance(n, ast.Attribute) and n.attr in public:
                return
            if isinstance(n, ast.Name) and n.id in tainted:
                found.append(n.id)
            for child in ast.iter_child_nodes(n):
                walk(child)

        walk(node)
        seen: Set[str] = set()
        unique: List[str] = []
        for name in found:
            if name not in seen:
                seen.add(name)
                unique.append(name)
        return unique

    def secret_reads(self, info: FunctionInfo,
                     node: ast.AST) -> List[str]:
        """Secret data read by an expression inside ``info``."""
        return self.tainted_reads(node, self.taint(info), info)

    # -------------------------------------------------- taint fixpoint
    def _intrinsic_seeds(self, info: FunctionInfo) -> Set[str]:
        """Parameters tainted by name or by carrier annotation."""
        config = self.config
        carriers = set(config.secret_carrier_types)
        node = info.node
        assert isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef))
        args = node.args
        tainted: Set[str] = set()
        every = (*args.posonlyargs, *args.args, *args.kwonlyargs)
        for arg in every:
            if is_secret_name(arg.arg, config.secret_name_patterns,
                              config.secret_name_exceptions):
                tainted.add(arg.arg)
            elif _annotation_names(arg.annotation) & carriers:
                tainted.add(arg.arg)
        if args.vararg and is_secret_name(
                args.vararg.arg, config.secret_name_patterns,
                config.secret_name_exceptions):
            tainted.add(args.vararg.arg)
        return tainted

    def taint(self, info: FunctionInfo) -> Set[str]:
        """Final tainted local names of one function."""
        cached = self._taint_cache.get(info.qualname)
        if cached is not None:
            return cached
        tainted = self._local_taint(
            info, self.seeds.get(info.qualname, set()))
        self._taint_cache[info.qualname] = tainted
        return tainted

    def _local_taint(self, info: FunctionInfo,
                     seeded: Set[str]) -> Set[str]:
        """Function-local fixpoint given call-site seeds."""
        tainted = self._intrinsic_seeds(info) | set(seeded)
        carriers = set(self.config.secret_carrier_types)

        def secret_calls(node: ast.AST) -> bool:
            """Carrier construction / secret-returning call, with the
            same lambda and declassifier blinders as tainted_reads."""
            if isinstance(node, ast.Lambda):
                return False
            if isinstance(node, ast.Call):
                if call_name(node) in SANITIZERS or \
                        self.declassified_call(node):
                    return False
                if call_name(node) in carriers:
                    return True
                edge = self.resolve(node, info)
                if edge is not None and \
                        edge.callee.qualname in self.returns_secret:
                    return True
            return any(secret_calls(child)
                       for child in ast.iter_child_nodes(node))

        def value_is_secret(value: ast.AST) -> bool:
            if self.tainted_reads(value, tainted, info):
                return True
            return secret_calls(value)

        changed = True
        while changed:
            changed = False
            for node in own_nodes(info.node):
                targets = _assign_targets(node)
                if not targets:
                    continue
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    value: Optional[ast.AST] = node.iter
                else:
                    value = getattr(node, "value", None)
                if value is None:
                    continue
                if value_is_secret(value):
                    for name in targets:
                        if name not in tainted:
                            tainted.add(name)
                            changed = True
        return tainted

    def _returns_secret_now(self, info: FunctionInfo,
                            tainted: Set[str]) -> bool:
        if any(fnmatch(info.name, pattern)
               for pattern in self.config.declassified_call_names):
            # A crypto entry point: its output is ciphertext or
            # recovered plaintext — data plane, not key material.
            return False
        for node in own_nodes(info.node):
            if isinstance(node, ast.Return) and \
                    node.value is not None:
                if self.tainted_reads(node.value, tainted, info):
                    return True
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Call) and \
                            call_name(sub) in \
                            self.config.secret_carrier_types:
                        return True
        return False

    def _taint_fixpoint(self) -> None:
        """Propagate taint across call edges, bounded in hops.

        Each sweep reads the seed state of the *previous* sweep
        (Jacobi, not Gauss-Seidel): processing functions in a lucky
        order must not let one sweep carry taint down an arbitrarily
        long call chain, or ``flow_max_depth`` would be a fiction.
        """
        for hop in range(max(1, self.config.flow_max_depth)):
            changed = False
            self._taint_cache.clear()
            previous = {q: set(s) for q, s in self.seeds.items()}
            for info in self:
                tainted = self._local_taint(
                    info, previous.get(info.qualname, set()))
                if info.qualname not in self.returns_secret and \
                        self._returns_secret_now(info, tainted):
                    self.returns_secret.add(info.qualname)
                    changed = True
                for edge in self.edges(info):
                    hit = self._seeded_params(edge, tainted, info)
                    if not hit:
                        continue
                    seeds = self.seeds.setdefault(
                        edge.callee.qualname, set())
                    if not hit <= seeds:
                        seeds.update(hit)
                        changed = True
            if not changed:
                break
        self._taint_cache.clear()

    def _seeded_params(self, edge: CallEdge, tainted: Set[str],
                       caller: FunctionInfo) -> Set[str]:
        """Callee parameters a call site proves tainted."""
        callee, call = edge.callee, edge.call
        hit: Set[str] = set()
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break  # positions unknowable past a splat
            position = index + edge.offset
            if position < len(callee.params) and \
                    self.tainted_reads(arg, tainted, caller):
                hit.add(callee.params[position])
        for keyword in call.keywords:
            if keyword.arg and keyword.arg in callee.params and \
                    self.tainted_reads(keyword.value, tainted,
                                       caller):
                hit.add(keyword.arg)
        return hit

    # ----------------------------------------------- blocking closure
    def direct_blocking_call(self,
                              node: ast.Call) -> Optional[str]:
        dotted = dotted_call_name(node)
        config = self.config
        for prefix in config.blocking_call_prefixes:
            if prefix.endswith("."):
                head = dotted.split(".", 1)[0] + "."
                if dotted and head == prefix:
                    return dotted
            elif dotted == prefix:
                return dotted
        name = call_name(node)
        if name in config.blocking_call_names:
            return dotted or name
        return None

    def _blocking_fixpoint(self) -> None:
        for info in self:
            if info.is_async:
                continue
            for node in own_nodes(info.node):
                if isinstance(node, ast.Call):
                    direct = self.direct_blocking_call(node)
                    if direct is not None:
                        self._blocking[info.qualname] = (direct,)
                        break
        for _ in range(max(1, self.config.flow_max_depth)):
            changed = False
            for info in self:
                if info.is_async or \
                        info.qualname in self._blocking:
                    continue
                for edge in self.edges(info):
                    chain = self._blocking.get(edge.callee.qualname)
                    if chain is not None:
                        self._blocking[info.qualname] = (
                            edge.callee.display, *chain)
                        changed = True
                        break
            if not changed:
                break

    def blocking_chain(self,
                       info: FunctionInfo) -> Optional[Tuple[str, ...]]:
        """Why a sync function blocks, as a call chain, or None."""
        return self._blocking.get(info.qualname)

    # ------------------------------------------------------ coroutines
    @property
    def coroutine_names(self) -> Set[str]:
        """Bare names of every ``async def`` in the program."""
        return {info.name for info in self.functions.values()
                if info.is_async}


__all__ = [
    "CallEdge",
    "FlowProgram",
    "FlowSubject",
    "FunctionInfo",
    "call_name",
    "dotted_call_name",
    "own_nodes",
]
