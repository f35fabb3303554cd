"""Cross-procedural exception-flow model for faultcheck.

Builds, per function, the raw fault-path facts the rules consume:

* **raise sites** — every ``raise SomeError(...)`` whose exception class
  resolves statically (to an indexed package class or a builtin), with
  the stack of enclosing ``try`` frames that could intercept it;
* **handler summaries** — what each ``except`` clause catches (tuple
  aliases like ``HOST_ERRORS`` expanded), whether it re-raises
  unconditionally (a top-level bare ``raise``), through an
  ``isinstance`` gate, or by shipping the error over a pipe and raising
  ``SystemExit`` (the pool-worker pattern);
* **concurrency ops** — signal installs/resets, thread/process spawns
  and parent-fd touches, plus the functions handed to ``Process`` as
  fork targets.

On top of the facts, :func:`propagate_raises` runs the same bottom-up
fixed point effectcheck uses for effects
(:func:`~repro.devtools.effectcheck.summaries.propagate_facts`): a
function's **raise set** is
its own escaping raise sites plus every callee raise that escapes the
``try`` frames around the call site, each carrying the full call chain
back to the leaf ``raise``.  Dynamic re-raises (``raise err``) and
raises inside nested ``def``s are out of scope and documented as such —
the taxonomy classes all flow through first-class ``raise Class(...)``
statements, which is the shape the rules police.

Handler subtraction is deliberately absorbing: a handler that matches
an exception type swallows it unless it *always* re-raises (top-level
bare ``raise``) or its ``isinstance`` gate names the type.  A handler
that conditionally re-raises has made a classification decision; REP013
separately polices that the decision never launders host errors.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..effectcheck.index import (FunctionInfo, ModuleInfo, PackageIndex,
                                 dotted_name)
from ..effectcheck.summaries import (MAX_CHAIN, CallSite, FunctionSummary,
                                     propagate_facts)

#: Builtin exception hierarchy (child -> parent), enough to decide what
#: ``except Exception`` catches without importing anything.
BUILTIN_EXCEPTION_BASES: Dict[str, Optional[str]] = {
    "BaseException": None,
    "Exception": "BaseException",
    "SystemExit": "BaseException",
    "KeyboardInterrupt": "BaseException",
    "GeneratorExit": "BaseException",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "FloatingPointError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "BufferError": "Exception",
    "EOFError": "Exception",
    "ImportError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "LookupError": "Exception",
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "MemoryError": "Exception",
    "NameError": "Exception",
    "UnboundLocalError": "NameError",
    "OSError": "Exception",
    "IOError": "OSError",
    "BlockingIOError": "OSError",
    "BrokenPipeError": "OSError",
    "ConnectionError": "OSError",
    "ConnectionResetError": "ConnectionError",
    "FileExistsError": "OSError",
    "FileNotFoundError": "OSError",
    "InterruptedError": "OSError",
    "IsADirectoryError": "OSError",
    "NotADirectoryError": "OSError",
    "PermissionError": "OSError",
    "TimeoutError": "OSError",
    "ReferenceError": "Exception",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "StopIteration": "Exception",
    "StopAsyncIteration": "Exception",
    "SyntaxError": "Exception",
    "IndentationError": "SyntaxError",
    "SystemError": "Exception",
    "TypeError": "Exception",
    "ValueError": "Exception",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "Warning": "Exception",
}

#: The host-fault triple the serve layer must never classify away.
HOST_ERROR_NAMES = ("MemoryError", "SystemError", "RecursionError")

#: Call targets recognized as thread/process creation (REP015).
SPAWN_FACTORIES = {"Thread", "Process", "Pool", "ThreadPoolExecutor",
                   "ProcessPoolExecutor", "Popen", "Timer"}

#: Dotted stdlib calls that fork (REP015).
FORK_CALLS = {"os.fork", "os.forkpty"}

#: Receivers that are fds owned by the parent process (REP015).
PARENT_FD_RECEIVERS = {"sys.stdin", "sys.stdout", "sys.stderr"}


@dataclass(frozen=True)
class Handler:
    """One summarized ``except`` clause."""

    #: Trailing names of the caught types, tuple aliases expanded;
    #: empty together with ``bare=True`` for ``except:``.
    covers: Tuple[str, ...]
    bare: bool
    line: int
    #: Unconditional top-level bare ``raise``: everything passes through.
    transparent: bool
    #: Type names re-raised via ``if isinstance(err, T): raise`` gates.
    gate: Tuple[str, ...]
    #: The pool-worker pattern: the caught error is shipped out through
    #: a call (``conn.send((.., error, ..))``) and the handler raises
    #: ``SystemExit`` — classification happens on the receiving side.
    ships: bool
    bound: Optional[str]


@dataclass(frozen=True)
class TryFrame:
    """The handler clauses of one enclosing ``try``."""

    handlers: Tuple[Handler, ...]


@dataclass(frozen=True)
class RaiseSite:
    """One statically-typed ``raise`` with its guarding ``try`` stack."""

    type_key: str                 # package class key or builtin name
    name: str                     # trailing class name
    line: int
    frames: Tuple[TryFrame, ...]  # innermost first


@dataclass(frozen=True)
class OpSite:
    """One concurrency-protocol-relevant operation (REP015)."""

    kind: str   # "signal_reset" | "signal_install" | "spawn" | "parent_fd"
    line: int
    detail: str


@dataclass(frozen=True)
class RaiseFact:
    """One exception type escaping a function, with its origin chain."""

    type_key: str
    name: str
    path: str
    line: int
    chain: Tuple[str, ...] = ()   # caller frames, outermost first

    @property
    def key(self) -> Tuple[str, str, int]:
        """Deduplication key within one function's raise set."""
        return (self.type_key, self.path, self.line)


@dataclass
class FaultFacts:
    """All per-function raw facts extracted in one AST pass."""

    fn: FunctionInfo
    raises: List[RaiseSite] = field(default_factory=list)
    handlers: List[Handler] = field(default_factory=list)
    #: (start, end, frames) statement regions for call-site lookups.
    regions: List[Tuple[int, int, Tuple[TryFrame, ...]]] = \
        field(default_factory=list)
    ops: List[OpSite] = field(default_factory=list)
    #: Signal names reset (SIG_DFL/SIG_IGN) at the function's top level.
    resets: Set[str] = field(default_factory=set)
    #: Function keys passed as ``target=`` to a ``Process(...)`` call.
    process_targets: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Exception-type resolution and ancestry
# ----------------------------------------------------------------------
class ExceptionTable:
    """Resolve exception references and ancestry against the index.

    Types are keyed by the package class key (``repro.runtime.errors
    .CorruptRewardError``) or the bare builtin name (``ValueError``).
    Ancestry is a *name* set — package class names merged with the
    builtin chain reached through unresolved base refs — so handler
    matching degrades gracefully (CHA-style, by trailing name) when a
    reference cannot be resolved precisely.
    """

    def __init__(self, index: PackageIndex) -> None:
        self.index = index
        #: ``module.NAME`` -> expanded type names, for module-level
        #: exception tuples like ``HOST_ERRORS = (MemoryError, ...)``.
        self.tuple_aliases: Dict[str, Tuple[str, ...]] = {}
        self._ancestry_cache: Dict[str, FrozenSet[str]] = {}
        for module in index.modules.values():
            self._scan_tuples(module)

    def _scan_tuples(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if not (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Tuple)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            names: List[str] = []
            for element in node.value.elts:
                ref = dotted_name(element)
                if ref is None:
                    names = []
                    break
                tail = ref.rsplit(".", 1)[-1]
                if tail in BUILTIN_EXCEPTION_BASES or \
                        self.index.resolve_class(module.dotted, ref):
                    names.append(tail)
                else:
                    names = []
                    break
            if names:
                key = f"{module.dotted}.{node.targets[0].id}"
                self.tuple_aliases[key] = tuple(names)

    def resolve_raise(self, module: str, ref: str) -> Optional[str]:
        """Type key for ``raise <ref>(...)``, or ``None`` if dynamic."""
        cls = self.index.resolve_class(module, ref)
        if cls is not None:
            return cls.key
        tail = ref.rsplit(".", 1)[-1]
        if tail in BUILTIN_EXCEPTION_BASES:
            return tail
        return None

    def handler_names(self, module: str, ref: str) -> Tuple[str, ...]:
        """Names one ``except <ref>`` entry covers (aliases expanded)."""
        resolved = self.index.resolve(module, ref)
        for key in (resolved, f"{module}.{ref}"):
            if key in self.tuple_aliases:
                return self.tuple_aliases[key]
        cls = self.index.resolve_class(module, ref)
        if cls is not None:
            return (cls.name,)
        return (ref.rsplit(".", 1)[-1],)

    def ancestry(self, type_key: str) -> FrozenSet[str]:
        """All class names an instance of ``type_key`` is."""
        cached = self._ancestry_cache.get(type_key)
        if cached is not None:
            return cached
        names: Set[str] = set()
        cls = self.index.classes.get(type_key)
        if cls is None:
            self._add_builtin_chain(names, type_key.rsplit(".", 1)[-1])
        else:
            for ancestor in self.index.mro(cls):
                names.add(ancestor.name)
                for base_ref in ancestor.base_refs:
                    if self.index.resolve_class(ancestor.module,
                                                base_ref) is None:
                        self._add_builtin_chain(
                            names, base_ref.rsplit(".", 1)[-1])
        result = frozenset(names)
        self._ancestry_cache[type_key] = result
        return result

    @staticmethod
    def _add_builtin_chain(names: Set[str], name: str) -> None:
        while name in BUILTIN_EXCEPTION_BASES:
            names.add(name)
            parent = BUILTIN_EXCEPTION_BASES[name]
            if parent is None:
                break
            name = parent

    def catches(self, handler: Handler, type_key: str) -> bool:
        """Whether ``handler`` matches an exception of ``type_key``."""
        if handler.bare:
            return True
        return bool(set(handler.covers) & self.ancestry(type_key))


def escapes(table: ExceptionTable, type_key: str,
            frames: Sequence[TryFrame]) -> bool:
    """Whether ``type_key`` raised under ``frames`` leaves the function."""
    for frame in frames:                      # innermost first
        matched = None
        for handler in frame.handlers:
            if table.catches(handler, type_key):
                matched = handler
                break
        if matched is None:
            continue
        if matched.transparent:
            continue                          # re-raised; keep climbing
        if set(matched.gate) & table.ancestry(type_key):
            continue                          # gate re-raises this type
        return False                          # absorbed (classified here)
    return True


# ----------------------------------------------------------------------
# Per-function fact extraction
# ----------------------------------------------------------------------
class _FactExtractor:
    """One pass over a function body collecting :class:`FaultFacts`."""

    def __init__(self, index: PackageIndex, table: ExceptionTable,
                 fn: FunctionInfo) -> None:
        self.index = index
        self.table = table
        self.fn = fn
        self.module = fn.module
        self.facts = FaultFacts(fn=fn)

    def run(self) -> FaultFacts:
        """Extract raises, handlers, regions and concurrency ops."""
        body = self.fn.node.body
        self._walk(body, ())
        for stmt in body:
            self._top_level_resets(stmt)
        return self.facts

    # -- statement walk with the enclosing-try stack -------------------
    def _walk(self, body: Sequence[ast.stmt],
              frames: Tuple[TryFrame, ...]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue                      # nested scopes: out of scope
            end = getattr(stmt, "end_lineno", stmt.lineno)
            self.facts.regions.append((stmt.lineno, end, frames))
            self._scan_expressions(stmt)
            if isinstance(stmt, ast.Try):
                handlers = tuple(self._handler(h) for h in stmt.handlers)
                self.facts.handlers.extend(handlers)
                self._walk(stmt.body, frames + (TryFrame(handlers),))
                for node in stmt.handlers:
                    self._walk(node.body, frames)
                self._walk(stmt.orelse, frames)
                self._walk(stmt.finalbody, frames)
            elif isinstance(stmt, ast.Raise):
                self._raise_site(stmt, frames)
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                self._walk(stmt.body, frames)
                self._walk(stmt.orelse, frames)
            elif isinstance(stmt, ast.If):
                self._walk(stmt.body, frames)
                self._walk(stmt.orelse, frames)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._walk(stmt.body, frames)

    def _raise_site(self, stmt: ast.Raise,
                    frames: Tuple[TryFrame, ...]) -> None:
        exc = stmt.exc
        if exc is None:
            return                            # bare re-raise: transparent
        target = exc.func if isinstance(exc, ast.Call) else exc
        ref = dotted_name(target)
        if ref is None:
            return
        type_key = self.table.resolve_raise(self.module, ref)
        if type_key is None:
            return                            # ``raise err``: dynamic
        self.facts.raises.append(RaiseSite(
            type_key=type_key, name=type_key.rsplit(".", 1)[-1],
            line=stmt.lineno, frames=frames))

    # -- handler summarization -----------------------------------------
    def _handler(self, node: ast.ExceptHandler) -> Handler:
        covers: List[str] = []
        bare = node.type is None
        if node.type is not None:
            elements = (node.type.elts if isinstance(node.type, ast.Tuple)
                        else [node.type])
            for element in elements:
                ref = dotted_name(element)
                if ref is None:
                    continue
                covers.extend(self.table.handler_names(self.module, ref))
        transparent = any(isinstance(stmt, ast.Raise) and stmt.exc is None
                          for stmt in node.body)
        gate = self._gate_names(node)
        ships = self._ships_and_exits(node)
        return Handler(covers=tuple(covers), bare=bare, line=node.lineno,
                       transparent=transparent, gate=gate, ships=ships,
                       bound=node.name)

    def _gate_names(self, node: ast.ExceptHandler) -> Tuple[str, ...]:
        """Types re-raised through ``if isinstance(err, T): raise``."""
        if node.name is None:
            return ()
        gate: List[str] = []
        for stmt in node.body:
            if not (isinstance(stmt, ast.If)
                    and isinstance(stmt.test, ast.Call)
                    and isinstance(stmt.test.func, ast.Name)
                    and stmt.test.func.id == "isinstance"
                    and len(stmt.test.args) == 2
                    and isinstance(stmt.test.args[0], ast.Name)
                    and stmt.test.args[0].id == node.name):
                continue
            if not any(isinstance(inner, ast.Raise) and inner.exc is None
                       for inner in stmt.body):
                continue
            spec = stmt.test.args[1]
            elements = (spec.elts if isinstance(spec, ast.Tuple)
                        else [spec])
            for element in elements:
                ref = dotted_name(element)
                if ref is not None:
                    gate.extend(self.table.handler_names(self.module, ref))
        return tuple(gate)

    def _ships_and_exits(self, node: ast.ExceptHandler) -> bool:
        """The worker pattern: error shipped out, then ``SystemExit``."""
        if node.name is None:
            return False
        shipped = False
        exits = False
        for stmt in node.body:
            for inner in ast.walk(stmt):
                if isinstance(inner, ast.Call):
                    for arg in ast.walk(inner):
                        if isinstance(arg, ast.Name) \
                                and arg.id == node.name \
                                and arg is not inner.func:
                            shipped = True
                if isinstance(inner, ast.Raise) and inner.exc is not None:
                    target = inner.exc.func \
                        if isinstance(inner.exc, ast.Call) else inner.exc
                    if dotted_name(target) == "SystemExit":
                        exits = True
        return shipped and exits

    # -- concurrency ops -----------------------------------------------
    def _scan_expressions(self, stmt: ast.stmt) -> None:
        for value in ast.iter_child_nodes(stmt):
            if not isinstance(value, ast.expr):
                continue
            for node in ast.walk(value):
                if isinstance(node, ast.Call):
                    self._classify_call(node)

    def _classify_call(self, node: ast.Call) -> None:
        func = node.func
        ref = dotted_name(func)
        dotted = self._stdlib_target(ref)
        if dotted == "signal.signal":
            self._signal_call(node)
            return
        if dotted in FORK_CALLS:
            self.facts.ops.append(OpSite("spawn", node.lineno,
                                         f"{dotted}()"))
            return
        terminal = ref.rsplit(".", 1)[-1] if ref else None
        if terminal in SPAWN_FACTORIES \
                and self.index.resolve_class(self.module,
                                             ref or "") is None:
            self.facts.ops.append(OpSite(
                "spawn", node.lineno, f"{terminal}(...) constructor"))
            if terminal == "Process":
                self._process_target(node)
            return
        if isinstance(func, ast.Attribute):
            receiver = dotted_name(func.value)
            if receiver is not None \
                    and self._stdlib_target(receiver) \
                    in PARENT_FD_RECEIVERS:
                self.facts.ops.append(OpSite(
                    "parent_fd", node.lineno,
                    f"{receiver}.{func.attr}()"))
        elif isinstance(func, ast.Name) and func.id == "input":
            self.facts.ops.append(OpSite("parent_fd", node.lineno,
                                         "input()"))

    def _stdlib_target(self, ref: Optional[str]) -> Optional[str]:
        """Map ``sig.signal`` through the module's import table."""
        if ref is None:
            return None
        head, _, rest = ref.partition(".")
        module = self.index.modules.get(self.module)
        target = module.imports.get(head) if module else None
        if target is None:
            return ref
        return f"{target}.{rest}" if rest else target

    def _signal_call(self, node: ast.Call) -> None:
        signame = "?"
        if node.args:
            sig_ref = dotted_name(node.args[0])
            if sig_ref:
                signame = sig_ref.rsplit(".", 1)[-1]
        handler_ref = None
        if len(node.args) > 1:
            handler_ref = dotted_name(node.args[1])
        tail = handler_ref.rsplit(".", 1)[-1] if handler_ref else None
        if tail in ("SIG_DFL", "SIG_IGN"):
            self.facts.ops.append(OpSite(
                "signal_reset", node.lineno,
                f"signal.signal({signame}, {tail})"))
        else:
            self.facts.ops.append(OpSite(
                "signal_install", node.lineno,
                f"signal.signal({signame}, ...)"))

    def _top_level_resets(self, stmt: ast.stmt) -> None:
        """Record SIG_DFL/SIG_IGN resets in the function's own body."""
        if not isinstance(stmt, ast.Expr) \
                or not isinstance(stmt.value, ast.Call):
            return
        node = stmt.value
        if self._stdlib_target(dotted_name(node.func)) != "signal.signal":
            return
        handler_ref = dotted_name(node.args[1]) if len(node.args) > 1 \
            else None
        tail = handler_ref.rsplit(".", 1)[-1] if handler_ref else None
        if tail not in ("SIG_DFL", "SIG_IGN") or not node.args:
            return
        sig_ref = dotted_name(node.args[0])
        if sig_ref:
            self.facts.resets.add(sig_ref.rsplit(".", 1)[-1])

    def _process_target(self, node: ast.Call) -> None:
        for keyword in node.keywords:
            if keyword.arg != "target":
                continue
            ref = dotted_name(keyword.value)
            if ref is None:
                continue
            resolved = self.index.resolve_function(self.module, ref)
            if resolved is not None:
                self.facts.process_targets.append(resolved.key)


def extract_facts(index: PackageIndex,
                  table: ExceptionTable) -> Dict[str, FaultFacts]:
    """Fault-path facts for every indexed function."""
    return {fn.key: _FactExtractor(index, table, fn).run()
            for fn in index.iter_functions()}


def guards_at(facts: FaultFacts, line: int) -> Tuple[TryFrame, ...]:
    """The ``try`` stack around the innermost statement covering ``line``."""
    best: Optional[Tuple[int, int, Tuple[TryFrame, ...]]] = None
    for start, end, frames in facts.regions:
        if start <= line <= end:
            if best is None or end - start <= best[1] - best[0]:
                best = (start, end, frames)
    return best[2] if best is not None else ()


# ----------------------------------------------------------------------
# Bottom-up raise-set propagation (effectcheck-style fixed point)
# ----------------------------------------------------------------------
def propagate_raises(index: PackageIndex,
                     summaries: Dict[str, FunctionSummary],
                     facts: Dict[str, FaultFacts],
                     table: ExceptionTable
                     ) -> Dict[str, Dict[Tuple[str, str, int], RaiseFact]]:
    """Escaping raise sets per function, with full call chains.

    Seeds each function with its own escaping raise sites, then pushes
    callee raise sets through call sites — subtracting whatever the
    ``try`` frames around each call site absorb — until nothing changes.
    """
    table_out: Dict[str, Dict[Tuple[str, str, int], RaiseFact]] = {}
    for key, fact in facts.items():
        own: Dict[Tuple[str, str, int], RaiseFact] = {}
        for site in fact.raises:
            if escapes(table, site.type_key, site.frames):
                raised = RaiseFact(type_key=site.type_key, name=site.name,
                                   path=fact.fn.path, line=site.line)
                own[raised.key] = raised
        table_out[key] = own

    def through(summary: FunctionSummary, site: CallSite):
        frames = guards_at(facts[summary.fn.key], site.line)
        return lambda _, raised: (
            [raised] if escapes(table, raised.type_key, frames) else [])

    propagate_facts(index, summaries, table_out, through)
    return table_out


def reachability(index: PackageIndex,
                 summaries: Dict[str, FunctionSummary],
                 entries: Sequence[str]) -> Dict[str, Tuple[str, ...]]:
    """BFS call closure from ``entries``: fn key -> chain from an entry.

    The chain holds one ``qualname (path:line)`` frame per hop,
    outermost first; entries map to the empty chain.
    """
    reach: Dict[str, Tuple[str, ...]] = {key: () for key in entries
                                         if key in summaries}
    queue: List[str] = list(reach)
    while queue:
        key = queue.pop(0)
        summary = summaries.get(key)
        if summary is None:
            continue
        chain = reach[key]
        if len(chain) >= MAX_CHAIN:
            continue
        for site in summary.call_sites:
            hop = index.frame(summary.fn, site.line)
            for callee_key in site.callees:
                if callee_key in reach:
                    continue
                reach[callee_key] = chain + (hop,)
                queue.append(callee_key)
    return reach
