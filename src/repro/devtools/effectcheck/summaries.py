"""Per-function effect summaries and bottom-up propagation.

Every function in the indexed package gets a :class:`FunctionSummary`:
the set of observable mutations it performs, each tracked back to a
*root* — the ``self`` attribute or parameter through which the mutated
object was reached — plus where the leaf write happens.  Summaries are
first extracted intra-procedurally with local alias tracking (a write
through ``row = self.covisits[prev]`` is a write of ``covisits``), then
propagated bottom-up over the call graph to a fixed point, so callers
inherit their callees' effects with the full call chain preserved.

Recognized mutation forms:

* attribute / subscript / slice assignment, augmented assignment and
  ``del``, through any alias of a ``self`` attribute or parameter;
* in-place NumPy calls (``np.copyto``, ``np.add.at``, ``out=`` kwargs);
* builtin container mutators (``append``, ``update``, ``pop``, ...) on
  aliased receivers;
* RNG stream draws: any method call on a ``default_rng`` attribute or an
  ``rng`` parameter is an effect of kind ``"rng"`` (a draw advances the
  stream — exactly the state :class:`RankerSnapshot` must capture).

Unresolvable method calls fall back to class-hierarchy analysis (union
over every indexed class defining that method); calls on provably fresh
objects (results of constructors or allocating NumPy calls) are
discarded, which keeps e.g. ``InteractionLog.copy`` pure.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, FrozenSet, Hashable, Iterable, List,
                    Optional, Sequence, Set, Tuple, TypeVar)

from .index import ClassInfo, FunctionInfo, PackageIndex, dotted_name

#: Root meaning "the bound instance itself".
SELF: Tuple[str, Optional[str]] = ("self", None)

Root = Tuple[str, Optional[str]]

#: A propagated fact: an :class:`Effect` or faultcheck's ``RaiseFact``.
Fact = TypeVar("Fact")

#: Builtins whose result aliases their argument(s).
ALIAS_BUILTINS = {"zip", "enumerate", "reversed", "iter", "list", "tuple",
                  "sorted", "filter", "vars", "dict"}

#: Method names whose result aliases the receiver (``d.get(k)`` hands out
#: the stored object, ``module.parameters()`` yields the live tensors).
ALIAS_METHODS = {"get", "setdefault", "items", "keys", "values",
                 "parameters"}

#: Builtin container/tensor mutators: calling one on an aliased receiver
#: is a write to the alias root.
MUTATOR_METHODS = {"append", "extend", "insert", "remove", "clear",
                   "update", "add", "discard", "pop", "popitem", "sort",
                   "reverse", "fill", "setflags", "sum_duplicates",
                   "setdiag", "step", "zero_grad", "backward", "assign_",
                   "load_state_dict", "shuffle", "splice", "unsplice"}

#: ``np.<name>(target, ...)`` functions mutating their first argument.
NP_INPLACE_FIRST_ARG = {"copyto", "put", "place", "fill_diagonal"}


@dataclass(frozen=True)
class Effect:
    """One observable mutation, anchored at its leaf write site."""

    kind: str                    # "write" | "rng"
    root: Root                   # ("self", attr) | ("param", name)
    attr: Optional[str]          # attribute name written at the leaf
    path: str
    line: int
    detail: str
    chain: Tuple[str, ...] = ()  # caller frames, outermost first

    @property
    def key(self) -> Tuple[str, Root, Optional[str]]:
        """Deduplication key within one summary."""
        return (self.kind, self.root, self.attr)


@dataclass
class CallSite:
    """One resolved call edge inside a function body."""

    callees: Tuple[str, ...]               # FunctionInfo keys
    receiver_roots: Optional[FrozenSet[Root]]
    argmaps: Dict[str, Dict[str, FrozenSet[Root]]]  # callee key -> map
    line: int


@dataclass
class FunctionSummary:
    """Inferred effects plus call/alias facts for one function."""

    fn: FunctionInfo
    effects: Dict[Tuple[str, Root, Optional[str]], Effect] = \
        field(default_factory=dict)
    returns_aliases: FrozenSet[Root] = frozenset()
    call_sites: List[CallSite] = field(default_factory=list)

    def add(self, effect: Effect) -> bool:
        """Record ``effect`` unless an equivalent one is already known."""
        if effect.key in self.effects:
            return False
        self.effects[effect.key] = effect
        return True

    def direct_effects(self) -> List[Effect]:
        """Effects whose leaf write is in this very function."""
        return [e for e in self.effects.values() if not e.chain]


class _Analyzer:
    """Single-function intra-procedural effect extraction."""

    def __init__(self, index: PackageIndex, fn: FunctionInfo,
                 alias_table: Dict[str, FrozenSet[Root]]) -> None:
        self.index = index
        self.fn = fn
        self.alias_table = alias_table
        self.summary = FunctionSummary(fn=fn)
        self.env: Dict[str, FrozenSet[Root]] = {}
        self.receiver = fn.receiver_name()
        self.rng_params: Set[str] = set()
        self.cls_rng_attrs: Set[str] = (
            index.merged_rng_attrs(fn.cls) if fn.cls else set())
        self.cls_attr_types: Dict[str, Set[str]] = (
            index.merged_attr_types(fn.cls) if fn.cls else {})
        self._site_cache: Dict[int, Optional[CallSite]] = {}
        self._returns: Set[Root] = set()

    # ------------------------------------------------------------------
    def run(self) -> FunctionSummary:
        """Extract this function's summary."""
        node = self.fn.node
        for name in self.fn.param_names():
            if name == self.receiver:
                self.env[name] = frozenset({SELF})
            else:
                self.env[name] = frozenset({("param", name)})
        for arg in (node.args.posonlyargs + node.args.args
                    + node.args.kwonlyargs):
            annotation = ast.dump(arg.annotation) if arg.annotation else ""
            if arg.arg == "rng" or "Generator" in annotation:
                self.rng_params.add(arg.arg)
        for stmt in node.body:
            self._statement(stmt)
        self.summary.returns_aliases = frozenset(self._returns)
        return self.summary

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _statements(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._statement(stmt)

    def _statement(self, stmt: ast.stmt) -> None:
        self._scan_own_expressions(stmt)
        if isinstance(stmt, ast.Assign):
            roots = self._roots(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, roots, stmt)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind_target(stmt.target, self._roots(stmt.value), stmt)
        elif isinstance(stmt, ast.AugAssign):
            value_roots = self._roots(stmt.value)
            self._augmented_target(stmt.target, value_roots, stmt)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._write_target(target, stmt, "del")
        elif isinstance(stmt, ast.For):
            self._bind_target(stmt.target, self._roots(stmt.iter), stmt)
            # Two passes so aliases established late in the body are seen
            # by mutations earlier in the next iteration.
            self._statements(stmt.body)
            self._statements(stmt.body)
            self._statements(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._statements(stmt.body)
            self._statements(stmt.body)
            self._statements(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._statements(stmt.body)
            self._statements(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars,
                                      self._roots(item.context_expr), stmt)
            self._statements(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._statements(stmt.body)
            for handler in stmt.handlers:
                self._statements(handler.body)
            self._statements(stmt.orelse)
            self._statements(stmt.finalbody)

    def _scan_own_expressions(self, stmt: ast.stmt) -> None:
        """Handle calls/yields in the statement's own expressions."""
        for value in ast.iter_child_nodes(stmt):
            if not isinstance(value, ast.expr):
                continue
            for node in ast.walk(value):
                if isinstance(node, ast.Call):
                    self._call(node)
                elif isinstance(node, (ast.Yield, ast.YieldFrom)) \
                        and node.value is not None:
                    self._returns |= self._roots(node.value)
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            self._returns |= self._roots(stmt.value)

    # ------------------------------------------------------------------
    # Targets and writes
    # ------------------------------------------------------------------
    def _bind_target(self, target: ast.expr,
                     roots: FrozenSet[Root], stmt: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = roots
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, roots, stmt)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, roots, stmt)
        else:
            self._write_target(target, stmt, "assignment")

    def _augmented_target(self, target: ast.expr,
                          value_roots: FrozenSet[Root],
                          stmt: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            # ``table -= lr * grad`` mutates in place when ``table``
            # aliases an array; the name also keeps its aliases.
            existing = self.env.get(target.id, frozenset())
            for root in existing:
                self._record_write(root, self._target_attr(target, root),
                                   stmt, "augmented assignment")
            self.env[target.id] = existing | value_roots
        else:
            self._write_target(target, stmt, "augmented assignment")

    def _write_target(self, target: ast.expr, stmt: ast.stmt,
                      what: str) -> None:
        if isinstance(target, ast.Attribute):
            base_roots = self._roots(target.value)
            for root in base_roots:
                mapped = ("self", target.attr) if root == SELF else root
                self._record_write(mapped, target.attr, stmt,
                                   f"{what} to .{target.attr}")
        elif isinstance(target, ast.Subscript):
            base = target.value
            attr = base.attr if isinstance(base, ast.Attribute) else None
            for root in self._roots(base):
                mapped = ("self", attr) if (root == SELF and attr) else root
                self._record_write(mapped, attr or self._root_attr(mapped),
                                   stmt, f"{what} through subscript")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._write_target(element, stmt, what)

    @staticmethod
    def _root_attr(root: Root) -> Optional[str]:
        return root[1] if root[0] == "self" else None

    def _target_attr(self, target: ast.expr, root: Root) -> Optional[str]:
        if isinstance(target, ast.Attribute):
            return target.attr
        return self._root_attr(root)

    def _record_write(self, root: Root, attr: Optional[str],
                      node: ast.AST, detail: str) -> None:
        if root == SELF and attr:
            root = ("self", attr)
        self.summary.add(Effect(
            kind="write", root=root, attr=attr, path=self.fn.path,
            line=getattr(node, "lineno", 0),
            detail=f"{detail} (root {self._describe_root(root)})"))

    def _record_rng(self, root: Root, node: ast.AST) -> None:
        self.summary.add(Effect(
            kind="rng", root=root, attr=self._root_attr(root),
            path=self.fn.path, line=getattr(node, "lineno", 0),
            detail=f"RNG stream draw on {self._describe_root(root)}"))

    @staticmethod
    def _describe_root(root: Root) -> str:
        kind, name = root
        if root == SELF:
            return "self"
        return f"self.{name}" if kind == "self" else f"parameter '{name}'"

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def _call(self, node: ast.Call) -> None:
        site = self._resolve_site(node)
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = func.value
            receiver_roots = self._roots(receiver)
            if self._numpy_inplace(node, func):
                return
            # The mutator-name fallback covers builtin containers only;
            # resolved repo callees contribute their real summaries.
            if site is None and func.attr in MUTATOR_METHODS:
                attr = receiver.attr if isinstance(receiver, ast.Attribute) \
                    else None
                for root in receiver_roots:
                    mapped = ("self", attr) if (root == SELF and attr) \
                        else root
                    self._record_write(mapped, attr or
                                       self._root_attr(mapped), node,
                                       f".{func.attr}() mutator call")
            for root in receiver_roots:
                if self._is_rng_root(root):
                    self._record_rng(root, node)
        # ``out=`` keyword: in-place result placement.
        for keyword in node.keywords:
            if keyword.arg == "out":
                for root in self._roots(keyword.value):
                    self._record_write(root, self._root_attr(root), node,
                                       "out= keyword")
        if site is not None:
            self.summary.call_sites.append(site)

    def _is_rng_root(self, root: Root) -> bool:
        kind, name = root
        if kind == "self" and name in self.cls_rng_attrs:
            return True
        return kind == "param" and name in self.rng_params

    def _numpy_inplace(self, node: ast.Call, func: ast.Attribute) -> bool:
        """Handle ``np.copyto(dst, ...)`` / ``np.add.at(dst, ...)``."""
        ref = dotted_name(func)
        if ref is None or not node.args:
            return False
        head = ref.split(".")[0]
        imported = self.index.modules[self.fn.module].imports.get(head, "")
        if imported.split(".")[0] != "numpy":
            return False
        terminal = ref.rsplit(".", 1)[-1]
        if terminal in NP_INPLACE_FIRST_ARG or terminal == "at":
            for root in self._roots(node.args[0]):
                self._record_write(root, self._root_attr(root), node,
                                   f"in-place np.{terminal}")
            return True
        return False

    def _resolve_site(self, node: ast.Call) -> Optional[CallSite]:
        key = id(node)
        if key in self._site_cache:
            return self._site_cache[key]
        site = self._resolve_site_uncached(node)
        self._site_cache[key] = site
        return site

    def _resolve_site_uncached(self, node: ast.Call) -> Optional[CallSite]:
        func = node.func
        callees: List[FunctionInfo] = []
        receiver_roots: Optional[FrozenSet[Root]] = None
        unbound = False
        if isinstance(func, ast.Name):
            resolved = self.index.resolve_function(self.fn.module, func.id)
            if resolved is None or resolved.cls is not None:
                return None
            callees = [resolved]
        elif isinstance(func, ast.Attribute):
            receiver = func.value
            method = func.attr
            if isinstance(receiver, ast.Call) \
                    and isinstance(receiver.func, ast.Name) \
                    and receiver.func.id == "super":
                callees = self._resolve_super(method)
                receiver_roots = frozenset({SELF})
            elif isinstance(receiver, ast.Name):
                as_class = self.index.resolve_class(self.fn.module,
                                                    receiver.id)
                if as_class is not None:
                    found = self.index.find_method(as_class, method)
                    if found is not None:
                        callees = [found]
                        unbound = True
                        receiver_roots = frozenset()
                else:
                    receiver_roots = self._roots(receiver)
                    callees = self._resolve_bound(receiver, method,
                                                  receiver_roots)
            else:
                receiver_roots = self._roots(receiver)
                callees = self._resolve_bound(receiver, method,
                                               receiver_roots)
        if not callees:
            return None
        argmaps = {c.key: self._argmap(node, c, unbound) for c in callees}
        return CallSite(callees=tuple(c.key for c in callees),
                        receiver_roots=receiver_roots,
                        argmaps=argmaps,
                        line=node.lineno)

    def _resolve_super(self, method: str) -> List[FunctionInfo]:
        if self.fn.cls is None:
            return []
        for ancestor in self.index.mro(self.fn.cls)[1:]:
            found = ancestor.methods.get(method)
            if found is not None:
                return [found]
        return []

    def _resolve_bound(self, receiver: ast.expr, method: str,
                       receiver_roots: FrozenSet[Root]
                       ) -> List[FunctionInfo]:
        cls = self.fn.cls
        # self.m(...): nearest MRO definition, widened over subclasses
        # when only an abstract declaration exists.
        if SELF in receiver_roots and cls is not None:
            found = self.index.find_method(cls, method)
            if found is not None and not found.is_abstract:
                return [found]
            return self._cha_subclasses(cls, method)
        # self.attr.m(...) with a known attribute type.
        if isinstance(receiver, ast.Attribute) \
                and isinstance(receiver.value, ast.Name) \
                and receiver.value.id == self.receiver:
            type_keys = self.cls_attr_types.get(receiver.attr, set())
            resolved: List[FunctionInfo] = []
            for type_key in type_keys:
                type_cls = self.index.classes.get(type_key)
                if type_cls is None:
                    continue
                found = self.index.find_method(type_cls, method)
                if found is not None:
                    resolved.append(found)
            if resolved:
                return resolved
        # Fallback: class-hierarchy analysis over every definer.
        return [definer.methods[method]
                for definer in self.index.defining_classes(method)]

    def _cha_subclasses(self, cls: ClassInfo,
                        method: str) -> List[FunctionInfo]:
        resolved: List[FunctionInfo] = []
        for sub in self.index.subclasses(cls):
            fn = sub.methods.get(method)
            if fn is not None and not fn.is_abstract:
                resolved.append(fn)
        return resolved

    def _argmap(self, node: ast.Call, callee: FunctionInfo,
                unbound: bool) -> Dict[str, FrozenSet[Root]]:
        params = callee.param_names()
        receiver = callee.receiver_name()
        if receiver is not None and not unbound:
            params = [p for p in params if p != receiver]
        elif callee.is_classmethod and params:
            params = params[1:]
        mapping: Dict[str, FrozenSet[Root]] = {}
        for param, arg in zip(params, node.args):
            if isinstance(arg, ast.Starred):
                break
            mapping[param] = self._roots(arg)
        for keyword in node.keywords:
            if keyword.arg is not None and keyword.arg in callee. \
                    param_names():
                mapping[keyword.arg] = self._roots(keyword.value)
        return mapping

    # ------------------------------------------------------------------
    # Alias roots
    # ------------------------------------------------------------------
    def _roots(self, expr: ast.expr) -> FrozenSet[Root]:
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id, frozenset())
        if isinstance(expr, ast.Attribute):
            base = self._roots(expr.value)
            if SELF in base:
                return (base - {SELF}) | {("self", expr.attr)}
            return base
        if isinstance(expr, ast.Subscript):
            return self._roots(expr.value)
        if isinstance(expr, ast.Starred):
            return self._roots(expr.value)
        if isinstance(expr, ast.Call):
            return self._call_roots(expr)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            roots: Set[Root] = set()
            for element in expr.elts:
                roots |= self._roots(element)
            return frozenset(roots)
        if isinstance(expr, ast.Dict):
            roots = set()
            for value in expr.values:
                if value is not None:
                    roots |= self._roots(value)
            return frozenset(roots)
        if isinstance(expr, ast.IfExp):
            return self._roots(expr.body) | self._roots(expr.orelse)
        if isinstance(expr, ast.BoolOp):
            roots = set()
            for value in expr.values:
                roots |= self._roots(value)
            return frozenset(roots)
        if isinstance(expr, ast.NamedExpr):
            roots = self._roots(expr.value)
            self.env[expr.target.id] = roots
            return roots
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return self._comprehension_roots(expr)
        # Arithmetic, comparisons, literals, f-strings: fresh objects.
        return frozenset()

    def _comprehension_roots(self, expr: ast.expr) -> FrozenSet[Root]:
        saved = dict(self.env)
        try:
            for generator in expr.generators:
                self._bind_target(generator.target,
                                  self._roots(generator.iter), expr)
            if isinstance(expr, ast.DictComp):
                return self._roots(expr.value)
            return self._roots(expr.elt)
        finally:
            self.env = saved

    def _call_roots(self, node: ast.Call) -> FrozenSet[Root]:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ALIAS_BUILTINS:
            roots: Set[Root] = set()
            for arg in node.args:
                roots |= self._roots(arg)
            return frozenset(roots)
        if isinstance(func, ast.Attribute) and func.attr in ALIAS_METHODS:
            return self._roots(func.value)
        site = self._resolve_site(node)
        if site is None:
            return frozenset()
        roots = set()
        for callee_key in site.callees:
            aliases = self.alias_table.get(callee_key)
            if not aliases:
                continue
            argmap = site.argmaps.get(callee_key, {})
            for alias in aliases:
                roots |= self._map_callee_root(alias, site, argmap)
        return frozenset(roots)

    @staticmethod
    def _map_callee_root(root: Root, site: CallSite,
                         argmap: Dict[str, FrozenSet[Root]]
                         ) -> Set[Root]:
        kind, name = root
        if kind == "param":
            return set(argmap.get(name, frozenset()))
        # self-rooted: map through the receiver.
        if site.receiver_roots is None:
            return set()
        mapped: Set[Root] = set()
        for receiver_root in site.receiver_roots:
            if receiver_root == SELF:
                mapped.add(("self", name) if name else SELF)
            else:
                mapped.add(receiver_root)
        return mapped


# ----------------------------------------------------------------------
# Whole-package analysis
# ----------------------------------------------------------------------
#: Propagated call chains longer than this stop growing (cycle guard).
MAX_CHAIN = 10


def build_summaries(index: PackageIndex) -> Dict[str, FunctionSummary]:
    """Extract and propagate effect summaries for the whole package.

    Two extraction passes (the second sees every function's return-alias
    facts, so cross-module helpers like ``iter_sequences`` alias
    correctly), then a fixed-point walk pushing callee effects into
    callers with call-chain frames attached.
    """
    alias_table: Dict[str, FrozenSet[Root]] = {}
    summaries: Dict[str, FunctionSummary] = {}
    for _ in range(2):
        summaries = {}
        for fn in index.iter_functions():
            summary = _Analyzer(index, fn, alias_table).run()
            summaries[fn.key] = summary
        alias_table = {key: s.returns_aliases
                       for key, s in summaries.items()}
    propagate_facts(index, summaries,
                    {key: s.effects for key, s in summaries.items()},
                    _through_call)
    return summaries


def _through_call(summary: FunctionSummary,
                  site: CallSite) -> Callable[[str, Effect], List[Effect]]:
    """Callee effects as seen by the caller: roots mapped through ``site``."""
    def through(callee_key: str, effect: Effect) -> List[Effect]:
        argmap = site.argmaps.get(callee_key, {})
        return [replace(effect, root=root) for root in
                _Analyzer._map_callee_root(effect.root, site, argmap)]
    return through


def propagate_facts(index: PackageIndex,
                    summaries: Dict[str, FunctionSummary],
                    tables: Dict[str, Dict[Hashable, Fact]],
                    through: Callable[[FunctionSummary, CallSite],
                                      Callable[[str, Fact], Iterable[Fact]]]
                    ) -> None:
    """Push callee facts into callers over the call graph, to a fixed point.

    ``tables`` maps each function key to its facts by ``fact.key``; facts
    are frozen dataclasses with a ``chain`` of caller frames.
    ``through(summary, site)`` returns the per-site transfer: given a
    callee key and one of its facts, the facts the caller inherits (an
    effect with its root mapped, a raise that escapes the ``try`` frames
    around the call).  Each inherited fact gets the caller's
    ``qualname (relpath:line)`` frame prepended; chains stop growing at
    :data:`MAX_CHAIN`, and the first chain found for a key is kept.
    Summaries are visited in index order and call sites in source order,
    so the chains are deterministic.
    """
    changed = True
    while changed:
        changed = False
        for key, summary in summaries.items():
            mine = tables.get(key)
            if mine is None:
                continue
            for site in summary.call_sites:
                transfer = through(summary, site)
                frame = index.frame(summary.fn, site.line)
                for callee_key in site.callees:
                    for fact in list(tables.get(callee_key, {}).values()):
                        if len(fact.chain) >= MAX_CHAIN:
                            continue
                        for inherited in transfer(callee_key, fact):
                            inherited = replace(
                                inherited, chain=(frame,) + fact.chain)
                            if inherited.key not in mine:
                                mine[inherited.key] = inherited
                                changed = True
