"""graphlint — the repo's AST-based static analyzer (stdlib only).

Enforces the correctness invariants that keep the reproduction's
experiment tables trustworthy, as named rules with ``file:line:col``
diagnostics:

========  ===========================================================
REP000    a file that does not parse is a finding, never skipped
REP001    no legacy global ``np.random.*`` calls — randomness must
          flow through ``np.random.default_rng(seed)`` / injected rngs
REP002    no bare or blind ``except`` handlers
REP003    no in-place mutation of ``Tensor.data`` / ``Tensor.grad``
          outside the sanctioned mutation points
REP004    no dtype literals bypassing the engine's ``_FLOAT``
          convention inside ``repro/nn/``
REP005    every ``Tensor._make`` call site in ``repro/nn/`` defines a
          local ``backward`` closure
REP006    public modules, classes and functions carry docstrings
REP007    no wall-clock / process-identity / set-iteration values
          flowing into checkpointed state (flow-sensitive taint)
REP008    environment queries in ``repro/core/`` go through the
          ``call_with_retry`` wrapper, never raw ``env.attack``
========  ===========================================================

graphlint runs as part of ``python -m repro check [paths]``.  A
diagnostic can be silenced with a trailing comment on any physical
line of the offending statement::

    thing.data = arr  # graphlint: disable=REP003

``# graphlint: disable`` (no rule ids) silences every rule on that line.
See ``docs/static_analysis.md`` for the full rationale per rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence, Tuple

from .common import SuppressionFilter

#: Members of ``np.random`` that are part of the seeded-Generator API and
#: therefore allowed; everything else is the legacy global-state API.
_ALLOWED_NP_RANDOM = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: Modules allowed to assign to ``.data`` / ``.grad`` attributes: the
#: optimizers (parameter updates are their whole job) and the engine
#: itself.  Everything else — including the finite-difference checker's
#: parameter perturbations — funnels through ``Tensor.assign_``.
_REP003_WHITELIST = (
    "repro/nn/optim.py",
    "repro/nn/tensor.py",
)

_EXCLUDED_DIR_PARTS = {"__pycache__", ".git", ".github", "results"}


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One lint finding, formatted as ``path:line:col: RULE message``."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """Render in the conventional compiler-diagnostic layout."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class _FileContext:
    """Everything a rule needs to inspect one parsed file."""

    def __init__(self, path: str, tree: ast.Module,
                 lines: Sequence[str]) -> None:
        self.path = path
        self.rel = Path(path).as_posix()
        self.tree = tree
        self.lines = lines

    # -- scope helpers ------------------------------------------------
    def in_nn(self) -> bool:
        """Whether the file belongs to the autograd engine package."""
        return "repro/nn/" in self.rel

    def is_testlike(self) -> bool:
        """Test / benchmark / fixture files (docstring rule exempt)."""
        parts = Path(self.rel).parts
        name = Path(self.rel).name
        return ("tests" in parts or "benchmarks" in parts
                or name.startswith(("test_", "bench_"))
                or name == "conftest.py")

    def diag(self, node: ast.AST, rule: str, message: str) -> Diagnostic:
        """Build a :class:`Diagnostic` anchored at ``node``."""
        return Diagnostic(self.path, getattr(node, "lineno", 1),
                          getattr(node, "col_offset", 0) + 1, rule, message)


class Rule:
    """Base class: a named invariant checked against one file's AST."""

    id: str = "REP000"
    title: str = ""
    rationale: str = ""

    def check(self, ctx: _FileContext) -> Iterator[Diagnostic]:
        """Yield diagnostics for every violation in ``ctx``."""
        raise NotImplementedError


def _attr_chain_is_np_random(node: ast.Attribute) -> bool:
    """True for ``np.random.<attr>`` / ``numpy.random.<attr>`` chains."""
    value = node.value
    return (isinstance(value, ast.Attribute) and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in ("np", "numpy"))


class LegacyRandomRule(Rule):
    """REP001: reproducibility requires seeded Generator randomness."""

    id = "REP001"
    title = "legacy global np.random.* API"
    rationale = ("Unseeded global-state randomness makes experiment tables "
                 "non-reproducible; use np.random.default_rng(seed) or an "
                 "injected rng.")

    def check(self, ctx: _FileContext) -> Iterator[Diagnostic]:
        """Flag legacy ``np.random`` members and imports."""
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Attribute)
                    and _attr_chain_is_np_random(node)
                    and node.attr not in _ALLOWED_NP_RANDOM):
                yield ctx.diag(
                    node, self.id,
                    f"legacy 'np.random.{node.attr}' — route randomness "
                    "through np.random.default_rng(seed) or an injected rng")
            elif (isinstance(node, ast.ImportFrom)
                    and node.module == "numpy.random"):
                for alias in node.names:
                    if alias.name not in _ALLOWED_NP_RANDOM:
                        yield ctx.diag(
                            node, self.id,
                            f"import of legacy 'numpy.random.{alias.name}' "
                            "— use the Generator API")


class BlindExceptRule(Rule):
    """REP002: exception handlers must be typed and non-swallowing."""

    id = "REP002"
    title = "bare or blind except handler"
    rationale = ("Swallowed exceptions hide corrupted experiment state; "
                 "catch the narrowest exception type, or re-raise.")

    @staticmethod
    def _is_blind_type(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in ("Exception", "BaseException")
        if isinstance(node, ast.Tuple):
            return any(BlindExceptRule._is_blind_type(e) for e in node.elts)
        return False

    def check(self, ctx: _FileContext) -> Iterator[Diagnostic]:
        """Flag ``except:`` and ``except Exception:`` without re-raise."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.diag(node, self.id,
                               "bare 'except:' — name the exception type")
            elif self._is_blind_type(node.type):
                reraises = any(isinstance(inner, ast.Raise)
                               for stmt in node.body
                               for inner in ast.walk(stmt))
                if not reraises:
                    yield ctx.diag(
                        node, self.id,
                        "blind 'except Exception' that never re-raises — "
                        "catch a specific type or re-raise")


class TensorMutationRule(Rule):
    """REP003: parameter state changes only via sanctioned entry points."""

    id = "REP003"
    title = "in-place .data/.grad mutation outside sanctioned modules"
    rationale = ("Ad-hoc writes to Tensor.data/.grad bypass the optimizer "
                 "and snapshot/restore contracts; use Tensor.assign_() or "
                 "an optimizer.")

    def check(self, ctx: _FileContext) -> Iterator[Diagnostic]:
        """Flag assignments and aug-assignments to ``.data`` / ``.grad``."""
        if ctx.rel.endswith(_REP003_WHITELIST):
            return
        for node in ast.walk(ctx.tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    target = target.value
                if (isinstance(target, ast.Attribute)
                        and target.attr in ("data", "grad")):
                    yield ctx.diag(
                        node, self.id,
                        f"direct write to '.{target.attr}' — use "
                        "Tensor.assign_() (data) or autograd/optimizers "
                        "(grad)")


class DtypeLiteralRule(Rule):
    """REP004: one float-width switch (``_FLOAT``) for the whole engine."""

    id = "REP004"
    title = "dtype literal bypassing the _FLOAT convention"
    rationale = ("repro/nn modules must inherit the engine's float width "
                 "from tensor._FLOAT so precision can be switched in one "
                 "place.")

    def check(self, ctx: _FileContext) -> Iterator[Diagnostic]:
        """Flag float dtype literals in nn modules other than tensor.py."""
        if not ctx.in_nn() or ctx.rel.endswith("repro/nn/tensor.py"):
            return
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("float32", "float64")
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")):
                yield ctx.diag(
                    node, self.id,
                    f"'np.{node.attr}' literal — import _FLOAT from "
                    "repro.nn.tensor instead")
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if (kw.arg == "dtype"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value in ("float32", "float64")):
                        yield ctx.diag(
                            kw.value, self.id,
                            f"dtype='{kw.value.value}' string literal — "
                            "use _FLOAT from repro.nn.tensor")


class BackwardClosureRule(Rule):
    """REP005: graph nodes must carry their gradient rule."""

    id = "REP005"
    title = "Tensor._make call without a local backward closure"
    rationale = ("A _make call whose enclosing op does not define its own "
                 "backward closure either reuses a stale closure or "
                 "silently drops gradients.")

    def check(self, ctx: _FileContext) -> Iterator[Diagnostic]:
        """Flag ``_make`` call sites lacking a sibling ``backward`` def."""
        if not ctx.in_nn():
            return

        def walk(node: ast.AST, enclosing: ast.AST | None
                 ) -> Iterator[Diagnostic]:
            for child in ast.iter_child_nodes(node):
                if (isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Attribute)
                        and child.func.attr == "_make"):
                    if not self._defines_backward(enclosing):
                        yield ctx.diag(
                            child, self.id,
                            "Tensor._make call site must define a local "
                            "'backward' closure in the enclosing function")
                next_enclosing = (child if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    else enclosing)
                yield from walk(child, next_enclosing)

        yield from walk(ctx.tree, None)

    @staticmethod
    def _defines_backward(fn: ast.AST | None) -> bool:
        if fn is None:
            return False
        return any(isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and stmt.name == "backward"
                   for stmt in fn.body)


class DocstringRule(Rule):
    """REP006: the public surface documents itself."""

    id = "REP006"
    title = "missing docstring on public module/class/function"
    rationale = ("Docstring coverage is part of the reproduction "
                 "deliverable; this subsumes the old runtime "
                 "test_docstrings.py walker.")

    def check(self, ctx: _FileContext) -> Iterator[Diagnostic]:
        """Flag undocumented public defs in library (non-test) files."""
        if ctx.is_testlike():
            return
        if not ast.get_docstring(ctx.tree):
            yield Diagnostic(ctx.path, 1, 1, self.id,
                             "module is missing a docstring")
        for node in ctx.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            kind = ("class" if isinstance(node, ast.ClassDef)
                    else "function")
            if not ast.get_docstring(node):
                yield ctx.diag(node, self.id,
                               f"public {kind} '{node.name}' is missing a "
                               "docstring")
            if isinstance(node, ast.ClassDef):
                yield from self._check_methods(ctx, node)

    def _check_methods(self, ctx: _FileContext,
                       cls: ast.ClassDef) -> Iterator[Diagnostic]:
        # Subclasses may legitimately inherit docstrings, which a purely
        # syntactic pass cannot see — only no-base classes are checked.
        inherits = any(not (isinstance(b, ast.Name) and b.id == "object")
                       for b in cls.bases)
        if inherits:
            return
        for node in cls.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_") or node.decorator_list:
                continue
            if not ast.get_docstring(node):
                yield ctx.diag(
                    node, self.id,
                    f"public method '{cls.name}.{node.name}' is missing a "
                    "docstring")


#: ``module.func`` attribute chains whose results are nondeterministic
#: across runs and must never reach checkpointed state.
_REP007_SOURCE_CHAINS = frozenset({
    ("time", "time"), ("time", "time_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("uuid", "uuid1"), ("uuid", "uuid4"),
    ("os", "urandom"), ("os", "getpid"),
})

#: Callable names that persist state (checkpoint writers / serializers).
_REP007_SINK_NAMES = frozenset({
    "save_campaign", "save_policy", "atomic_savez",
    "savez", "savez_compressed", "dump", "dumps",
})


def _call_name(node: ast.Call) -> str:
    """The trailing identifier of a call target (``a.b.c()`` → ``"c"``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _walk_unsorted(node: ast.AST) -> Iterator[ast.AST]:
    """Like ``ast.walk`` but pruned below ``sorted(...)`` calls.

    Sorting launders set-iteration-order nondeterminism, so anything
    inside a ``sorted`` call is deterministic for REP007's purposes.
    """
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, ast.Call) and _call_name(current) == "sorted":
            continue
        stack.extend(ast.iter_child_nodes(current))


def _is_rep007_source(node: ast.AST) -> str | None:
    """Describe ``node`` if it produces a run-to-run varying value."""
    if not isinstance(node, ast.Call):
        # Set displays have no stable iteration order either.
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set (unordered iteration)"
        return None
    func = node.func
    if isinstance(func, ast.Attribute):
        attr = func.attr
        value = func.value
        # time.time(), uuid.uuid4(), datetime.datetime.now(), ...
        base = None
        if isinstance(value, ast.Name):
            base = value.id
        elif isinstance(value, ast.Attribute):
            base = value.attr
        if base is not None and (base, attr) in _REP007_SOURCE_CHAINS:
            return f"{base}.{attr}()"
    elif isinstance(func, ast.Name) and func.id == "set":
        return "set() (unordered iteration)"
    return None


class CheckpointDeterminismRule(Rule):
    """REP007: checkpointed state must be a pure function of the seed."""

    id = "REP007"
    title = "nondeterministic value flowing into checkpointed state"
    rationale = ("Checkpoints must make a resumed campaign bit-identical; "
                 "wall-clock readings, process ids, uuids and set iteration "
                 "order differ between runs, so persisting them breaks the "
                 "resume contract.")

    def check(self, ctx: _FileContext) -> Iterator[Diagnostic]:
        """Taint-track nondeterministic sources into persistence sinks."""
        if ctx.is_testlike():
            return
        yield from self._check_scope(ctx, ctx.tree.body, set())

    def _check_scope(self, ctx: _FileContext, body: Sequence[ast.stmt],
                     tainted: set) -> Iterator[Diagnostic]:
        # Flow-sensitive over statement order within one scope; nested
        # function scopes start from a copy of the enclosing taint set
        # (a closure sees names bound before its definition).
        tainted = set(tainted)
        origins: dict = {}
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(ctx, stmt.body, tainted)
                continue
            if isinstance(stmt, ast.ClassDef):
                yield from self._check_scope(ctx, stmt.body, set())
                continue
            # Sinks first, so `x = time.time(); dump(x)` on one line of
            # control flow reports at the dump, not the assignment.
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    yield from self._check_sink(ctx, node, tainted, origins)
            self._propagate(stmt, tainted, origins)

    @staticmethod
    def _propagate(stmt: ast.stmt, tainted: set, origins: dict) -> None:
        for node in ast.walk(stmt):
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            value = node.value
            if value is None:
                continue
            source = None
            for sub in _walk_unsorted(value):
                source = _is_rep007_source(sub)
                if source is None and isinstance(sub, ast.Name):
                    if sub.id in tainted:
                        source = origins.get(sub.id, "tainted value")
                if source is not None:
                    break
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        if source is not None:
                            tainted.add(name.id)
                            origins[name.id] = source
                        else:
                            tainted.discard(name.id)
                            origins.pop(name.id, None)

    def _check_sink(self, ctx: _FileContext, call: ast.Call, tainted: set,
                    origins: dict) -> Iterator[Diagnostic]:
        name = _call_name(call)
        if not (name in _REP007_SINK_NAMES or "checkpoint" in name.lower()):
            return
        arguments = list(call.args) + [kw.value for kw in call.keywords]
        for argument in arguments:
            for sub in _walk_unsorted(argument):
                source = _is_rep007_source(sub)
                if source is None and isinstance(sub, ast.Name):
                    if sub.id in tainted:
                        source = origins.get(sub.id, "tainted value")
                if source is not None:
                    yield ctx.diag(
                        call, self.id,
                        f"nondeterministic value from {source} flows into "
                        f"checkpointed state via '{name}' — derive persisted "
                        "values from the seed instead")
                    return


class RawEnvironmentQueryRule(Rule):
    """REP008: the agent's environment queries carry the retry contract."""

    id = "REP008"
    title = "raw env.attack query outside the retry wrapper"
    rationale = ("repro/core code must query the black-box environment "
                 "through call_with_retry so transient faults are retried "
                 "and budgeted instead of killing a long campaign.")

    def check(self, ctx: _FileContext) -> Iterator[Diagnostic]:
        """Flag ``env.attack(...)`` outside ``call_with_retry`` scopes."""
        if "repro/core/" not in ctx.rel or ctx.is_testlike():
            return

        def walk(node: ast.AST, sanctioned: bool) -> Iterator[Diagnostic]:
            for child in ast.iter_child_nodes(node):
                child_ok = sanctioned
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    child_ok = sanctioned or self._uses_retry(child)
                if (isinstance(child, ast.Call)
                        and self._is_env_attack(child) and not child_ok):
                    yield ctx.diag(
                        child, self.id,
                        "raw environment query — route it through "
                        "call_with_retry (see PoisonRec._query)")
                yield from walk(child, child_ok)

        yield from walk(ctx.tree, False)

    @staticmethod
    def _is_env_attack(call: ast.Call) -> bool:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr == "attack"):
            return False
        receiver = func.value
        if isinstance(receiver, ast.Name):
            return receiver.id in ("env", "environment")
        if isinstance(receiver, ast.Attribute):
            return receiver.attr in ("env", "environment", "_env")
        return False

    @staticmethod
    def _uses_retry(fn: ast.AST) -> bool:
        return any(isinstance(node, ast.Call)
                   and _call_name(node) == "call_with_retry"
                   for node in ast.walk(fn))


#: ``(id, title, rationale)`` of the parse-failure finding, which no
#: :class:`Rule` emits: :func:`lint_source` reports it directly.
SYNTAX_RULE = ("REP000", "syntax error",
               "a file graphlint cannot parse is reported as a finding, "
               "so a broken file never passes as clean")

#: Every active rule, in report order.
RULES: Tuple[Rule, ...] = (
    LegacyRandomRule(), BlindExceptRule(), TensorMutationRule(),
    DtypeLiteralRule(), BackwardClosureRule(), DocstringRule(),
    CheckpointDeterminismRule(), RawEnvironmentQueryRule(),
)


def lint_source(source: str, path: str = "<string>") -> List[Diagnostic]:
    """Lint one file's source text; returns sorted diagnostics."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as err:
        return [Diagnostic(path, err.lineno or 1, (err.offset or 0) + 1,
                           SYNTAX_RULE[0], f"syntax error: {err.msg}")]
    lines = source.splitlines()
    suppressions = SuppressionFilter(lines, tree)
    diagnostics: List[Diagnostic] = []
    ctx = _FileContext(path, tree, lines)
    for rule in RULES:
        for diag in rule.check(ctx):
            if suppressions.covers("graphlint", diag.rule, diag.line):
                continue
            diagnostics.append(diag)
    return sorted(diagnostics)


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Expand files and directories into a deduplicated ``*.py`` stream."""
    seen = set()
    for raw in paths:
        root = Path(raw)
        if not root.exists():
            # A typo'd CI path must not produce a vacuous "clean" pass.
            raise FileNotFoundError(f"no such file or directory: {raw}")
        if root.is_file():
            candidates: Iterable[Path] = [root]
        else:
            candidates = sorted(root.rglob("*.py"))
        for candidate in candidates:
            if set(candidate.parts) & _EXCLUDED_DIR_PARTS:
                continue
            key = candidate.resolve()
            if key not in seen:
                seen.add(key)
                yield candidate


def lint_paths(paths: Iterable[str]) -> Tuple[List[Diagnostic], int]:
    """Lint every python file under ``paths``.

    Returns ``(diagnostics, files_checked)``.
    """
    diagnostics: List[Diagnostic] = []
    checked = 0
    for path in iter_python_files(paths):
        checked += 1
        source = path.read_text(encoding="utf-8")
        diagnostics.extend(lint_source(source, str(path)))
    return diagnostics, checked
