"""Fault-tolerance rules REP013-REP017 over exception-flow facts.

================  =====================================================
REP013            a handler broad enough to catch ``HOST_ERRORS``
                  (MemoryError/SystemError/RecursionError) must re-raise
                  them — the supervised handler in
                  ``CampaignScheduler._run_slice`` is the sanctioned
                  shape, the pool worker's ship-and-exit pattern the
                  sanctioned exception
REP014            every statically-typed raise escaping the supervised
                  query path maps into the Transient/Fatal taxonomy
                  (``CampaignError``), the host triple, control-flow
                  exceptions, or the programmer-contract builtins
REP015            code reachable from a forked worker entry must not
                  install signal handlers, spawn threads/processes or
                  touch parent-owned fds; the entry itself must reset
                  inherited SIGTERM/SIGINT handlers
REP016            journal write protocol: self-stored ``open`` handles
                  are append-mode, every write is flushed in the same
                  method, the class fsyncs the handle, and nothing
                  seeks/truncates it
REP017            a function that mutates ranker state inside a ``try``
                  (per effectcheck summaries) must restore it in any
                  re-raising handler before the raise
================  =====================================================

Diagnostics reuse effectcheck's :class:`Diagnostic` (path/line/rule/
message plus a call chain), so both analyzers render identically.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..effectcheck.index import ClassInfo, PackageIndex, dotted_name
from ..effectcheck.rules import Diagnostic
from ..effectcheck.summaries import FunctionSummary
from .flows import (HOST_ERROR_NAMES, ExceptionTable, FaultFacts, Handler,
                    extract_facts, propagate_raises, reachability)

#: Entry points of the supervised query path (class name, method name):
#: the agent's training loop, the fleet scheduler's drive loop, the
#: recommender's reload-and-poison query, and the pool's batch dispatch.
QUERY_PATH_ENTRIES: Tuple[Tuple[str, str], ...] = (
    ("PoisonRec", "train"),
    ("CampaignScheduler", "run"),
    ("RecommenderSystem", "attack"),
    ("QueryPool", "attack_many"),
)

#: Exception *ancestry names* allowed to escape the query path (REP014).
#: Everything else — bare RuntimeError, ad-hoc customs — would reach
#: ``CampaignSupervisor.classify`` unclassifiable.
TAXONOMY_ROOT = "CampaignError"
CONTROL_EXCEPTIONS = frozenset({
    "SystemExit", "KeyboardInterrupt", "GeneratorExit", "StopIteration",
    "DrainRequested",
})
CONTRACT_EXCEPTIONS = frozenset({
    "ValueError", "TypeError", "KeyError", "IndexError", "LookupError",
    "AttributeError", "NotImplementedError", "AssertionError",
    "ZeroDivisionError", "OverflowError", "FloatingPointError",
    "OSError", "FileNotFoundError", "FileExistsError", "PermissionError",
    "IsADirectoryError", "EOFError", "UnicodeError", "ImportError",
})
_ALLOWED_ANCESTRY = (frozenset({TAXONOMY_ROOT}) | set(HOST_ERROR_NAMES)
                     | CONTROL_EXCEPTIONS | CONTRACT_EXCEPTIONS)

#: ``(id, title, rationale)`` of every fault rule, for ``--rules``.
RULES = (
    ("REP013", "no taxonomy laundering of host errors",
     "handlers broad enough to catch MemoryError/SystemError/"
     "RecursionError must re-raise them (the CampaignScheduler."
     "_run_slice gate) or ship them out of process (the pool worker)"),
    ("REP014", "taxonomy exhaustiveness on the query path",
     "every statically-typed raise escaping the supervised query path "
     "must map into the Transient/Fatal taxonomy (CampaignError), the "
     "host triple, control-flow or contract exceptions"),
    ("REP015", "fork-protocol safety",
     "code reachable from a forked worker entry must not install "
     "signal handlers, spawn threads/processes or touch parent fds; "
     "the entry must reset inherited SIGTERM/SIGINT handlers"),
    ("REP016", "journal torn-tail write protocol",
     "self-stored open() journal handles are append-only, every write "
     "is flushed in the same method, the class fsyncs the handle, and "
     "nothing seeks or truncates it"),
    ("REP017", "restore-on-raise consistency",
     "a method that mutates ranker state inside a try must restore it "
     "in any re-raising handler before the raise (the "
     "RecommenderSystem.inject pattern)"),
)

#: Sanctioned repair channels for REP017 (and excluded from its list of
#: state-mutating triggers — they *are* the restore path).
RESTORE_METHODS = frozenset({"restore", "poison_revert"})


@dataclass
class FaultContext:
    """Everything the five rules consume, built once per analysis."""

    index: PackageIndex
    summaries: Dict[str, FunctionSummary]
    table: ExceptionTable
    facts: Dict[str, FaultFacts]
    raise_table: Dict[str, Dict[Tuple[str, str, int], "object"]] = \
        field(default_factory=dict)
    entries: Tuple[str, ...] = ()
    #: fn key -> chain from a query-path entry (provenance for REP013).
    query_reach: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Function keys passed as ``target=`` to ``Process(...)``.
    fork_entries: Tuple[str, ...] = ()

    @classmethod
    def build(cls, index: PackageIndex,
              summaries: Dict[str, FunctionSummary]) -> "FaultContext":
        """Extract facts, propagate raise sets, resolve entry points."""
        table = ExceptionTable(index)
        facts = extract_facts(index, table)
        ctx = cls(index=index, summaries=summaries, table=table,
                  facts=facts)
        ctx.raise_table = propagate_raises(index, summaries, facts, table)
        entries: List[str] = []
        for class_name, method in QUERY_PATH_ENTRIES:
            owner = _class_named(index, class_name)
            if owner is None:
                continue
            fn = index.find_method(owner, method)
            if fn is not None:
                entries.append(fn.key)
        ctx.entries = tuple(entries)
        ctx.query_reach = reachability(index, summaries, entries)
        ctx.fork_entries = tuple(sorted(
            {target for fact in facts.values()
             for target in fact.process_targets}))
        return ctx


def _class_named(index: PackageIndex, name: str) -> Optional[ClassInfo]:
    matches = [c for c in index.classes.values() if c.name == name]
    return matches[0] if len(matches) == 1 else None


# ----------------------------------------------------------------------
# REP013: no taxonomy laundering of host errors
# ----------------------------------------------------------------------
def _host_coverage(handler: Handler) -> Set[str]:
    """Which of the host triple this handler could catch."""
    if handler.bare:
        return set(HOST_ERROR_NAMES)
    covered: Set[str] = set()
    for name in handler.covers:
        if name in ("Exception", "BaseException"):
            return set(HOST_ERROR_NAMES)
        if name in HOST_ERROR_NAMES:
            covered.add(name)
    return covered


def check_host_laundering(ctx: FaultContext) -> List[Diagnostic]:
    """REP013: broad handlers must re-raise the host-error triple."""
    diagnostics: List[Diagnostic] = []
    for key, fact in ctx.facts.items():
        for handler in fact.handlers:
            covered = _host_coverage(handler)
            if not covered:
                continue
            if handler.transparent or handler.ships:
                continue
            swallowed = sorted(covered - set(handler.gate))
            if not swallowed:
                continue
            what = "bare except" if handler.bare else \
                "except " + "/".join(handler.covers or ("?",))
            diagnostics.append(Diagnostic(
                path=fact.fn.path, line=handler.line, rule="REP013",
                message=(f"'{fact.fn.qualname}' {what} can swallow "
                         f"{'/'.join(swallowed)}; a sick host is not a "
                         f"campaign-local fault — re-raise HOST_ERRORS "
                         f"(the CampaignScheduler._run_slice pattern)"),
                chain=ctx.query_reach.get(key, ())))
    return diagnostics


# ----------------------------------------------------------------------
# REP014: taxonomy exhaustiveness on the supervised query path
# ----------------------------------------------------------------------
def check_taxonomy(ctx: FaultContext) -> List[Diagnostic]:
    """REP014: raises escaping the query path must be classified."""
    diagnostics: List[Diagnostic] = []
    seen: Set[Tuple[str, int, str]] = set()
    for entry_key in ctx.entries:
        summary = ctx.summaries.get(entry_key)
        if summary is None:
            continue
        for raised in ctx.raise_table.get(entry_key, {}).values():
            if ctx.table.ancestry(raised.type_key) & _ALLOWED_ANCESTRY:
                continue
            dedup = (raised.path, raised.line, raised.name)
            if dedup in seen:
                continue
            seen.add(dedup)
            diagnostics.append(Diagnostic(
                path=raised.path, line=raised.line, rule="REP014",
                message=(f"'{raised.name}' raised here escapes the "
                         f"supervised query path "
                         f"('{summary.fn.qualname}') but maps into "
                         f"neither the Transient/Fatal taxonomy nor the "
                         f"contract allowlist; base it on CampaignError "
                         f"(repro.runtime.errors) or classify it "
                         f"on-path"),
                chain=raised.chain))
    return diagnostics


# ----------------------------------------------------------------------
# REP015: fork-protocol safety of the worker closure
# ----------------------------------------------------------------------
def _installer_frames(ctx: FaultContext) -> Tuple[str, ...]:
    """Provenance: in-package signal installers workers would inherit."""
    frames: List[str] = []
    for fact in ctx.facts.values():
        for op in fact.ops:
            if op.kind != "signal_install":
                continue
            frames.append(
                f"{ctx.index.frame(fact.fn, op.line)} "
                f"installs {op.detail} — forked workers inherit it")
    return tuple(sorted(frames))


_OP_MESSAGES = {
    "signal_install": "installs a signal handler",
    "spawn": "spawns a thread/process",
    "parent_fd": "touches a parent-owned fd",
}


def check_fork_protocol(ctx: FaultContext) -> List[Diagnostic]:
    """REP015: worker entries reset signals; their closure stays clean."""
    diagnostics: List[Diagnostic] = []
    required = {"SIGTERM", "SIGINT"}
    for entry_key in ctx.fork_entries:
        entry = ctx.facts.get(entry_key)
        if entry is None:
            continue
        missing = sorted(required - entry.resets)
        if missing:
            diagnostics.append(Diagnostic(
                path=entry.fn.path, line=entry.fn.node.lineno,
                rule="REP015",
                message=(f"forked worker entry '{entry.fn.qualname}' "
                         f"does not reset the inherited "
                         f"{'/'.join(missing)} handler(s) at entry; "
                         f"without signal.signal(..., SIG_DFL/SIG_IGN) "
                         f"resets, workers inherit the parent's drain "
                         f"handlers and terminate() leaks processes"),
                chain=_installer_frames(ctx)))
        closure = reachability(ctx.index, ctx.summaries, [entry_key])
        for key, chain in sorted(closure.items()):
            fact = ctx.facts.get(key)
            if fact is None:
                continue
            for op in fact.ops:
                if op.kind == "signal_reset":
                    continue          # resets are always fork-safe
                message = _OP_MESSAGES.get(op.kind)
                if message is None:
                    continue
                diagnostics.append(Diagnostic(
                    path=fact.fn.path, line=op.line, rule="REP015",
                    message=(f"'{fact.fn.qualname}' {message} "
                             f"({op.detail}) in code reachable from the "
                             f"forked worker entry "
                             f"'{entry.fn.qualname}'; fork-side code "
                             f"must stay signal- and fd-clean"),
                    chain=chain))
    return diagnostics


# ----------------------------------------------------------------------
# REP016: journal/JSONL torn-tail write protocol
# ----------------------------------------------------------------------
def _open_mode(call: ast.Call) -> str:
    if len(call.args) > 1 and isinstance(call.args[1], ast.Constant) \
            and isinstance(call.args[1].value, str):
        return call.args[1].value
    for keyword in call.keywords:
        if keyword.arg == "mode" and isinstance(keyword.value,
                                                ast.Constant) \
                and isinstance(keyword.value.value, str):
            return keyword.value.value
    return "r"


def _handle_calls(fn_node: ast.AST, receiver: str,
                  attr: str) -> List[Tuple[str, int, ast.Call]]:
    """``self.<attr>.<method>(...)`` calls inside one method body."""
    target = f"{receiver}.{attr}"
    calls: List[Tuple[str, int, ast.Call]] = []
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and dotted_name(node.func.value) == target:
            calls.append((node.func.attr, node.lineno, node))
    return calls


def _mentions_handle(node: ast.AST, receiver: str, attr: str) -> bool:
    target = f"{receiver}.{attr}"
    return any(isinstance(sub, ast.Attribute)
               and dotted_name(sub) == target
               for sub in ast.walk(node))


def check_journal_protocol(ctx: FaultContext) -> List[Diagnostic]:
    """REP016: append-only, write->flush->fsync, no seek/truncate."""
    diagnostics: List[Diagnostic] = []
    for cls in ctx.index.classes.values():
        handles: Dict[str, Tuple[str, int]] = {}
        for fn in cls.methods.values():
            receiver = fn.receiver_name()
            if receiver is None:
                continue
            for node in ast.walk(fn.node):
                if not (isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Call)
                        and isinstance(node.value.func, ast.Name)
                        and node.value.func.id == "open"):
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == receiver:
                        handles[target.attr] = (_open_mode(node.value),
                                                node.lineno)
        for attr, (mode, open_line) in sorted(handles.items()):
            writable = any(flag in mode for flag in "wax+")
            if writable and "a" not in mode:
                diagnostics.append(Diagnostic(
                    path=cls.path, line=open_line, rule="REP016",
                    message=(f"'{cls.name}.{attr}' stores a mode="
                             f"{mode!r} write handle; journal handles "
                             f"must be append-only ('a') so a crash can "
                             f"at worst tear the final record")))
                continue
            if "a" not in mode:
                continue              # read-only handle: not a journal
            fsynced = False
            for fn in cls.methods.values():
                receiver = fn.receiver_name()
                if receiver is None:
                    continue
                writes: List[int] = []
                flushes: List[int] = []
                for method, line, _ in _handle_calls(fn.node, receiver,
                                                     attr):
                    if method == "write":
                        writes.append(line)
                    elif method == "flush":
                        flushes.append(line)
                    elif method in ("seek", "truncate"):
                        diagnostics.append(Diagnostic(
                            path=fn.path, line=line, rule="REP016",
                            message=(f"'{fn.qualname}' calls "
                                     f".{method}() on the append-only "
                                     f"journal handle "
                                     f"'{cls.name}.{attr}'; records are "
                                     f"immutable once written")))
                for node in ast.walk(fn.node):
                    if isinstance(node, ast.Call) \
                            and dotted_name(node.func) == "os.fsync" \
                            and node.args \
                            and _mentions_handle(node.args[0], receiver,
                                                 attr):
                        fsynced = True
                for write_line in writes:
                    if not any(line > write_line for line in flushes):
                        diagnostics.append(Diagnostic(
                            path=fn.path, line=write_line, rule="REP016",
                            message=(f"'{fn.qualname}' writes to journal "
                                     f"handle '{cls.name}.{attr}' "
                                     f"without flushing it afterwards "
                                     f"in the same method; an "
                                     f"acknowledged record could sit in "
                                     f"userspace buffers at kill -9")))
            if not fsynced:
                diagnostics.append(Diagnostic(
                    path=cls.path, line=open_line, rule="REP016",
                    message=(f"'{cls.name}.{attr}' is an append-mode "
                             f"journal handle but the class never "
                             f"os.fsync()s it; flushed-but-unsynced "
                             f"records do not survive power loss")))
    return diagnostics


# ----------------------------------------------------------------------
# REP017: restore-on-raise around ranker mutations
# ----------------------------------------------------------------------
def _ranker_attrs(ctx: FaultContext, cls: ClassInfo,
                  ranker_keys: FrozenSet[str]) -> Set[str]:
    attrs = {attr for attr, types
             in ctx.index.merged_attr_types(cls).items()
             if types & ranker_keys}
    attrs |= {attr for attr in ctx.index.merged_own_attrs(cls)
              if attr in ("ranker", "_ranker")}
    return attrs


def _mutates_receiver(ctx: FaultContext, cls: ClassInfo, attr: str,
                      method: str) -> bool:
    """Whether ``self.<attr>.<method>()`` writes the receiver's state."""
    candidates = []
    for type_key in ctx.index.merged_attr_types(cls).get(attr, set()):
        type_cls = ctx.index.classes.get(type_key)
        if type_cls is not None:
            found = ctx.index.find_method(type_cls, method)
            if found is not None:
                candidates.append(found)
    if not candidates:
        candidates = [definer.methods[method]
                      for definer in ctx.index.defining_classes(method)]
    for fn in candidates:
        summary = ctx.summaries.get(fn.key)
        if summary is None:
            continue
        for effect in summary.effects.values():
            if effect.kind == "write" and effect.root[0] == "self":
                return True
    return False


def _restore_lines(body: Sequence[ast.stmt], receiver: str,
                   attrs: Set[str]) -> List[int]:
    lines: List[int] = []
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in RESTORE_METHODS:
                base = dotted_name(node.func.value)
                if base is not None and base.startswith(f"{receiver}.") \
                        and base.split(".", 1)[1] in attrs:
                    lines.append(node.lineno)
    return lines


def check_restore_on_raise(ctx: FaultContext) -> List[Diagnostic]:
    """REP017: try-scoped ranker mutations restore before re-raising."""
    diagnostics: List[Diagnostic] = []
    ranker = _class_named(ctx.index, "Ranker")
    ranker_keys: FrozenSet[str] = frozenset(
        [ranker.key] + [c.key for c in ctx.index.subclasses(ranker)]
    ) if ranker is not None else frozenset()
    for cls in ctx.index.classes.values():
        attrs = _ranker_attrs(ctx, cls, ranker_keys)
        if not attrs:
            continue
        for fn in cls.methods.values():
            receiver = fn.receiver_name()
            if receiver is None:
                continue
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Try):
                    continue
                mutated = self_attr_mutations(ctx, cls, node.body,
                                              receiver, attrs)
                if not mutated:
                    continue
                final_restores = _restore_lines(node.finalbody, receiver,
                                                attrs)
                if final_restores:
                    continue
                for handler in node.handlers:
                    raises = [inner.lineno for stmt in handler.body
                              for inner in ast.walk(stmt)
                              if isinstance(inner, ast.Raise)]
                    if not raises:
                        continue
                    first_raise = min(raises)
                    restores = _restore_lines(handler.body, receiver,
                                              attrs)
                    if any(line < first_raise for line in restores):
                        continue
                    attr, mut_line = mutated[0]
                    diagnostics.append(Diagnostic(
                        path=fn.path, line=handler.lineno, rule="REP017",
                        message=(f"'{fn.qualname}' mutates "
                                 f"self.{attr} inside this try (line "
                                 f"{mut_line}) but the handler "
                                 f"re-raises without restoring it; "
                                 f"call self.{attr}.restore(...) before "
                                 f"the raise (the "
                                 f"RecommenderSystem.inject pattern)")))
    return diagnostics


def self_attr_mutations(ctx: FaultContext, cls: ClassInfo,
                        body: Sequence[ast.stmt], receiver: str,
                        attrs: Set[str]) -> List[Tuple[str, int]]:
    """``self.<attr>.<m>(...)`` calls in ``body`` that mutate ``attr``."""
    mutated: List[Tuple[str, int]] = []
    for stmt in body:
        for node in ast.walk(stmt):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Attribute)
                    and isinstance(node.func.value.value, ast.Name)
                    and node.func.value.value.id == receiver):
                continue
            attr = node.func.value.attr
            method = node.func.attr
            if attr not in attrs or method in RESTORE_METHODS:
                continue
            if _mutates_receiver(ctx, cls, attr, method):
                mutated.append((attr, node.lineno))
    return mutated


def check_all(index: PackageIndex,
              summaries: Dict[str, FunctionSummary]) -> List[Diagnostic]:
    """Run every fault rule; diagnostics sorted by location."""
    ctx = FaultContext.build(index, summaries)
    diagnostics = (check_host_laundering(ctx) + check_taxonomy(ctx)
                   + check_fork_protocol(ctx)
                   + check_journal_protocol(ctx)
                   + check_restore_on_raise(ctx))
    diagnostics.sort(key=Diagnostic.sort_key)
    return diagnostics
