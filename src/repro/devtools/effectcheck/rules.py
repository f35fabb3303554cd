"""Effect rules REP009-REP012 over propagated function summaries.

================  =====================================================
REP009            ranker/log state mutated outside a sanctioned channel
REP010            RNG/state effect on a snapshot-restored object that
                  ``RankerSnapshot`` does not capture
REP011            fork-unsafe state reachable from objects shipped to
                  ``QueryPool`` workers
REP012            ``@pure`` / ``@mutates`` contract violated or missing
                  on a protocol method
================  =====================================================

The rules consume only static facts: :class:`PackageIndex` for classes
and contracts, :func:`build_summaries` for transitive effects.  Nothing
is imported from the analyzed package.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..common import display_path
from .index import ClassInfo, PackageIndex, dotted_name
from .summaries import SELF, Effect, FunctionSummary

#: Methods that must carry an effect contract, by anchor class.  The
#: ``Ranker`` entries are enforced on every concrete subclass (via MRO
#: inheritance a base-class contract satisfies them).
PROTOCOL_METHODS: Dict[str, Tuple[str, ...]] = {
    "Ranker": ("fit", "score", "score_batch", "poison_update",
               "poison_revert", "restore"),
    "InteractionLog": ("splice", "unsplice"),
    "RecommenderSystem": ("recommend",),
    "RankerSnapshot": ("capture",),
}

#: ``(id, title, rationale)`` of every effect rule, for ``--rules``.
RULES = (
    ("REP009", "sanctioned mutation channels",
     "ranker/log state may only change through assign_, snapshot "
     "restore, splice/unsplice or poison_revert"),
    ("REP010", "snapshot coverage",
     "state written or RNG streams drawn on the reward-query path must "
     "be captured by RankerSnapshot, or restore breaks bit-exactness"),
    ("REP011", "fork safety",
     "objects shipped to QueryPool workers must not hold open handles, "
     "locks or live generators"),
    ("REP012", "effect contracts",
     "@pure/@mutates declarations are verified against cross-procedural "
     "effect summaries; protocol methods must carry one"),
)

#: Attributes protected by REP009 beyond the per-ranker state attrs.
_ALWAYS_PROTECTED = {"rng", "_sequences"}


@dataclass(frozen=True)
class Diagnostic:
    """One finding, anchored at the leaf mutation site."""

    path: str
    line: int
    rule: str
    message: str
    chain: Tuple[str, ...] = ()

    def sort_key(self) -> Tuple[str, int, str]:
        """Stable ordering: path, then line, then rule id."""
        return (self.path, self.line, self.rule)

    def format(self) -> str:
        """``path:line: RULE message`` plus one line per chain frame."""
        lines = [f"{display_path(self.path)}:{self.line}: "
                 f"{self.rule} {self.message}"]
        for depth, frame in enumerate(self.chain):
            lines.append(f"    {'via' if depth == 0 else ' ->'} {frame}")
        return "\n".join(lines)


@dataclass
class RuleContext:
    """Shared lookups: anchor classes, protected attrs, captured RNG."""

    index: PackageIndex
    summaries: Dict[str, FunctionSummary]
    ranker_cls: Optional[ClassInfo] = None
    protected_attrs: Set[str] = field(default_factory=set)
    captured_rng: Set[str] = field(default_factory=set)

    @classmethod
    def build(cls, index: PackageIndex,
              summaries: Dict[str, FunctionSummary]) -> "RuleContext":
        ctx = cls(index=index, summaries=summaries)
        ctx.ranker_cls = _class_named(index, "Ranker")
        if ctx.ranker_cls is not None:
            for ranker in _concrete_rankers(index, ctx.ranker_cls):
                ctx.protected_attrs |= _state_attrs(ctx, ranker)
        ctx.protected_attrs |= _ALWAYS_PROTECTED
        snapshot = _class_named(index, "RankerSnapshot")
        if snapshot is not None:
            ctx.captured_rng = _captured_rng_attrs(index, snapshot)
        return ctx


def _class_named(index: PackageIndex, name: str) -> Optional[ClassInfo]:
    matches = [c for c in index.classes.values() if c.name == name]
    return matches[0] if len(matches) == 1 else None


def _concrete_rankers(index: PackageIndex,
                      ranker: ClassInfo) -> List[ClassInfo]:
    """Ranker subclasses implementing the state protocol."""
    return [c for c in index.subclasses(ranker)
            if "_state" in c.methods or "_set_state" in c.methods]


def _state_attrs(ctx: RuleContext, ranker: ClassInfo) -> Set[str]:
    """The snapshot-managed attributes of one ranker class."""
    attrs: Set[str] = set()
    setter = ranker.methods.get("_set_state")
    if setter is not None:
        summary = ctx.summaries.get(setter.key)
        if summary is not None:
            for effect in summary.effects.values():
                kind, name = effect.root
                if kind == "self" and name:
                    attrs.add(name)
    getter = ranker.methods.get("_state")
    if getter is not None:
        summary = ctx.summaries.get(getter.key)
        if summary is not None:
            for kind, name in summary.returns_aliases:
                if kind == "self" and name:
                    attrs.add(name)
    return attrs


def _captured_rng_attrs(index: PackageIndex,
                        snapshot: ClassInfo) -> Set[str]:
    """RNG attributes ``RankerSnapshot.capture`` reads off the ranker.

    Parsed from the capture AST: every ``<ranker>.<attr>...`` chain whose
    first attribute is an RNG generator on any indexed class.
    """
    capture = snapshot.methods.get("capture")
    if capture is None:
        return set()
    params = capture.param_names()
    skip = 1 if capture.is_classmethod else 0
    if len(params) <= skip:
        return set()
    ranker_param = params[skip]
    rng_union: Set[str] = set()
    for cls in index.classes.values():
        rng_union |= cls.rng_attrs
    captured: Set[str] = set()
    for node in ast.walk(capture.node):
        if isinstance(node, ast.Attribute):
            ref = dotted_name(node)
            if ref is None:
                continue
            parts = ref.split(".")
            if parts[0] == ranker_param and len(parts) > 1 \
                    and parts[1] in rng_union:
                captured.add(parts[1])
    return captured


# ----------------------------------------------------------------------
# REP012: contract conformance + missing protocol contracts
# ----------------------------------------------------------------------
def check_contracts(ctx: RuleContext) -> List[Diagnostic]:
    """REP012: verify @pure/@mutates declarations, flag missing ones."""
    diagnostics: List[Diagnostic] = []
    for summary in ctx.summaries.values():
        fn = summary.fn
        if fn.is_abstract:
            continue
        spec = fn.spec
        if spec is None and fn.cls is not None:
            spec = ctx.index.find_spec(fn.cls, fn.name)
        if spec is None:
            continue
        declared = "@pure" if spec == () else \
            "@mutates(%s)" % ", ".join(repr(a) for a in spec)
        for effect in summary.effects.values():
            if not _violates(spec, effect):
                continue
            diagnostics.append(Diagnostic(
                path=effect.path, line=effect.line, rule="REP012",
                message=(f"'{fn.qualname}' is declared {declared} but "
                         f"performs an undeclared "
                         f"{_describe_effect(effect)}"),
                chain=effect.chain))
    diagnostics.extend(_check_missing_contracts(ctx))
    return diagnostics


def _violates(spec: Tuple[str, ...], effect: Effect) -> bool:
    if "*" in spec:
        return False
    kind, name = effect.root
    if kind == "self" and name is not None:
        return name not in spec
    # Mutation through a parameter (or the bare instance) is never
    # covered by an attribute list; only "*" admits it.
    return True


def _describe_effect(effect: Effect) -> str:
    kind, name = effect.root
    target = f"self.{name}" if kind == "self" and name else \
        f"parameter '{name}'" if kind == "param" else "self"
    verb = "RNG draw on" if effect.kind == "rng" else "write to"
    return f"{verb} {target} [{effect.detail}]"


def _check_missing_contracts(ctx: RuleContext) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for anchor_name, methods in PROTOCOL_METHODS.items():
        anchor = _class_named(ctx.index, anchor_name)
        if anchor is None:
            continue
        targets = [anchor]
        if anchor_name == "Ranker":
            targets = _concrete_rankers(ctx.index, anchor)
        for cls in targets:
            for method in methods:
                fn = ctx.index.find_method(cls, method)
                if fn is None or fn.is_abstract:
                    continue
                if ctx.index.find_spec(cls, method) is None:
                    diagnostics.append(Diagnostic(
                        path=fn.path, line=fn.node.lineno, rule="REP012",
                        message=(f"protocol method '{cls.name}.{method}' "
                                 f"has no effect contract; declare @pure "
                                 f"or @mutates(...)")))
    return diagnostics


# ----------------------------------------------------------------------
# REP009: protected state mutated outside sanctioned channels
# ----------------------------------------------------------------------
def check_channels(ctx: RuleContext) -> List[Diagnostic]:
    """REP009: protected state mutated outside a sanctioned channel."""
    diagnostics: List[Diagnostic] = []
    for summary in ctx.summaries.values():
        fn = summary.fn
        if fn.channel or fn.name in ("__init__", "_set_state"):
            continue
        for effect in summary.direct_effects():
            if effect.kind != "write" or effect.attr is None:
                continue
            if effect.attr not in ctx.protected_attrs:
                continue
            kind, name = effect.root
            foreign = (kind == "param"
                       or (kind == "self" and name != effect.attr))
            if not foreign:
                continue
            diagnostics.append(Diagnostic(
                path=effect.path, line=effect.line, rule="REP009",
                message=(f"'{fn.qualname}' mutates protected state "
                         f"'{effect.attr}' of a foreign object "
                         f"[{effect.detail}]; route it through a "
                         f"sanctioned channel (assign_, restore, "
                         f"splice/unsplice, poison_revert)")))
    return diagnostics


# ----------------------------------------------------------------------
# REP010: effects outside the snapshot's captured-state list
# ----------------------------------------------------------------------
def check_snapshot_coverage(ctx: RuleContext) -> List[Diagnostic]:
    """REP010: reward-path effects RankerSnapshot does not capture."""
    diagnostics: List[Diagnostic] = []
    if ctx.ranker_cls is None:
        return diagnostics
    checked = ("poison_update", "poison_revert", "score", "score_batch")
    for ranker in _concrete_rankers(ctx.index, ctx.ranker_cls):
        restored = _state_attrs(ctx, ranker) | ctx.captured_rng
        for method in checked:
            fn = ranker.methods.get(method)  # own definitions only
            if fn is None:
                continue
            summary = ctx.summaries.get(fn.key)
            if summary is None:
                continue
            for effect in summary.effects.values():
                kind, name = effect.root
                if kind != "self" or name is None:
                    continue
                if name in restored:
                    continue
                if effect.kind == "rng" and name in ctx.captured_rng:
                    continue
                what = ("RNG stream drawn from" if effect.kind == "rng"
                        else "state written through")
                diagnostics.append(Diagnostic(
                    path=effect.path, line=effect.line, rule="REP010",
                    message=(f"'{fn.qualname}' has {what} self.{name}, "
                             f"which RankerSnapshot does not capture "
                             f"(restored set: "
                             f"{sorted(restored) or ['<empty>']}); "
                             f"snapshot restore cannot undo this"),
                    chain=effect.chain))
    return diagnostics


# ----------------------------------------------------------------------
# REP011: fork-unsafe state reachable from pool-shipped objects
# ----------------------------------------------------------------------
#: Classes whose instances cross the fork boundary into pool workers.
POOL_SHIPPED_SEEDS = ("RecommenderSystem", "BlackBoxEnvironment",
                      "InteractionLog", "RankerSnapshot", "Dataset")
POOL_SHIPPED_BASES = ("Ranker", "CandidateGenerator")


def check_fork_safety(ctx: RuleContext) -> List[Diagnostic]:
    """REP011: fork-unsafe state reachable from pool-shipped objects."""
    reachable: Dict[str, ClassInfo] = {}
    frontier: List[ClassInfo] = []
    for name in POOL_SHIPPED_SEEDS:
        cls = _class_named(ctx.index, name)
        if cls is not None:
            frontier.append(cls)
    for name in POOL_SHIPPED_BASES:
        base = _class_named(ctx.index, name)
        if base is not None:
            frontier.extend([base] + ctx.index.subclasses(base))
    while frontier:
        cls = frontier.pop()
        if cls.key in reachable:
            continue
        reachable[cls.key] = cls
        for types in ctx.index.merged_attr_types(cls).values():
            for type_key in types:
                attr_cls = ctx.index.classes.get(type_key)
                if attr_cls is not None and attr_cls.key not in reachable:
                    frontier.append(attr_cls)
    diagnostics: List[Diagnostic] = []
    for cls in reachable.values():
        for attr, line, what in cls.unsafe_attrs:
            diagnostics.append(Diagnostic(
                path=cls.path, line=line, rule="REP011",
                message=(f"'{cls.name}.{attr}' holds {what}: instances "
                         f"of {cls.name} are shipped to QueryPool "
                         f"workers and this state does not survive "
                         f"fork")))
    return diagnostics


def check_all(index: PackageIndex,
              summaries: Dict[str, FunctionSummary]) -> List[Diagnostic]:
    """Run every effect rule; diagnostics sorted by location."""
    ctx = RuleContext.build(index, summaries)
    diagnostics = (check_contracts(ctx) + check_channels(ctx)
                   + check_snapshot_coverage(ctx)
                   + check_fork_safety(ctx))
    diagnostics.sort(key=Diagnostic.sort_key)
    return diagnostics
