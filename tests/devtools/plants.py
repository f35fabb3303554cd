"""Planted-bug helpers for the analyzer tests.

The program-analysis helpers doctor a copy of the ``repro`` source tree
with one bug the analyzers exist to catch and return the doctored file
plus the exact line a diagnostic must anchor at:

* :func:`plant_mutation` — a hidden in-place write in
  ``ItemPop.score_batch``, the kernel ``RecommenderSystem.recommend``
  scores through (effectcheck REP012);
* :func:`plant_swallowed_host_error` — the supervised scheduler handler
  widened to swallow ``MemoryError`` (faultcheck REP013);
* :func:`plant_deleted_signal_reset` — the pool worker's inherited
  signal resets deleted (faultcheck REP015).

The shapecheck plants (:data:`SHAPE_PLANTS`) touch no source file: each
wraps one constructor the shapecheck driver module calls, so the object
one named check builds carries a shape bug.
"""

import ast
import inspect
import shutil
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.core.action_space import BPlainActionSpace
from repro.core.policy import PolicyNetwork
from repro.devtools.check import PACKAGE_ROOT
from repro.devtools.shapecheck import checked_call
from repro.devtools.shapecheck.drivers import PROBE_BATCH
from repro.nn import MLP, Dense, Embedding, Tensor
from repro.recsys.neumf import _NeuMFNet
from repro.recsys.pmf import PMF
from repro.recsys.registry import make_ranker


def copy_package(dest: Path) -> Path:
    """Copy the real ``repro`` tree to ``dest/repro``; returns the copy."""
    root = Path(dest) / "repro"
    shutil.copytree(PACKAGE_ROOT, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def plant_mutation(root: Path) -> Tuple[Path, int]:
    """Insert a hidden in-place write into ``ItemPop.score_batch``.

    Returns the doctored file and the 1-based line of the planted write.
    """
    target = root / "recsys" / "itempop.py"
    source = target.read_text(encoding="utf-8")
    tree = ast.parse(source)
    score: Optional[ast.FunctionDef] = None
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "ItemPop":
            for child in node.body:
                if isinstance(child, ast.FunctionDef) \
                        and child.name == "score_batch":
                    score = child
    if score is None:
        raise RuntimeError("ItemPop.score_batch not found")
    anchor = score.body[-1].lineno  # plant just before the return
    lines = source.splitlines(keepends=True)
    indent = " " * score.body[-1].col_offset
    lines.insert(anchor - 1, f"{indent}self.counts[0] += 1.0\n")
    target.write_text("".join(lines), encoding="utf-8")
    return target, anchor


def delete_lines(path: Path, spans: Sequence[Tuple[int, int]]) -> None:
    """Remove the 1-based inclusive line spans from ``path``."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    doomed = {line for start, end in spans
              for line in range(start, end + 1)}
    path.write_text(
        "".join(line for number, line in enumerate(lines, start=1)
                if number not in doomed), encoding="utf-8")


def plant_swallowed_host_error(root: Path) -> Tuple[Path, int]:
    """Widen the supervised scheduler handler to swallow MemoryError.

    Deletes the ``if isinstance(error, HOST_ERRORS): raise`` gate from
    the broad ``except Exception`` in ``CampaignScheduler._run_slice``.
    Returns the doctored file and the handler's 1-based line (unchanged:
    the deleted lines sit below it).
    """
    target = root / "serve" / "scheduler.py"
    tree = ast.parse(target.read_text(encoding="utf-8"))
    gate: Optional[ast.If] = None
    handler_line: Optional[int] = None
    for node in ast.walk(tree):
        if not (isinstance(node, ast.FunctionDef)
                and node.name == "_run_slice"):
            continue
        for inner in ast.walk(node):
            if not isinstance(inner, ast.ExceptHandler):
                continue
            for stmt in inner.body:
                if isinstance(stmt, ast.If) \
                        and isinstance(stmt.test, ast.Call) \
                        and isinstance(stmt.test.func, ast.Name) \
                        and stmt.test.func.id == "isinstance":
                    gate = stmt
                    handler_line = inner.lineno
    if gate is None or handler_line is None:
        raise RuntimeError("HOST_ERRORS gate in _run_slice not found")
    delete_lines(target, [(gate.lineno, gate.end_lineno or gate.lineno)])
    return target, handler_line


def plant_deleted_signal_reset(root: Path) -> Tuple[Path, int]:
    """Delete the pool worker's inherited-signal resets.

    Removes every top-level ``signal.signal(..., SIG_DFL/SIG_IGN)``
    statement from ``_worker_main`` in ``perf/pool.py``.  Returns the
    doctored file and the worker entry's 1-based ``def`` line.
    """
    target = root / "perf" / "pool.py"
    tree = ast.parse(target.read_text(encoding="utf-8"))
    worker: Optional[ast.FunctionDef] = None
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) \
                and node.name == "_worker_main":
            worker = node
    if worker is None:
        raise RuntimeError("_worker_main not found")
    spans: List[Tuple[int, int]] = []
    for stmt in worker.body:
        if not (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)):
            continue
        call = stmt.value
        refs = [ast.unparse(arg) for arg in call.args[1:2]]
        if isinstance(call.func, ast.Attribute) \
                and call.func.attr == "signal" \
                and any(ref.endswith(("SIG_DFL", "SIG_IGN"))
                        for ref in refs):
            spans.append((stmt.lineno, stmt.end_lineno or stmt.lineno))
    if not spans:
        raise RuntimeError("signal resets in _worker_main not found")
    delete_lines(target, spans)
    return target, worker.lineno


# ----------------------------------------------------------------------
# shapecheck plants
# ----------------------------------------------------------------------
def source_anchor(function: Callable, snippet: str) -> str:
    """``file.py:N`` of the first line of ``function`` holding ``snippet``."""
    lines, start = inspect.getsourcelines(function)
    offset = next(index for index, line in enumerate(lines)
                  if snippet in line)
    return f"{Path(inspect.getsourcefile(function)).name}:{start + offset}"


def transposed_dense(*args, **kwargs) -> Dense:
    """A :class:`Dense` whose weight is stored transposed, ``(out, in)``."""
    dense = Dense(*args, **kwargs)
    dense.weight = Tensor(dense.weight.data.T.copy(), requires_grad=True,
                          name="dense.weight")
    return dense


def mutated_dense_check() -> Callable[[], None]:
    """The ``nn.Dense`` check, run on a transposed-weight Dense."""
    dense = transposed_dense(4, 7, np.random.default_rng(0))

    def check() -> None:
        checked_call(dense, "__call__", Tensor(np.zeros((PROBE_BATCH, 4))))
    return check


def narrow_gmf_net(*args, **kwargs) -> _NeuMFNet:
    """A NeuMF net whose GMF item table is one column narrower."""
    net = _NeuMFNet(*args, **kwargs)
    table = net.item_gmf
    net.item_gmf = Embedding(table.num_embeddings, table.dim - 1,
                             np.random.default_rng(0))
    return net


def wide_head_policy(space, *args, **kwargs) -> PolicyNetwork:
    """A policy whose BPlain DNN head is one unit wider than ``|e|``."""
    policy = PolicyNetwork(space, *args, **kwargs)
    if isinstance(space, BPlainActionSpace):
        policy.dnn = MLP([policy.dim, policy.dim, policy.dim + 1],
                         np.random.default_rng(0))
    return policy


def narrow_pmf_ranker(name: str, *args, **kwargs):
    """A ranker; PMF's item factors lose a column after every fit."""
    ranker = make_ranker(name, *args, **kwargs)
    if name == "pmf":
        fit = ranker.fit

        def narrowing_fit(log):
            fit(log)
            ranker.item_factors = ranker.item_factors[:, 1:]
        ranker.fit = narrowing_fit
    return ranker


@dataclass(frozen=True)
class ShapePlant:
    """One planted shape bug, its named check and its expected anchor."""

    #: The one shapecheck check the plant must fail.
    check: str
    #: Driver-module attribute the plant replaces, and its replacement.
    attribute: str
    replacement: Callable
    #: ``(function, snippet)`` locating the line the detail must name.
    anchor_at: Tuple[Callable, str]

    def install(self, patch: pytest.MonkeyPatch,
                drivers: ModuleType) -> None:
        """Plant the bug into ``drivers`` for the life of ``patch``."""
        patch.setattr(drivers, self.attribute, self.replacement)

    def anchor(self) -> str:
        """The ``file.py:N`` the failure detail must contain."""
        return source_anchor(*self.anchor_at)


#: One plant per shapecheck lane: an nn layer and an inner recommender
#: net (lane 1), the policy (lane 2) and a ranker probe (lane 3).
SHAPE_PLANTS = (
    ShapePlant("nn.Dense", "Dense", transposed_dense,
               (Dense.__call__, "x @ self.weight")),
    ShapePlant("recsys.neumf.net", "_NeuMFNet", narrow_gmf_net,
               (_NeuMFNet.logits, "self.item_gmf(items)")),
    ShapePlant("core.policy[bplain]", "PolicyNetwork", wide_head_policy,
               (BPlainActionSpace.step_log_probs, "dnn_out @ set_feats.T")),
    ShapePlant("recsys.probe[pmf]", "make_ranker", narrow_pmf_ranker,
               (PMF.score_batch, "np.einsum(")),
)
