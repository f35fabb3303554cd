"""Whole-repo shape verification drivers.

Every check runs real forward code on small concrete values through
:func:`~.contracts.checked_call`, in three lanes mirroring how the stack
is actually wired:

1. **Nets** — every nn layer and every neural recommender's inner
   network runs its forward pass on a batch of :data:`PROBE_BATCH` rows.
2. **Policy** — :class:`~repro.core.policy.PolicyNetwork` for all four
   action-space kinds (Plain, BPlain, both BCBTs) runs
   ``rollout_log_probs`` on :data:`PROBE_BATCH` recorded rollouts.
3. **Probe** — every registered ranker is fit on a tiny synthetic log
   and its ``score``/``score_batch`` contracts are verified, covering
   the non-neural rankers too.

Each check is independent.  A failure carries the ContractError or
numpy error message, followed by the ``file:line (function)`` chain of
the ``repro`` frames it was raised through, outermost first.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np
import scipy.sparse as sp

from ...core.action_space import ACTION_SPACE_KINDS, make_action_space
from ...core.policy import PolicyNetwork
from ...data.interactions import InteractionLog
from ...nn import GRU, GRUCell, LSTM, LSTMCell, MLP, Dense, Embedding, Tensor
from ...recsys.autorec import _AutoRecNet
from ...recsys.gru4rec import _GRU4RecNet
from ...recsys.neumf import _NeuMFNet
from ...recsys.ngcf import _NGCFNet
from ...recsys.registry import RANKER_NAMES, make_ranker
from ..common import display_path
from .contracts import ContractError, checked_call

#: Batch size of the lane 1 and 2 inputs.  It equals no other dim any
#: check uses, so a transposed weight or a swapped axis can never line
#: up with the batch by coincidence and slip through.
PROBE_BATCH = 13

#: Exceptions a check may legitimately raise; anything else is a crash.
CHECK_ERRORS = (ContractError, TypeError, ValueError, AttributeError,
                RuntimeError, IndexError, KeyError, NotImplementedError)

_REPRO_ROOT = Path(__file__).resolve().parents[2]
_DEVTOOLS_ROOT = Path(__file__).resolve().parents[1]


@dataclass
class CheckResult:
    """Outcome of one named check (``detail`` holds the failure text)."""

    name: str
    ok: bool
    detail: str = ""


def _floats(width: int) -> Tensor:
    """A ``(PROBE_BATCH, width)`` float input."""
    return Tensor(np.random.default_rng(0).normal(size=(PROBE_BATCH, width)))


def _ids(*shape: int, high: int) -> np.ndarray:
    """A ``(PROBE_BATCH, *shape)`` array of ids in ``[0, high)``."""
    size = PROBE_BATCH * int(np.prod(shape, dtype=np.int64))
    return (np.arange(size, dtype=np.int64) % high).reshape(
        (PROBE_BATCH,) + shape)


# ----------------------------------------------------------------------
# Lane 1: nn layers and inner recommender nets
# ----------------------------------------------------------------------
def _check_dense() -> None:
    dense = Dense(4, 7, np.random.default_rng(0), activation="relu")
    checked_call(dense, "__call__", _floats(4))


def _check_mlp() -> None:
    mlp = MLP([6, 5, 3], np.random.default_rng(0))
    checked_call(mlp, "__call__", _floats(6))


def _check_embedding() -> None:
    embedding = Embedding(10, 6, np.random.default_rng(0))
    checked_call(embedding, "__call__", _ids(high=10))


def _check_lstm_cell() -> None:
    cell = LSTMCell(5, 9, np.random.default_rng(0))
    state = cell.initial_state(PROBE_BATCH)
    checked_call(cell, "__call__", _floats(5), state)


def _check_lstm() -> None:
    lstm = LSTM(5, 9, np.random.default_rng(0))
    checked_call(lstm, "__call__", [_floats(5) for _ in range(3)])


def _check_gru_cell() -> None:
    cell = GRUCell(5, 9, np.random.default_rng(0))
    state = cell.initial_state(PROBE_BATCH)
    checked_call(cell, "__call__", _floats(5), state)


def _check_gru() -> None:
    gru = GRU(5, 9, np.random.default_rng(0))
    checked_call(gru, "__call__", [_floats(5) for _ in range(3)])


def _check_neumf_net() -> None:
    net = _NeuMFNet(6, 10, 8, np.random.default_rng(0))
    checked_call(net, "logits", _ids(high=6), _ids(high=10))


def _check_autorec_net() -> None:
    net = _AutoRecNet(10, 4, np.random.default_rng(0))
    checked_call(net, "__call__", _floats(10))


def _check_gru4rec_net() -> None:
    net = _GRU4RecNet(10, 6, np.random.default_rng(0))
    hidden = checked_call(net, "encode", _ids(5, high=11))
    checked_call(net, "all_item_logits", hidden)


def _check_ngcf_net() -> None:
    net = _NGCFNet(12, 6, 2, np.random.default_rng(0))
    adjacency = sp.csr_matrix((12, 12))
    checked_call(net, "propagate", adjacency)


# ----------------------------------------------------------------------
# Lane 2: the policy network over every action-space design
# ----------------------------------------------------------------------
def _policy_decisions(kind: str, batch: int, steps: int,
                      depth: int) -> Dict[str, np.ndarray]:
    flat = np.zeros((batch, steps), dtype=np.int64)
    if kind == "plain":
        return {"items": flat}
    if kind == "bplain":
        return {"sides": flat, "items": flat.copy()}
    tree = np.zeros((batch, steps, depth), dtype=np.int64)
    return {"parents": tree, "sides": tree.copy()}


def _make_policy_check(kind: str) -> Callable[[], None]:
    def check() -> None:
        popularity = np.arange(12, dtype=np.float64)[::-1]
        space = make_action_space(kind, 8, np.arange(8, 12), popularity)
        policy = PolicyNetwork(space, num_attackers=3, dim=8, seed=0)
        steps = 4
        items = np.zeros((PROBE_BATCH, steps), dtype=np.int64)
        decisions = _policy_decisions(kind, PROBE_BATCH, steps,
                                      space.max_decisions)
        checked_call(policy, "rollout_log_probs", items, decisions)
    return check


# ----------------------------------------------------------------------
# Lane 3: micro-probe of every registered ranker
# ----------------------------------------------------------------------
_PROBE_USERS, _PROBE_ITEMS = 6, 12


def _probe_log() -> InteractionLog:
    log = InteractionLog(_PROBE_ITEMS)
    rng = np.random.default_rng(7)
    for user in range(_PROBE_USERS):
        log.add_sequence(user, rng.integers(0, _PROBE_ITEMS,
                                            size=5).tolist())
    return log


def _make_probe_check(name: str) -> Callable[[], None]:
    def check() -> None:
        ranker = make_ranker(name, _PROBE_USERS, _PROBE_ITEMS, seed=0)
        ranker.fit(_probe_log())
        checked_call(ranker, "score", 0, np.arange(5, dtype=np.int64))
        candidates = np.tile(np.arange(5, dtype=np.int64), (2, 1))
        checked_call(ranker, "score_batch",
                     np.array([0, 1], dtype=np.int64), candidates)
    return check


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------
def build_checks() -> List[Tuple[str, Callable[[], None]]]:
    """All named checks, in deterministic execution order."""
    checks: List[Tuple[str, Callable[[], None]]] = [
        ("nn.Dense", _check_dense),
        ("nn.MLP", _check_mlp),
        ("nn.Embedding", _check_embedding),
        ("nn.LSTMCell", _check_lstm_cell),
        ("nn.LSTM", _check_lstm),
        ("nn.GRUCell", _check_gru_cell),
        ("nn.GRU", _check_gru),
        ("recsys.neumf.net", _check_neumf_net),
        ("recsys.autorec.net", _check_autorec_net),
        ("recsys.gru4rec.net", _check_gru4rec_net),
        ("recsys.ngcf.net", _check_ngcf_net),
    ]
    checks.extend((f"core.policy[{kind}]", _make_policy_check(kind))
                  for kind in ACTION_SPACE_KINDS)
    checks.extend((f"recsys.probe[{name}]", _make_probe_check(name))
                  for name in RANKER_NAMES)
    return checks


def _repro_frames(error: BaseException) -> List[str]:
    """``file:line (function)`` of each ``repro`` frame outside devtools."""
    frames = []
    for frame in traceback.extract_tb(error.__traceback__):
        path = Path(frame.filename).resolve()
        if path.is_relative_to(_REPRO_ROOT) \
                and not path.is_relative_to(_DEVTOOLS_ROOT):
            frames.append(f"at {display_path(frame.filename)}:"
                          f"{frame.lineno} ({frame.name})")
    return frames


def run_checks(checks) -> List[CheckResult]:
    """Run ``(name, fn)`` pairs, catching contract/shape violations."""
    results = []
    for name, check in checks:
        try:
            check()
        except CHECK_ERRORS as error:
            detail = [f"{type(error).__name__}: {error}"]
            detail.extend(f"  {frame}" for frame in _repro_frames(error))
            results.append(CheckResult(name, False, "\n".join(detail)))
        else:
            results.append(CheckResult(name, True))
    return results


def run_all() -> List[CheckResult]:
    """Run every check over the whole repo."""
    return run_checks(build_checks())
