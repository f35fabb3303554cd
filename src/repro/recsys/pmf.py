"""PMF: probabilistic matrix factorization (Salakhutdinov & Mnih, 2007).

Adapted to implicit feedback as the paper does: observed clicks are
positives (rating 1), sampled unobserved items are negatives (rating 0),
trained with mini-batch SGD on squared error plus L2 regularization.
Gradients are hand-vectorized numpy — MF does not need the autograd engine.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..data.interactions import InteractionLog
from ..effects import mutates, pure, sanctioned_channel
from ..nn.spec import shape_spec
from .base import Ranker, sample_negatives


def _apply_accumulated(table: np.ndarray, ids: np.ndarray,
                       gradients: np.ndarray, lr: float,
                       max_row_norm: float = 2.0) -> None:
    """SGD step with per-id gradient accumulation and a row-norm clip.

    Duplicate ids within a batch accumulate (standard minibatch-sum
    semantics — frequency is signal for matrix factorization), but each
    id's accumulated gradient row is clipped to ``max_row_norm``.  Poison
    data concentrates hundreds of clicks on a single item; without the
    clip, that item's effective step size scales with its multiplicity and
    the factors diverge.
    """
    grad_sum = np.zeros_like(table)
    np.add.at(grad_sum, ids, gradients)
    norms = np.linalg.norm(grad_sum, axis=1)
    oversized = norms > max_row_norm
    if oversized.any():
        grad_sum[oversized] *= (max_row_norm / norms[oversized])[:, None]
    table -= lr * grad_sum


class PMF(Ranker):
    """Implicit-feedback probabilistic matrix factorization."""

    name = "pmf"

    def __init__(self, num_users: int, num_items: int, seed: int = 0,
                 dim: int = 16, lr: float = 0.05, reg: float = 0.01,
                 epochs: int = 8, negatives_per_positive: int = 2,
                 update_epochs: int = 3) -> None:
        super().__init__(num_users, num_items, seed)
        self.dim = dim
        self.lr = lr
        self.reg = reg
        self.epochs = epochs
        self.negatives_per_positive = negatives_per_positive
        self.update_epochs = update_epochs
        self.user_factors = self.rng.normal(0, 0.05, (num_users, dim))
        self.item_factors = self.rng.normal(0, 0.05, (num_items, dim))

    # ------------------------------------------------------------------
    def _training_triples(self, log: InteractionLog) -> tuple:
        pairs = log.pairs()
        if len(pairs) == 0:
            return (np.empty(0, np.int64),) * 2 + (np.empty(0),)
        users = pairs[:, 0]
        items = pairs[:, 1]
        k = self.negatives_per_positive
        neg_users = np.repeat(users, k)
        neg_items = sample_negatives(self.rng, items, self.num_items,
                                     len(users) * k)
        all_users = np.concatenate([users, neg_users])
        all_items = np.concatenate([items, neg_items])
        ratings = np.concatenate([np.ones(len(users)),
                                  np.zeros(len(neg_users))])
        return all_users, all_items, ratings

    def _sgd_epochs(self, users: np.ndarray, items: np.ndarray,
                    ratings: np.ndarray, epochs: int,
                    batch_size: int = 1024) -> None:
        n = len(users)
        if n == 0:
            return
        for _ in range(epochs):
            order = self.rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                u, i, r = users[idx], items[idx], ratings[idx]
                pu = self.user_factors[u]
                qi = self.item_factors[i]
                err = (pu * qi).sum(axis=1) - r
                grad_u = err[:, None] * qi + self.reg * pu
                grad_i = err[:, None] * pu + self.reg * qi
                _apply_accumulated(self.user_factors, u, grad_u, self.lr)
                _apply_accumulated(self.item_factors, i, grad_i, self.lr)

    # ------------------------------------------------------------------
    @mutates("user_factors", "item_factors", "rng")
    def fit(self, log: InteractionLog) -> None:
        self.user_factors = self.rng.normal(0, 0.05, (self.num_users, self.dim))
        self.item_factors = self.rng.normal(0, 0.05, (self.num_items, self.dim))
        users, items, ratings = self._training_triples(log)
        self._sgd_epochs(users, items, ratings, self.epochs)

    @mutates("user_factors", "item_factors", "rng")
    def poison_update(self, log: InteractionLog,
                      poison: InteractionLog) -> None:
        # Fine-tune on poison data plus a replay sample of the merged log,
        # the incremental-retrain behavior of a production system.
        p_users, p_items, p_ratings = self._training_triples(poison)
        c_users, c_items, c_ratings = self._training_triples(log)
        if len(c_users):
            replay = self.rng.choice(len(c_users),
                                     size=min(len(c_users),
                                              4 * max(len(p_users), 64)),
                                     replace=False)
            users = np.concatenate([p_users, c_users[replay]])
            items = np.concatenate([p_items, c_items[replay]])
            ratings = np.concatenate([p_ratings, c_ratings[replay]])
        else:
            users, items, ratings = p_users, p_items, p_ratings
        self._sgd_epochs(users, items, ratings, self.update_epochs)

    # ------------------------------------------------------------------
    @pure
    @shape_spec("(B,), (B, C) -> (B, C)")
    def score_batch(self, users: np.ndarray,
                    candidates: np.ndarray) -> np.ndarray:
        pu = self.user_factors[users]
        candidates = np.asarray(candidates)
        scores = np.empty(candidates.shape)
        # Column-at-a-time gather + reduce: one (B, d) factor slice per
        # candidate column stays cache-resident, unlike the (B, C, d)
        # blob a single einsum would gather.  Reduction order over d is
        # fixed per element, so results are batch-size invariant.
        for column in range(candidates.shape[1]):
            scores[:, column] = np.einsum(
                "nd,nd->n", pu, self.item_factors[candidates[:, column]])
        return scores

    def item_embeddings(self) -> np.ndarray:
        return self.item_factors.copy()

    def _state(self) -> Dict[str, np.ndarray]:
        return {"user": self.user_factors, "item": self.item_factors}

    @sanctioned_channel
    def _set_state(self, state: Dict[str, np.ndarray]) -> None:
        self.user_factors = state["user"]
        self.item_factors = state["item"]
