"""BPR: Bayesian personalized ranking (Rendle et al., UAI 2009).

Matrix factorization optimized with the pairwise ranking loss
``-log sigmoid(x_ui - x_uj)`` over sampled (user, positive, negative)
triples.  Hand-vectorized numpy SGD.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..data.interactions import InteractionLog
from ..effects import mutates, pure, sanctioned_channel
from ..nn.spec import shape_spec
from .base import Ranker, sample_negatives
from .pmf import _apply_accumulated


class BPR(Ranker):
    """Pairwise-ranking matrix factorization."""

    name = "bpr"

    def __init__(self, num_users: int, num_items: int, seed: int = 0,
                 dim: int = 16, lr: float = 0.05, reg: float = 0.01,
                 epochs: int = 10, update_epochs: int = 3) -> None:
        super().__init__(num_users, num_items, seed)
        self.dim = dim
        self.lr = lr
        self.reg = reg
        self.epochs = epochs
        self.update_epochs = update_epochs
        self.user_factors = self.rng.normal(0, 0.05, (num_users, dim))
        self.item_factors = self.rng.normal(0, 0.05, (num_items, dim))

    # ------------------------------------------------------------------
    def _sgd_epochs(self, users: np.ndarray, positives: np.ndarray,
                    epochs: int, batch_size: int = 1024) -> None:
        n = len(users)
        if n == 0:
            return
        for _ in range(epochs):
            order = self.rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                u, i = users[idx], positives[idx]
                j = sample_negatives(self.rng, i, self.num_items, len(idx))
                pu = self.user_factors[u]
                qi = self.item_factors[i]
                qj = self.item_factors[j]
                x = ((pu * (qi - qj)).sum(axis=1))
                sig = 1.0 / (1.0 + np.exp(np.clip(x, -60, 60)))  # d(-logsig)/dx
                grad_u = -sig[:, None] * (qi - qj) + self.reg * pu
                grad_i = -sig[:, None] * pu + self.reg * qi
                grad_j = sig[:, None] * pu + self.reg * qj
                _apply_accumulated(self.user_factors, u, grad_u, self.lr)
                _apply_accumulated(self.item_factors,
                                np.concatenate([i, j]),
                                np.concatenate([grad_i, grad_j]), self.lr)

    # ------------------------------------------------------------------
    @mutates("user_factors", "item_factors", "rng")
    def fit(self, log: InteractionLog) -> None:
        self.user_factors = self.rng.normal(0, 0.05, (self.num_users, self.dim))
        self.item_factors = self.rng.normal(0, 0.05, (self.num_items, self.dim))
        pairs = log.pairs()
        if len(pairs):
            self._sgd_epochs(pairs[:, 0], pairs[:, 1], self.epochs)

    @mutates("user_factors", "item_factors", "rng")
    def poison_update(self, log: InteractionLog,
                      poison: InteractionLog) -> None:
        p_pairs = poison.pairs()
        c_pairs = log.pairs()
        if len(c_pairs):
            replay = self.rng.choice(
                len(c_pairs),
                size=min(len(c_pairs), 4 * max(len(p_pairs), 64)),
                replace=False)
            pairs = (np.concatenate([p_pairs, c_pairs[replay]])
                     if len(p_pairs) else c_pairs[replay])
        else:
            pairs = p_pairs
        if len(pairs):
            self._sgd_epochs(pairs[:, 0], pairs[:, 1], self.update_epochs)

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
