"""NeuMF: neural matrix factorization (He et al., WWW 2017).

Fuses a GMF branch (element-wise product of user/item embeddings) with an
MLP branch over concatenated embeddings; a final linear layer over the
concatenated branch outputs produces the preference logit.  Trained with
binary cross-entropy over positives and sampled negatives.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..data.interactions import InteractionLog
from ..effects import mutates, pure, sanctioned_channel
from ..nn import (Adam, Dense, Embedding, MLP, Module, Tensor,
                  concatenate, shape_spec)
from ..nn import functional as F
from .base import Ranker, batch_slices, gemm_pad, sample_negatives

#: Flattened (user, item) rows per forward pass in the batched scorer.
_SCORE_CHUNK_PAIRS = 262144


class _NeuMFNet(Module):
    def __init__(self, num_users: int, num_items: int, dim: int,
                 rng: np.random.Generator) -> None:
        self.user_gmf = Embedding(num_users, dim, rng)
        self.item_gmf = Embedding(num_items, dim, rng)
        self.user_mlp = Embedding(num_users, dim, rng)
        self.item_mlp = Embedding(num_items, dim, rng)
        self.mlp = MLP([2 * dim, dim, dim // 2], rng)
        self.out = Dense(dim + dim // 2, 1, rng)

    @shape_spec("(B,), (B,) -> (B,)")
    def logits(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        gmf = self.user_gmf(users) * self.item_gmf(items)
        mlp_in = concatenate([self.user_mlp(users), self.item_mlp(items)],
                             axis=1)
        mlp_out = self.mlp(mlp_in)
        fused = concatenate([gmf, mlp_out], axis=1)
        return self.out(fused).reshape(-1)


class NeuMF(Ranker):
    """Neural collaborative filtering ranker."""

    name = "neumf"

    def __init__(self, num_users: int, num_items: int, seed: int = 0,
                 dim: int = 8, lr: float = 0.01, epochs: int = 4,
                 update_epochs: int = 8, update_lr: float = 0.02,
                 negatives_per_positive: int = 2,
                 batch_size: int = 512) -> None:
        super().__init__(num_users, num_items, seed)
        self.dim = dim
        self.lr = lr
        self.epochs = epochs
        self.update_epochs = update_epochs
        self.update_lr = update_lr
        self.negatives_per_positive = negatives_per_positive
        self.batch_size = batch_size
        self._build()

    def _build(self) -> None:
        self.net = _NeuMFNet(self.num_users, self.num_items, self.dim,
                             self.rng)
        self.optimizer = Adam(list(self.net.parameters()), lr=self.lr)

    # ------------------------------------------------------------------
    def _examples(self, log: InteractionLog) -> tuple:
        pairs = log.pairs()
        if len(pairs) == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
        users, items = pairs[:, 0], pairs[:, 1]
        k = self.negatives_per_positive
        neg_items = sample_negatives(self.rng, items, self.num_items,
                                     len(users) * k)
        all_users = np.concatenate([users, np.repeat(users, k)])
        all_items = np.concatenate([items, neg_items])
        labels = np.concatenate([np.ones(len(users)),
                                 np.zeros(len(users) * k)])
        return all_users, all_items, labels

    def _train(self, users: np.ndarray, items: np.ndarray,
               labels: np.ndarray, epochs: int) -> None:
        n = len(users)
        if n == 0:
            return
        for _ in range(epochs):
            order = self.rng.permutation(n)
            for start in range(0, n, self.batch_size):
                idx = order[start:start + self.batch_size]
                self.optimizer.zero_grad()
                logits = self.net.logits(users[idx], items[idx])
                loss = F.binary_cross_entropy_with_logits(logits, labels[idx])
                loss.backward()
                self.optimizer.step()

    # ------------------------------------------------------------------
    @mutates("rng", "net", "optimizer")
    def fit(self, log: InteractionLog) -> None:
        self.rng = np.random.default_rng(self.seed)
        self._build()
        self._train(*self._examples(log), epochs=self.epochs)

    @mutates("rng", "net", "optimizer")
    def poison_update(self, log: InteractionLog,
                      poison: InteractionLog) -> None:
        p_users, p_items, p_labels = self._examples(poison)
        c_users, c_items, c_labels = self._examples(log)
        if len(c_users):
            replay = self.rng.choice(
                len(c_users),
                size=min(len(c_users), 4 * max(len(p_users), 64)),
                replace=False)
            users = np.concatenate([p_users, c_users[replay]])
            items = np.concatenate([p_items, c_items[replay]])
            labels = np.concatenate([p_labels, c_labels[replay]])
        else:
            users, items, labels = p_users, p_items, p_labels
        # Incremental retrains in production systems typically run with a
        # fresh (often larger) step size; this is also what lets a modest
        # poison budget move the model at all.
        self.optimizer = Adam(list(self.net.parameters()), lr=self.update_lr)
        self._train(users, items, labels, epochs=self.update_epochs)

    # ------------------------------------------------------------------
    @pure
    @shape_spec("(B,), (B, C) -> (B, C)")
    def score_batch(self, users: np.ndarray,
                    candidates: np.ndarray) -> np.ndarray:
        """Factored forward over all (user, candidate) pairs.

        The naive flattened pass pays four per-pair embedding gathers,
        two concats and the full first MLP layer per pair — all
        memory-bound.  This override exploits the network's structure
        instead: the first MLP layer splits into a per-user half (one
        GEMM over the eval users, reused across all candidates) and a
        per-item half, and the GMF branch folds its slice of the output
        weights into the user embeddings, leaving per candidate column
        only (B, dim)-sized gathers, GEMMs and dot products that stay
        cache-resident.  Each element's reduction orders are fixed and
        GEMM rows are batch-invariant (``gemm_pad``), so the result is
        identical for any batch composition or chunk size.
        """
        users = np.asarray(users, dtype=np.int64)
        candidates = np.asarray(candidates, dtype=np.int64)
        net = self.net
        layer1, layer2 = net.mlp.layers
        w1 = layer1.weight.data
        dim = self.dim
        out_w = net.out.weight.data
        out_b = float(net.out.bias.data[0])
        w2 = layer2.weight.data
        b2 = layer2.bias.data
        mlp_w = out_w[dim:, 0]

        n, c = candidates.shape
        scores = np.empty((n, c))
        chunk = max(1, _SCORE_CHUNK_PAIRS // max(c, 1))
        for block in batch_slices(n, chunk):
            block_users = users[block]
            block_cands = candidates[block]
            padded, rows = gemm_pad(net.user_mlp.weight.data[block_users])
            user_part = (padded @ w1[:dim])[:rows] + layer1.bias.data
            # GMF branch with the output head's GMF slice folded into
            # the user embeddings, once per block.
            user_gmf = net.user_gmf.weight.data[block_users] * out_w[:dim, 0]
            out = scores[block]
            for col in range(c):
                ids = block_cands[:, col]
                padded, rows = gemm_pad(net.item_mlp.weight.data[ids])
                hidden = np.maximum(
                    user_part + (padded @ w1[dim:])[:rows], 0.0)
                padded, rows = gemm_pad(hidden)
                mlp_out = (padded @ w2)[:rows] + b2
                out[:, col] = (np.einsum("nd,nd->n", user_gmf,
                                         net.item_gmf.weight.data[ids])
                               + np.einsum("nk,k->n", mlp_out, mlp_w)
                               + out_b)
        return scores

    def item_embeddings(self) -> np.ndarray:
        return self.net.item_gmf.weight.numpy().copy()

    def _state(self) -> Any:
        return [p.data for p in self.net.parameters()]

    @sanctioned_channel
    def _set_state(self, state: Any) -> None:
        for param, data in zip(self.net.parameters(), state):
            param.assign_(data, copy=False)
        # Fresh optimizer moments so every restore+update run is independent
        # of earlier poisoning runs.
        self.optimizer = Adam(list(self.net.parameters()), lr=self.lr)
