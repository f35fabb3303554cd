"""AutoRec: autoencoder collaborative filtering (Sedhain et al., WWW 2015).

U-AutoRec over the implicit user-item matrix: each user's binary click row
is encoded by a sigmoid hidden layer and decoded back to scores over every
item.  For implicit feedback the reconstruction loss is *weighted* — the
all-ones degenerate solution is avoided by giving unobserved entries a
small positive weight (the WRMF-style confidence trick).

The user-item matrix is never materialized: click profiles are stored as
per-user item sets and densified per batch, so the model scales to the
paper-size catalogs (a dense Phone-scale matrix would be gigabytes).
"""

from __future__ import annotations

from typing import Any, Dict, Set

import numpy as np

from ..data.interactions import InteractionLog
from ..effects import mutates, pure, sanctioned_channel
from ..nn import Adam, Dense, Module, Tensor, shape_spec
from ..nn import functional as F
from .base import Ranker, batch_slices, gemm_pad

#: Users per chunk in the batched scorer: bounds the two (B, num_items)
#: dense passes (input profiles + reconstruction) per chunk.
_SCORE_CHUNK_USERS = 1024


class _AutoRecNet(Module):
    def __init__(self, num_items: int, hidden: int,
                 rng: np.random.Generator) -> None:
        self.encoder = Dense(num_items, hidden, rng, activation="sigmoid")
        self.decoder = Dense(hidden, num_items, rng)

    @shape_spec("(B, N) -> (B, N)")
    def __call__(self, rows: Tensor) -> Tensor:
        return self.decoder(self.encoder(rows))


class AutoRec(Ranker):
    """U-AutoRec ranker over the implicit matrix."""

    name = "autorec"

    def __init__(self, num_users: int, num_items: int, seed: int = 0,
                 hidden: int = 32, lr: float = 0.01, epochs: int = 6,
                 update_epochs: int = 3, negative_weight: float = 0.1,
                 batch_size: int = 128) -> None:
        super().__init__(num_users, num_items, seed)
        self.hidden = hidden
        self.lr = lr
        self.epochs = epochs
        self.update_epochs = update_epochs
        self.negative_weight = negative_weight
        self.batch_size = batch_size
        self._build()
        self._user_items: Dict[int, Set[int]] = {}

    def _build(self) -> None:
        self.net = _AutoRecNet(self.num_items, self.hidden, self.rng)
        self.optimizer = Adam(list(self.net.parameters()), lr=self.lr)

    # ------------------------------------------------------------------
    def _profiles_from(self, log: InteractionLog) -> Dict[int, Set[int]]:
        return {user: set(seq) for user, seq in log.iter_sequences()}

    def _rows(self, users: np.ndarray) -> np.ndarray:
        """Densify the click profiles of ``users`` (batch-sized only).

        One fancy-index assignment over the batch's flattened profiles
        instead of a per-user loop (assignment order is irrelevant — all
        written cells become 1.0).
        """
        rows = np.zeros((len(users), self.num_items))
        profiles = [self._user_items.get(int(user)) for user in users]
        sizes = np.fromiter((len(p) if p else 0 for p in profiles),
                            dtype=np.int64, count=len(profiles))
        total = int(sizes.sum())
        if total:
            columns = np.fromiter(
                (item for p in profiles if p for item in p),
                dtype=np.int64, count=total)
            rows[np.repeat(np.arange(len(users)), sizes), columns] = 1.0
        return rows

    def _train(self, user_ids: np.ndarray, epochs: int) -> None:
        user_ids = np.asarray(
            [u for u in user_ids if self._user_items.get(int(u))],
            dtype=np.int64)
        if len(user_ids) == 0:
            return
        for _ in range(epochs):
            order = self.rng.permutation(user_ids)
            for start in range(0, len(order), self.batch_size):
                batch = order[start:start + self.batch_size]
                x = self._rows(batch)
                weights = np.where(x > 0, 1.0, self.negative_weight)
                self.optimizer.zero_grad()
                recon = self.net(Tensor(x))
                loss = F.mse_loss(recon, x, weight=weights)
                loss.backward()
                self.optimizer.step()

    # ------------------------------------------------------------------
    @mutates("rng", "net", "optimizer", "_user_items")
    def fit(self, log: InteractionLog) -> None:
        self.rng = np.random.default_rng(self.seed)
        self._build()
        self._user_items = self._profiles_from(log)
        self._train(np.fromiter(self._user_items, dtype=np.int64),
                    self.epochs)

    @mutates("rng", "net", "optimizer", "_user_items")
    def poison_update(self, log: InteractionLog,
                      poison: InteractionLog) -> None:
        self._user_items = self._profiles_from(log)
        poison_rows = np.asarray(poison.users, dtype=np.int64)
        replay_pool = np.asarray(
            [u for u in self._user_items if u not in poison],
            dtype=np.int64)
        replay = self.rng.choice(
            replay_pool,
            size=min(len(replay_pool), 4 * max(len(poison_rows), 16)),
            replace=False) if len(replay_pool) else replay_pool
        self._train(np.concatenate([poison_rows, replay]),
                    self.update_epochs)

    # ------------------------------------------------------------------
    def _reconstruct(self, users: np.ndarray) -> np.ndarray:
        """Decoder output rows for ``users`` (score source).

        Single-user batches are GEMM-padded so every block size produces
        bit-identical rows (see :func:`~repro.recsys.base.gemm_pad`).
        """
        padded, n = gemm_pad(np.asarray(users))
        return self.net(Tensor(self._rows(padded))).numpy()[:n]

    @pure
    @shape_spec("(B,), (B, C) -> (B, C)")
    def score_batch(self, users: np.ndarray,
                    candidates: np.ndarray) -> np.ndarray:
        """Encode per user chunk, decode only the candidate columns.

        The full decoder GEMM would reconstruct all ``num_items``
        columns to use ``C`` of them; instead each chunk runs the
        encoder once and decodes candidate columns with cache-resident
        (B, hidden) einsum reductions — halving the flops and never
        materializing a ``(B, num_items)`` reconstruction.  Encoder
        rows are GEMM-padded (`gemm_pad`) and every reduction order is
        fixed per element, so any block size produces bit-identical
        scores.
        """
        users = np.asarray(users, dtype=np.int64)
        candidates = np.asarray(candidates, dtype=np.int64)
        decoder_columns = self.net.decoder.weight.data.T
        decoder_bias = self.net.decoder.bias.data
        scores = np.empty(candidates.shape)
        for block in batch_slices(len(users), _SCORE_CHUNK_USERS):
            padded, n = gemm_pad(users[block])
            hidden = self.net.encoder(Tensor(self._rows(padded))).numpy()[:n]
            block_cands = candidates[block]
            out = scores[block]
            for col in range(block_cands.shape[1]):
                ids = block_cands[:, col]
                out[:, col] = (np.einsum("nh,nh->n", hidden,
                                         decoder_columns[ids])
                               + decoder_bias[ids])
        return scores

    def _state(self) -> Any:
        return {"params": [p.data for p in self.net.parameters()],
                "profiles": self._user_items}

    @sanctioned_channel
    def _set_state(self, state: Any) -> None:
        for param, data in zip(self.net.parameters(), state["params"]):
            param.assign_(data, copy=False)
        self._user_items = state["profiles"]
        self.optimizer = Adam(list(self.net.parameters()), lr=self.lr)
