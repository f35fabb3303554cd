"""GRU4Rec: session-based recommendation with RNNs (Hidasi et al., 2015).

A GRU runs over the user's recent click sequence; the final hidden state
scores items by dot product with (tied) item embeddings, trained with a
softmax next-item loss.  This ranker is *order-sensitive* — the paper
highlights it as a system where the click order of the attack trajectory
matters.
"""

from __future__ import annotations

from typing import Any, List

import numpy as np

from ..data.interactions import InteractionLog
from ..data.sparse import as_sparse
from ..effects import mutates, pure, sanctioned_channel
from ..nn import Adam, Embedding, GRUCell, Module, Tensor, shape_spec
from ..nn import functional as F
from .base import Ranker, batch_slices, gemm_pad

#: Users per chunk in the batched scorer: bounds the (B, C, dim)
#: candidate-embedding gather to ~50 MB at the paper's candidate sizes.
_SCORE_CHUNK_USERS = 4096


class _GRU4RecNet(Module):
    def __init__(self, num_items: int, dim: int,
                 rng: np.random.Generator) -> None:
        # One extra embedding row serves as the left-padding token.
        self.embedding = Embedding(num_items + 1, dim, rng)
        self.cell = GRUCell(dim, dim, rng)
        self.pad_id = num_items

    @shape_spec("(B, W) -> (B, cell.hidden_dim)")
    def encode(self, windows: np.ndarray) -> Tensor:
        """Hidden state after running the GRU over ``(batch, W)`` windows."""
        batch, width = windows.shape
        h = self.cell.initial_state(batch)
        for t in range(width):
            x = self.embedding(windows[:, t])
            h = self.cell(x, h)
        return h

    @shape_spec("(B, cell.hidden_dim) -> (B, N)")
    def all_item_logits(self, hidden: Tensor) -> Tensor:
        # Exclude the padding row from the softmax.
        item_table = self.embedding.weight[
            np.arange(self.embedding.num_embeddings - 1)]
        return hidden @ item_table.T


class GRU4Rec(Ranker):
    """Sequence-aware GRU ranker."""

    name = "gru4rec"

    def __init__(self, num_users: int, num_items: int, seed: int = 0,
                 dim: int = 16, window: int = 5, lr: float = 0.01,
                 epochs: int = 5, update_epochs: int = 8,
                 update_lr: float = 0.02, batch_size: int = 256) -> None:
        super().__init__(num_users, num_items, seed)
        self.dim = dim
        self.window = window
        self.lr = lr
        self.epochs = epochs
        self.update_epochs = update_epochs
        self.update_lr = update_lr
        self.batch_size = batch_size
        self._build()
        self._histories: dict[int, List[int]] = {}

    def _build(self) -> None:
        self.net = _GRU4RecNet(self.num_items, self.dim, self.rng)
        self.optimizer = Adam(list(self.net.parameters()), lr=self.lr)

    # ------------------------------------------------------------------
    def _window_for(self, sequence: List[int]) -> np.ndarray:
        """Left-padded fixed-width window over the end of ``sequence``."""
        tail = sequence[-self.window:]
        padding = [self.net.pad_id] * (self.window - len(tail))
        return np.asarray(padding + tail, dtype=np.int64)

    def _training_examples(self, log: InteractionLog) -> tuple:
        """(windows, targets): every prefix of each sequence predicts the
        next click, using a fixed-width left-padded window.

        Built in one vectorized pass over the log's CSR view — for each
        non-first click, the window gathers the ``window`` preceding
        positions and left-pads entries that fall before the user's row
        start.  Example order matches the old per-sequence loop
        (ascending user, then click position), so training is
        bit-identical to the row-object implementation.
        """
        view = as_sparse(log)
        item_ids = view.item_ids
        if item_ids.size == 0:
            return (np.empty((0, self.window), np.int64),
                    np.empty(0, np.int64))
        starts = np.repeat(view.user_ptr[:-1], view.lengths)
        position = np.arange(item_ids.size)
        predictable = position > starts
        target_pos = position[predictable]
        if target_pos.size == 0:
            return (np.empty((0, self.window), np.int64),
                    np.empty(0, np.int64))
        gather = target_pos[:, None] + np.arange(-self.window, 0)
        in_row = gather >= starts[predictable][:, None]
        safe = np.clip(gather, 0, item_ids.size - 1)
        windows = np.where(in_row, item_ids[safe], self.net.pad_id)
        return windows.astype(np.int64, copy=False), item_ids[target_pos]

    def _train(self, windows: np.ndarray, targets: np.ndarray,
               epochs: int) -> None:
        n = len(windows)
        if n == 0:
            return
        for _ in range(epochs):
            order = self.rng.permutation(n)
            for start in range(0, n, self.batch_size):
                idx = order[start:start + self.batch_size]
                self.optimizer.zero_grad()
                hidden = self.net.encode(windows[idx])
                logits = self.net.all_item_logits(hidden)
                log_probs = F.log_softmax(logits, axis=1)
                picked = log_probs[np.arange(len(idx)), targets[idx]]
                loss = -picked.mean()
                loss.backward()
                self.optimizer.step()

    # ------------------------------------------------------------------
    @mutates("rng", "net", "optimizer", "_histories")
    def fit(self, log: InteractionLog) -> None:
        self.rng = np.random.default_rng(self.seed)
        self._build()
        self._histories = {u: seq for u, seq in log.iter_sequences()}
        self._train(*self._training_examples(log), epochs=self.epochs)

    @mutates("rng", "net", "optimizer", "_histories")
    def poison_update(self, log: InteractionLog,
                      poison: InteractionLog) -> None:
        for user, seq in poison.iter_sequences():
            self._histories.setdefault(user, [])
            self._histories[user] = self._histories[user] + seq
        p_windows, p_targets = self._training_examples(poison)
        # Replay a sample of clean windows so poisoning competes with the
        # organic signal, as in an online incremental retrain.
        users = [u for u in self._histories
                 if u not in poison and len(self._histories[u]) >= 2]
        replay_users = self.rng.choice(
            users, size=min(len(users), 4 * max(poison.num_users, 8)),
            replace=False) if users else []
        r_windows, r_targets = [], []
        for user in replay_users:
            sequence = self._histories[user]
            t = int(self.rng.integers(1, len(sequence)))
            r_windows.append(self._window_for(sequence[:t]))
            r_targets.append(sequence[t])
        if r_windows:
            windows = np.concatenate([p_windows, np.stack(r_windows)])
            targets = np.concatenate(
                [p_targets, np.asarray(r_targets, dtype=np.int64)])
        else:
            windows, targets = p_windows, p_targets
        self.optimizer = Adam(list(self.net.parameters()), lr=self.update_lr)
        self._train(windows, targets, epochs=self.update_epochs)

    # ------------------------------------------------------------------
    @pure
    @shape_spec("(B,), (B, C) -> (B, C)")
    def score_batch(self, users: np.ndarray,
                    candidates: np.ndarray) -> np.ndarray:
        """Encode all user windows and einsum against candidate rows.

        Chunked over users so the ``(B, C, dim)`` candidate-embedding
        gather stays memory-bounded at 10⁵+ eval users; chunking is
        row-wise and therefore bit-invariant.
        """
        candidates = np.asarray(candidates)
        table = self.net.embedding.weight.numpy()
        scores = np.empty(candidates.shape)
        for block in batch_slices(len(candidates), _SCORE_CHUNK_USERS):
            windows = np.stack([
                self._window_for(self._histories.get(int(u), []))
                for u in users[block]])
            padded, n = gemm_pad(windows)
            hidden = self.net.encode(padded).numpy()[:n]
            scores[block] = np.einsum("nd,ncd->nc", hidden,
                                      table[candidates[block]])
        return scores

    def item_embeddings(self) -> np.ndarray:
        return self.net.embedding.weight.numpy()[:self.num_items].copy()

    def _state(self) -> Any:
        return {"params": [p.data for p in self.net.parameters()],
                "histories": self._histories}

    @sanctioned_channel
    def _set_state(self, state: Any) -> None:
        for param, data in zip(self.net.parameters(), state["params"]):
            param.assign_(data, copy=False)
        self._histories = state["histories"]
        self.optimizer = Adam(list(self.net.parameters()), lr=self.lr)
