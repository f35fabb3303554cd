"""Candidate generation for the recommendation pipeline.

The paper's evaluation protocol (Section IV-A): for each user, the
candidate set is 92 randomly selected original items plus the 8 target
items; the ranker then picks the top-10.  Random candidate generation is
used "for evaluation efficiency" — whether the targets win among random
competitors reflects how well they were promoted.

Production systems use a real candidate-generation model (the paper's
Section III-A1), so two further generators are provided:

* :class:`PopularityCandidateGenerator` — a popularity head plus a random
  exploration tail, the simplest production heuristic;
* :class:`ModelCandidateGenerator` — per-user top-C retrieval from a
  two-tower factor model (here: PMF factors), the YouTube-style design
  the paper cites.

All generators append the full target set so RecNum stays measurable;
whether that is realistic depends on the attack's progress — a production
candidate model only surfaces targets once poisoning lifts them, which
the model generator reflects when re-fit on the poisoned log.
"""

from __future__ import annotations

import abc

import numpy as np

#: Cell budget per chunk for the vectorized samplers (keys matrices are
#: ``rows x num_items`` floats; 2^22 cells ≈ 32 MB per chunk).
_CHUNK_CELLS = 1 << 22


def _sample_without_replacement(rng: np.random.Generator, pool_size: int,
                                count: int, num_rows: int) -> np.ndarray:
    """``num_rows`` independent uniform ``count``-subsets of ``range(pool_size)``.

    Vectorized via random sort keys: the ``count`` smallest keys of an
    i.i.d. uniform row form a uniform random subset (order within the
    subset is arbitrary — callers shuffle downstream).  Chunked so the
    key matrix stays ~tens of MB regardless of ``num_rows``.
    """
    count = min(count, pool_size)
    out = np.empty((num_rows, count), dtype=np.int64)
    if count == 0:
        return out
    chunk = max(1, _CHUNK_CELLS // max(pool_size, 1))
    for start in range(0, num_rows, chunk):
        rows = min(chunk, num_rows - start)
        keys = rng.random((rows, pool_size))
        if count >= pool_size:
            out[start:start + rows] = np.arange(pool_size, dtype=np.int64)
        else:
            out[start:start + rows] = np.argpartition(
                keys, count - 1, axis=1)[:, :count]
    return out


class CandidateGenerator(abc.ABC):
    """Builds per-user candidate sets of original items plus all targets."""

    def __init__(self, num_original_items: int, target_items: np.ndarray,
                 num_original_candidates: int = 92, seed: int = 0) -> None:
        if num_original_items <= 0:
            raise ValueError("num_original_items must be positive")
        self.num_original_items = num_original_items
        self.target_items = np.asarray(target_items, dtype=np.int64)
        self.num_original_candidates = min(num_original_candidates,
                                           num_original_items)
        self.rng = np.random.default_rng(seed)

    @property
    def candidate_size(self) -> int:
        """Originals per row plus the always-included target block."""
        return self.num_original_candidates + len(self.target_items)

    @abc.abstractmethod
    def _original_candidates_batch(self, num_users: int) -> np.ndarray:
        """All rows' originals at once, shape ``(num_users, k)``."""

    def generate(self, num_users: int) -> np.ndarray:
        """Candidate matrix of shape ``(num_users, candidate_size)``.

        Each row mixes the generator's originals with the targets and is
        shuffled so candidate position carries no information (important
        for deterministic tie-breaking in top-k selection).  The whole
        matrix is built vectorized: originals come from
        :meth:`_original_candidates_batch` and the per-row shuffle is an
        argsort over i.i.d. random keys (a uniform permutation per row),
        chunked to bound peak memory.
        """
        originals = self._original_candidates_batch(num_users)
        rows = np.empty((num_users, self.candidate_size), dtype=np.int64)
        rows[:, :originals.shape[1]] = originals
        rows[:, originals.shape[1]:] = self.target_items
        chunk = max(1, _CHUNK_CELLS // max(self.candidate_size, 1))
        for start in range(0, num_users, chunk):
            block = rows[start:start + chunk]
            keys = self.rng.random(block.shape)
            order = np.argsort(keys, axis=1, kind="stable")
            rows[start:start + chunk] = np.take_along_axis(block, order,
                                                           axis=1)
        return rows


class RandomCandidateGenerator(CandidateGenerator):
    """The paper's protocol: uniform random originals per user."""

    def _original_candidates_batch(self, num_users: int) -> np.ndarray:
        return _sample_without_replacement(self.rng,
                                           self.num_original_items,
                                           self.num_original_candidates,
                                           num_users)


class PopularityCandidateGenerator(CandidateGenerator):
    """Popularity head + random exploration tail.

    ``head_fraction`` of each candidate set is the globally most popular
    items (shared across users); the remainder is sampled uniformly from
    the rest — a common non-personalized production fallback.
    """

    def __init__(self, num_original_items: int, target_items: np.ndarray,
                 popularity: np.ndarray,
                 num_original_candidates: int = 92, seed: int = 0,
                 head_fraction: float = 0.5) -> None:
        super().__init__(num_original_items, target_items,
                         num_original_candidates, seed)
        if not 0.0 <= head_fraction <= 1.0:
            raise ValueError("head_fraction must be in [0, 1]")
        popularity = np.asarray(popularity[:num_original_items], dtype=float)
        head_size = int(round(self.num_original_candidates * head_fraction))
        order = np.argsort(-popularity, kind="stable")
        self.head = order[:head_size].astype(np.int64)
        self.tail_pool = order[head_size:].astype(np.int64)

    def _original_candidates_batch(self, num_users: int) -> np.ndarray:
        tail_size = self.num_original_candidates - len(self.head)
        if tail_size <= 0 or len(self.tail_pool) == 0:
            return np.broadcast_to(
                self.head[:self.num_original_candidates],
                (num_users, min(len(self.head),
                                self.num_original_candidates))).copy()
        tail_idx = _sample_without_replacement(self.rng,
                                               len(self.tail_pool),
                                               tail_size, num_users)
        originals = np.empty(
            (num_users, len(self.head) + tail_idx.shape[1]), dtype=np.int64)
        originals[:, :len(self.head)] = self.head
        originals[:, len(self.head):] = self.tail_pool[tail_idx]
        return originals[:, :self.num_original_candidates]


class ModelCandidateGenerator(CandidateGenerator):
    """Two-tower retrieval: per-user top-C originals by factor dot product.

    ``user_factors``/``item_factors`` typically come from a PMF/BPR model
    fit on the (possibly poisoned) log — call :meth:`refresh` after the
    retrieval model retrains so candidate sets follow the poisoning, as a
    production funnel would.
    """

    def __init__(self, num_original_items: int, target_items: np.ndarray,
                 user_factors: np.ndarray, item_factors: np.ndarray,
                 user_ids: np.ndarray,
                 num_original_candidates: int = 92, seed: int = 0,
                 exploration_fraction: float = 0.2) -> None:
        super().__init__(num_original_items, target_items,
                         num_original_candidates, seed)
        if not 0.0 <= exploration_fraction <= 1.0:
            raise ValueError("exploration_fraction must be in [0, 1]")
        self.user_ids = np.asarray(user_ids, dtype=np.int64)
        self.exploration_fraction = exploration_fraction
        self.refresh(user_factors, item_factors)

    def refresh(self, user_factors: np.ndarray,
                item_factors: np.ndarray) -> None:
        """Recompute retrieval scores from updated tower factors."""
        self._scores = (user_factors[self.user_ids]
                        @ item_factors[:self.num_original_items].T)

    def _original_candidates_batch(self, num_users: int) -> np.ndarray:
        count = self.num_original_candidates
        explore = int(round(count * self.exploration_fraction))
        retrieve = count - explore
        explore = min(explore, self.num_original_items - retrieve)
        heads = np.argsort(-self._scores[:num_users], axis=1,
                           kind="stable")[:, :retrieve].astype(np.int64)
        if explore <= 0:
            return heads[:, :count]
        originals = np.empty((num_users, retrieve + explore), dtype=np.int64)
        originals[:, :retrieve] = heads
        chunk = max(1, _CHUNK_CELLS // max(self.num_original_items, 1))
        for start in range(0, num_users, chunk):
            rows = min(chunk, num_users - start)
            # Uniform `explore`-subsets of the non-head pool: random keys
            # with head positions masked out, then a partial sort.
            keys = self.rng.random((rows, self.num_original_items))
            np.put_along_axis(keys, heads[start:start + rows], np.inf,
                              axis=1)
            originals[start:start + rows, retrieve:] = np.argpartition(
                keys, explore - 1, axis=1)[:, :explore]
        return originals[:, :count]
