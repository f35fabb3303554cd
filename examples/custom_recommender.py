"""Attack your own recommender: plug a custom ranker into the framework.

PoisonRec is model-free: anything implementing the :class:`Ranker`
interface can sit behind the black-box facade.  This example defines a
session-less "recency" recommender (scores items by how recently anyone
clicked them), wires it into a :class:`RecommenderSystem`, and lets
PoisonRec learn to attack it.

Run:
    python examples/custom_recommender.py
"""

from __future__ import annotations

import numpy as np

from repro import (BlackBoxEnvironment, PoisonRec, PoisonRecConfig,
                   RecommenderSystem, load_dataset)
from repro.data import InteractionLog
from repro.recsys import Ranker


class RecencyRanker(Ranker):
    """Scores items by the recency of their latest click.

    A deliberately simple non-personalized model: the most recently
    clicked items rank highest.  Because poison data lands at the end of
    the log, this system is highly attackable — PoisonRec should discover
    that quickly.
    """

    name = "recency"

    def __init__(self, num_users: int, num_items: int, seed: int = 0,
                 half_life: float = 200.0) -> None:
        super().__init__(num_users, num_items, seed)
        self.half_life = half_life
        self.last_click = np.full(num_items, -np.inf)
        self._clock = 0

    def _consume(self, log: InteractionLog) -> None:
        for _, sequence in log.iter_sequences():
            for item in sequence:
                self._clock += 1
                self.last_click[item] = self._clock

    def fit(self, log: InteractionLog) -> None:
        self.last_click = np.full(self.num_items, -np.inf)
        self._clock = 0
        self._consume(log)

    def poison_update(self, log: InteractionLog,
                      poison: InteractionLog) -> None:
        self._consume(poison)

    def score_batch(self, users: np.ndarray,
                    candidates: np.ndarray) -> np.ndarray:
        age = self._clock - self.last_click[candidates]
        return np.exp(-age / self.half_life)

    def _state(self):
        return (self.last_click.copy(), self._clock)

    def _set_state(self, state) -> None:
        self.last_click, self._clock = state[0].copy(), state[1]


def main() -> None:
    dataset = load_dataset("steam", scale="ci", seed=0)
    ranker = RecencyRanker(
        num_users=max(dataset.train.users) + 1 + 20,
        num_items=dataset.num_items + 8)
    system = RecommenderSystem(dataset, ranker, seed=0)
    env = BlackBoxEnvironment(system)
    print(f"Custom system: {system}")
    print(f"Clean RecNum: {env.clean_recnum()}")

    agent = PoisonRec(env, PoisonRecConfig.ci(num_attackers=20,
                                              trajectory_length=20, seed=0))
    print("\nstep  mean_RecNum")
    agent.train(steps=8, callback=lambda s: print(
        f"{s.step:4d}  {s.mean_reward:11.1f}"))
    print(f"\nBest observed RecNum: {agent.result.best_reward:.0f} "
          f"(recency rankers are easy prey — poison is always freshest)")


if __name__ == "__main__":
    main()
