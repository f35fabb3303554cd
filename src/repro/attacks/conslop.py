"""ConsLOP: constrained linear-optimization attack on CoVisitation.

Adapts Yang et al. (NDSS 2017): the attacker promotes a *single* target
item by injecting fake co-visitations ``(target, j)`` and chooses, via a
linear program, (1) which original items ``j`` to pair with and (2) how
many fake co-visitations each pair receives.

The LP maximizes the expected number of users whose recommendation lists
gain the target: pairing with item ``j`` reaches the users who have ``j``
in their history, with payoff discounted by ``j``'s existing co-visit
degree (the injected edges compete with organic ones).  The budget is
``N*T/2`` co-visitations (each consumes two clicks).

This baseline is *privileged*: like the paper's setup, it receives the
system's interaction log (who clicked what) — knowledge PoisonRec does not
use — which is why it excels on CoVisitation itself and transfers poorly
elsewhere.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..data.interactions import InteractionLog
from ..recsys.system import BlackBoxEnvironment
from .base import Attack, AttackBudget


class ConsLOP(Attack):
    """Single-target co-visitation injection via linear programming."""

    name = "conslop"

    def __init__(self, env: BlackBoxEnvironment,
                 budget: AttackBudget | None = None, seed: int = 0,
                 system_log: Optional[InteractionLog] = None,
                 target_item: Optional[int] = None) -> None:
        super().__init__(env, budget, seed)
        self.system_log = system_log
        self.target_item = (int(target_item) if target_item is not None
                            else int(self.rng.choice(env.target_items)))

    # ------------------------------------------------------------------
    def _item_statistics(self) -> tuple:
        """Per-original-item (user reach, co-visit degree).

        With the privileged log, reach is the exact number of distinct
        users having the item in their history and degree the number of
        consecutive-click edges touching it.  Without it, both fall back
        to crawled popularity.
        """
        num_original = self.env.num_original_items
        if self.system_log is None:
            popularity = self.env.item_popularity[:num_original]
            return popularity.copy(), np.maximum(popularity, 1.0)
        reach = np.zeros(num_original)
        degree = np.zeros(num_original)
        for _, sequence in self.system_log.iter_sequences():
            seen = set()
            previous = None
            for item in sequence:
                if item < num_original and item not in seen:
                    reach[item] += 1.0
                    seen.add(item)
                if previous is not None and previous != item:
                    if previous < num_original:
                        degree[previous] += 1.0
                    if item < num_original:
                        degree[item] += 1.0
                previous = item
        return reach, np.maximum(degree, 1.0)

    def solve(self) -> np.ndarray:
        """Optimal fake co-visitation counts per original item.

        LP (after linearizing the rank-gain payoff):

            maximize    sum_j (reach_j / degree_j) * x_j
            subject to  sum_j x_j <= N*T/2,   0 <= x_j <= degree_j

        The per-item cap ``degree_j`` models diminishing returns — once the
        injected edges rival the organic ones, the co-visit rate toward the
        target saturates.
        """
        # Imported here: scipy.optimize is a third of `import repro.cli`.
        from scipy.optimize import linprog

        reach, degree = self._item_statistics()
        total_budget = self.budget.total_clicks // 2
        weights = reach / degree
        result = linprog(
            c=-weights,
            A_ub=np.ones((1, len(weights))),
            b_ub=[total_budget],
            bounds=[(0.0, float(cap)) for cap in degree],
            method="highs",
        )
        if not result.success:
            raise RuntimeError(f"ConsLOP LP failed: {result.message}")
        counts = np.floor(result.x).astype(np.int64)
        # Spend any rounding slack on the best items.
        slack = total_budget - int(counts.sum())
        if slack > 0:
            order = np.argsort(-weights)
            for j in order:
                if slack == 0:
                    break
                extra = min(slack, max(int(degree[j]) - int(counts[j]), 0))
                counts[j] += extra
                slack -= extra
        return counts

    def generate(self) -> List[List[int]]:
        counts = self.solve()
        # Each co-visitation is one click on the target followed by one
        # click on the chosen original item.
        covisits: List[int] = []
        for item, count in enumerate(counts):
            covisits.extend([item] * int(count))
        self.rng.shuffle(covisits)

        trajectories: List[List[int]] = []
        cursor = 0
        per_attacker = self.budget.trajectory_length // 2
        for _ in range(self.budget.num_attackers):
            trajectory: List[int] = []
            for _ in range(per_attacker):
                if cursor < len(covisits):
                    partner = covisits[cursor]
                    cursor += 1
                else:
                    partner = int(self.rng.integers(
                        self.env.num_original_items))
                trajectory.extend([self.target_item, partner])
            # Odd trajectory lengths get one extra target click.
            while len(trajectory) < self.budget.trajectory_length:
                trajectory.append(self.target_item)
            trajectories.append(trajectory)
        return trajectories
