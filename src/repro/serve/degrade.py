"""Tiered graceful degradation of the shared worker fleet.

The fleet serves campaigns in one of three tiers:

``pooled``
    The full :class:`~repro.perf.pool.QueryPool` worker fleet.
``reduced``
    The pool was rebuilt with half the workers after it broke or
    suffered a crash storm; reduction repeats (4 → 2) while at least
    ``min_workers`` remain.
``serial``
    A one-worker pool that forks nothing — every campaign's queries run
    in-process through the same executor the pool's fallbacks use.  The
    fleet is slower but still *correct* (the pool's bit-exact
    equivalence guarantee means results are identical in every tier).

:class:`DegradationController` owns the tier state machine.  The
scheduler calls :meth:`assess` after every slice with the live pool;
a downgrade decision tells the scheduler to rebuild the pool at the new
worker count before the next slice.  Degradation is one-way by design:
a fleet that has already proven itself unstable is not promoted back
mid-run — predictable behavior under faults beats opportunistic speed.
"""

from __future__ import annotations

from typing import Optional

from ..effects import mutates, pure

#: Tier names, healthiest first.
TIERS = ("pooled", "reduced", "serial")


class DegradationController:
    """One-way pooled → reduced → serial tier state machine.

    Parameters
    ----------
    workers:
        Fleet size at the ``pooled`` tier.  ``workers <= 1`` starts (and
        stays) at the ``serial`` tier.
    min_workers:
        Smallest pool worth forking; a reduction that would go below
        this drops straight to ``serial``.
    crash_storm:
        Worker deaths observed within a single assessment interval that
        count as a storm (the pool is unhealthy even though it keeps
        healing individual crashes).
    """

    def __init__(self, workers: int, min_workers: int = 2,
                 crash_storm: int = 8) -> None:
        if min_workers < 2:
            raise ValueError("min_workers must be at least 2")
        if crash_storm < 1:
            raise ValueError("crash_storm must be at least 1")
        self.min_workers = min_workers
        self.crash_storm = crash_storm
        self.workers = max(workers, 1)
        self.tier = "pooled" if self.workers > 1 else "serial"
        self._seen_crashes = 0

    @property
    @pure
    def serial(self) -> bool:
        """Whether the fleet is at the in-process tier."""
        return self.tier == "serial"

    @mutates("workers", "tier", "reason", "_seen_crashes")
    def assess(self, pool) -> Optional[str]:
        """Inspect the live pool; returns the new tier on a downgrade.

        ``None`` means the current tier stands.  After a downgrade the
        caller must rebuild the pool at :attr:`workers` workers (one at
        the ``serial`` tier) before the next slice.  ``pool.crashes`` is
        the run's cumulative ``pool.crashes`` counter, which every pool
        generation shares, so the watermark carries across rebuilds.
        """
        if self.serial:
            return None
        fresh_crashes = pool.crashes - self._seen_crashes
        self._seen_crashes = pool.crashes
        if pool.broken:
            return self._downgrade("pool cannot spawn workers")
        if fresh_crashes >= self.crash_storm:
            return self._downgrade(
                f"{fresh_crashes} worker deaths in one interval")
        return None

    def _downgrade(self, reason: str) -> str:
        next_workers = self.workers // 2
        if next_workers >= self.min_workers:
            self.workers = next_workers
            self.tier = "reduced"
        else:
            self.workers = 1
            self.tier = "serial"
        self.reason = reason
        return self.tier

    def __repr__(self) -> str:
        return (f"DegradationController(tier={self.tier}, "
                f"workers={self.workers})")
