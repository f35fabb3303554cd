"""Campaign-level resilience configuration and per-run bookkeeping.

:class:`ResilienceConfig` is the single object a caller hands to
:meth:`repro.core.agent.PoisonRec.train` to turn the plain training loop
into a fault-tolerant campaign: retry/backoff around every environment
query, periodic crash-safe checkpoints, a divergence watchdog with
rollback + learning-rate backoff, and a hard failure budget.

:class:`CampaignState` is the mutable state one ``train()`` call derives
from that config — deliberately *not* checkpointed, so a rollback cannot
erase the very counters (rollbacks performed, lr decays pending) that
prevent rollback loops.  Its failure budget starts from the quarantines
already in the campaign's history, which *is* checkpointed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .checkpoint import PathLike, as_npz_path
from .retry import FailureBudget, RetryPolicy
from .watchdog import DivergenceWatchdog, WatchdogConfig


@dataclass
class ResilienceConfig:
    """Every knob of the resilient campaign loop.

    ``checkpoint_path=None`` disables checkpointing (the watchdog then
    degrades to lr-backoff without state rollback); ``watchdog=None``
    disables divergence detection; ``anomaly_mode`` additionally runs
    each PPO update under :func:`repro.nn.anomaly.detect_anomaly`, so
    the *first* corrupted op triggers the rollback rather than a fully
    poisoned update.  ``sleep`` is injectable so tests never block.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    failure_budget: int = 64
    checkpoint_path: Optional[PathLike] = None
    checkpoint_every: int = 10
    watchdog: Optional[WatchdogConfig] = field(default_factory=WatchdogConfig)
    anomaly_mode: bool = False
    lr_backoff: float = 0.5
    min_lr: float = 1e-5
    max_rollbacks: int = 3
    jitter_seed: int = 0
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        if not 0.0 < self.lr_backoff <= 1.0:
            raise ValueError("lr_backoff must be in (0, 1]")
        if self.min_lr <= 0.0:
            raise ValueError("min_lr must be positive")
        if self.max_rollbacks < 0:
            raise ValueError("max_rollbacks must be non-negative")
        if self.failure_budget < 0:
            raise ValueError("failure_budget must be non-negative")


class CampaignState:
    """Mutable per-``train()`` resilience bookkeeping.

    Lives outside the checkpointed agent state on purpose: restoring a
    checkpoint must not reset the rollback counter or the pending
    learning-rate decays, or a diverging campaign would loop forever.

    ``quarantined`` seeds the failure budget with the samples the
    campaign already lost (the quarantines in its restored history), so
    one budget spans every ``train()`` call, restart and resume.
    """

    def __init__(self, config: ResilienceConfig,
                 quarantined: int = 0) -> None:
        self.config = config
        self.checkpoint_path = (as_npz_path(config.checkpoint_path)
                                if config.checkpoint_path is not None
                                else None)
        self.budget = FailureBudget(config.failure_budget,
                                    consumed=quarantined)
        self.watchdog = (DivergenceWatchdog(config.watchdog)
                         if config.watchdog is not None else None)
        #: Jitter/backoff randomness, deliberately separate from the
        #: agent's sampling rngs so resilience never perturbs training.
        self.rng = np.random.default_rng(config.jitter_seed)
        self.rollbacks = 0
        self.decays_since_checkpoint = 0

    def checkpoint_due(self, step: int) -> bool:
        """Whether a checkpoint should be written after ``step`` steps."""
        return (self.checkpoint_path is not None
                and step % self.config.checkpoint_every == 0)

    def mark_checkpointed(self) -> None:
        """Record a successful write: pending lr decays start over."""
        self.decays_since_checkpoint = 0

    def can_rollback(self) -> bool:
        """Whether a rollback target exists on disk."""
        return (self.checkpoint_path is not None
                and self.checkpoint_path.exists())
