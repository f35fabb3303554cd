"""Retry with exponential backoff + jitter, and the campaign failure budget.

The black-box targets PoisonRec attacks are exactly the systems that fail
transiently (rate limits, flaky endpoints, retraining hiccups), so every
environment query in the resilient campaign loop runs through
:func:`call_with_retry`.  Backoff delays grow geometrically and are
jittered so a fleet of campaigns does not synchronize its retries; the
``sleep`` callable is injectable so tests (and simulated environments)
never actually block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .errors import (FailureBudgetExhausted, RetriesExhaustedError,
                     TransientEnvironmentError)


@dataclass
class RetryPolicy:
    """Exponential-backoff schedule for transient environment failures.

    ``max_attempts`` bounds the *total* number of tries (first attempt
    included); delays grow as ``base_delay * multiplier**(attempt-1)``,
    capped at ``max_delay`` and spread by ``jitter`` (a symmetric
    fraction, so ``jitter=0.5`` means +/-50%).
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff(self, attempt: int,
                rng: Optional[np.random.Generator] = None) -> float:
        """Delay in seconds before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = min(self.base_delay * self.multiplier ** (attempt - 1),
                    self.max_delay)
        if rng is not None and self.jitter > 0.0:
            delay *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return max(delay, 0.0)


@dataclass
class RetryOutcome:
    """Result of a retried call: the value plus how many retries it cost."""

    value: Any
    retries: int


def call_with_retry(fn: Callable[[], Any],
                    policy: Optional[RetryPolicy] = None,
                    rng: Optional[np.random.Generator] = None,
                    sleep: Optional[Callable[[float], None]] = None,
                    on_retry: Optional[Callable[[int, Exception, float],
                                                None]] = None) -> RetryOutcome:
    """Invoke ``fn`` under ``policy``, retrying transient failures.

    Only :class:`TransientEnvironmentError` (and subclasses) triggers a
    retry; anything else — including :class:`FatalEnvironmentError` —
    propagates immediately.  When the attempt budget is spent the last
    transient error is wrapped in :class:`RetriesExhaustedError` (with
    the original as ``__cause__``).  ``on_retry(attempt, error, delay)``
    is called before each backoff sleep.
    """
    policy = policy if policy is not None else RetryPolicy()
    sleep = time.sleep if sleep is None else sleep
    failures = 0
    while True:
        try:
            return RetryOutcome(value=fn(), retries=failures)
        except TransientEnvironmentError as error:
            failures += 1
            if failures >= policy.max_attempts:
                raise RetriesExhaustedError(
                    f"gave up after {failures} attempt(s): {error}",
                    attempts=failures) from error
            delay = policy.backoff(failures, rng)
            if on_retry is not None:
                on_retry(failures, error, delay)
            if delay > 0.0:
                sleep(delay)


class FailureBudget:
    """Caps how many samples a campaign may permanently lose.

    Each quarantined sample (a query whose retries were all exhausted)
    spends one unit; exceeding ``limit`` raises
    :class:`FailureBudgetExhausted`, turning a silently degrading
    campaign into a loud, typed stop.  ``consumed`` carries units
    already spent, e.g. by a campaign's earlier runs.
    """

    def __init__(self, limit: int, consumed: int = 0) -> None:
        if limit < 0:
            raise ValueError("failure budget must be non-negative")
        self.limit = limit
        self.consumed = consumed

    @property
    def remaining(self) -> int:
        """Units left before the budget is exhausted."""
        return max(self.limit - self.consumed, 0)

    def spend(self, cost: int = 1, reason: str = "") -> None:
        """Consume ``cost`` units; raise once the limit is exceeded."""
        self.consumed += cost
        if self.consumed > self.limit:
            suffix = f" (last failure: {reason})" if reason else ""
            raise FailureBudgetExhausted(
                f"campaign failure budget of {self.limit} quarantined "
                f"sample(s) exhausted{suffix}")

    def __repr__(self) -> str:
        return (f"FailureBudget(limit={self.limit}, "
                f"consumed={self.consumed})")
