"""Supervision: failure isolation, restart backoff, and drain control.

The scheduler treats every campaign slice as a supervised unit of work.
When a slice fails, :class:`CampaignSupervisor` classifies the failure:

* *restartable* — transient environment trouble that escaped the inner
  retry loop (a :class:`~repro.runtime.errors.TransientEnvironmentError`
  without a retry policy, an escaped
  :class:`~repro.runtime.errors.RetriesExhaustedError`): the campaign
  restarts from its last crash-safe checkpoint after an exponential
  backoff, up to ``spec.max_restarts`` times;
* *fatal* — the campaign's own failure budget is exhausted (one
  budget over the campaign's lifetime: the agent seeds it with the
  quarantines in its checkpointed history, so it spans slices,
  restarts and resumes), training diverged beyond the rollback
  allowance, its checkpoint is corrupt, or an unclassified exception
  surfaced: the campaign is quarantined to ``FAILED``.

Either way the failure is *isolated*: sibling campaigns never see it,
the shared worker fleet keeps serving them, and the scheduler only
stops when every campaign reached a terminal state (or a drain was
requested).

:class:`DrainController` implements graceful shutdown: SIGTERM/SIGINT
set a flag the scheduler polls after every completed training step, so
in-flight queries finish, every campaign checkpoints, the journal
records the drain, and the process exits 0.  A drained fleet resumes
bit-identically with ``CampaignScheduler.resume``.
"""

from __future__ import annotations

import signal
from dataclasses import dataclass
from typing import Dict, Optional

from ..effects import pure
from ..runtime.errors import (CampaignDivergenceError, CorruptCheckpointError,
                              FailureBudgetExhausted, FatalEnvironmentError,
                              RetriesExhaustedError,
                              TransientEnvironmentError)


@dataclass(frozen=True)
class RestartPolicy:
    """Exponential backoff between supervised campaign restarts."""

    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 30.0

    def __post_init__(self) -> None:
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    @pure
    def delay(self, restart: int) -> float:
        """Backoff before restart number ``restart`` (1-based)."""
        if restart < 1:
            raise ValueError("restart is 1-based")
        return min(self.base_delay * self.multiplier ** (restart - 1),
                   self.max_delay)


#: Failure kinds worth a supervised restart from the last checkpoint.
RESTARTABLE_ERRORS = (TransientEnvironmentError, RetriesExhaustedError)

#: Failure kinds that quarantine the campaign immediately.
FATAL_ERRORS = (FailureBudgetExhausted, CampaignDivergenceError,
                CorruptCheckpointError)

#: Errors that mean the *host process* is unhealthy rather than one
#: campaign: isolation must not swallow these as a campaign failure —
#: the scheduler re-raises them and the whole fleet stops loudly.
HOST_ERRORS = (MemoryError, SystemError, RecursionError)


class CampaignSupervisor:
    """Classifies slice failures into restarts and quarantines."""

    def __init__(self, restart: Optional[RestartPolicy] = None) -> None:
        self.restart = restart if restart is not None else RestartPolicy()

    @pure
    def classify(self, record, error: Exception) -> str:
        """``"restart"`` or ``"fail"`` for one slice failure.

        Restartable errors only earn a restart while the spec's
        allowance lasts; everything fatal or unclassified quarantines
        the campaign (failing *loudly* per campaign beats poisoning the
        fleet with an unknown state).
        """
        if isinstance(error, FATAL_ERRORS):
            return "fail"
        if isinstance(error, RESTARTABLE_ERRORS):
            if record.restarts >= record.spec.max_restarts:
                return "fail"
            return "restart"
        if isinstance(error, FatalEnvironmentError):
            return "fail"
        return "fail"


class DrainRequested(Exception):
    """Raised between training steps to unwind a slice for a drain."""


class DrainController:
    """Cooperative SIGTERM/SIGINT drain flag for the scheduler."""

    def __init__(self) -> None:
        self._requested = False
        self.reason: Optional[str] = None
        self._previous: Dict[int, object] = {}

    @property
    def requested(self) -> bool:
        """Whether a drain has been requested."""
        return self._requested

    def request(self, reason: str = "drain") -> None:
        """Ask the scheduler to drain at the next step boundary."""
        self._requested = True
        if self.reason is None:
            self.reason = reason

    def install(self, signals=(signal.SIGTERM, signal.SIGINT)) -> None:
        """Route the given signals into :meth:`request`.

        Only callable from the main thread (a CPython restriction on
        ``signal.signal``); the scheduler's tests call :meth:`request`
        directly instead.
        """
        for signum in signals:
            def _handler(received, frame, _controller=self):
                _controller.request(signal.Signals(received).name.lower())
            self._previous[signum] = signal.signal(signum, _handler)

    def uninstall(self) -> None:
        """Restore the signal handlers :meth:`install` replaced."""
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()
