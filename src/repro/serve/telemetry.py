"""Live fleet telemetry: per-campaign StepStats and query phase totals.

:class:`FleetTelemetry` is the scheduler's observer: every completed
training step streams its :class:`~repro.core.agent.StepStats` here
(tagged with the campaign name), fleet events (restarts, tier changes,
drains) become narrator lines, and :meth:`FleetTelemetry.phase_totals`
rolls the run's query phase spans up into one fleet-wide breakdown.
Pooled workers ship their spans back to the parent's tracer, so the
totals cover the pooled, reduced and serial tiers alike.

Output is written to an injectable stream (``None`` silences it, which
is what the tests use); the scheduler never formats anything itself.
Every counter lands in the labeled metrics registry of the attached
:class:`~repro.obs.run.RunTelemetry` (a memory-only one when none is
given); with a run log, fleet events land in its crash-safe log too, so
``repro metrics`` can render the dashboard of a live or dead fleet.  A
fleet resumed from a scheduler journal is *hydrated*
(:meth:`FleetTelemetry.hydrate`) with the counters the prior process
journaled, so the summary table never zeroes out history it did not
stream itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TextIO

from ..effects import pure
from ..experiments.tables import format_table
from ..obs.metrics import MetricsRegistry
from ..obs.run import RunTelemetry
from ..recsys.system import QUERY_PHASES


@dataclass
class CampaignTelemetry:
    """Accumulated per-campaign stream state."""

    name: str
    steps: int = 0
    retries: int = 0
    quarantined: int = 0
    best_reward: float = float("-inf")
    last_mean: float = float("nan")
    last_max: float = float("nan")
    restarts: int = 0


class FleetTelemetry:
    """Streams fleet progress and aggregates per-campaign counters.

    Parameters
    ----------
    stream:
        Text stream for narrator lines (``None`` silences them).
    obs:
        Optional :class:`~repro.obs.run.RunTelemetry`: counters are
        mirrored into its metrics registry, fleet events into its run
        log, and its tracer's spans feed :meth:`phase_totals`.  ``None``
        creates a memory-only instance.
    """

    def __init__(self, stream: Optional[TextIO] = None,
                 obs=None) -> None:
        self.stream = stream
        self.obs = obs if obs is not None else RunTelemetry()
        #: The labeled metrics registry backing the counters.
        self.metrics: MetricsRegistry = self.obs.metrics
        self.campaigns: Dict[str, CampaignTelemetry] = {}
        self.events: List[str] = []

    def _campaign(self, name: str) -> CampaignTelemetry:
        if name not in self.campaigns:
            self.campaigns[name] = CampaignTelemetry(name)
        return self.campaigns[name]

    def _emit(self, line: str) -> None:
        if self.stream is not None:
            print(line, file=self.stream)

    def observe(self, name: str, stats) -> None:
        """Stream one completed training step of one campaign."""
        entry = self._campaign(name)
        entry.steps += 1
        entry.retries += stats.retries
        entry.quarantined += stats.quarantined
        entry.last_mean = stats.mean_reward
        entry.last_max = stats.max_reward
        if stats.max_reward > entry.best_reward:
            entry.best_reward = stats.max_reward
        self.metrics.counter("fleet.steps", campaign=name).inc()
        if stats.retries:
            self.metrics.counter("fleet.retries",
                                 campaign=name).inc(stats.retries)
        if stats.quarantined:
            self.metrics.counter("fleet.quarantined",
                                 campaign=name).inc(stats.quarantined)
        if entry.best_reward > float("-inf"):
            self.metrics.gauge("fleet.best_reward",
                               campaign=name).set(entry.best_reward)
        self._emit(f"[{name}] step {stats.step:3d}: "
                   f"mean={stats.mean_reward:8.1f} "
                   f"max={stats.max_reward:6.0f} "
                   f"retries={stats.retries} "
                   f"quarantined={stats.quarantined}")

    def event(self, message: str) -> None:
        """Record one fleet-level event (restart, tier change, drain)."""
        self.events.append(message)
        self.obs.event(message)
        self._emit(f"== {message}")

    def note_restart(self, name: str) -> None:
        """Count one supervised restart of ``name``."""
        self._campaign(name).restarts += 1
        self.metrics.counter("fleet.restarts", campaign=name).inc()

    def hydrate(self, name: str, steps: int = 0,
                best: Optional[float] = None, retries: int = 0,
                quarantined: int = 0, restarts: int = 0) -> None:
        """Seed a campaign's counters from a journal replay.

        A resumed fleet streamed none of its prior process's steps
        through this instance; hydration restores the journaled
        cumulative counters so :meth:`render_table` shows real history
        instead of ``best=-`` and zeroes.  Values only ever grow — live
        observations layered on top keep the totals cumulative.
        """
        entry = self._campaign(name)
        entry.steps = max(entry.steps, steps)
        if best is not None and best > entry.best_reward:
            entry.best_reward = best
            self.metrics.gauge("fleet.best_reward",
                               campaign=name).set(best)
        entry.retries = max(entry.retries, retries)
        entry.quarantined = max(entry.quarantined, quarantined)
        entry.restarts = max(entry.restarts, restarts)

    @pure
    def phase_totals(self) -> Dict[str, float]:
        """Fleet-wide seconds per query phase, summed over the run's spans.

        A rollup, not a running sum: reading it twice, or after a
        further :meth:`~repro.serve.scheduler.CampaignScheduler.run`
        with no work left, counts every phase span exactly once.
        """
        totals: Dict[str, float] = {}
        for span in self.obs.tracer.spans:
            if span.name in QUERY_PHASES:
                totals[span.name] = totals.get(span.name, 0.0) + span.seconds
        return totals

    def render_table(self, records=None) -> str:
        """The fleet summary table (optionally with lifecycle status).

        With ``records``, every submitted campaign gets a row — including
        ones that finished in a *previous* process (a resumed fleet) and
        therefore streamed no steps through this telemetry instance.
        """
        names = list(records) if records is not None else list(self.campaigns)
        rows = []
        for name in names:
            entry = self.campaigns.get(name)
            record = records[name] if records is not None else None
            steps = record.steps_done if record is not None else entry.steps
            if (record is not None and record.agent is None
                    and record.status.value == "completed"
                    and record.total_steps is not None):
                steps = record.total_steps  # finished in a prior process
            if entry is not None and entry.steps > steps:
                steps = entry.steps  # hydrated from the journal
            rows.append([
                name,
                record.status.value if record is not None else "?",
                steps,
                f"{entry.best_reward:.0f}"
                if entry is not None and entry.best_reward > float("-inf")
                else "-",
                entry.retries if entry is not None else 0,
                entry.quarantined if entry is not None else 0,
                entry.restarts if entry is not None else 0,
            ])
        return format_table(
            ["campaign", "status", "steps", "best", "retries",
             "quarantined", "restarts"], rows)
