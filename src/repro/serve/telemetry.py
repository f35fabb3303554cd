"""Live fleet telemetry: step narration, fleet metrics, the summary table.

:class:`FleetTelemetry` is the scheduler's observer: every completed
training step streams its :class:`~repro.core.agent.StepStats` here
(tagged with the campaign name), fleet events (restarts, tier changes,
drains) become narrator lines, and :meth:`FleetTelemetry.phase_totals`
rolls the run's query phase spans up into one fleet-wide breakdown.
Pooled workers ship their spans back to the parent's tracer, so the
totals cover the pooled, reduced and serial tiers alike.

Output is written to an injectable stream (``None`` silences it, which
is what the tests use); the scheduler never formats anything itself.
Run-level counts live only in the labeled metrics registry of the
attached :class:`~repro.obs.run.RunTelemetry` (a memory-only one when
none is given); with a run log, fleet events land in its crash-safe log
too, so ``repro metrics`` can render the dashboard of a live or dead
fleet.  A campaign's cumulative totals are not counted here at all:
:meth:`FleetTelemetry.render_table` reads them from the campaign's
checkpointed history, or from its journal ledger entry when a prior
process finished it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TextIO

from ..effects import pure
from ..experiments.tables import format_table
from ..obs.metrics import MetricsRegistry
from ..obs.run import RunTelemetry
from ..recsys.system import QUERY_PHASES


def _summary(record):
    """``(steps, best, retries, quarantined)`` of one campaign record.

    A built campaign answers from its agent, whose history is restored
    from the checkpoint across restarts and resumes.  A campaign with
    no agent (finished in a prior process) answers from the journal
    ledger entry its resume replayed.
    """
    if record.agent is not None:
        result = record.agent.result
        return (record.agent.step, result.best_reward,
                sum(stats.retries for stats in result.history),
                sum(stats.quarantined for stats in result.history))
    entry = record.ledger
    if entry is None:
        return 0, float("-inf"), 0, 0
    best = (entry.best_reward if entry.best_reward is not None
            else float("-inf"))
    return entry.steps_done, best, entry.retries, entry.quarantined


class FleetTelemetry:
    """Streams fleet progress into a stream and a metrics registry.

    Parameters
    ----------
    stream:
        Text stream for narrator lines (``None`` silences them).
    obs:
        Optional :class:`~repro.obs.run.RunTelemetry`: fleet counters go
        into its metrics registry, fleet events into its run log, and
        its tracer's spans feed :meth:`phase_totals`.  ``None`` creates
        a memory-only instance.
    """

    def __init__(self, stream: Optional[TextIO] = None,
                 obs=None) -> None:
        self.stream = stream
        self.obs = obs if obs is not None else RunTelemetry()
        #: The labeled metrics registry backing the counters.
        self.metrics: MetricsRegistry = self.obs.metrics
        self.events: List[str] = []

    def _emit(self, line: str) -> None:
        if self.stream is not None:
            print(line, file=self.stream)

    def observe(self, name: str, stats) -> None:
        """Stream one completed training step of one campaign."""
        self.metrics.counter("fleet.steps", campaign=name).inc()
        best = self.metrics.gauge("fleet.best_reward", campaign=name)
        if stats.max_reward > (float("-inf") if best.value is None
                               else best.value):
            best.set(stats.max_reward)
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
        self.metrics.counter("fleet.restarts", campaign=name).inc()

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

    def render_table(self, records) -> str:
        """The fleet summary table, one row per submitted campaign.

        ``records`` maps names to
        :class:`~repro.serve.campaign.CampaignRecord`; each row reads
        the campaign's own history (see :func:`_summary`), so campaigns
        a prior process finished show their real totals too.
        """
        rows = []
        for name, record in records.items():
            steps, best, retries, quarantined = _summary(record)
            rows.append([
                name, record.status.value, steps,
                f"{best:.0f}" if best > float("-inf") else "-",
                retries, quarantined, record.restarts])
        return format_table(
            ["campaign", "status", "steps", "best", "retries",
             "quarantined", "restarts"], rows)
