"""Crash-safe scheduler journal: the fleet's source of truth on disk.

The scheduler appends one JSON line per fleet event — campaign
submission, status transitions, slice completions (each backed by a
crash-safe campaign checkpoint), degradation tier changes, drains.
Every line is flushed and fsynced before the scheduler proceeds, so a
``kill -9`` of the *orchestrator* can at worst tear the final line.
:func:`read_events` tolerates exactly that: a garbled or truncated
*last* line is dropped (the event it described never committed), while
corruption anywhere earlier raises
:class:`~repro.runtime.errors.CorruptCheckpointError` — that cannot be
produced by a crash mid-append and means the journal was damaged.

:func:`replay` folds the surviving events into per-campaign ledger
entries (spec, status, steps completed, restart count), from which
``CampaignScheduler.resume`` reconstructs the whole fleet: every
non-terminal campaign re-enters the run queue and continues from its
last checkpoint bit-identically.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..obs.jsonl import JsonlSink, read_jsonl
from ..runtime.checkpoint import PathLike
from ..runtime.errors import CorruptCheckpointError

JOURNAL_FORMAT = "poisonrec-fleet-journal"
JOURNAL_VERSION = 1


class SchedulerJournal:
    """Append-only, fsync-per-line fleet event log.

    A thin discipline over :class:`~repro.obs.jsonl.JsonlSink` in its
    journal-grade (fsync-per-record) mode, plus the fleet's format
    header and the requirement that every record carries an ``event``
    discriminator.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = pathlib.Path(path)
        self._sink: Optional[JsonlSink] = None

    def _ensure_open(self) -> None:
        if self._sink is None:
            fresh = not self.path.exists()
            self._sink = JsonlSink(self.path, fsync=True)
            if fresh:
                self._sink.append({"event": "format",
                                   "format": JOURNAL_FORMAT,
                                   "version": JOURNAL_VERSION})

    def append(self, event: dict) -> None:
        """Durably append one event (committed before this returns)."""
        if "event" not in event:
            raise ValueError("journal events need an 'event' key")
        self._ensure_open()
        self._sink.append(event)

    def close(self) -> None:
        """Release the file handle (appends may resume later)."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def __enter__(self) -> "SchedulerJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_events(path: PathLike) -> List[dict]:
    """Parse a journal, dropping at most one torn final line."""
    path = pathlib.Path(path)
    events = read_jsonl(path, what="scheduler journal",
                        expect_key="event")
    if not events or events[0].get("event") != "format":
        raise CorruptCheckpointError(
            f"{path} is not a fleet journal (missing format header)")
    header = events[0]
    if (header.get("format") != JOURNAL_FORMAT
            or header.get("version") != JOURNAL_VERSION):
        raise CorruptCheckpointError(
            f"{path} has unsupported journal format "
            f"{header.get('format')!r} v{header.get('version')!r}")
    return events[1:]


@dataclass
class LedgerEntry:
    """Folded journal state of one campaign."""

    spec: dict
    status: str = "pending"
    steps_done: int = 0
    restarts: int = 0
    error: Optional[str] = None
    #: Submission order (journal position), for fair-share tie-breaks.
    order: int = 0
    #: Best reward the campaign had journaled (``None`` = none yet, or
    #: an old-format journal without slice counters).
    best_reward: Optional[float] = None
    #: Cumulative retry/quarantine counters at the last slice.  With
    #: ``steps_done`` and ``best_reward`` they are the summary row of a
    #: campaign a later process does not rebuild (it already finished).
    retries: int = 0
    quarantined: int = 0


@dataclass
class FleetLedger:
    """Everything :func:`replay` recovers from a journal."""

    campaigns: Dict[str, LedgerEntry] = field(default_factory=dict)
    #: Last recorded degradation tier (``None`` = never recorded).
    tier: Optional[str] = None
    workers: Optional[int] = None
    drained: bool = False

    def pending(self) -> Iterator[LedgerEntry]:
        """Entries that still owe work, in submission order."""
        for entry in sorted(self.campaigns.values(),
                            key=lambda e: e.order):
            if entry.status not in ("completed", "failed"):
                yield entry


def replay(path: PathLike) -> FleetLedger:
    """Fold a journal into the fleet state at the moment of the crash."""
    ledger = FleetLedger()
    for event in read_events(path):
        kind = event["event"]
        if kind == "submit":
            spec = event["spec"]
            name = spec["name"]
            if name not in ledger.campaigns:
                ledger.campaigns[name] = LedgerEntry(
                    spec=spec, order=len(ledger.campaigns))
        elif kind == "status":
            entry = ledger.campaigns.get(event["name"])
            if entry is None:
                raise CorruptCheckpointError(
                    f"journal {path}: status event for unsubmitted "
                    f"campaign {event['name']!r}")
            entry.status = event["status"]
            entry.restarts = int(event.get("restarts", entry.restarts))
            entry.error = event.get("error", entry.error)
        elif kind == "slice":
            entry = ledger.campaigns.get(event["name"])
            if entry is None:
                raise CorruptCheckpointError(
                    f"journal {path}: slice event for unsubmitted "
                    f"campaign {event['name']!r}")
            entry.steps_done = int(event["step"])
            # Telemetry counters (absent in pre-obs journals; ``best``
            # is None both then and while every observation was NaN).
            best = event.get("best")
            if best is not None:
                entry.best_reward = float(best)
            entry.retries = int(event.get("retries", entry.retries))
            entry.quarantined = int(event.get("quarantined",
                                              entry.quarantined))
        elif kind == "tier":
            ledger.tier = event["tier"]
            ledger.workers = event.get("workers")
        elif kind == "drain":
            # A drain is a clean pause, not an end state: replaying a
            # drained journal resumes the remaining campaigns.
            ledger.drained = True
        # Unknown events are ignored for forward compatibility.
    return ledger
