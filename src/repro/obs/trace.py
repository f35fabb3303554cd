"""Deterministic span tracer for the attack/serve hot path.

A :class:`Span` is one timed operation — a name, a half-open
``[start, end)`` interval on the monotonic clock, a parent link and a
flat attribute dict.  A :class:`Tracer` hands them out with *sequential*
integer ids (no RNG, no PIDs, no UUIDs), so tracing is deterministic and
provably cannot perturb the reproduction's random streams: the only
nondeterministic input is ``time.perf_counter``, and timestamps flow
into the observability log only, never into checkpoints or rewards.

Two ways to record a span:

* :meth:`Tracer.span` — a context manager timing the enclosed block,
  with automatic parenting (the innermost open span on this tracer's
  stack becomes the parent).
* :meth:`Tracer.add` — register an *externally measured* interval,
  parented wherever the caller says.

Closed spans are retained in :attr:`Tracer.spans` (for in-process
rollups) and streamed to an optional ``sink`` callable (the
:class:`~repro.obs.run.RunTelemetry` JSONL writer).  Only the process
that created a tracer calls its sink: a forked child inherits the
tracer, but never writes into the parent's run log.  A forked
:class:`~repro.perf.pool.QueryPool` worker calls :meth:`Tracer.reset`
on its copy and ships the span records of each query back with the
reply; the parent adds them under its open ``pool.batch`` span with
:meth:`Tracer.graft`.  ``time.perf_counter`` is the system-wide
monotonic clock on Linux, so worker timestamps need no translation.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from ..effects import pure


@dataclass
class Span:
    """One timed operation in the trace tree."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: Optional[float] = None
    #: Logical process label ("main", "worker-3", ...) — never a PID.
    proc: str = "main"
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    @pure
    def seconds(self) -> float:
        """Span duration in seconds (``0.0`` while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @pure
    def to_record(self) -> dict:
        """Plain-dict form for the JSONL run log."""
        record = {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "end": self.end,
            "proc": self.proc,
        }
        if not self.attrs:
            return record
        return dict(record, attrs=dict(self.attrs))

    @classmethod
    def from_record(cls, record: dict) -> "Span":
        """Inverse of :meth:`to_record` (tolerates missing optionals)."""
        end = record.get("end")
        return cls(
            name=str(record["name"]),
            span_id=int(record["id"]),
            parent_id=(None if record.get("parent") is None
                       else int(record["parent"])),
            start=float(record["start"]),
            end=None if end is None else float(end),
            proc=str(record.get("proc", "main")),
            attrs=dict(record.get("attrs") or {}),
        )


class Tracer:
    """Deterministic span factory: sequential ids, monotonic clock only.

    Parameters
    ----------
    clock:
        Timestamp source; defaults to ``time.perf_counter``.  Tests
        inject fake clocks for exact assertions.
    sink:
        Optional callable receiving each span as it *closes* (children
        therefore arrive before their parents; consumers must not
        assume ordering).
    retain:
        Keep closed spans in :attr:`spans` for in-process rollups.
        Long-running fleets with a sink may disable retention to bound
        memory.
    proc:
        Logical process label stamped on every span this tracer opens.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 sink: Optional[Callable[[Span], None]] = None,
                 retain: bool = True, proc: str = "main") -> None:
        self.clock = clock
        self.sink = sink
        self.retain = retain
        self.proc = proc
        self.spans: List[Span] = []
        self._next_id = 0
        self._stack: List[Span] = []
        #: The creating process: the only one allowed to call ``sink``.
        self._pid = os.getpid()

    @property
    @pure
    def current(self) -> Optional[Span]:
        """The innermost open span, if any (the implicit parent)."""
        return self._stack[-1] if self._stack else None

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _finish(self, span: Span) -> None:
        if self.retain:
            self.spans.append(span)
        if self.sink is not None and os.getpid() == self._pid:
            self.sink(span)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open one span around the enclosed block.

        The span parents under the innermost open span of this tracer;
        it is closed (and shipped to the sink) even when the block
        raises.
        """
        span = Span(name=name, span_id=self._new_id(),
                    parent_id=(self._stack[-1].span_id
                               if self._stack else None),
                    start=self.clock(), proc=self.proc,
                    attrs=dict(attrs))
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self.clock()
            self._finish(span)

    def add(self, name: str, start: float, end: float,
            parent_id: Optional[int] = None,
            proc: Optional[str] = None, **attrs: Any) -> Span:
        """Record one externally measured, already-closed span.

        ``parent_id=None`` parents under the innermost open span (if
        any).
        """
        if parent_id is None and self._stack:
            parent_id = self._stack[-1].span_id
        span = Span(name=name, span_id=self._new_id(),
                    parent_id=parent_id, start=start, end=end,
                    proc=self.proc if proc is None else proc,
                    attrs=dict(attrs))
        self._finish(span)
        return span

    def reset(self, proc: str) -> None:
        """Start over as a fresh, sink-less recorder labelled ``proc``.

        A forked pool worker calls this on its inherited copy: the
        parent's spans, open-span stack and sink stay behind, and the
        spans recorded from here on are retained until the worker
        ships them back.
        """
        self.sink = None
        self.retain = True
        self.spans = []
        self._stack = []
        self.proc = proc

    def graft(self, records: Iterable[dict]) -> None:
        """Re-add spans recorded by another tracer, with fresh ids.

        ``records`` are :meth:`Span.to_record` dicts, e.g. the spans a
        pool worker recorded for one query.  Ids are handed out in
        opening order, so sorting by id adds every parent before its
        children; a record whose parent is not among ``records`` hangs
        under the innermost open span.
        """
        ids: Dict[int, int] = {}
        for record in sorted(records, key=lambda record: record["id"]):
            span = Span.from_record(record)
            ids[span.span_id] = self.add(
                span.name, span.start, span.end,
                parent_id=ids.get(span.parent_id), proc=span.proc,
                **span.attrs).span_id

    def __repr__(self) -> str:
        return (f"Tracer(spans={len(self.spans)}, "
                f"open={len(self._stack)})")
