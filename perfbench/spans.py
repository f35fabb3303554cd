"""Spans recorded from the benchmark's side of each layer boundary.

The benchmark does not edit the program to trace it.  It replaces a
public method *on an instance it built* with a wrapper that opens a span
around the original call (:meth:`Tracer.wrap`), and removes the wrapper
again afterwards (:meth:`Tracer.unwrap_all`).  Internal calls made through
``self.method(...)`` reach the wrapper, so
``RecommenderSystem.attack`` → ``reset`` / ``inject`` / ``recnum`` nest
as they run.

Pool workers are forked copies of the parent and inherit the wrapped
instance, but not a way to hand spans back: a span closed in another
process is appended to a per-process JSON-lines file under
``spill_dir`` and read back by :meth:`Tracer.collect_spilled` once the
workers have exited.  ``time.perf_counter`` is the system-wide monotonic
clock on Linux, so worker spans share the parent's time axis.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, List, Optional

_MISSING = object()


def patch(obj: object, method: str,
          make_wrapper: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace ``obj.method`` on the instance; returns the undo callable.

    Undo restores whatever the instance held before (an earlier
    wrapper, or nothing, so the class's method shows again), which lets
    wrappers stack and unwind in last-in, first-out order.
    """
    before = vars(obj).get(method, _MISSING)
    setattr(obj, method, make_wrapper(getattr(obj, method)))

    def undo() -> None:
        if before is _MISSING:
            delattr(obj, method)
        else:
            setattr(obj, method, before)

    return undo


class Tracer:
    """In-memory span recorder with a spill path for forked workers."""

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = Path(spill_dir)
        self.spans: List[dict] = []
        self._owner = os.getpid()
        self._stack_pid = self._owner
        self._stack: List[str] = []
        self._next_id = 0
        self._undo: List[Callable[[], None]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record ``name`` around the body, parented to the open span."""
        pid = os.getpid()
        if pid != self._stack_pid:
            # A forked worker starts outside any of the parent's spans.
            self._stack_pid = pid
            self._stack = []
        self._next_id += 1
        span_id = f"{pid}.{self._next_id}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._emit({"name": name, "id": span_id, "parent": parent,
                        "start": start, "end": end, "pid": pid})

    def _emit(self, record: dict) -> None:
        if record["pid"] == self._owner:
            self.spans.append(record)
            return
        # Workers leave through os._exit, so nothing may stay buffered.
        path = self.spill_dir / f"spans-{record['pid']}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")

    def collect_spilled(self) -> None:
        """Move worker spans from the spill files into :attr:`spans`.

        Call only after the workers have exited.  Span ids carry the
        process id, so they stay unique across processes.
        """
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                self.spans.extend(json.loads(line) for line in handle)
            path.unlink()

    def wrap(self, obj: object, method: str, name: str) -> None:
        """Trace every call of ``obj.method`` as a span called ``name``."""
        def make_wrapper(original):
            def traced(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)
            return traced

        self._undo.append(patch(obj, method, make_wrapper))

    def unwrap_all(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._undo:
            self._undo.pop()()

    def named(self, name: str, since: float = float("-inf"),
              pid: Optional[int] = None) -> List[dict]:
        """Spans called ``name`` that started at or after ``since``."""
        return [s for s in self.spans
                if s["name"] == name and s["start"] >= since
                and (pid is None or s["pid"] == pid)]
