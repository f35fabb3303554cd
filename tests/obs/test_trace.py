"""Tracer: deterministic ids, nesting, external spans, rollups, fork."""

from __future__ import annotations

import os

import pytest

from repro.obs import RunTelemetry, Tracer, load_run, phase_rollup
from repro.obs.trace import Span


class FakeClock:
    """Monotonic test clock advancing one unit per read."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def make_tracer(**kwargs):
    return Tracer(clock=FakeClock(), **kwargs)


def test_ids_are_sequential_and_start_at_one():
    tracer = make_tracer()
    with tracer.span("a"):
        pass
    with tracer.span("b"):
        pass
    assert [span.span_id for span in tracer.spans] == [1, 2]


def test_nesting_sets_parent_links():
    tracer = make_tracer()
    with tracer.span("outer") as outer:
        assert tracer.current is outer
        with tracer.span("inner") as inner:
            assert inner.parent_id == outer.span_id
    assert tracer.current is None
    assert outer.parent_id is None
    # Children close (and are retained) before their parents.
    assert [span.name for span in tracer.spans] == ["inner", "outer"]


def test_span_times_the_block():
    tracer = make_tracer()
    with tracer.span("timed") as span:
        pass
    assert span.end == span.start + 1.0
    assert span.seconds == 1.0


def test_span_closed_on_exception():
    tracer = make_tracer()
    try:
        with tracer.span("boom"):
            raise RuntimeError("kaboom")
    except RuntimeError:
        pass
    assert tracer.current is None
    assert tracer.spans[0].end is not None


def test_add_registers_external_interval():
    tracer = make_tracer()
    with tracer.span("batch") as batch:
        shipped = tracer.add("restore", start=10.0, end=10.5,
                             proc="worker-1", phase="restore")
    assert shipped.parent_id == batch.span_id  # defaults to innermost
    assert shipped.seconds == 0.5
    assert shipped.proc == "worker-1"
    explicit = tracer.add("score", start=0.0, end=1.0, parent_id=99)
    assert explicit.parent_id == 99


def test_sink_receives_every_closed_span():
    closed = []
    tracer = Tracer(clock=FakeClock(), sink=closed.append, retain=False)
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    assert [span.name for span in closed] == ["b", "a"]
    assert tracer.spans == []  # retention disabled


def test_record_round_trip():
    span = Span(name="q", span_id=3, parent_id=1, start=1.0, end=2.5,
                proc="worker-0", attrs={"index": 4})
    clone = Span.from_record(span.to_record())
    assert clone == span
    bare = Span(name="open", span_id=1, parent_id=None, start=0.0)
    assert Span.from_record(bare.to_record()) == bare


def test_phase_rollup_accumulates_by_path():
    tracer = make_tracer()
    for _ in range(2):
        with tracer.span("step"):
            with tracer.span("query"):
                pass
    rollup = phase_rollup(tracer.spans)
    assert rollup["step"]["calls"] == 2
    assert rollup["step/query"]["calls"] == 2
    assert rollup["step/query"]["seconds"] == 2.0
    still_open = Span(name="open", span_id=99, parent_id=None, start=0.0)
    assert "open" not in phase_rollup(tracer.spans + [still_open])


def test_reset_starts_a_fresh_sinkless_recorder():
    closed = []
    tracer = Tracer(clock=FakeClock(), sink=closed.append, retain=False)
    with tracer.span("closed"):
        pass
    # A forked worker inherits the parent's open spans but never closes
    # them: the ``with`` blocks live on in the parent only.
    tracer._stack.append(Span(name="pool.batch", span_id=99,
                              parent_id=None, start=0.0))
    tracer.reset("worker-3")
    assert tracer.current is None
    with tracer.span("query"):
        pass
    assert [span.name for span in closed] == ["closed"]
    assert [(s.name, s.proc, s.parent_id) for s in tracer.spans] == \
        [("query", "worker-3", None)]


def test_graft_readds_records_with_fresh_ids_under_open_span():
    worker = make_tracer(proc="worker-0")
    with worker.span("query"):
        with worker.span("retrain"):
            pass
        with worker.span("score"):
            pass
    records = [span.to_record() for span in worker.spans]

    parent = make_tracer()
    with parent.span("earlier"):
        pass
    with parent.span("pool.batch") as batch:
        parent.graft(records)
    by_name = {span.name: span for span in parent.spans}
    query = by_name["query"]
    assert query.parent_id == batch.span_id
    assert by_name["retrain"].parent_id == query.span_id
    assert by_name["score"].parent_id == query.span_id
    assert (query.start, query.end) == (worker.spans[-1].start,
                                        worker.spans[-1].end)
    assert all(span.proc == "worker-0" for span in worker.spans)
    assert len({span.span_id for span in parent.spans}) == len(parent.spans)


def test_forked_child_never_writes_the_parent_log(tmp_path):
    """A span closed in a forked child stays out of the parent's log."""
    if not hasattr(os, "fork"):
        pytest.skip("os.fork unavailable")
    log = tmp_path / "obs.jsonl"
    run = RunTelemetry(log)
    with run.span("before-fork"):
        pass
    lines = log.read_text().count("\n")
    pid = os.fork()
    if pid == 0:  # child: close one span on the inherited tracer
        try:
            with run.span("in-child"):
                pass
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    assert log.read_text().count("\n") == lines
    run.close()
    assert "in-child" not in {span.name for span in load_run(log).spans}
