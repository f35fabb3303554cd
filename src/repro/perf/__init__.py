"""Performance subsystem: the parallel query engine.

``repro.perf`` makes the black-box query loop fast without changing a
single observed reward:

* :class:`QueryPool` — fan per-step queries out over forked
  recommender-system replicas, with a documented bit-exact equivalence
  guarantee versus serial execution and transient-failure healing for
  crashed workers.  Each pooled :class:`QueryOutcome` carries the
  worker-measured seconds of its query, and a traced pool grafts the
  workers' restore / merge / retrain / score spans into the parent's
  trace (see :mod:`repro.perf.pool`).

See ``docs/performance.md`` for the measurement methodology,
``docs/observability.md`` for the tracing/metrics hooks, and
``benchmarks/bench_query_throughput.py`` for the throughput harness.
"""

from .pool import QueryOutcome, QueryPool, WorkerCrashError

__all__ = [
    "QueryPool",
    "QueryOutcome",
    "WorkerCrashError",
]
