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
* :func:`~repro.perf.pool.run_query` — the one in-process executor:
  retry, the non-finite-RecNum guard and quarantine for every query
  that runs in the calling process, pool fallbacks and pool-less
  agents alike.

See ``docs/performance.md`` for the design and ``docs/observability.md``
for the tracing/metrics hooks.  The campaign benchmark ``perfbench/``
(declared in ``BENCHMARK.json``) measures queries/sec, the per-query
phase split and the pool's speedup.
"""

from .pool import QueryOutcome, QueryPool, WorkerCrashError

__all__ = [
    "QueryPool",
    "QueryOutcome",
    "WorkerCrashError",
]
