"""Deterministic parallel query engine for black-box attack campaigns.

Algorithm 1's outer loop is bounded by environment queries: every one of
the ``M`` samples per training step pays a full reload → poison-retrain →
re-score round trip.  Those queries are *independent* — the recommender
system restores its complete clean state (parameters **and** RNG stream,
see :mod:`repro.recsys.snapshots`) before each injection — so a step's
queries can fan out across processes and return bit-identical rewards.

:class:`QueryPool` implements that fan-out:

* ``workers=1`` (the default) never spawns a process: queries run
  in-process through :func:`run_query`.
* ``workers>1`` forks worker processes, each holding a copy-on-write
  replica of the :class:`~repro.recsys.system.RecommenderSystem`
  (inherited via ``fork``, so no pickling and no duplicate fit).
  :meth:`QueryPool.attack_many` dispatches the batch and returns
  outcomes **in submission order**.

Exact-equivalence guarantee
---------------------------
For a fault-free batch, ``attack_many(sets)`` returns the same rewards,
in the same order, as ``[system.attack(s) for s in sets]`` — bit
identical, not approximately.  This holds because ``attack`` is a pure
function of its trajectories (clean state + RNG are restored before
every injection) and replicas are bit-exact fork copies of the parent
system.  A campaign driven through the pool therefore produces the same
``StepStats`` history as the serial run on the same seed.

Failure model
-------------
A crashed worker is a *transient* event, not a lost step: the pool
reaps the dead process, forks a replacement, and re-issues the query
(counted in :attr:`QueryOutcome.retries`, like any other transient
retry).  A query that keeps killing workers falls back to in-process
execution through :func:`run_query` so the underlying error surfaces
exactly as it would serially.  Typed
:class:`~repro.runtime.errors.TransientEnvironmentError` failures raised
inside a worker honor the caller's
:class:`~repro.runtime.retry.RetryPolicy` — exhausted retries become a
quarantinable :class:`~repro.runtime.errors.RetriesExhaustedError`
outcome, exactly as :func:`run_query` reports them in-process.
If worker processes cannot be (re)spawned at all, the pool degrades
permanently to serial mode rather than failing the campaign.

Three refinements keep pooled chaos campaigns bit-identical to serial:

* errors tagged ``replica_safe`` (injected by
  :class:`~repro.runtime.faults.FaultyEnvironment`) leave the worker
  alive — no recycle, no crash count — because the replica was never
  touched;
* retries of a failed query are *pinned* to the worker that failed it,
  so the replica's per-query occurrence counters advance exactly as
  the serial wrapper's would;
* when a retry policy is supplied, non-finite rewards are rejected as
  :class:`~repro.runtime.errors.CorruptRewardError` and retried — the
  same guard :func:`run_query` applies in-process.

``stall_timeout`` arms a heartbeat: a worker that holds one query
longer than the deadline is presumed hung, killed, and its query
re-issued.  ``chaos`` takes a
:class:`~repro.runtime.faults.WorkerFaultPlan` whose seeded kill/stall
directives ride along with dispatched queries — fleet-level fault
injection for soak tests, exercising exactly the healing paths above.

Observability
-------------
Every worker reply carries the query's wall-clock seconds, measured
inside the worker (:attr:`QueryOutcome.seconds`).  Hanging a
:class:`~repro.obs.trace.Tracer` on :attr:`QueryPool.tracer` wraps each
batch in a ``pool.batch`` span (``tier="serial"`` for a one-worker
pool, whose in-process ``query`` spans nest under it directly).
Workers fork with that tracer and
:meth:`~repro.obs.trace.Tracer.reset` their copy (no sink, no spans,
``proc="worker-<slot>"``); when the same tracer hangs on the system as
``system.tracer``, each reply also carries the span records of the
query (``query`` and its restore / merge / retrain / score children),
which the parent grafts under the open ``pool.batch`` span with their
real timestamps.

The pool counts only into the
:class:`~repro.obs.metrics.MetricsRegistry` on :attr:`QueryPool.metrics`
(its own, or the run's when a caller attaches one); it stays in the
parent.  ``pool.queries`` counts worker replies as ``tier="pooled"``
and in-process queries as ``tier="serial"``, ``pool.query_seconds``
holds the worker-measured seconds of each reply, and ``pool.crashes``
(every worker death, stalls included), ``pool.stalls`` and
``pool.serial_fallbacks`` count the healing.  :attr:`QueryPool.crashes`
and :attr:`QueryPool.serial_fallbacks` read those counters.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..recsys.system import unwrap_system
from ..runtime.errors import (CorruptRewardError, RetriesExhaustedError,
                              TransientEnvironmentError)
from ..runtime.faults import WorkerFaultPlan
from ..runtime.retry import RetryPolicy, call_with_retry

#: How long one scheduler wait blocks before re-checking worker liveness.
_WAIT_TIMEOUT = 5.0


class WorkerCrashError(TransientEnvironmentError):
    """A pool worker died mid-query; the query is safe to re-issue."""


@dataclass
class QueryOutcome:
    """Result of one black-box query (pooled or serial).

    ``reward`` is the observed RecNum, or ``None`` when the query was
    quarantined (``error`` then holds the terminal
    :class:`~repro.runtime.errors.RetriesExhaustedError`).  ``retries``
    counts transient failures absorbed on the way — including worker
    crashes healed by the pool.

    ``pooled`` says whether a forked worker executed the *final*
    attempt, and ``seconds`` is that attempt's wall-clock duration
    measured inside the worker (``None`` for in-process queries).
    """

    reward: Optional[float]
    retries: int = 0
    error: Optional[Exception] = None
    seconds: Optional[float] = None
    pooled: bool = False


def run_query(system, trajectories, retry: Optional[RetryPolicy] = None,
              rng: Optional[np.random.Generator] = None,
              sleep: Optional[Callable[[float], None]] = None,
              base_retries: int = 0) -> QueryOutcome:
    """Execute one black-box query in-process: the one in-process executor.

    Every query that runs in the calling process goes through here —
    :class:`QueryPool`'s serial mode, its crash-loop and broken-pool
    fallbacks, and :class:`~repro.core.agent.PoisonRec` without a pool
    — so retry, the non-finite-RecNum guard and quarantine behave the
    same wherever a query runs.

    Without a ``retry`` policy the attempt runs once and any error
    propagates.  With one, ``system.attack`` runs under
    :func:`~repro.runtime.retry.call_with_retry`, a non-finite RecNum is
    rejected as a retryable
    :class:`~repro.runtime.errors.CorruptRewardError`, and exhausted
    retries come back as a quarantined outcome (``reward=None``) rather
    than an exception.  ``base_retries`` adds failures absorbed before
    the query reached this executor (a pool's worker crashes).
    """
    def attempt() -> float:
        reward = float(system.attack(trajectories))
        if retry is not None and not np.isfinite(reward):
            # A garbage RecNum reading is a retryable fault, not data.
            raise CorruptRewardError(
                f"environment returned non-finite RecNum {reward!r}")
        return reward

    if retry is None:
        return QueryOutcome(reward=attempt(), retries=base_retries)
    try:
        outcome = call_with_retry(attempt, retry, rng=rng, sleep=sleep)
    except RetriesExhaustedError as error:
        return QueryOutcome(
            reward=None,
            retries=base_retries + max(error.attempts - 1, 0),
            error=error)
    return QueryOutcome(reward=outcome.value,
                        retries=base_retries + outcome.retries)


def _payload(tracer, began: float):
    """One reply's timings: ``(seconds, span records)``.

    ``began`` is the ``perf_counter`` reading taken just before the
    attack; the seconds are read *first* so packing the records never
    inflates them.  The records are the spans the worker's tracer
    closed during the query, which then forgets them.
    """
    seconds = time.perf_counter() - began
    if tracer is None:
        return seconds, []
    records = [span.to_record() for span in tracer.spans]
    tracer.spans.clear()
    return seconds, records


def _worker_main(system, conn, tracer, proc: str) -> None:
    """Child-process loop: serve attack queries until the stop sentinel.

    Messages arrive as ``(index, trajectories, directive)`` and replies
    go back as ``(index, reward, error, payload)``, where ``payload``
    carries the query's worker-side seconds and span records (see
    :func:`_payload`).  ``tracer`` is the worker's forked copy of the
    pool's tracer (or ``None``); it is reset and relabelled ``proc``
    before the first query.  On a query failure the worker ships the
    error to the parent and exits — a worker never serves queries from
    a possibly corrupted replica; the parent forks a pristine
    replacement instead.  The exception is an error tagged
    ``replica_safe`` (injected chaos that never touched the replica):
    it is shipped as data and the worker keeps serving.

    ``directive`` carries seeded worker-chaos orders from a
    :class:`~repro.runtime.faults.WorkerFaultPlan`: ``("kill",)`` makes
    the worker die abruptly mid-query (exercising crash healing) and
    ``("stall", seconds)`` delays it past the parent's heartbeat
    deadline (exercising stall detection).
    """
    # Forked workers inherit the parent's signal handlers — including a
    # scheduler's SIGTERM/SIGINT drain handlers, which would make
    # workers immune to ``terminate()`` (stall recycling would hang and
    # leak processes).  Workers die on SIGTERM like any process and
    # leave Ctrl-C drains to the parent: in-flight queries finish.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if tracer is not None:
        tracer.reset(proc)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        index, trajectories, directive = message
        if directive is not None:
            if directive[0] == "kill":
                os._exit(1)
            if directive[0] == "stall":
                time.sleep(directive[1])
        began = time.perf_counter()
        try:
            reward = float(system.attack(trajectories))
        except Exception as error:
            conn.send((index, None, error, _payload(tracer, began)))
            if getattr(error, "replica_safe", False):
                continue
            raise SystemExit(1)
        conn.send((index, reward, None, _payload(tracer, began)))
    conn.close()


class QueryPool:
    """Fan black-box queries out over forked recommender-system replicas.

    Parameters
    ----------
    system:
        The recommender system (or any object with a compatible
        ``attack(trajectories) -> number`` method) to replicate.  The
        parent's instance serves every in-process query (serial mode
        and the fallbacks) through :func:`run_query`.
    workers:
        Worker process count.  ``1`` runs everything in-process through
        :func:`run_query` (no multiprocessing at all); higher values
        fork that many replicas.
    crash_retries:
        How many times one query may be re-issued after killing a worker
        before the pool executes it in-process to surface the real error.
    stall_timeout:
        Heartbeat deadline in seconds: a worker holding one query longer
        than this is presumed hung, killed, and its query re-issued
        (counted as a crash).  ``None`` (the default) disables the
        heartbeat — queries may take arbitrarily long.
    chaos:
        Optional :class:`~repro.runtime.faults.WorkerFaultPlan` injecting
        seeded worker kills and stalls per dispatched query, for soak
        tests of the healing paths.  Ignored in serial mode (there are
        no workers to kill).
    """

    def __init__(self, system, workers: int = 1,
                 crash_retries: int = 3,
                 stall_timeout: Optional[float] = None,
                 chaos: Optional[WorkerFaultPlan] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if crash_retries < 0:
            raise ValueError("crash_retries must be non-negative")
        if stall_timeout is not None and stall_timeout <= 0.0:
            raise ValueError("stall_timeout must be positive")
        self.system = system
        self.workers = workers
        self.crash_retries = crash_retries
        self.stall_timeout = stall_timeout
        self.chaos = chaos
        methods = multiprocessing.get_all_start_methods()
        #: Whether this pool can actually parallelize.  Fork is required:
        #: replicas are inherited copy-on-write, never pickled.
        self.parallel = workers > 1 and "fork" in methods
        self._ctx = (multiprocessing.get_context("fork")
                     if self.parallel else None)
        self._procs: List[Optional[object]] = [None] * workers
        self._conns: List[Optional[object]] = [None] * workers
        self._started = False
        #: Pool gave up on parallel execution for good (spawn failure).
        self.broken = False
        #: Optional :class:`~repro.obs.trace.Tracer`, set before the
        #: first batch: workers fork with a copy they reset, and the
        #: parent grafts the spans they ship back.
        self.tracer = None
        #: Parent-side :class:`~repro.obs.metrics.MetricsRegistry`
        #: holding every pool counter: the pool's own, or the run's
        #: when a caller attaches one.
        self.metrics = MetricsRegistry()

    @property
    def crashes(self) -> int:
        """Worker deaths counted in :attr:`metrics` (stalls included)."""
        return int(self.metrics.counter("pool.crashes").value)

    @property
    def serial_fallbacks(self) -> int:
        """Queries run in-process because the pool could not serve them."""
        return int(self.metrics.counter("pool.serial_fallbacks").value)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, slot: int) -> bool:
        """Fork one worker into ``slot``; False if the spawn failed."""
        try:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            proc = self._ctx.Process(target=_worker_main,
                                     args=(self.system, child_conn,
                                           self.tracer, f"worker-{slot}"),
                                     daemon=True)
            proc.start()
            child_conn.close()
        except OSError:
            self._procs[slot] = None
            self._conns[slot] = None
            return False
        self._procs[slot] = proc
        self._conns[slot] = parent_conn
        return True

    def _ensure_started(self) -> None:
        if self._started or not self.parallel or self.broken:
            return
        spawned = sum(self._spawn(slot) for slot in range(self.workers))
        if spawned == 0:
            self.broken = True
        self._started = True

    def _recycle(self, slot: int, kill: bool = False) -> bool:
        """Reap a dead/poisoned worker and fork a replacement.

        ``kill=True`` terminates the process up front instead of
        waiting for it to exit — the stall-detection path, where the
        worker is presumed hung and would block the join deadline.
        """
        conn = self._conns[slot]
        proc = self._procs[slot]
        if conn is not None:
            conn.close()
        if proc is not None:
            if kill and proc.is_alive():
                proc.terminate()
            proc.join(timeout=_WAIT_TIMEOUT)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=_WAIT_TIMEOUT)
        return self._spawn(slot)

    def close(self) -> None:
        """Stop all workers; the pool can be restarted by the next batch."""
        for slot in range(self.workers):
            conn = self._conns[slot]
            proc = self._procs[slot]
            if conn is not None:
                try:
                    conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
                conn.close()
                self._conns[slot] = None
            if proc is not None:
                proc.join(timeout=_WAIT_TIMEOUT)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=_WAIT_TIMEOUT)
                self._procs[slot] = None
        self._started = False

    def __enter__(self) -> "QueryPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def _span(self, name: str, **attrs):
        """A tracer span, or a no-op context when tracing is off."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, **attrs)

    def attack_many(self, trajectory_sets: Sequence[Sequence[Sequence[int]]],
                    retry: Optional[RetryPolicy] = None,
                    rng: Optional[np.random.Generator] = None,
                    sleep: Optional[Callable[[float], None]] = None
                    ) -> List[QueryOutcome]:
        """Execute a batch of queries; outcomes come back in submission order.

        On the fault-free path the rewards are bit-identical to running
        the batch serially through ``system.attack`` (see the module
        docstring for why).  ``retry``/``rng``/``sleep`` plug the
        caller's :mod:`repro.runtime` retry policy into transient worker
        failures; without a policy, transient errors propagate exactly
        as they would serially.
        """
        if not trajectory_sets:
            return []
        self._ensure_started()
        if not self.parallel or self.broken:
            with self._span("pool.batch", batch=len(trajectory_sets),
                            tier="serial"):
                return [self._run_in_process(trajectories, retry, rng, sleep)
                        for trajectories in trajectory_sets]
        with self._span("pool.batch", batch=len(trajectory_sets),
                        tier="pooled", workers=self.workers):
            return self._attack_many_parallel(trajectory_sets, retry, rng,
                                              sleep if sleep is not None
                                              else time.sleep)

    # ------------------------------------------------------------------
    def _attack_many_parallel(self, trajectory_sets, retry, rng,
                              sleep) -> List[QueryOutcome]:
        tasks = list(trajectory_sets)
        results: List[Optional[QueryOutcome]] = [None] * len(tasks)
        pending: List[int] = list(range(len(tasks)))
        failures = [0] * len(tasks)       # transient in-worker failures
        crashes = [0] * len(tasks)        # worker deaths while running it
        dispatches = [0] * len(tasks)     # sends (the chaos attempt axis)
        pinned: dict = {}                 # task index -> required slot
        busy: dict = {}                   # slot -> task index
        deadlines: dict = {}              # slot -> stall deadline (monotonic)

        def drop(slot: int) -> int:
            """Take ``slot`` out of flight; returns its task index."""
            deadlines.pop(slot, None)
            return busy.pop(slot)

        def dispatch() -> None:
            for index in list(pending):
                slot = pinned.get(index)
                if slot is not None and self._conns[slot] is None:
                    # The pinned worker died; its replica (and the
                    # occurrence counters we pinned for) is gone anyway.
                    pinned.pop(index)
                    slot = None
                if slot is not None and slot in busy:
                    continue      # wait for the pinned worker to idle
                if slot is None:
                    idle = [s for s in range(self.workers)
                            if s not in busy and self._conns[s] is not None]
                    if not idle:
                        continue  # a later task may be pinned to an idler
                    slot = idle[0]
                dispatches[index] += 1
                directive = (self.chaos.directive(tasks[index],
                                                  dispatches[index])
                             if self.chaos is not None else None)
                try:
                    self._conns[slot].send((index, tasks[index], directive))
                except (BrokenPipeError, OSError):
                    pinned.pop(index, None)
                    self._handle_crash(slot)
                    continue      # stays pending; retried next round
                pending.remove(index)
                busy[slot] = index
                if self.stall_timeout is not None:
                    deadlines[slot] = time.monotonic() + self.stall_timeout

        def requeue_after_crash(index: int) -> None:
            pinned.pop(index, None)
            crashes[index] += 1
            if crashes[index] > self.crash_retries:
                # A query that keeps killing workers runs in-process so
                # the real failure surfaces as it would serially.
                results[index] = self._fall_back(
                    tasks[index], retry, rng, sleep,
                    failures[index] + crashes[index])
            else:
                pending.insert(0, index)

        def handle_transient(index: int, slot: Optional[int],
                             error: Exception) -> None:
            """One transient failure of ``index``; requeue or quarantine.

            ``slot`` names the still-alive worker whose replica consumed
            the failed attempt — the retry is pinned there so per-query
            occurrence counters advance exactly as they would serially.
            """
            failures[index] += 1
            if retry is None:
                self._abort(busy)
                raise error
            if failures[index] >= retry.max_attempts:
                pinned.pop(index, None)
                results[index] = QueryOutcome(
                    reward=None,
                    retries=(failures[index] - 1 + crashes[index]),
                    error=RetriesExhaustedError(
                        f"gave up after {failures[index]} "
                        f"attempt(s): {error}",
                        attempts=failures[index]))
                return
            delay = retry.backoff(failures[index], rng)
            if delay > 0.0:
                sleep(delay)
            if slot is not None:
                pinned[index] = slot
            pending.insert(0, index)

        while pending or busy:
            dispatch()
            if not busy:
                if pending and not any(
                        conn is not None for conn in self._conns):
                    # Every worker slot is dead and respawning failed.
                    self.broken = True
                    while pending:
                        index = pending.pop(0)
                        results[index] = self._fall_back(
                            tasks[index], retry, rng, sleep,
                            failures[index] + crashes[index])
                continue
            conn_to_slot = {self._conns[slot]: slot for slot in busy}
            timeout = _WAIT_TIMEOUT
            if deadlines:
                timeout = min(timeout, max(
                    min(deadlines.values()) - time.monotonic(), 0.0))
            ready = _connection_wait(list(conn_to_slot), timeout)
            if not ready:
                # Heartbeat: a worker holding one query past the stall
                # deadline is presumed hung — kill it and re-issue.
                now = time.monotonic()
                for slot in list(busy):
                    if slot in deadlines and now >= deadlines[slot]:
                        index = drop(slot)
                        self.metrics.counter("pool.stalls").inc()
                        self._handle_crash(slot, kill=True)
                        requeue_after_crash(index)
                # Paranoia sweep: a worker that died without closing its
                # pipe would otherwise hang the batch forever.
                for slot in list(busy):
                    proc = self._procs[slot]
                    if proc is None or not proc.is_alive():
                        index = drop(slot)
                        self._handle_crash(slot)
                        requeue_after_crash(index)
                continue
            for conn in ready:
                slot = conn_to_slot[conn]
                try:
                    index, reward, error, payload = conn.recv()
                except (EOFError, OSError):
                    index = drop(slot)
                    self._handle_crash(slot)
                    requeue_after_crash(index)
                    continue
                drop(slot)
                self._absorb(payload)
                if error is None:
                    # The replica executed a real query; mirror it into
                    # the parent's budget counter before validating.
                    self._count_query()
                    if retry is not None and not np.isfinite(reward):
                        handle_transient(index, slot, CorruptRewardError(
                            f"environment returned non-finite RecNum "
                            f"{reward!r}"))
                        continue
                    pinned.pop(index, None)
                    results[index] = QueryOutcome(
                        reward=reward,
                        retries=failures[index] + crashes[index],
                        seconds=payload[0], pooled=True)
                    continue
                if getattr(error, "replica_safe", False) and isinstance(
                        error, TransientEnvironmentError):
                    # Injected chaos that never touched the replica: the
                    # worker is still serving; retry pinned to it.
                    handle_transient(index, slot, error)
                    continue
                # The worker ships the error then exits; recycle it.
                self._handle_crash(slot)
                pinned.pop(index, None)
                if isinstance(error, TransientEnvironmentError):
                    handle_transient(index, None, error)
                else:
                    self._abort(busy)
                    raise error
        return results

    def _absorb(self, payload) -> None:
        """Fold one worker reply's timings into the parent's account.

        Counts the reply in :attr:`metrics` and grafts the shipped span
        records under the open ``pool.batch`` span.  Failed attempts
        ship payloads too, keeping parity with the in-process path,
        where a raising attempt still closes its spans.
        """
        seconds, records = payload
        if self.tracer is not None:
            self.tracer.graft(records)
        self.metrics.counter("pool.queries", tier="pooled").inc()
        self.metrics.histogram("pool.query_seconds").observe(seconds)

    def _run_in_process(self, trajectories, retry, rng, sleep,
                        base_retries: int = 0) -> QueryOutcome:
        """One query through :func:`run_query`, counted as serial."""
        self.metrics.counter("pool.queries", tier="serial").inc()
        return run_query(self.system, trajectories, retry, rng, sleep,
                         base_retries=base_retries)

    def _fall_back(self, trajectories, retry, rng, sleep,
                   base_retries: int) -> QueryOutcome:
        """Run a query the workers could not serve in-process instead."""
        self.metrics.counter("pool.serial_fallbacks").inc()
        return self._run_in_process(trajectories, retry, rng, sleep,
                                    base_retries)

    def _handle_crash(self, slot: int, kill: bool = False) -> None:
        """Reap + respawn one worker, recording the death."""
        self.metrics.counter("pool.crashes").inc()
        self._recycle(slot, kill=kill)

    def _count_query(self) -> None:
        """Mirror a worker-side query into the parent system's counter."""
        system = unwrap_system(self.system)
        if hasattr(system, "query_count"):
            system.query_count += 1

    def _abort(self, busy: dict) -> None:
        """Tear the pool down before propagating a fatal error.

        In-flight results would otherwise desynchronize the next batch;
        a fresh set of workers is forked lazily if the pool is reused.
        """
        busy.clear()
        self.close()

    def __repr__(self) -> str:
        mode = "parallel" if self.parallel and not self.broken else "serial"
        return (f"QueryPool(workers={self.workers}, mode={mode}, "
                f"crashes={self.crashes})")
