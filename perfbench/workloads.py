"""The campaign workloads and how one run of them is measured.

Every workload is a PoisonRec campaign driven through the public API of
:mod:`repro` from this one process as a closed loop: a step samples M
rollouts, waits for all M rewards, then runs its PPO update, and only
then does the next step start.  The only other processes are the two
forked query-pool workers of ``campaign-neumf-pool2``.

A run builds its testbed several times (set-up), then measures.  An
untraced run (``run_untraced``) yields the end-to-end metrics.  A traced
run (``run_traced``) first runs a few untraced reference steps, then
measures with spans around every layer's public entry points on a fresh
agent with the same seed.  Its first steps repeat the reference's work,
so their wall times give the tracing overhead and their histories must
match bit for bit.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import math
import os
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro import (BlackBoxEnvironment, PoisonRec, QueryPool,
                   RecommenderSystem, load_dataset)
from repro.experiments import SCALES

import summary
from spans import Tracer, patch

#: Dataset and agent sizes: the ``ci`` experiment scale (steam at 2% of
#: Table II), N=20 attackers of T=20 clicks, M=8 rollouts per step, K=2
#: PPO epochs over B=8.
SCALE = SCALES["ci"]
DATASET = "steam"
ACTION_SPACE = "bcbt-popular"
#: Queries per step: the agent's M.
ROUND = SCALE.samples_per_step


@dataclass(frozen=True)
class Workload:
    """One testbed and how the agent reaches it."""

    name: str
    ranker: str
    workers: int = 1


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("campaign-neumf", "neumf"),
    Workload("campaign-covis", "covisitation"),
    Workload("campaign-neumf-pool2", "neumf", workers=2),
)}


@dataclass(frozen=True)
class Effort:
    """Work a run does whatever the clock says."""

    #: Queries per measured segment: p90 needs 100 samples, rounded up
    #: to whole steps.  ``best_recnum`` is read over this prefix, so it
    #: does not depend on how fast the machine is.
    min_queries: int = ROUND * math.ceil(summary.samples_for(90.0) / ROUND)
    #: Set-ups per run; ``setup_s`` reports their median.
    setup_repeats: int = 3
    #: Steps run twice on the same seed for the equality checks: an
    #: untraced reference that the traced run must reproduce (and whose
    #: wall time prices the tracing), and a serial replay that the
    #: pooled run must reproduce.
    check_steps: int = 4

    @property
    def min_steps(self) -> int:
        return math.ceil(self.min_queries / ROUND)


class Ledger:
    """Attempted and failed queries, and the outcome of every check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, dict] = {}

    def check(self, name: str, ok: bool, failed_queries: int = 0,
              detail: str = "") -> None:
        """Record one observation of check ``name``; all must pass."""
        entry = self.checks.setdefault(name, {"ok": True, "detail": []})
        entry["ok"] = entry["ok"] and ok
        if not ok:
            self.failed += failed_queries
            entry["detail"].append(detail)

    def queries(self, rewards: Sequence[Optional[float]],
                recnum_max: int) -> None:
        """Count sent queries; each RecNum must be an integer in range."""
        self.attempted += len(rewards)
        bad = [r for r in rewards if r is None or r != int(r)
               or not 0 <= r <= recnum_max]
        self.check("recnum_in_range", not bad, len(bad),
                   f"{len(bad)} RecNum outside [0, {recnum_max}] "
                   f"or missing: {bad[:5]}")

    @property
    def correct(self) -> bool:
        return all(entry["ok"] for entry in self.checks.values())


@dataclass
class Testbed:
    """One built system with its pool and agent."""

    seed: int
    system: RecommenderSystem
    env: BlackBoxEnvironment
    pool: Optional[QueryPool] = None
    agent: Optional[PoisonRec] = None

    @property
    def recnum_max(self) -> int:
        return len(self.system.eval_users) * self.system.top_k

    def new_agent(self, pooled: bool) -> PoisonRec:
        """A fresh agent on this testbed's seed, optionally pooled."""
        return PoisonRec(self.env, SCALE.config(seed=self.seed),
                         action_space=ACTION_SPACE,
                         query_pool=self.pool if pooled else None)

    def start_pool(self, ledger: Ledger) -> None:
        """Fork the workers with one query each (the pool starts lazily).

        The poison sets come from a throwaway agent, so the campaign
        agent's random streams are untouched.
        """
        sampler = self.new_agent(pooled=False)
        outcomes = self.pool.attack_many(
            [sampler.sample_attack().trajectories()
             for _ in range(self.pool.workers)])
        ledger.queries([o.reward for o in outcomes], self.recnum_max)

    def close(self) -> None:
        """Stop the pool's workers and wait for them."""
        if self.pool is not None:
            self.pool.close()


def _spans(tracer: Optional[Tracer]) -> Callable:
    return tracer.span if tracer is not None else (lambda name: nullcontext())


def build(workload: Workload, seed: int, ledger: Ledger,
          tracer: Optional[Tracer] = None) -> Testbed:
    """Generate, fit, start the pool and initialise the agent."""
    span = _spans(tracer)
    with span("data.generate"):
        dataset = load_dataset(DATASET, scale=SCALE.dataset_scale, seed=seed)
    with span("recsys.fit"):
        system = RecommenderSystem(dataset, workload.ranker, seed=seed,
                                   num_attackers=SCALE.num_attackers,
                                   eval_user_sample=SCALE.eval_user_sample)
    bed = Testbed(seed, system, BlackBoxEnvironment(system))
    if workload.workers > 1:
        bed.pool = QueryPool(bed.env, workers=workload.workers)
        bed.start_pool(ledger)
    bed.agent = bed.new_agent(pooled=bed.pool is not None)
    return bed


@dataclass
class Segment:
    """One measured stretch of closed-loop steps."""

    start: float
    wall_s: float = 0.0
    step_s: List[float] = field(default_factory=list)
    #: Per-query seconds: client-side serially, worker-measured pooled.
    query_s: List[float] = field(default_factory=list)
    rewards: List[Optional[float]] = field(default_factory=list)
    #: Client-side seconds of each ``attack_many`` call (pooled only).
    pool_batch_s: List[float] = field(default_factory=list)
    #: Queries the system counted while the segment ran.
    served: int = 0
    #: ``StepStats`` of every step, as dicts.
    history: List[dict] = field(default_factory=list)

    @property
    def batch_s(self) -> List[float]:
        """Query-batch seconds of each step."""
        if self.pool_batch_s:
            return self.pool_batch_s
        return [sum(self.query_s[i:i + ROUND])
                for i in range(0, len(self.query_s), ROUND)]


def _client_hook(bed: Testbed, segment: Segment,
                 pooled: bool) -> Callable[[], None]:
    """Time and collect every query where the agent hands it over."""
    if pooled:
        def make_wrapper(attack_many):
            def timed(*args, **kwargs):
                began = time.perf_counter()
                outcomes = attack_many(*args, **kwargs)
                segment.pool_batch_s.append(time.perf_counter() - began)
                for outcome in outcomes:
                    if outcome.seconds is not None:
                        segment.query_s.append(outcome.seconds)
                    segment.rewards.append(outcome.reward)
                return outcomes
            return timed
        return patch(bed.pool, "attack_many", make_wrapper)

    def make_wrapper(attack):
        def timed(trajectories):
            began = time.perf_counter()
            reward = attack(trajectories)
            segment.query_s.append(time.perf_counter() - began)
            segment.rewards.append(reward)
            return reward
        return timed
    return patch(bed.env, "attack", make_wrapper)


def measure(bed: Testbed, agent: PoisonRec, seconds: float, min_steps: int,
            tracer: Optional[Tracer] = None) -> Segment:
    """Run ``train_step`` until ``seconds`` pass and ``min_steps`` ran."""
    span = _spans(tracer)
    segment = Segment(start=time.perf_counter())
    undo = _client_hook(bed, segment, agent.query_pool is not None)
    served = bed.env.query_count
    try:
        while (len(segment.step_s) < min_steps
               or time.perf_counter() - segment.start < seconds):
            began = time.perf_counter()
            with span("bench.step"):
                agent.train_step()
            segment.step_s.append(time.perf_counter() - began)
        segment.wall_s = time.perf_counter() - segment.start
    finally:
        undo()
    segment.served = bed.env.query_count - served
    segment.history = [dataclasses.asdict(stats)
                       for stats in agent.result.history]
    return segment


def _check_segment(ledger: Ledger, bed: Testbed, segment: Segment,
                   label: str) -> None:
    ledger.queries(segment.rewards, bed.recnum_max)
    expected = len(segment.step_s) * ROUND
    for name, count in (("served", segment.served),
                        ("answered", len(segment.rewards))):
        ledger.check("queries_counted", count == expected,
                     abs(count - expected),
                     f"{label}: {count} queries {name}, expected "
                     f"steps x M = {expected}")


def _histories_match(ledger: Ledger, name: str, left: Segment,
                     right: Segment, steps: int) -> None:
    """The first ``steps`` steps of two same-seed runs must be identical.

    ``repr`` round-trips floats exactly and spells NaN the same way on
    both sides, so equal text means bit-identical histories.
    """
    same = repr(left.history[:steps]) == repr(right.history[:steps])
    ledger.check(name, same, steps * ROUND, f"first {steps} steps differ")


def setup(workload: Workload, seed: int, effort: Effort, ledger: Ledger,
          tracer: Optional[Tracer]) -> tuple:
    """Build the testbed ``setup_repeats`` times; keep the last one."""
    seconds = []
    bed = None
    for _ in range(effort.setup_repeats):
        if bed is not None:
            bed.close()
            bed = None
            gc.collect()
        began = time.perf_counter()
        bed = build(workload, seed, ledger, tracer)
        seconds.append(time.perf_counter() - began)
    return bed, seconds


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pool_counters(bed: Testbed) -> Dict[str, int]:
    if bed.pool is None:
        return {"crashes": 0, "serial_fallbacks": 0}
    return {"crashes": bed.pool.crashes,
            "serial_fallbacks": bed.pool.serial_fallbacks}


def _serial_check(bed: Testbed, effort: Effort, ledger: Ledger,
                  pooled: Segment) -> Segment:
    """Replay the first steps serially: pooled must equal serial."""
    serial = measure(bed, bed.new_agent(pooled=False), 0.0,
                     effort.check_steps)
    _check_segment(ledger, bed, serial, "serial replay")
    _histories_match(ledger, "pooled_equals_serial", pooled, serial,
                     effort.check_steps)
    return serial


def _ms_distribution(seconds: List[float]) -> dict:
    return summary.distribution([1e3 * s for s in seconds])


def _best(segment: Segment, effort: Effort) -> float:
    prefix = [r for r in segment.rewards[:effort.min_queries]
              if r is not None]
    return float(max(prefix)) if prefix else math.nan


def run_untraced(workload: Workload, seed: int, seconds: float,
                 import_s: float, effort: Effort, ledger: Ledger) -> dict:
    """End-to-end metrics of one run."""
    bed, setup_s = setup(workload, seed, effort, ledger, None)
    try:
        segment = measure(bed, bed.agent, seconds, effort.min_steps)
        _check_segment(ledger, bed, segment, "timed")
        if bed.pool is not None:
            _serial_check(bed, effort, ledger, segment)
        counters = _pool_counters(bed)
    finally:
        bed.close()
    ledger.failed += counters["serial_fallbacks"]
    metrics = {
        "setup_s": import_s + summary.percentile(setup_s, 50.0),
        "queries_per_s": len(segment.rewards) / segment.wall_s,
        "step_s_p50": summary.percentile(segment.step_s, 50.0),
        "query_ms_p50": 1e3 * summary.percentile(segment.query_s, 50.0),
        "query_ms_p90": 1e3 * summary.percentile(segment.query_s, 90.0),
        "peak_rss_mb": peak_rss_mb(),
        "best_recnum": _best(segment, effort),
    }
    details = {
        "import_s": import_s, "setup_build_s": setup_s,
        "timed_wall_s": segment.wall_s, "steps": len(segment.step_s),
        "queries": len(segment.rewards),
        "query_ms": _ms_distribution(segment.query_s),
        "step_s": summary.distribution(segment.step_s),
        "best_recnum_over_queries": effort.min_queries,
        "pool": counters,
    }
    return {"metrics": metrics, "details": details}


def _install_spans(tracer: Tracer, bed: Testbed, agent: PoisonRec) -> None:
    """Wrap each layer's public entry points on the instances built."""
    for method, name in (("attack", "recsys.query"),
                         ("reset", "recsys.restore"),
                         ("inject", "recsys.retrain"),
                         ("recnum", "recsys.score")):
        tracer.wrap(bed.system, method, name)
    tracer.wrap(agent, "sample_attack", "core.sample")
    tracer.wrap(agent.trainer, "update", "core.ppo_update")
    if bed.pool is not None:
        tracer.wrap(bed.pool, "attack_many", "perf.batch")


def run_traced(workload: Workload, seed: int, seconds: float,
               effort: Effort, ledger: Ledger, spill_dir: Path) -> dict:
    """Per-layer metrics: untraced reference steps, then a traced run."""
    tracer = Tracer(spill_dir)
    bed, _ = setup(workload, seed, effort, ledger, tracer)
    pooled = bed.pool is not None
    try:
        # One throwaway step first, so lazily built caches are not billed
        # to the reference alone; queries are pure, so it changes nothing.
        warm = measure(bed, bed.new_agent(pooled), 0.0, 1)
        _check_segment(ledger, bed, warm, "warm-up")
        reference = measure(bed, bed.agent, 0.0, effort.check_steps)
        _check_segment(ledger, bed, reference, "untraced reference")
        if pooled:
            # Workers must fork after the wrappers are in place.
            bed.pool.close()
        agent = bed.new_agent(pooled)
        _install_spans(tracer, bed, agent)
        if pooled:
            bed.start_pool(ledger)
        try:
            traced = measure(bed, agent, seconds, effort.min_steps, tracer)
        finally:
            if pooled:
                bed.pool.close()
            tracer.unwrap_all()
            tracer.collect_spilled()
        _check_segment(ledger, bed, traced, "traced")
        _histories_match(ledger, "traced_equals_untraced", reference,
                         traced, effort.check_steps)
        serial = _serial_check(bed, effort, ledger, reference) if pooled \
            else None
        counters = _pool_counters(bed)
    finally:
        bed.close()
    ledger.failed += counters["serial_fallbacks"]
    metrics, details = layer_metrics(tracer, traced, pooled)
    expected = len(traced.step_s) * ROUND
    ledger.check("span_queries_counted",
                 metrics["recsys.queries"] == expected,
                 abs(metrics["recsys.queries"] - expected),
                 f"{metrics['recsys.queries']} query spans, expected "
                 f"steps x M = {expected}")
    metrics["perf.crashes"] = counters["crashes"]
    metrics["perf.serial_fallbacks"] = counters["serial_fallbacks"]
    metrics["bench.trace_overhead_frac"] = summary.overhead(
        sum(traced.step_s[:effort.check_steps]), sum(reference.step_s))
    metrics["bench.best_recnum"] = _best(traced, effort)
    if serial is not None:
        ratio = summary.speedup(
            summary.percentile(serial.batch_s, 50.0),
            summary.percentile(reference.batch_s, 50.0),
            base=f"serial query-batch p50 over the first "
                 f"{effort.check_steps} steps of the same seed and testbed")
    else:
        ratio = summary.speedup(1.0, 1.0, base="itself: no pool")
    metrics["perf.speedup_vs_serial"] = ratio["value"]
    details.update({
        "speedup_base": ratio["base"],
        "overhead_steps": effort.check_steps,
        "traced_wall_s": traced.wall_s, "steps": len(traced.step_s),
        "query_ms": _ms_distribution(traced.query_s),
        "pool": counters,
    })
    return {"metrics": metrics, "details": details}


def _seconds(spans: List[dict]) -> List[float]:
    return [span["end"] - span["start"] for span in spans]


def layer_metrics(tracer: Tracer, traced: Segment, pooled: bool) -> tuple:
    """Per-layer metrics of the traced segment, and a span rollup.

    Worker spans (pooled queries) count towards the per-call
    percentiles and ``recsys.queries``; shares divide by the main process's
    step time, so on the pooled workload ``recsys.retrain_share`` adds
    up both workers' retrain time.
    """
    me, since = os.getpid(), traced.start
    steps = tracer.named("bench.step", since, pid=me)
    step_total = sum(_seconds(steps))
    queries = tracer.named("recsys.query", since)
    if pooled:
        batches = _seconds(tracer.named("perf.batch", since, pid=me))
    else:
        per_step = {step["id"]: 0.0 for step in steps}
        for query in queries:
            per_step[query["parent"]] += query["end"] - query["start"]
        batches = list(per_step.values())

    def seconds(name: str, since: float = since) -> List[float]:
        return _seconds(tracer.named(name, since))

    sample, ppo = seconds("core.sample"), seconds("core.ppo_update")
    retrain, score = seconds("recsys.retrain"), seconds("recsys.score")
    p50 = functools.partial(summary.percentile, p=50.0)
    p90 = functools.partial(summary.percentile, p=90.0)
    metrics = {
        "data.generate_s": p50(seconds("data.generate", -math.inf)),
        "recsys.fit_s": p50(seconds("recsys.fit", -math.inf)),
        "recsys.restore_ms_p50": 1e3 * p50(seconds("recsys.restore")),
        "recsys.retrain_ms_p50": 1e3 * p50(retrain),
        "recsys.retrain_ms_p90": 1e3 * p90(retrain),
        "recsys.score_ms_p50": 1e3 * p50(score),
        "recsys.score_ms_p90": 1e3 * p90(score),
        "recsys.query_share": summary.share(sum(batches), step_total),
        "recsys.retrain_share": summary.share(sum(retrain), step_total),
        "recsys.queries": len(queries),
        "core.sample_ms_p50": 1e3 * p50(sample),
        "core.sample_share": summary.share(sum(sample), step_total),
        "core.ppo_update_ms_p50": 1e3 * p50(ppo),
        "core.ppo_share": summary.share(sum(ppo), step_total),
        "perf.batch_ms_p50": 1e3 * p50(batches),
        "perf.batch_ms_max": 1e3 * max(batches),
        "bench.span_coverage": summary.share(
            sum(sample) + sum(batches) + sum(ppo), step_total),
    }
    recent = [span for span in tracer.spans if span["start"] >= since]
    self_s = summary.self_times(recent)
    rollup: Dict[str, dict] = {}
    for span in recent:
        entry = rollup.setdefault(span["name"], {"calls": 0, "total_s": 0.0,
                                                 "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span["end"] - span["start"]
        entry["self_s"] += self_s[span["id"]]
    details = {"span_rollup": rollup,
               "counts": {"steps": len(steps), "retrain": len(retrain),
                          "score": len(score), "sample": len(sample),
                          "ppo_update": len(ppo), "batches": len(batches)}}
    return metrics, details
