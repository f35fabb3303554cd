"""Query phase spans at every tier, and the pooled-campaign trace account.

A traced :class:`~repro.recsys.system.RecommenderSystem` records one
``query`` span per attack around its restore / merge / retrain / score
spans.  Serially those nest under whatever span is open (the agent's
``query_batch``, or a serial ``pool.batch``).  Pooled workers record
them on a reset copy of the tracer and ship the records back with each
reply; the parent grafts them under the open ``pool.batch`` span with
their real timestamps.  The worker phase spans must account for (nearly)
all of the pool's busy time — a <=5% gap on the covisitation testbed —
and tracing must leave the training history bit-identical.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import PoisonRec, PoisonRecConfig
from repro.obs import (RunTelemetry, Tracer, load_run, phase_rollup,
                       write_chrome_trace)
from repro.perf import QueryPool
from repro.recsys.system import QUERY_PHASES

from .test_pool import HAS_FORK, SumSystem, batch, make_env

needs_fork = pytest.mark.skipif(not HAS_FORK,
                                reason="fork start method unavailable")

PHASES = QUERY_PHASES


def traced_pool(env, workers, tracer):
    """A pool over ``env`` with ``tracer`` on both the pool and system."""
    env._system.tracer = tracer
    pool = QueryPool(env, workers=workers)
    pool.tracer = tracer
    return pool


def env_batch(env, count, seed=0):
    """Query batches whose item ids fit the tiny environment."""
    rng = np.random.default_rng(seed)
    return [[list(map(int, rng.integers(0, env.num_original_items, size=5)))
             for _ in range(3)] for _ in range(count)]


def children(spans, parent):
    return [span for span in spans if span.parent_id == parent.span_id]


def assert_query_nests_phases(spans, query):
    """``query`` holds exactly one span per phase, inside its interval."""
    inner = children(spans, query)
    assert sorted(span.name for span in inner) == sorted(PHASES)
    for span in inner:
        assert query.start <= span.start <= span.end <= query.end
        assert span.proc == query.proc


@needs_fork
class TestWorkerShipping:
    def test_phases_shipped_and_merged_into_parent(self):
        """Worker query spans land in the parent's tracer, each inside
        its ``pool.batch`` interval, parented under it and labelled with
        the worker that ran it."""
        env = make_env()
        tracer = Tracer()
        with traced_pool(env, 2, tracer) as pool:
            outcomes = pool.attack_many(env_batch(env, 6))
            assert pool.parallel
            assert pool.metrics.counter("pool.queries",
                                        tier="pooled").value == 6
            assert pool.metrics.histogram("pool.query_seconds").total > 0.0
        for outcome in outcomes:
            assert outcome.pooled
            assert outcome.seconds > 0.0
        spans = tracer.spans
        (batch_span,) = [s for s in spans if s.name == "pool.batch"]
        queries = [s for s in spans if s.name == "query"]
        assert len(queries) == 6
        for query in queries:
            assert query.parent_id == batch_span.span_id
            assert batch_span.start <= query.start
            assert query.end <= batch_span.end
            assert query.proc in ("worker-0", "worker-1")
            assert_query_nests_phases(spans, query)
        # Every query scored exactly once, despite running out of process.
        assert sum(s.name == "score" for s in spans) == 6
        assert len({s.span_id for s in spans}) == len(spans)

    def test_untimed_without_observability_consumers(self):
        """No tracer anywhere -> outcomes still ship wall seconds."""
        with QueryPool(SumSystem(), workers=2) as pool:
            outcomes = pool.attack_many(batch(3))
        for outcome in outcomes:
            assert outcome.pooled
            assert outcome.seconds > 0.0

    def test_worker_does_not_write_the_parent_log(self, tmp_path):
        """Workers inherit the run log's sink; only the parent writes."""
        log = tmp_path / "obs.jsonl"
        run = RunTelemetry(log)
        env = make_env()
        with traced_pool(env, 2, run.tracer) as pool:
            pool.attack_many(env_batch(env, 4))
        run.close()
        spans = load_run(log).spans
        ids = [span.span_id for span in spans]
        assert len(ids) == len(set(ids)) == 1 + 4 * (1 + len(PHASES))


class TestSerialTier:
    def test_serial_outcomes_timed_when_observed(self):
        """The serial tier's queries nest under a serial ``pool.batch``."""
        env = make_env()
        pool = traced_pool(env, 1, Tracer())
        outcomes = pool.attack_many(env_batch(env, 4))
        for outcome in outcomes:
            assert not outcome.pooled
            assert outcome.seconds is None
        spans = pool.tracer.spans
        (batch_span,) = [s for s in spans if s.name == "pool.batch"]
        assert batch_span.attrs["tier"] == "serial"
        queries = children(spans, batch_span)
        assert [s.name for s in queries] == ["query"] * 4
        for query in queries:
            assert query.proc == "main"
            assert_query_nests_phases(spans, query)

    def test_serial_campaign_nests_phases_under_query_batch(self):
        env = make_env()
        run = RunTelemetry()
        env._system.tracer = run.tracer
        config = PoisonRecConfig.ci()
        PoisonRec(env, config, action_space="plain", obs=run).train(steps=2)
        rollup = phase_rollup(run.tracer.spans)
        queries = 2 * config.samples_per_step
        assert rollup["train_step/query_batch/query"]["calls"] == queries
        for phase in PHASES:
            path = f"train_step/query_batch/query/{phase}"
            assert rollup[path]["calls"] == queries


@needs_fork
class TestPooledCampaignTrace:
    def run_campaign(self, obs=None, workers=4, log=None):
        env = make_env()
        pool = QueryPool(env, workers=workers) if workers else None
        run = RunTelemetry(log) if obs else None
        if run is not None:
            env._system.tracer = run.tracer
        if pool is not None and run is not None:
            pool.tracer = run.tracer
            pool.metrics = run.metrics
        agent = PoisonRec(env, PoisonRecConfig.ci(), action_space="plain",
                          query_pool=pool, obs=run)
        result = agent.train(steps=2)
        pooled_seconds = (pool.metrics.histogram("pool.query_seconds").total
                          if pool else 0.0)
        fallbacks = pool.serial_fallbacks if pool else 0
        if pool is not None:
            pool.close()
        if run is not None:
            run.close()
        history = [(s.step, s.mean_reward, s.max_reward, tuple(s.losses))
                   for s in result.history]
        return history, pooled_seconds, fallbacks

    def test_trace_accounts_for_pooled_query_time(self, tmp_path):
        """ISSUE acceptance: phase spans sum to within 5% of the pool's
        busy seconds, the Chrome export is loadable, and tracing leaves
        the history bit-identical."""
        log = tmp_path / "obs.jsonl"
        traced, pooled_seconds, fallbacks = self.run_campaign(
            obs=True, workers=4, log=log)
        assert fallbacks == 0  # every query went through the workers

        replay = load_run(log)
        phase_total = sum(span.seconds for span in replay.spans
                          if span.name in PHASES)
        assert pooled_seconds > 0.0
        assert phase_total == pytest.approx(pooled_seconds, rel=0.05)

        # Per-query metrics agree with the span account.
        snapshot = {(m["name"], tuple(sorted(m.get("labels", {}).items()))):
                    m for m in replay.metrics}
        queries = snapshot[("pool.queries", (("tier", "pooled"),))]
        latency = snapshot[("pool.query_seconds", ())]
        assert queries["value"] == latency["count"] > 0
        assert latency["total"] == pytest.approx(pooled_seconds, rel=1e-6)

        # The Chrome trace export is well-formed and covers the spans.
        export = tmp_path / "chrome.json"
        write_chrome_trace(export, replay.spans, replay.events)
        with open(export, encoding="utf-8") as handle:
            trace = json.load(handle)
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {"train_step", "query_batch", "pool.batch"} <= \
            {e["name"] for e in complete}

        # Tracing is purely observational: the untraced serial history
        # is bit-identical (pool equivalence + tracer non-interference).
        untraced, _, _ = self.run_campaign(obs=None, workers=0)
        assert traced == untraced
