"""Observability overhead: a traced campaign must cost <3% wall-clock.

The tracer/metrics substrate sits on the attack hot path (every query,
every PPO epoch, every scheduler slice), so its cost must be provably
negligible: the budget is <3% overhead with a full
:class:`~repro.obs.run.RunTelemetry` attached (spans + metrics + JSONL
log, with the system's query phase spans on), measured against the
identical untraced campaign.

The two campaigns are asserted bit-identical first (tracing is purely
observational by construction — sequential span ids, monotonic clock
only, no RNG draws), then timed over the same work.  Results land in
``benchmarks/results/obs_overhead.json``; a full run also writes
``BENCH_obs_overhead.json``.  ``REPRO_SMOKE=1`` shrinks the run and
relaxes the bound (micro-runs on loaded CI boxes jitter more than 3%);
the tight assertion runs at full measurement size.
"""

from __future__ import annotations

import os
import time

from common import emit, emit_json, once
from repro.experiments import build_environment, format_table, resolve_scale
from repro.obs import RunTelemetry, phase_rollup
from repro.core import PoisonRec


def run_campaign(scale, steps, obs_log=None, traced=False):
    """One fixed-seed campaign; returns (history, seconds, span count)."""
    _, system, env = build_environment("steam", "covisitation", scale,
                                       seed=0)
    run = RunTelemetry(obs_log) if traced else None
    if run is not None:
        system.tracer = run.tracer
    agent = PoisonRec(env, scale.config(seed=0), action_space="plain",
                      obs=run)
    start = time.perf_counter()
    agent.train(steps)
    elapsed = time.perf_counter() - start
    spans = len(run.tracer.spans) if run is not None else 0
    if run is not None:
        run.close()
    history = [(s.step, s.mean_reward, s.max_reward, tuple(s.losses))
               for s in agent.result.history]
    return history, elapsed, spans, run


def test_obs_overhead(benchmark, tmp_path):
    scale = resolve_scale()
    smoke = os.environ.get("REPRO_SMOKE", "") == "1"
    steps = 2 if smoke else {"ci": 8, "small": 12, "paper": 20}[scale.name]

    # Warm both paths once (imports, allocator) before measuring.
    run_campaign(scale, 1)
    run_campaign(scale, 1, traced=True)

    # Interleave repetitions and compare best-of-N: single runs jitter
    # far more than the 3% budget on shared machines; the minimum is
    # the standard noise-suppressing estimator for small overheads.
    reps = 1 if smoke else 3
    plain_runs, traced_runs = [], []
    for i in range(reps):
        timer = (lambda: once(benchmark, lambda: run_campaign(scale, steps))
                 ) if i == 0 else (lambda: run_campaign(scale, steps))
        plain_runs.append(timer())
        traced_runs.append(run_campaign(
            scale, steps, obs_log=tmp_path / f"obs{i}.jsonl", traced=True))
    log = tmp_path / "obs0.jsonl"
    plain_history, plain_s = plain_runs[0][0], min(r[1] for r in plain_runs)
    traced_history, _, spans, run = traced_runs[0]
    traced_s = min(r[1] for r in traced_runs)

    assert traced_history == plain_history, (
        "tracing must leave the training history bit-identical")
    assert spans > 0 and log.exists()

    overhead = traced_s / plain_s - 1.0
    if not smoke:
        assert overhead < 0.03, (
            f"observability overhead {overhead:.1%} exceeds the 3% budget")

    rollup = phase_rollup(run.tracer.spans)
    payload = {
        "scale": scale.name,
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "ranker": "covisitation",
        "steps": steps,
        "repetitions": reps,
        "plain_seconds": plain_s,
        "traced_seconds": traced_s,
        "overhead_fraction": overhead,
        "budget_fraction": 0.03,
        "spans": spans,
        "log_bytes": log.stat().st_size,
        "span_rollup": rollup,
    }
    emit_json("obs_overhead", payload)

    rows = [["untraced", steps, f"{plain_s:.3f}", "-"],
            ["traced", steps, f"{traced_s:.3f}", f"{overhead:+.2%}"]]
    emit(f"obs_overhead_{scale.name}",
         format_table(["mode", "steps", "seconds", "overhead"], rows))
