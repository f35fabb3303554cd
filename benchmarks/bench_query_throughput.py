"""Black-box query throughput: serial vs pooled, with phase breakdown.

PoisonRec's wall-clock is dominated by environment queries (reload →
poison-retrain → re-score), so this bench measures queries/sec through
the NeuMF testbed three ways:

* ``serial`` — plain ``system.attack`` calls in-process, with a
  :class:`~repro.obs.Tracer` on ``system.tracer`` whose spans split
  each query into its restore / merge / retrain / score phases;
* ``pooled`` — the same batch through a :class:`~repro.perf.QueryPool`
  of forked replicas (``min(4, cpu_count)`` workers by default;
  ``REPRO_BENCH_WORKERS`` overrides the count, e.g. to force a
  multi-worker datapoint on a single-core runner where the extra
  workers time-share one core);
* the two reward vectors are asserted bit-identical (the pool's
  equivalence guarantee, measured rather than assumed).

Results land in ``benchmarks/results/query_throughput.json``; a full
run also writes ``BENCH_query_throughput.json`` at the repo root.
``REPRO_SMOKE=1`` shrinks the batch for CI smoke runs.  The parallel
speedup is recorded, not asserted — it depends on the runner's core
count.
"""

from __future__ import annotations

import os
import time

import numpy as np

from common import emit, emit_json
from repro.experiments import build_environment, format_table, resolve_scale
from repro.obs import Tracer, phase_rollup
from repro.perf import QueryPool

TRAJECTORY_LENGTH = 8
NUM_ATTACKERS = 4


def sample_trajectory_sets(env, count, seed=0):
    """Fixed random query batch (valid item ids, incl. targets)."""
    rng = np.random.default_rng(seed)
    num_items = env.num_original_items + len(env.target_items)
    return [
        [list(map(int, rng.integers(0, num_items, size=TRAJECTORY_LENGTH)))
         for _ in range(NUM_ATTACKERS)]
        for _ in range(count)
    ]


def phase_summary(spans):
    """Per-phase ``{seconds, calls, mean_seconds}`` from query spans."""
    summary = {}
    for path, entry in sorted(phase_rollup(spans).items()):
        if path.startswith("query/"):
            summary[path[len("query/"):]] = {
                "seconds": entry["seconds"], "calls": entry["calls"],
                "mean_seconds": entry["seconds"] / entry["calls"]}
    return summary


def run_serial(system, env, batch):
    tracer = Tracer()
    system.tracer = tracer
    start = time.perf_counter()
    rewards = [float(env.attack(trajectories)) for trajectories in batch]
    elapsed = time.perf_counter() - start
    system.tracer = None
    return rewards, elapsed, phase_summary(tracer.spans)


def run_pooled(env, batch, workers):
    with QueryPool(env, workers=workers) as pool:
        start = time.perf_counter()
        outcomes = pool.attack_many(batch)
        elapsed = time.perf_counter() - start
        mode = "parallel" if pool.parallel and not pool.broken else "serial"
    return [o.reward for o in outcomes], elapsed, mode


def test_query_throughput(benchmark):
    scale = resolve_scale()
    smoke = os.environ.get("REPRO_SMOKE", "") == "1"
    count = 4 if smoke else {"ci": 16, "small": 32, "paper": 64}[scale.name]
    workers = (int(os.environ.get("REPRO_BENCH_WORKERS", "0"))
               or min(4, os.cpu_count() or 1))

    _, system, env = build_environment("steam", "neumf", scale, seed=0)
    batch = sample_trajectory_sets(env, count)

    serial_rewards, serial_s, phases = run_serial(system, env, batch)
    pooled_rewards, pooled_s, mode = run_pooled(env, batch, workers)

    assert pooled_rewards == serial_rewards, (
        "pooled rewards must be bit-identical to serial")

    # pytest-benchmark statistics over the single-query kernel.
    benchmark(lambda: env.attack(batch[0]))

    serial_qps = count / serial_s
    pooled_qps = count / pooled_s
    payload = {
        "scale": scale.name,
        "smoke": smoke,
        "ranker": "neumf",
        "queries": count,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "pool_mode": mode,
        "serial_seconds": serial_s,
        "pooled_seconds": pooled_s,
        "serial_qps": serial_qps,
        "pooled_qps": pooled_qps,
        "speedup": pooled_qps / serial_qps,
        "per_query_phases": phases,
    }
    if (os.cpu_count() or 1) < 2:
        payload["limitation"] = (
            "single-core runner: the pooled workers time-share one core, "
            "so the recorded speedup reflects fork overhead, not the "
            "pool; reproduce the parallel datapoint locally with "
            "REPRO_BENCH_WORKERS=2 pytest benchmarks/"
            "bench_query_throughput.py --benchmark-only on a multi-core "
            "machine")
    emit_json("query_throughput", payload)

    rows = [["serial", count, f"{serial_s:.2f}", f"{serial_qps:.2f}"],
            [f"pooled({workers}, {mode})", count, f"{pooled_s:.2f}",
             f"{pooled_qps:.2f}"]]
    breakdown = [[name, stats["calls"], f"{stats['mean_seconds']*1e3:.2f}"]
                 for name, stats in phases.items()]
    emit(f"query_throughput_{scale.name}",
         format_table(["mode", "queries", "seconds", "qps"], rows)
         + "\n\n"
         + format_table(["phase", "calls", "mean_ms"], breakdown))
