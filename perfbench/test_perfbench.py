"""Tests of the benchmark's own arithmetic, tracing and workloads.

Run from the repository root::

    python3 -m pytest perfbench -q

The smoke tests run every workload at a tiny effort; they check the
wiring and the output checks, not timings.
"""

import json
import math
import multiprocessing
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [p for p in (str(HERE), str(ROOT / "src")) if p not in sys.path]

import summary  # noqa: E402
from spans import Tracer, patch  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
INTERACTIONS = json.loads((HERE / "interactions.json").read_text())


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
@pytest.mark.parametrize("values, p, expected", [
    ([3.0], 90.0, 3.0),
    ([1.0, 2.0, 3.0, 4.0], 50.0, 2.5),
    ([1.0, 2.0, 3.0, 4.0, 5.0], 90.0, 4.6),
    ([5.0, 1.0, 4.0, 2.0, 3.0], 0.0, 1.0),
    ([5.0, 1.0, 4.0, 2.0, 3.0], 100.0, 5.0),
])
def test_percentile_interpolates_linearly(values, p, expected):
    assert summary.percentile(values, p) == pytest.approx(expected)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        summary.percentile([], 50.0)
    with pytest.raises(ValueError):
        summary.percentile([1.0], 101.0)


@pytest.mark.parametrize("n, expected", [
    (0, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert summary.tail_percentile(n) == expected


@pytest.mark.parametrize("p, n", [(50.0, 1), (90.0, 100), (99.0, 1000),
                                  (99.9, 10000)])
def test_samples_for_matches_tail_choice(p, n):
    assert summary.samples_for(p) == n
    if p > 50.0:
        assert summary.tail_percentile(n) == p
        assert summary.tail_percentile(n - 1) != p


def test_distribution_reports_sample_count():
    dist = summary.distribution([float(i) for i in range(1, 101)])
    assert dist["n"] == 100
    assert dist["p50"] == pytest.approx(50.5)
    assert dist["tail_p"] == 90.0
    assert dist["tail"] == pytest.approx(90.1)
    assert summary.distribution([])["n"] == 0


def test_share_of_nothing_is_zero():
    assert summary.share(1.0, 4.0) == 0.25
    assert summary.share(1.0, 0.0) == 0.0


def test_union_length_merges_overlaps():
    assert summary.union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert summary.union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0
    assert summary.union_length([]) == 0.0


def _span(span_id, parent, start, end):
    return {"id": span_id, "parent": parent, "start": start, "end": end}


def test_self_times_sum_to_root_duration():
    spans = [_span("r", None, 0.0, 10.0),
             _span("a", "r", 1.0, 4.0),
             _span("b", "r", 3.0, 6.0),      # overlaps a (a pooled batch)
             _span("c", "a", 2.0, 3.0),
             _span("d", "r", 9.0, 12.0),     # runs past its parent
             _span("e", "r", 11.0, 12.0)]    # wholly outside it
    self_s = summary.self_times(spans)
    assert self_s["r"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_s["a"] == pytest.approx(2.0)
    assert self_s["c"] == pytest.approx(1.0)
    assert self_s["d"] == pytest.approx(3.0)
    nested = [s for s in spans if s["id"] in ("r", "a", "c")]
    assert sum(summary.self_times(nested).values()) == pytest.approx(10.0)


def test_overhead_is_relative_to_untraced():
    assert summary.overhead(11.0, 10.0) == pytest.approx(0.1)
    assert summary.overhead(9.5, 10.0) == pytest.approx(-0.05)
    with pytest.raises(ValueError):
        summary.overhead(1.0, 0.0)


def test_speedup_names_its_base():
    ratio = summary.speedup(3.0, 2.0, base="serial")
    assert ratio == {"value": 1.5, "base": "serial"}
    with pytest.raises(ValueError):
        summary.speedup(1.0, 0.0, base="serial")


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class _Layer:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1


def test_wrapped_methods_nest_and_unwrap(tmp_path):
    tracer = Tracer(tmp_path)
    layer = _Layer()
    tracer.wrap(layer, "outer", "outer")
    tracer.wrap(layer, "inner", "inner")
    assert layer.outer() == 2
    inner, outer = tracer.spans
    assert (inner["name"], outer["name"]) == ("inner", "outer")
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    tracer.unwrap_all()
    assert "outer" not in vars(layer) and "inner" not in vars(layer)


def test_patch_undo_is_last_in_first_out():
    layer = _Layer()
    calls = []

    def tag(label):
        def make(original):
            def wrapper():
                calls.append(label)
                return original()
            return wrapper
        return make

    undo_first = patch(layer, "inner", tag("first"))
    undo_second = patch(layer, "inner", tag("second"))
    layer.inner()
    assert calls == ["second", "first"]
    undo_second()
    layer.inner()
    assert calls[-1] == "first"
    undo_first()
    assert "inner" not in vars(layer)


def _child(layer, conn):
    layer.outer()
    conn.send("done")
    conn.close()


def test_forked_worker_spans_are_spilled_and_collected(tmp_path):
    tracer = Tracer(tmp_path)
    layer = _Layer()
    tracer.wrap(layer, "outer", "outer")
    tracer.wrap(layer, "inner", "inner")
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()
    with tracer.span("batch"):
        proc = ctx.Process(target=_child, args=(layer, child_conn))
        proc.start()
        assert parent_conn.recv() == "done"
        proc.join(timeout=30)
    assert not proc.is_alive() and proc.exitcode == 0
    tracer.collect_spilled()
    worker = [s for s in tracer.spans if s["pid"] == proc.pid]
    assert sorted(s["name"] for s in worker) == ["inner", "outer"]
    outer = next(s for s in worker if s["name"] == "outer")
    assert outer["parent"] is None      # the parent's open span stays home
    batch = tracer.named("batch")[0]
    assert batch["start"] <= outer["start"] <= outer["end"] <= batch["end"]
    assert not list(tmp_path.glob("spans-*.jsonl"))


# ----------------------------------------------------------------------
# BENCHMARK.json and the interaction map
# ----------------------------------------------------------------------
def test_interaction_map_covers_every_metric_and_workload():
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(INTERACTIONS["workloads"]) == workloads
    assert set(INTERACTIONS["per_layer"]) == {m["name"]
                                              for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for name, entry in INTERACTIONS["per_layer"].items():
        for move in entry["moves"]:
            assert move["metric"] in e2e, name
            assert move["workload"] in workloads, name
        assert set(entry["flat_on"]) <= workloads, name


def test_default_effort_supports_the_named_percentiles():
    import workloads
    effort = workloads.Effort()
    assert effort.min_queries >= summary.samples_for(90.0)
    assert effort.min_queries % workloads.ROUND == 0
    assert effort.min_steps * workloads.ROUND == effort.min_queries
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


# ----------------------------------------------------------------------
# Tiny smoke of each workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_workload_smoke(name, traced, tmp_path):
    import workloads
    effort = workloads.Effort(min_queries=workloads.ROUND, setup_repeats=1,
                              check_steps=1)
    ledger = workloads.Ledger()
    workload = workloads.WORKLOADS[name]
    if traced:
        outcome = workloads.run_traced(workload, 3, 0.0, effort, ledger,
                                       tmp_path)
        declared = SPEC["per_layer"]
        assert "traced_equals_untraced" in ledger.checks
    else:
        outcome = workloads.run_untraced(workload, 3, 0.0, 0.5, effort,
                                         ledger)
        declared = SPEC["end_to_end"]
    assert ledger.correct, ledger.checks
    assert ledger.failed == 0 and ledger.attempted > 0
    metrics = outcome["metrics"]
    for metric in declared:
        value = metrics[metric["name"]]
        assert math.isfinite(value), metric["name"]
        if not traced or metric["unit"] in ("s", "ms"):
            # End-to-end metrics and per-layer times never read 0.
            assert value > 0, metric["name"]
    if workload.workers > 1:
        assert "pooled_equals_serial" in ledger.checks
    if traced:
        assert metrics["recsys.queries"] == workloads.ROUND
        assert not list(tmp_path.iterdir())
    else:
        assert metrics["setup_s"] > 0.5
        assert outcome["details"]["queries"] == workloads.ROUND


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-neumf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_declared_metrics_last(trace):
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-covis",
         "--seed", "5", "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    path = HERE / "results" / f"campaign-covis_seed5_trace{trace}.json"
    record = json.loads(path.read_text())
    assert record["metadata"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert record["metadata"]["seed"] == 5
