"""Shared helpers for the benchmark harness.

Each bench regenerates one of the paper's tables or figures at the scale
selected by ``REPRO_SCALE`` (default ``ci``), prints the rows/series the
paper reports, and persists them under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent

#: Paper's Table III column order.
RANKERS = ("itempop", "covisitation", "pmf", "bpr", "neumf", "autorec",
           "gru4rec", "ngcf")
DATASETS = ("steam", "movielens", "phone", "clothing")
BASELINES = ("random", "popular", "middle", "poweritem", "conslop",
             "appgrad")


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    banner = f"\n===== {name} ====="
    print(banner)
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def emit_json(name: str, payload: dict) -> pathlib.Path:
    """Persist a machine-readable result; returns the written path.

    The payload always goes to ``benchmarks/results/<name>.json``, next
    to the human-readable blocks.  A full run also writes the checked-in
    ``BENCH_<name>.json`` at the repository root; a smoke payload
    (``payload["smoke"]`` true) never does, so a CI-sized run cannot
    overwrite a full-run artifact.
    """
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(text)
    if not payload.get("smoke"):
        path = REPO_ROOT / f"BENCH_{name}.json"
        path.write_text(text)
    return path


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    Experiment benches regenerate whole tables; repeating them for
    statistical timing would multiply minutes of work for no insight.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
