"""Campaign benchmark: PoisonRec attack throughput, end to end and by layer.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload campaign-neumf --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run (see ``BENCHMARK.json``).
``--workload all`` runs every workload untraced and traced, one fresh
process each, and prints one table.  The last line of standard output
is always one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the full result, with run metadata, is written under
``perfbench/results/``.  The exit code is 0 only when every output check
passed.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
#: One BLAS thread per process: the benchmark and each pool worker then
#: own at most one core, so ``nproc`` = 2 fits the pooled workload.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _parse(argv, spec: dict):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]]
                        + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return args


def _line(name: str, value, unit: str) -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<28} {shown:>14} {unit}"


def run_one(args, spec: dict) -> int:
    """Run one workload in this process; returns the exit code."""
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{error}", file=sys.stderr)
        return 2
    import numpy
    import_s = time.perf_counter() - _STARTED

    declared = spec["per_layer" if args.trace else "end_to_end"]
    workload = workloads.WORKLOADS[args.workload]
    effort = workloads.Effort()
    ledger = workloads.Ledger()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        spill = RESULTS / f"{stem}.spill"
        shutil.rmtree(spill, ignore_errors=True)
        spill.mkdir()
        try:
            outcome = workloads.run_traced(workload, args.seed, args.seconds,
                                           effort, ledger, spill)
        finally:
            shutil.rmtree(spill, ignore_errors=True)
    else:
        outcome = workloads.run_untraced(workload, args.seed, args.seconds,
                                         import_s, effort, ledger)

    measured = outcome["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"declared metrics not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared}
    result = {"correct": ledger.correct, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    record = {
        "metadata": {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "why": next(w["why"] for w in spec["workloads"]
                        if w["name"] == args.workload),
            "commit": _commit(), "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "loop": "closed: one benchmark process waits for all M rewards "
                    "before the next step",
            "dataset": workloads.DATASET,
            "scale": workloads.SCALE.name,
            "ranker": workload.ranker, "workers": workload.workers,
            "N": workloads.SCALE.num_attackers,
            "T": workloads.SCALE.trajectory_length,
            "M": workloads.SCALE.samples_per_step,
            "B": workloads.SCALE.batch_size,
            "K": workloads.SCALE.ppo_epochs,
            "action_space": workloads.ACTION_SPACE,
            "effort": vars(effort) | {"min_steps": effort.min_steps},
            "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "result": result,
        "measured": measured,
        "failed_query_frac": ledger.failed / max(ledger.attempted, 1),
        "details": outcome["details"],
        "checks": ledger.checks,
    }
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, default=str)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={os.cpu_count()} blas_threads=1")
    for name, entry in metrics.items():
        print(_line(name, entry["value"], entry["unit"]))
    for name in sorted(set(measured) - set(metrics)):
        print(_line(name, measured[name], "(not declared)"))
    for name, entry in ledger.checks.items():
        print(f"  check {name}: {'ok' if entry['ok'] else 'FAILED'}"
              + "".join(f"\n    {d}" for d in entry["detail"]))
    print(f"  failed_query_frac: {ledger.failed}/{ledger.attempted} "
          f"= {record['failed_query_frac']:.4g}")
    print(json.dumps(result))
    return 0 if ledger.correct else 1


def run_all(args, spec: dict) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    names = [w["name"] for w in spec["workloads"]]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            child = subprocess.run(command, stdout=subprocess.PIPE,
                                   text=True, check=False)
            lines = child.stdout.splitlines() or [""]
            status = status or child.returncode
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                print("\n".join(lines))
                merged["correct"] = False
                status = status or 1
                continue
            print("\n".join(lines[:-1]))
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                merged["metrics"][f"{name}/{metric}"] = entry
    print(f"\n{'end-to-end metric':<20}" + "".join(f"{n:>22}" for n in names))
    for metric in spec["end_to_end"]:
        cells = [merged["metrics"].get(f"{n}/{metric['name']}")
                 for n in names]
        print(f"{metric['name'] + ' (' + metric['unit'] + ')':<20}"
              + "".join(f"{c['value']:>22.5g}" if c else f"{'-':>22}"
                        for c in cells))
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    """Parse the command line and run; returns the exit code."""
    try:
        spec = _spec()
    except OSError as error:
        print(f"perfbench: cannot read BENCHMARK.json: {error}",
              file=sys.stderr)
        return 2
    args = _parse(argv, spec)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
