"""Command-line interface for the PoisonRec reproduction.

Usage (after ``pip install -e .``)::

    python -m repro datasets --scale ci
    python -m repro evaluate --dataset steam --ranker bpr
    python -m repro attack --dataset steam --ranker itempop \
        --method poisonrec --steps 10
    python -m repro attack --method poisonrec --chaos 0.1 \
        --checkpoint campaign.npz --resume
    python -m repro compare --dataset steam --ranker covisitation
    python -m repro submit --dir fleet --name pmf-probe --ranker pmf
    python -m repro serve --dir fleet --resume --workers 4 \
        --obs-log fleet/obs.jsonl
    python -m repro trace fleet/obs.jsonl --export trace.json
    python -m repro metrics fleet/obs.jsonl
    python -m repro check --jobs 2
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence

from .attacks import BASELINE_CLASSES
from .core import PoisonRec
from .perf import QueryPool
from .data import DATASET_NAMES, load_dataset
from .experiments import SCALES, build_environment, format_table, run_baseline
from .obs import RunTelemetry, load_run, write_chrome_trace
from .obs.cli import render_events, render_metrics, render_trace
from .recsys import RANKER_NAMES
from .recsys.evaluation import evaluate_ranking, random_baseline_quality
from .runtime import (FaultPlan, FaultyEnvironment, ResilienceConfig,
                      RetryPolicy, WorkerFaultPlan, as_npz_path)
from .runtime.errors import CorruptCheckpointError
from .serve import (DEFAULT_ACTION_SPACES, DEFAULT_RANKERS, CampaignScheduler,
                    CampaignSpec, FleetTelemetry, SchedulerJournal,
                    grid_specs, replay)

METHOD_CHOICES = tuple(BASELINE_CLASSES) + ("poisonrec",)
ACTION_SPACE_CHOICES = ("plain", "bplain", "bcbt-popular", "bcbt-random")


def _add_testbed_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=DATASET_NAMES, default="steam")
    parser.add_argument("--ranker", choices=RANKER_NAMES, default="itempop")
    parser.add_argument("--scale", choices=tuple(SCALES), default="ci")
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PoisonRec (ICDE 2020) reproduction toolkit")
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets = subparsers.add_parser(
        "datasets", help="print Table II-style dataset statistics")
    datasets.add_argument("--scale", choices=tuple(SCALES), default="ci")
    datasets.add_argument("--seed", type=int, default=0)

    evaluate = subparsers.add_parser(
        "evaluate", help="held-out ranking quality of one ranker")
    _add_testbed_arguments(evaluate)

    attack = subparsers.add_parser(
        "attack", help="run one attack method against one testbed")
    _add_testbed_arguments(attack)
    attack.add_argument("--method", choices=METHOD_CHOICES,
                        default="poisonrec")
    attack.add_argument("--steps", type=int, default=None,
                        help="PoisonRec training steps (default: per scale)")
    attack.add_argument("--action-space", choices=ACTION_SPACE_CHOICES,
                        default="bcbt-popular")
    attack.add_argument("--chaos", type=float, default=0.0, metavar="RATE",
                        help="inject RATE transient faults per query "
                             "(FaultyEnvironment chaos mode; poisonrec only)")
    attack.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="crash-safe campaign checkpoint path "
                             "(poisonrec only)")
    attack.add_argument("--checkpoint-every", type=int, default=10,
                        metavar="K", help="checkpoint cadence in steps "
                                          "(default: 10)")
    attack.add_argument("--resume", action="store_true",
                        help="resume from --checkpoint if it exists")
    attack.add_argument("--max-retries", type=int, default=3,
                        help="retries per failed environment query "
                             "(default: 3)")
    attack.add_argument("--workers", type=int, default=1, metavar="N",
                        help="fan reward queries out over N forked system "
                             "replicas; bit-identical to serial "
                             "(poisonrec only, default: 1)")
    attack.add_argument("--obs-log", default=None, metavar="PATH",
                        help="crash-safe JSONL run telemetry log "
                             "(render with repro trace / repro metrics; "
                             "poisonrec only)")

    compare = subparsers.add_parser(
        "compare", help="run every attack method against one testbed")
    _add_testbed_arguments(compare)
    compare.add_argument("--steps", type=int, default=None)

    submit = subparsers.add_parser(
        "submit", help="queue one campaign in a fleet directory")
    submit.add_argument("--dir", required=True, metavar="FLEET",
                        help="fleet directory (journal + checkpoints)")
    submit.add_argument("--name", required=True,
                        help="unique campaign name")
    _add_testbed_arguments(submit)
    submit.add_argument("--action-space", choices=ACTION_SPACE_CHOICES,
                        default="bcbt-popular")
    submit.add_argument("--steps", type=int, default=None,
                        help="training steps (default: per scale)")
    submit.add_argument("--priority", type=float, default=1.0,
                        help="fair-share weight (default: 1.0)")
    submit.add_argument("--chaos", type=float, default=0.0, metavar="RATE",
                        help="retryable fault injection rate for this "
                             "campaign's environment")

    serve = subparsers.add_parser(
        "serve", help="run a supervised fleet of campaigns over one "
                      "shared worker pool")
    serve.add_argument("--dir", required=True, metavar="FLEET",
                       help="fleet directory (journal + checkpoints)")
    serve.add_argument("--resume", action="store_true",
                       help="replay the fleet journal first (continue "
                            "submitted/interrupted campaigns)")
    serve.add_argument("--grid", action="store_true",
                       help="submit the ranker x action-space grid "
                            "(Table-2/3 client)")
    serve.add_argument("--rankers", nargs="+", choices=RANKER_NAMES,
                       default=list(DEFAULT_RANKERS), metavar="RANKER",
                       help="grid rankers (with --grid)")
    serve.add_argument("--action-spaces", nargs="+",
                       choices=ACTION_SPACE_CHOICES,
                       default=list(DEFAULT_ACTION_SPACES), metavar="SPACE",
                       help="grid action spaces (with --grid)")
    serve.add_argument("--dataset", choices=DATASET_NAMES, default="steam")
    serve.add_argument("--scale", choices=tuple(SCALES), default="ci")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--steps", type=int, default=None,
                       help="per-campaign steps for --grid "
                            "(default: per scale)")
    serve.add_argument("--chaos", type=float, default=0.0, metavar="RATE",
                       help="per-campaign environment fault rate for "
                            "--grid campaigns")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="worker fleet size (1 = in-process serial)")
    serve.add_argument("--slice-steps", type=int, default=2, metavar="K",
                       help="steps per campaign scheduling turn "
                            "(default: 2)")
    serve.add_argument("--stall-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-query worker heartbeat deadline")
    serve.add_argument("--worker-kills", type=float, default=0.0,
                       metavar="RATE",
                       help="seeded worker-kill injection rate "
                            "(fleet chaos)")
    serve.add_argument("--worker-stalls", type=float, default=0.0,
                       metavar="RATE",
                       help="seeded worker-stall injection rate "
                            "(fleet chaos)")
    serve.add_argument("--obs-log", default=None, metavar="PATH",
                       help="crash-safe JSONL run telemetry log "
                            "(render with repro trace / repro metrics)")

    trace = subparsers.add_parser(
        "trace", help="render the span rollup of an obs run log")
    trace.add_argument("log", help="obs run log (--obs-log output)")
    trace.add_argument("--export", default=None, metavar="PATH",
                       help="also write a Chrome trace (chrome://tracing "
                            "/ Perfetto JSON) to PATH")

    metrics = subparsers.add_parser(
        "metrics", help="render the metrics dashboard of an obs run log")
    metrics.add_argument("log", help="obs run log (--obs-log output)")
    metrics.add_argument("--events", type=int, default=0, metavar="N",
                         help="also print the last N narrator events")

    check = subparsers.add_parser(
        "check", help="run the static analyzers (graphlint + shapecheck "
                      "+ effectcheck + faultcheck)")
    check.add_argument("paths", nargs="*",
                       default=["src", "tests", "benchmarks"],
                       help="paths for graphlint "
                            "(default: src tests benchmarks)")
    check.add_argument("--format", choices=("text", "json"),
                       default="text",
                       help="output format (json replaces the text "
                            "report; exit codes are unchanged)")
    check.add_argument("--rules", action="store_true",
                       help="describe every rule and exit")
    check.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run the three analysis units in N worker "
                            "processes (findings still aggregate into "
                            "one exit code)")
    check.add_argument("-v", "--verbose", action="store_true",
                       help="list every passing shapecheck check")
    return parser


def cmd_datasets(args: argparse.Namespace) -> int:
    """``datasets``: print Table II-style statistics."""
    scale = SCALES[args.scale]
    rows = []
    for name in DATASET_NAMES:
        stats = load_dataset(name, scale=scale.dataset_scale,
                             seed=args.seed).statistics()
        rows.append([name, stats["users"], stats["items"], stats["samples"]])
    print(format_table(["dataset", "users", "items", "samples"], rows))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """``evaluate``: held-out HR@k/NDCG@k of one ranker."""
    scale = SCALES[args.scale]
    dataset, system, _ = build_environment(args.dataset, args.ranker, scale,
                                           seed=args.seed)
    quality = evaluate_ranking(system.ranker, dataset, seed=args.seed)
    random_hr = random_baseline_quality(dataset)
    print(f"{args.ranker} on {args.dataset} ({args.scale}): {quality}")
    print(f"random baseline: HR@{quality.k}={random_hr:.3f}")
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    """``attack``: run one attack method on one testbed."""
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    scale = SCALES[args.scale]
    _, system, env = build_environment(args.dataset, args.ranker, scale,
                                       seed=args.seed)
    clean = env.clean_recnum()
    print(f"testbed: {args.dataset} / {args.ranker} ({args.scale}), "
          f"clean RecNum = {clean}")
    if args.method == "poisonrec":
        attack_env = env
        chaos = None
        if args.chaos > 0.0:
            chaos = FaultyEnvironment(
                env, FaultPlan.mixed(args.chaos, seed=args.seed))
            attack_env = chaos
            print(f"chaos mode: {args.chaos:.0%} injected fault rate "
                  f"(seed {args.seed})")
        obs = RunTelemetry(args.obs_log) if args.obs_log else None
        if obs is not None:
            system.tracer = obs.tracer
        pool = None
        if args.workers > 1:
            pool = QueryPool(attack_env, workers=args.workers)
            mode = "parallel" if pool.parallel else "serial fallback"
            print(f"query pool: {args.workers} workers ({mode})")
            if obs is not None:
                # Workers fork with a reset copy of the tracer (at the
                # first batch) and ship their query spans back.
                pool.tracer = obs.tracer
                pool.metrics = obs.metrics
        agent = PoisonRec(attack_env, scale.config(seed=args.seed),
                          action_space=args.action_space, query_pool=pool,
                          obs=obs)
        resilience = None
        if args.chaos > 0.0 or args.checkpoint:
            resilience = ResilienceConfig(
                retry=RetryPolicy(max_attempts=args.max_retries + 1),
                checkpoint_path=args.checkpoint,
                checkpoint_every=args.checkpoint_every,
                jitter_seed=args.seed)
        resume_from = None
        if args.resume and as_npz_path(args.checkpoint).exists():
            resume_from = args.checkpoint
            print(f"resuming campaign from {as_npz_path(args.checkpoint)}")
        steps = args.steps if args.steps is not None else scale.rl_steps
        try:
            agent.train(steps, callback=lambda s: print(
                f"  step {s.step:3d}: mean={s.mean_reward:8.1f} "
                f"max={s.max_reward:6.0f}" + (
                    f" retries={s.retries} quarantined={s.quarantined}"
                    if resilience is not None else "")),
                resilience=resilience, resume_from=resume_from)
        finally:
            if pool is not None:
                pool.close()
            if obs is not None:
                obs.close()
        print(f"poisonrec best RecNum: {agent.result.best_reward:.0f}")
        if pool is not None and pool.crashes:
            print(f"query pool: healed {pool.crashes} worker crash(es), "
                  f"{pool.serial_fallbacks} serial fallback(s)")
        if resilience is not None:
            history = agent.result.history
            print(f"resilience: retries="
                  f"{sum(s.retries for s in history)} quarantined="
                  f"{sum(s.quarantined for s in history)} rollbacks="
                  f"{history[-1].rollbacks if history else 0}")
        if chaos is not None:
            if args.workers > 1:
                # Fault schedules are pure functions of query content,
                # so injection happens inside the forked replicas; the
                # parent wrapper only sees serial-fallback traffic.
                print("chaos: content-keyed fault schedule active in "
                      f"{args.workers} worker replicas")
            else:
                print(f"chaos: injected={chaos.injected} "
                      f"(served queries: {chaos.query_count})")
        if args.checkpoint:
            print(f"campaign checkpoint: {as_npz_path(args.checkpoint)}")
        if args.obs_log:
            print(f"obs run log: {args.obs_log} (render with "
                  f"repro trace / repro metrics)")
    else:
        recnum = run_baseline(args.method, env, system, scale,
                              seed=args.seed)
        print(f"{args.method} RecNum: {recnum}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """``compare``: run every attack method on one testbed."""
    scale = SCALES[args.scale]
    _, system, env = build_environment(args.dataset, args.ranker, scale,
                                       seed=args.seed)
    print(f"testbed: {args.dataset} / {args.ranker} ({args.scale}), "
          f"clean RecNum = {env.clean_recnum()}")
    rows = []
    for method in BASELINE_CLASSES:
        rows.append([method, run_baseline(method, env, system, scale,
                                          seed=args.seed)])
    agent = PoisonRec(env, scale.config(seed=args.seed))
    steps = args.steps if args.steps is not None else scale.rl_steps
    agent.train(steps)
    rows.append(["poisonrec", int(agent.result.best_reward)])
    rows.sort(key=lambda row: -row[1])
    print(format_table(["method", "RecNum"], rows))
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """``submit``: append one campaign to a fleet journal."""
    try:
        spec = CampaignSpec(
            name=args.name, dataset=args.dataset, ranker=args.ranker,
            action_space=args.action_space, scale=args.scale,
            seed=args.seed, steps=args.steps, priority=args.priority,
            chaos_rate=args.chaos)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    journal_path = pathlib.Path(args.dir) / "journal.jsonl"
    if journal_path.exists():
        if spec.name in replay(journal_path).campaigns:
            print(f"error: campaign {spec.name!r} already exists in "
                  f"{args.dir}", file=sys.stderr)
            return 2
    with SchedulerJournal(journal_path) as journal:
        journal.append({"event": "submit", "name": spec.name,
                        "spec": spec.to_json()})
    print(f"submitted campaign {spec.name!r} "
          f"({spec.dataset}/{spec.ranker}/{spec.action_space}, "
          f"scale {spec.scale}) to {args.dir}")
    print(f"run the fleet with: repro serve --dir {args.dir} --resume")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: drive a supervised campaign fleet to completion."""
    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    worker_chaos = None
    if args.worker_kills > 0.0 or args.worker_stalls > 0.0:
        worker_chaos = WorkerFaultPlan(kill_rate=args.worker_kills,
                                       stall_rate=args.worker_stalls,
                                       seed=args.seed)
    obs = RunTelemetry(args.obs_log) if args.obs_log else None
    scheduler = CampaignScheduler(
        args.dir, workers=args.workers, slice_steps=args.slice_steps,
        stall_timeout=args.stall_timeout, worker_chaos=worker_chaos,
        telemetry=FleetTelemetry(stream=sys.stdout, obs=obs), obs=obs)
    if args.resume:
        scheduler.resume()
    if args.grid:
        for spec in grid_specs(rankers=args.rankers,
                               action_spaces=args.action_spaces,
                               dataset=args.dataset, scale=args.scale,
                               steps=args.steps, seed=args.seed,
                               chaos_rate=args.chaos):
            if spec.name not in scheduler.records:
                scheduler.submit(spec)
    if not scheduler.records:
        print("error: nothing to serve (use --grid, --resume, or "
              "repro submit first)", file=sys.stderr)
        return 2
    print(f"fleet: {len(scheduler.records)} campaign(s), "
          f"{args.workers} worker(s), slice={args.slice_steps} step(s)")
    try:
        result = scheduler.run(handle_signals=True)
    finally:
        if obs is not None:
            obs.close()
    if args.obs_log:
        print(f"obs run log: {args.obs_log} (render with "
              f"repro trace / repro metrics)")
    print(scheduler.telemetry.render_table(result.records))
    totals = scheduler.telemetry.phase_totals()
    if totals:
        print("query phases: " + "  ".join(
            f"{phase}={seconds:.2f}s"
            for phase, seconds in sorted(totals.items())))
    if result.pool_crashes or result.serial_fallbacks:
        print(f"fleet healed {result.pool_crashes} worker crash(es), "
              f"{result.serial_fallbacks} serial fallback(s); final tier: "
              f"{result.tier}")
    if result.drained:
        print("fleet drained cleanly; resume with: "
              f"repro serve --dir {args.dir} --resume")
        return 0
    if result.failed:
        print(f"failed campaign(s): {', '.join(sorted(result.failed))}",
              file=sys.stderr)
        return 1
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``trace``: flamegraph-style span rollup of an obs run log."""
    try:
        replay = load_run(args.log)
    except (OSError, CorruptCheckpointError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_trace(replay))
    if args.export:
        write_chrome_trace(args.export, replay.spans, replay.events)
        print(f"chrome trace written to {args.export} "
              "(open in chrome://tracing or ui.perfetto.dev)")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """``metrics``: counters/gauges/histograms dashboard of a run log."""
    try:
        replay = load_run(args.log)
    except (OSError, CorruptCheckpointError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_metrics(replay))
    if args.events:
        print()
        print(render_events(replay, limit=args.events))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """``check``: graphlint, shapecheck, effectcheck and faultcheck.

    One report in that order and one exit code, the worst of the three
    work units (0 clean / 1 findings / 2 internal error); see
    :mod:`repro.devtools.check`.
    """
    from .devtools.check import describe_rules, run_check
    if args.rules:
        describe_rules()
        return 0
    return run_check(args.paths, fmt=args.format, jobs=args.jobs,
                     verbose=args.verbose)


COMMANDS = {
    "datasets": cmd_datasets,
    "evaluate": cmd_evaluate,
    "attack": cmd_attack,
    "compare": cmd_compare,
    "submit": cmd_submit,
    "serve": cmd_serve,
    "trace": cmd_trace,
    "metrics": cmd_metrics,
    "check": cmd_check,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
