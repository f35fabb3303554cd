"""CLI smoke tests (argument parsing and fast subcommands)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_defaults(self):
        args = build_parser().parse_args(["datasets"])
        assert args.scale == "ci"

    def test_attack_arguments(self):
        args = build_parser().parse_args(
            ["attack", "--dataset", "phone", "--ranker", "bpr",
             "--method", "popular", "--seed", "3"])
        assert args.dataset == "phone"
        assert args.ranker == "bpr"
        assert args.method == "popular"
        assert args.seed == 3

    def test_invalid_ranker_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "--ranker", "svd"])

    def test_resilience_flags(self):
        args = build_parser().parse_args(
            ["attack", "--chaos", "0.1", "--checkpoint", "camp.npz",
             "--checkpoint-every", "5", "--resume", "--max-retries", "2"])
        assert args.chaos == pytest.approx(0.1)
        assert args.checkpoint == "camp.npz"
        assert args.checkpoint_every == 5
        assert args.resume is True
        assert args.max_retries == 2

    def test_resilience_flag_defaults(self):
        args = build_parser().parse_args(["attack"])
        assert args.chaos == 0.0
        assert args.checkpoint is None
        assert args.resume is False
        assert args.max_retries == 3

    def test_chaos_composes_with_workers(self):
        """The pooled/chaos restriction is lifted: content-keyed fault
        schedules make chaos runs worker-count independent."""
        args = build_parser().parse_args(
            ["attack", "--chaos", "0.2", "--workers", "3"])
        assert args.chaos == pytest.approx(0.2)
        assert args.workers == 3

    def test_submit_arguments(self):
        args = build_parser().parse_args(
            ["submit", "--dir", "fleet", "--name", "exp1",
             "--ranker", "bpr", "--priority", "2.5", "--chaos", "0.1"])
        assert args.dir == "fleet"
        assert args.name == "exp1"
        assert args.ranker == "bpr"
        assert args.priority == pytest.approx(2.5)

    def test_submit_requires_dir_and_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--name", "exp1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--dir", "fleet"])

    def test_serve_arguments(self):
        args = build_parser().parse_args(
            ["serve", "--dir", "fleet", "--grid", "--workers", "2",
             "--slice-steps", "3", "--stall-timeout", "5.0",
             "--worker-kills", "0.1", "--worker-stalls", "0.05"])
        assert args.grid is True
        assert args.workers == 2
        assert args.slice_steps == 3
        assert args.stall_timeout == pytest.approx(5.0)
        assert args.worker_kills == pytest.approx(0.1)
        assert args.worker_stalls == pytest.approx(0.05)

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--dir", "fleet"])
        assert args.resume is False
        assert args.grid is False
        assert args.workers == 1
        assert args.stall_timeout is None


class TestCommands:
    def test_datasets_prints_table(self, capsys):
        assert main(["datasets", "--scale", "ci"]) == 0
        out = capsys.readouterr().out
        for name in ("steam", "movielens", "phone", "clothing"):
            assert name in out

    def test_evaluate_runs(self, capsys):
        assert main(["evaluate", "--dataset", "steam",
                     "--ranker", "itempop"]) == 0
        out = capsys.readouterr().out
        assert "HR@10" in out

    def test_attack_baseline_runs(self, capsys):
        assert main(["attack", "--dataset", "steam", "--ranker", "itempop",
                     "--method", "popular"]) == 0
        out = capsys.readouterr().out
        assert "popular RecNum:" in out

    @pytest.mark.slow
    def test_attack_poisonrec_runs(self, capsys):
        assert main(["attack", "--dataset", "steam", "--ranker", "itempop",
                     "--method", "poisonrec", "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "poisonrec best RecNum:" in out

    def test_resume_without_checkpoint_is_an_error(self, capsys):
        assert main(["attack", "--method", "poisonrec", "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    @pytest.mark.slow
    def test_chaos_campaign_writes_checkpoint_and_resumes(self, capsys,
                                                          tmp_path):
        ck = tmp_path / "campaign.npz"
        argv = ["attack", "--dataset", "steam", "--ranker", "itempop",
                "--method", "poisonrec", "--steps", "2", "--chaos", "0.1",
                "--checkpoint", str(ck), "--checkpoint-every", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "chaos mode" in out
        assert "resilience:" in out
        assert ck.exists()

        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert f"resuming campaign from {ck}" in out

    @pytest.mark.slow
    def test_submit_then_serve_resume_completes_fleet(self, capsys,
                                                      tmp_path):
        fleet = str(tmp_path / "fleet")
        for name, ranker in (("a", "itempop"), ("b", "covisitation")):
            assert main(["submit", "--dir", fleet, "--name", name,
                         "--ranker", ranker, "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "submitted campaign 'a'" in out
        assert "submitted campaign 'b'" in out

        assert main(["serve", "--dir", fleet, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "fleet: 2 campaign(s)" in out
        assert "completed" in out

    @pytest.mark.slow
    @pytest.mark.parametrize("obs_log", [False, True])
    def test_serve_prints_query_phase_totals(self, capsys, tmp_path,
                                             obs_log):
        fleet = str(tmp_path / "fleet")
        assert main(["submit", "--dir", fleet, "--name", "a",
                     "--ranker", "itempop", "--steps", "1"]) == 0
        argv = ["serve", "--dir", fleet, "--resume"]
        log = str(tmp_path / "obs.jsonl")
        if obs_log:
            argv += ["--obs-log", log]
        capsys.readouterr()
        assert main(argv) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("query phases:"))
        for phase in ("restore=", "merge=", "retrain=", "score="):
            assert phase in line
        if obs_log:
            assert main(["trace", log]) == 0
            out = capsys.readouterr().out
            assert "retrain" in out and "score" in out

    def test_submit_duplicate_name_is_an_error(self, capsys, tmp_path):
        fleet = str(tmp_path / "fleet")
        assert main(["submit", "--dir", fleet, "--name", "dup"]) == 0
        capsys.readouterr()
        assert main(["submit", "--dir", fleet, "--name", "dup"]) == 2
        assert "already exists" in capsys.readouterr().err


class TestObservabilityCommands:
    def test_trace_and_metrics_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--dir", "fleet", "--obs-log", "obs.jsonl"])
        assert args.obs_log == "obs.jsonl"
        args = build_parser().parse_args(
            ["trace", "obs.jsonl", "--export", "chrome.json"])
        assert args.log == "obs.jsonl" and args.export == "chrome.json"
        args = build_parser().parse_args(
            ["metrics", "obs.jsonl", "--events", "5"])
        assert args.log == "obs.jsonl" and args.events == 5

    def test_missing_log_is_an_error(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["trace", missing]) == 2
        assert main(["metrics", missing]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.slow
    def test_attack_trace_metrics_round_trip(self, capsys, tmp_path):
        log = str(tmp_path / "obs.jsonl")
        export = str(tmp_path / "chrome.json")
        assert main(["attack", "--dataset", "steam", "--ranker", "itempop",
                     "--method", "poisonrec", "--steps", "2",
                     "--obs-log", log]) == 0
        assert f"obs run log: {log}" in capsys.readouterr().out

        assert main(["trace", log, "--export", export]) == 0
        out = capsys.readouterr().out
        assert "train_step" in out and "ppo_update" in out
        for phase in ("query", "restore", "merge", "retrain", "score"):
            assert f"  {phase} " in out
        assert "chrome trace written" in out

        import json
        with open(export, encoding="utf-8") as handle:
            trace = json.load(handle)
        assert any(event["ph"] == "X" for event in trace["traceEvents"])

        assert main(["metrics", log]) == 0
        assert "agent.queries" in capsys.readouterr().out


class TestImportCost:
    def test_cli_import_skips_scipy_optimize_and_devtools(self):
        # Every `repro` invocation pays for `import repro.cli`: the LP
        # solver loads only when ConsLOP runs, the analyzers only when
        # `repro check` runs.
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; print(sorted(m for m in sys.modules "
             "if m == 'scipy.optimize' or m.startswith('repro.devtools')))"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
