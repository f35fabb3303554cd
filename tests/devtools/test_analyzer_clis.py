"""``repro check``: the one analyzer entry point and its exit codes.

graphlint, shapecheck, effectcheck and faultcheck all report through
``repro check`` with the shared convention from
:mod:`repro.devtools.common`: 0 clean, 1 findings, 2 internal error (bad
inputs, usage errors, crashes).  CI gates on these codes, so each leg
gets a test here, run serially and through the ``--jobs`` worker
processes.  The serial run also proves the program analysis is built
once for effectcheck and faultcheck together.
"""

import contextlib
import io
import json
import sys

import pytest

from repro import cli
from repro.cli import build_parser
from repro.devtools import lint
from repro.devtools.check import (PROGRAM_TOOL, lint_unit, program_unit,
                                  run_unit)
from repro.devtools.effectcheck import index as index_module
from repro.devtools.effectcheck.index import PackageIndex
from repro.devtools.effectcheck import summaries as summaries_module

#: A graphlint REP001 finding at line 3, column 5.
BAD_SOURCE = '"""Doc."""\nimport numpy as np\nx = np.random.rand(3)\n'


def run_cli(argv):
    """``repro.cli.main(argv)`` with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def bad_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("check") / "bad.py"
    path.write_text(BAD_SOURCE, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def serial_run(bad_file):
    """One serial ``repro check`` over a graphlint finding.

    Counts every ``PackageIndex`` construction and ``build_summaries``
    call made anywhere during the run.
    """
    calls = {"PackageIndex": 0, "build_summaries": 0}
    original_init = index_module.PackageIndex.__init__
    original_build = summaries_module.build_summaries

    def counting_init(self, *args, **kwargs):
        calls["PackageIndex"] += 1
        original_init(self, *args, **kwargs)

    def counting_build(*args, **kwargs):
        calls["build_summaries"] += 1
        return original_build(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(index_module.PackageIndex, "__init__", counting_init)
        for module in list(sys.modules.values()):
            if getattr(module, "build_summaries", None) is original_build:
                patch.setattr(module, "build_summaries", counting_build)
        code, out, err = run_cli(["check", str(bad_file)])
    return code, out, err, calls


class TestUsageErrorsExitTwo:
    @pytest.mark.parametrize("flag", [
        "--definitely-not-a-flag",
        # Flags of the deleted per-tool CLIs stay deleted; each case is
        # named after the analyzer whose CLI had the flag.
        pytest.param("--statistics", id="graphlint"),
        pytest.param("--only", id="shapecheck"),
        pytest.param("--root", id="effectcheck"),
        pytest.param("--self-test", id="faultcheck"),
        "--package"])
    def test_unknown_flag(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["check", flag])
        assert excinfo.value.code == 2


class TestBadInputsExitTwo:
    def test_graphlint_missing_path(self, capsys):
        assert cli.main(["check", "definitely/not/a/path"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_effectcheck_missing_root(self, tmp_path):
        # The shared index refuses a typo'd package root instead of
        # analyzing zero modules into a vacuous "clean".
        with pytest.raises(FileNotFoundError, match="no such package"):
            PackageIndex(tmp_path / "nope")

    def test_program_missing_root(self, tmp_path):
        outcome = run_unit((PROGRAM_TOOL, program_unit,
                            (tmp_path / "nope",)))
        assert outcome.code == 2
        assert "no such package directory" in outcome.errors[0]


class TestFindingsExitOne:
    def test_graphlint_flags_planted_violation(self, serial_run, bad_file):
        code, out, err, _ = serial_run
        assert code == 1
        assert f"{bad_file}:3:5: REP001" in out
        assert "graphlint: 1 finding(s)" in err
        assert "shapecheck: clean" in err
        assert "effectcheck+faultcheck: clean" in err

    def test_graphlint_clean_file_exits_zero(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text('"""Doc."""\nVALUE = 1\n', encoding="utf-8")
        code, out, err = run_cli(["check", str(good)])
        assert code == 0
        assert out == ""
        assert err.count(": clean (") == 3

    def test_json_payload(self, bad_file):
        code, out, _ = run_cli(["check", str(bad_file), "--format", "json"])
        assert code == 1
        payload = json.loads(out)
        (row,) = payload["diagnostics"]
        assert (row["tool"], row["rule"], row["line"]) == \
            ("graphlint", "REP001", 3)
        assert sorted(payload["statistics"]) == \
            [f"REP{number:03d}" for number in range(18)]
        assert payload["statistics"]["REP001"] == 1
        assert sum(payload["statistics"].values()) == 1
        assert payload["shapecheck_failures"] == []
        assert payload["errors"] == []


class TestCheckJobsAggregation:
    def test_parser_accepts_jobs(self):
        args = build_parser().parse_args(["check", "--jobs", "4"])
        assert args.jobs == 4
        assert build_parser().parse_args(["check"]).jobs == 1

    def test_check_jobs_aggregates_worst_code(self, bad_file, capsys):
        # A graphlint finding must surface through the parallel path as
        # the aggregate exit code, with the report still printed.
        assert cli.main(["check", str(bad_file), "--jobs", "2"]) == 1
        captured = capsys.readouterr()
        assert "REP001" in captured.out
        assert captured.err.index("graphlint") \
            < captured.err.index("shapecheck") \
            < captured.err.index("effectcheck+faultcheck")

    def test_run_analyzer_captures_output_and_code(self, bad_file):
        # A unit's findings come back as data with its exit code, so a
        # worker process has nothing to capture from stdout.
        outcome = run_unit(("graphlint", lint_unit, ([str(bad_file)],)))
        assert outcome.tool == "graphlint"
        assert outcome.code == 1
        (diag,) = outcome.findings
        assert (diag.rule, diag.line) == ("REP001", 3)
        assert outcome.verdict() == "graphlint: 1 finding(s) (1 files, " \
            f"{len(lint.RULES)} rules)"

    def test_unit_crash_maps_to_internal(self):
        def broken():
            raise RuntimeError("analyzer bug")
        outcome = run_unit(("broken", broken, ()))
        assert outcome.code == 2
        assert "RuntimeError: analyzer bug" in outcome.errors[0]
        assert outcome.verdict() == "broken: internal error"

    def test_builds_index_and_summaries_once(self, serial_run):
        _, _, _, calls = serial_run
        assert calls == {"PackageIndex": 1, "build_summaries": 1}

    def test_rules_lists_every_rule(self, capsys):
        assert cli.main(["check", "--rules"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()
                  if line.startswith("REP")]
        assert listed == [f"REP{number:03d}" for number in range(18)]


class TestModuleRunner:
    def test_python_dash_m_repro_check(self, repro_check_run):
        code, payload = repro_check_run
        assert code == 0, payload
        assert payload["diagnostics"] == []
        assert payload["shapecheck_failures"] == []
        assert payload["errors"] == []
        assert payload["checks_run"] >= 23
        assert payload["files_checked"] > 100
