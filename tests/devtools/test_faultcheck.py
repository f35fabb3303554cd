"""Faultcheck: cross-procedural exception-flow analysis of ``repro``.

Three layers of coverage:

* the repo-clean gate — the real source tree must produce zero
  diagnostics with zero suppressions (this is the CI contract),
* the mutation tests — the two historical fault-path bugs (a supervised
  handler widened to swallow ``MemoryError``, the deleted worker signal
  resets from PR 6) must be reported at their exact file:line with the
  cross-procedural call chain, and
* unit tests for the analyzer internals: raise-set propagation,
  handler subtraction, taxonomy ancestry and report formats.
"""

import json
from pathlib import Path

import pytest

from repro import cli
from repro.devtools.check import (PACKAGE_ROOT, analyze_program,
                                  program_unit, render_json, render_text)
from repro.devtools.faultcheck.rules import FaultContext

from .plants import (copy_package, plant_deleted_signal_reset,
                     plant_swallowed_host_error)

SRC_ROOT = PACKAGE_ROOT


@pytest.fixture(scope="module")
def doctored_tree(tmp_path_factory):
    """A copy of ``src/repro`` with both historical bugs planted."""
    root = copy_package(tmp_path_factory.mktemp("doctored"))
    sched_path, handler_line = plant_swallowed_host_error(root)
    pool_path, entry_line = plant_deleted_signal_reset(root)
    return root, (sched_path, handler_line), (pool_path, entry_line)


@pytest.fixture(scope="module")
def doctored_program(doctored_tree):
    """The program analysis of the doctored copy."""
    return analyze_program(doctored_tree[0])


# ----------------------------------------------------------------------
# Repo-clean gate
# ----------------------------------------------------------------------
class TestCleanTree:
    def test_no_diagnostics(self, clean_program):
        assert clean_program.diagnostics == []

    def test_no_suppression_comments_in_src(self):
        # The checker's own modules document the marker; everything
        # else in src/ must pass with zero suppressions.
        checker_dir = SRC_ROOT / "devtools" / "faultcheck"
        common = SRC_ROOT / "devtools" / "common.py"
        offenders = [path for path in SRC_ROOT.rglob("*.py")
                     if checker_dir not in path.parents
                     and path != common
                     and "faultcheck: disable" in
                     path.read_text(encoding="utf-8")]
        assert offenders == []

    def test_cli_exit_zero_on_clean_tree(self, capsys):
        outcome = program_unit(SRC_ROOT)
        assert outcome.code == 0
        render_text([outcome])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "clean" in captured.err


# ----------------------------------------------------------------------
# Mutation test 1: the supervised handler swallows MemoryError (REP013)
# ----------------------------------------------------------------------
class TestSwallowedHostError:
    def test_reported_at_exact_handler_line(self, doctored_tree,
                                            doctored_program):
        _, (sched_path, handler_line), _ = doctored_tree
        diagnostics = doctored_program.diagnostics
        hits = [d for d in diagnostics
                if d.rule == "REP013" and d.line == handler_line
                and Path(d.path) == sched_path]
        assert hits, [f"{d.path}:{d.line} {d.rule}" for d in diagnostics]
        assert any("MemoryError" in d.message for d in hits)

    def test_chain_reaches_scheduler_run(self, doctored_tree,
                                         doctored_program):
        _, (_, handler_line), _ = doctored_tree
        diagnostics = doctored_program.diagnostics
        hits = [d for d in diagnostics
                if d.rule == "REP013" and d.line == handler_line]
        assert any("CampaignScheduler.run" in frame
                   for d in hits for frame in d.chain)


# ----------------------------------------------------------------------
# Mutation test 2: the worker signal reset is deleted (REP015, PR 6)
# ----------------------------------------------------------------------
class TestDeletedSignalReset:
    def test_reported_at_worker_entry_line(self, doctored_tree,
                                           doctored_program):
        _, _, (pool_path, entry_line) = doctored_tree
        diagnostics = doctored_program.diagnostics
        hits = [d for d in diagnostics
                if d.rule == "REP015" and d.line == entry_line
                and Path(d.path) == pool_path]
        assert hits, [f"{d.path}:{d.line} {d.rule}" for d in diagnostics]
        assert any("SIGTERM" in d.message or "SIGINT" in d.message
                   for d in hits)

    def test_provenance_chain_names_the_installer(self, doctored_tree,
                                                  doctored_program):
        # The finding must explain *which* inherited handler is the
        # hazard: the drain controller's signal.signal install.
        _, _, (_, entry_line) = doctored_tree
        diagnostics = doctored_program.diagnostics
        hits = [d for d in diagnostics
                if d.rule == "REP015" and d.line == entry_line]
        assert any("DrainController.install" in frame
                   for d in hits for frame in d.chain)


# ----------------------------------------------------------------------
# End-to-end: the doctored tree through the CLI surfaces
# ----------------------------------------------------------------------
class TestDoctoredCli:
    def test_cli_exit_one_and_text_output(self, doctored_tree, capsys):
        root, (_, handler_line), (_, entry_line) = doctored_tree
        outcome = program_unit(root)
        assert outcome.code == 1
        render_text([outcome])
        out = capsys.readouterr().out
        assert f":{handler_line}: REP013" in out
        assert f":{entry_line}: REP015" in out

    def test_json_format(self, doctored_tree, capsys):
        root, (_, handler_line), (_, entry_line) = doctored_tree
        render_json([program_unit(root)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["statistics"].get("REP013", 0) >= 1
        assert payload["statistics"].get("REP015", 0) >= 1
        lines = {(d["rule"], d["line"]) for d in payload["diagnostics"]}
        assert ("REP013", handler_line) in lines
        assert ("REP015", entry_line) in lines

    def test_suppression_comment_silences_handler_line(self, tmp_path):
        root = copy_package(tmp_path)
        sched_path, handler_line = plant_swallowed_host_error(root)
        lines = sched_path.read_text(encoding="utf-8").splitlines(
            keepends=True)
        idx = handler_line - 1
        lines[idx] = lines[idx].rstrip("\n") \
            + "  # faultcheck: disable=REP013\n"
        sched_path.write_text("".join(lines), encoding="utf-8")
        diagnostics = analyze_program(root).diagnostics
        assert not [d for d in diagnostics
                    if d.rule == "REP013" and d.line == handler_line]


# ----------------------------------------------------------------------
# Analyzer internals
# ----------------------------------------------------------------------
class TestRaisePropagation:
    def test_fatal_taxonomy_raises_reach_the_agent(self, clean_program):
        # The failure-budget fatal escapes the campaign loop by design;
        # the raise set of PoisonRec.train must carry it with a
        # cross-procedural chain back to the leaf raise.
        ctx = FaultContext.build(clean_program.index,
                                 clean_program.summaries)
        entry = next(key for key in ctx.entries
                     if key.endswith("PoisonRec.train"))
        facts = ctx.raise_table[entry].values()
        budget = [fact for fact in facts
                  if fact.name == "FailureBudgetExhausted"]
        assert budget
        assert any(fact.chain for fact in budget)

    def test_handled_raises_are_subtracted(self, clean_program):
        # RetriesExhaustedError is caught on-path (the campaign loop
        # quarantines the sample; _serial_outcome absorbs it for the
        # pool), so neither entry may propagate it.
        ctx = FaultContext.build(clean_program.index,
                                 clean_program.summaries)
        for suffix in ("PoisonRec.train", "QueryPool.attack_many"):
            entry = next(key for key in ctx.entries
                         if key.endswith(suffix))
            names = {fact.name
                     for fact in ctx.raise_table[entry].values()}
            assert "RetriesExhaustedError" not in names, suffix

    def test_host_triple_ancestry(self, clean_program):
        ctx = FaultContext.build(clean_program.index,
                                 clean_program.summaries)
        assert "RuntimeError" in ctx.table.ancestry("RecursionError")
        mismatch = next(key for key in clean_program.index.classes
                        if key.endswith("SnapshotMismatchError"))
        assert "CampaignError" in ctx.table.ancestry(mismatch)

    def test_host_errors_tuple_alias_expanded(self, clean_program):
        ctx = FaultContext.build(clean_program.index,
                                 clean_program.summaries)
        alias = ctx.table.tuple_aliases.get(
            "repro.serve.supervision.HOST_ERRORS")
        assert alias == ("MemoryError", "SystemError", "RecursionError")


class TestForkProtocol:
    def test_worker_entry_discovered(self, clean_program):
        ctx = FaultContext.build(clean_program.index,
                                 clean_program.summaries)
        assert any(key.endswith("_worker_main")
                   for key in ctx.fork_entries)

    def test_worker_resets_recorded(self, clean_program):
        ctx = FaultContext.build(clean_program.index,
                                 clean_program.summaries)
        entry = next(key for key in ctx.fork_entries
                     if key.endswith("_worker_main"))
        assert {"SIGTERM", "SIGINT"} <= ctx.facts[entry].resets


class TestModuleRunner:
    def test_python_dash_m_entry_point(self, repro_check_run):
        # `python -m repro check` runs faultcheck in its program analysis.
        code, payload = repro_check_run
        assert code == 0, payload
        for rule_id in ("REP013", "REP014", "REP015", "REP016", "REP017"):
            assert payload["statistics"][rule_id] == 0
        assert payload["modules_checked"] > 90

    def test_rules_listing(self, capsys):
        assert cli.main(["check", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP013", "REP014", "REP015", "REP016", "REP017"):
            assert rule_id in out
