"""Effectcheck: cross-procedural purity/effect analysis of ``repro``.

Three layers of coverage:

* the repo-clean gate — the real source tree must produce zero
  diagnostics with zero suppressions (this is the CI contract),
* the mutation test — a hidden in-place write planted inside
  ``ItemPop.score_batch`` must be reported at its exact file:line, both
  directly and through the cross-procedural call chain from
  ``RecommenderSystem.recommend``, and
* unit tests for the analyzer internals: effect summaries, contract
  inheritance, suppression comments and report formats.
"""

import json
from pathlib import Path

import pytest

from repro.devtools.check import (PACKAGE_ROOT, analyze_program,
                                  program_unit, render_json, render_text)

from .plants import copy_package, plant_mutation

SRC_ROOT = PACKAGE_ROOT


@pytest.fixture(scope="module")
def mutated_tree(tmp_path_factory):
    """A doctored copy of ``src/repro`` with a hidden write in scoring."""
    root = copy_package(tmp_path_factory.mktemp("mutated"))
    planted_path, planted_line = plant_mutation(root)
    return root, planted_path, planted_line


@pytest.fixture(scope="module")
def mutated_program(mutated_tree):
    """The program analysis of the doctored copy."""
    return analyze_program(mutated_tree[0])


# ----------------------------------------------------------------------
# Repo-clean gate
# ----------------------------------------------------------------------
class TestCleanTree:
    def test_no_diagnostics(self, clean_program):
        assert clean_program.diagnostics == []

    def test_no_suppression_comments_in_src(self):
        # The checker's own module documents the marker; everything
        # else in src/ must pass with zero suppressions.
        checker_dir = SRC_ROOT / "devtools" / "effectcheck"
        offenders = [path for path in SRC_ROOT.rglob("*.py")
                     if checker_dir not in path.parents
                     and "effectcheck: disable" in
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
# Mutation test: exact-line, cross-procedural detection
# ----------------------------------------------------------------------
class TestPlantedMutation:
    def test_reported_at_exact_line(self, mutated_tree, mutated_program):
        _, planted_path, planted_line = mutated_tree
        diagnostics = mutated_program.diagnostics
        hits = [d for d in diagnostics
                if d.rule == "REP012" and d.line == planted_line
                and Path(d.path) == planted_path]
        assert hits, [f"{d.path}:{d.line} {d.rule}" for d in diagnostics]
        assert any("counts" in d.message for d in hits)

    def test_direct_and_chained_diagnostics(self, mutated_tree,
                                            mutated_program):
        _, _, planted_line = mutated_tree
        diagnostics = mutated_program.diagnostics
        at_line = [d for d in diagnostics if d.line == planted_line]
        assert any(d.chain == () for d in at_line)
        chained = [d for d in at_line if d.chain]
        assert any("recommend" in frame for d in chained
                   for frame in d.chain)

    def test_cli_exit_one_and_text_output(self, mutated_tree, capsys):
        root, planted_path, planted_line = mutated_tree
        outcome = program_unit(root)
        assert outcome.code == 1
        render_text([outcome])
        out = capsys.readouterr().out
        assert f"{planted_path.name}:{planted_line}" in out.replace(
            str(planted_path), planted_path.name)
        assert "REP012" in out

    def test_json_format(self, mutated_tree, capsys):
        root, _, planted_line = mutated_tree
        render_json([program_unit(root)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["statistics"].get("REP012", 0) >= 1
        assert any(d["line"] == planted_line
                   for d in payload["diagnostics"])

    def test_suppression_comment_silences_planted_line(self, tmp_path):
        root = copy_package(tmp_path)
        planted_path, planted_line = plant_mutation(root)
        lines = planted_path.read_text(encoding="utf-8").splitlines(
            keepends=True)
        idx = planted_line - 1
        lines[idx] = lines[idx].rstrip("\n") \
            + "  # effectcheck: disable=REP012\n"
        planted_path.write_text("".join(lines), encoding="utf-8")
        diagnostics = analyze_program(root).diagnostics
        assert not [d for d in diagnostics if d.line == planted_line]

    def test_suppression_on_closing_line_of_multiline_write(self,
                                                            tmp_path):
        # The diagnostic anchors on the write's first line; the comment
        # sits on the closing line of the same statement, which the
        # filter honours because it is built with the module's AST.
        root = copy_package(tmp_path)
        planted_path, planted_line = plant_mutation(root)
        lines = planted_path.read_text(encoding="utf-8").splitlines(
            keepends=True)
        idx = planted_line - 1
        indent = lines[idx][:len(lines[idx]) - len(lines[idx].lstrip())]
        lines[idx] = (f"{indent}self.counts[0] += (\n"
                      f"{indent}    1.0)  # effectcheck: disable=REP012\n")
        planted_path.write_text("".join(lines), encoding="utf-8")
        diagnostics = analyze_program(root).diagnostics
        assert not [d for d in diagnostics if d.line == planted_line]


# ----------------------------------------------------------------------
# Analyzer internals
# ----------------------------------------------------------------------
class TestSummaries:
    def test_score_paths_are_effect_free(self, clean_program):
        summaries = clean_program.summaries
        for key in ("repro.recsys.itempop.ItemPop.score",
                    "repro.recsys.pmf.PMF.score_batch",
                    "repro.recsys.system.RecommenderSystem.recommend"):
            assert not summaries[key].effects, key

    def test_poison_update_writes_propagate_cross_procedurally(
            self, clean_program):
        # PMF.poison_update only touches its factor tables indirectly,
        # through _sgd_epochs -> _apply_accumulated; the summary must
        # still attribute the writes to self.
        summaries = clean_program.summaries
        summary = summaries["repro.recsys.pmf.PMF.poison_update"]
        attrs = {e.root[1] for e in summary.effects.values()
                 if e.kind == "write" and e.root[0] == "self"}
        assert {"user_factors", "item_factors"} <= attrs
        chained = [e for e in summary.effects.values() if e.chain]
        assert chained, "expected at least one inherited (chained) effect"

    def test_rng_draws_are_tracked(self, clean_program):
        summaries = clean_program.summaries
        summary = summaries["repro.recsys.pmf.PMF.poison_update"]
        assert any(e.kind == "rng" for e in summary.effects.values())


class TestContracts:
    def test_spec_inherited_through_mro(self, clean_program):
        # ItemPop declares @mutates("counts") on poison_update itself,
        # but score_batch on PMF inherits @pure via the base protocol
        # when undecorated subclasses appear; find_spec must walk the
        # MRO rather than only the defining class.
        index = clean_program.index
        cls = next(c for c in index.classes.values()
                   if c.name == "ItemPop")
        spec = index.find_spec(cls, "restore")
        assert spec is not None and "*" in spec

    def test_protocol_methods_all_declared(self, clean_program):
        # The missing-contract half of REP012: every concrete ranker's
        # fit/score/poison_update/... must carry @pure or @mutates.
        index = clean_program.index
        rankers = [c for c in index.classes.values()
                   if any(m in c.methods for m in ("fit",))
                   and index.find_spec(c, "fit") is not None]
        assert len(rankers) >= 8


class TestModuleRunner:
    def test_python_dash_m_entry_point(self, repro_check_run):
        # `python -m repro check` runs effectcheck in its program analysis.
        code, payload = repro_check_run
        assert code == 0, payload
        for rule_id in ("REP009", "REP010", "REP011", "REP012"):
            assert payload["statistics"][rule_id] == 0
        assert payload["modules_checked"] > 90
