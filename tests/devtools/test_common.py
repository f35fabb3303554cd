"""Shared analyzer infrastructure (``repro.devtools.common``).

The suppression parser, statement-span logic, JSON payload shape and
exit-code convention are shared by all four analyzers, so a regression
here would silently change every tool at once.
"""

import ast
import json

from repro.devtools.common import (EXIT_CLEAN, EXIT_FINDINGS,
                                   EXIT_INTERNAL, SuppressionFilter,
                                   exit_code, json_report,
                                   rule_statistics, stmt_spans,
                                   suppressed_rules, suppression_pattern)


class _Diag:
    def __init__(self, rule):
        self.rule = rule


class TestSuppressionParsing:
    def test_targeted_ids(self):
        pattern = suppression_pattern("sometool")
        got = suppressed_rules("x = 1  # sometool: disable=REP001, rep002",
                               pattern)
        assert got == frozenset({"REP001", "REP002"})

    def test_disable_all(self):
        pattern = suppression_pattern("sometool")
        assert suppressed_rules("x  # sometool: disable", pattern) \
            == frozenset()

    def test_other_tool_comment_ignored(self):
        pattern = suppression_pattern("sometool")
        assert suppressed_rules("x  # othertool: disable=REP001",
                                pattern) is None


class TestSuppressionFilter:
    SOURCE = ("def f():\n"
              "    value = call(\n"
              "        1,\n"
              "    )  # mytool: disable=REP001\n")

    def _filter(self):
        return SuppressionFilter(self.SOURCE.splitlines(),
                                 ast.parse(self.SOURCE))

    def test_comment_on_closing_line_covers_statement(self):
        # The diagnostic anchors on the call's first line; the comment
        # sits on the closing paren of the same (innermost) statement.
        assert self._filter().covers("mytool", "REP001", 2)

    def test_wrong_rule_id_does_not_cover(self):
        assert not self._filter().covers("mytool", "REP999", 2)

    def test_def_line_not_covered_by_body_comment(self):
        # A compound statement's span stops before its first body
        # statement, so the def line itself stays uncovered.
        assert not self._filter().covers("mytool", "REP001", 1)

    def test_other_marker_does_not_cover(self):
        # One filter serves every rule family; each keeps its marker.
        assert not self._filter().covers("othertool", "REP001", 2)


class TestStmtSpans:
    def test_compound_header_span_stops_before_body(self):
        tree = ast.parse("def f():\n    x = 1\n    y = 2\n")
        assert (1, 1) in stmt_spans(tree)
        assert (2, 2) in stmt_spans(tree)


class TestReportPlumbing:
    def test_statistics_cover_every_rule(self):
        counts = rule_statistics([_Diag("REP001"), _Diag("REP001")],
                                 ["REP001", "REP002"])
        assert counts == {"REP001": 2, "REP002": 0}

    def test_json_report_shape(self):
        payload = json.loads(json_report(
            [{"rule": "REP001"}], {"REP001": 1}, files_checked=3))
        assert payload["diagnostics"] == [{"rule": "REP001"}]
        assert payload["statistics"] == {"REP001": 1}
        assert payload["files_checked"] == 3

    def test_exit_codes(self):
        assert (EXIT_CLEAN, EXIT_FINDINGS, EXIT_INTERNAL) == (0, 1, 2)
        assert exit_code([]) == EXIT_CLEAN
        assert exit_code([_Diag("REP001")]) == EXIT_FINDINGS
