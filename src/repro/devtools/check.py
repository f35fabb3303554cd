"""``repro check``: every static analyzer behind one entry point.

Three work units cover the four analyzers:

* **graphlint** over the given paths (REP000–REP008, one file at a time);
* **shapecheck**, the symbolic forward passes that verify every
  ``@shape_spec`` contract;
* the **program analysis**: :func:`analyze_program` indexes the
  ``repro`` package and builds its call-graph summaries once, then runs
  effectcheck (REP009–REP012) and faultcheck (REP013–REP017) on them.

Each unit returns an :class:`Outcome` of plain data, so ``--jobs N``
can run the units in worker processes.  The report is printed in the
order above whatever the scheduling, and the exit code is the worst
unit's: 0 clean, 1 findings, 2 internal error.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from ..serve.supervision import HOST_ERRORS
from . import lint
from .common import (EXIT_INTERNAL, SuppressionFilter, display_path,
                     exit_code, json_report, rule_statistics)
from .effectcheck import rules as effect_rules
from .effectcheck.index import PackageIndex
from .effectcheck.rules import Diagnostic
from .effectcheck.summaries import FunctionSummary, build_summaries
from .faultcheck import rules as fault_rules

#: Every rule ``repro check`` reports, as ``(id, title, rationale)``.
RULES: Tuple[Tuple[str, str, str], ...] = (
    (lint.SYNTAX_RULE,)
    + tuple((rule.id, rule.title, rule.rationale) for rule in lint.RULES)
    + effect_rules.RULES + fault_rules.RULES)

#: Suppression-comment marker of each program-analysis rule.
MARKERS: Dict[str, str] = {
    **{rule_id: "effectcheck" for rule_id, _, _ in effect_rules.RULES},
    **{rule_id: "faultcheck" for rule_id, _, _ in fault_rules.RULES},
}

#: The package the program analysis covers: the installed ``repro``.
PACKAGE_ROOT = Path(__file__).resolve().parents[1]

#: Report name of the program-analysis unit.
PROGRAM_TOOL = "effectcheck+faultcheck"


@dataclass
class Program:
    """One package tree, indexed and summarized once, with its findings."""

    index: PackageIndex
    summaries: Dict[str, FunctionSummary]
    diagnostics: List[Diagnostic]


def analyze_program(root: Path) -> Program:
    """Index and summarize ``root`` once; run the effect and fault rules.

    Findings pass through one :class:`SuppressionFilter` per module,
    built from the module's AST, under each rule family's own marker.
    Effect findings come first, then fault findings, each sorted by
    location.
    """
    index = PackageIndex(Path(root))
    summaries = build_summaries(index)
    filters = {module.path: SuppressionFilter(module.source_lines,
                                              module.tree)
               for module in index.modules.values()}
    diagnostics = [
        diag for diag in (effect_rules.check_all(index, summaries)
                          + fault_rules.check_all(index, summaries))
        if not filters[diag.path].covers(MARKERS[diag.rule], diag.rule,
                                         diag.line)]
    return Program(index, summaries, diagnostics)


@dataclass
class Outcome:
    """What one work unit found; plain data, so it pickles across jobs."""

    tool: str
    #: Scope of the run for the verdict line, e.g. ``"23 checks"``.
    detail: str = ""
    #: Rule diagnostics (graphlint, effectcheck and faultcheck).
    findings: list = field(default_factory=list)
    #: Every shapecheck ``CheckResult``, passing ones included.
    checks: list = field(default_factory=list)
    #: Counters the JSON report carries (``files_checked``, ...).
    counts: Dict[str, int] = field(default_factory=dict)
    #: Internal errors: unparseable package modules, analyzer crashes.
    errors: List[str] = field(default_factory=list)

    @property
    def failures(self) -> list:
        """The shapecheck checks that failed."""
        return [check for check in self.checks if not check.ok]

    @property
    def code(self) -> int:
        """This unit's exit code (0 clean, 1 findings, 2 internal)."""
        if self.errors:
            return EXIT_INTERNAL
        return exit_code(self.findings + self.failures)

    def verdict(self) -> str:
        """The one-line summary printed on stderr."""
        if self.errors:
            return f"{self.tool}: internal error"
        problems = len(self.findings) + len(self.failures)
        state = f"{problems} finding(s)" if problems else "clean"
        return f"{self.tool}: {state} ({self.detail})"


def lint_unit(paths: Sequence[str]) -> Outcome:
    """graphlint over every python file under ``paths``."""
    diagnostics, checked = lint.lint_paths(paths)
    return Outcome("graphlint", f"{checked} files, {len(lint.RULES)} rules",
                   findings=diagnostics, counts={"files_checked": checked})


def shape_unit() -> Outcome:
    """shapecheck over every registered model and policy."""
    from .shapecheck import drivers
    results = drivers.run_all()
    return Outcome("shapecheck", f"{len(results)} checks", checks=results,
                   counts={"checks_run": len(results)})


def program_unit(root: Path) -> Outcome:
    """effectcheck and faultcheck over one :func:`analyze_program`."""
    program = analyze_program(root)
    index = program.index
    if index.errors:
        return Outcome(PROGRAM_TOOL, errors=list(index.errors))
    return Outcome(PROGRAM_TOOL,
                   f"{len(index.modules)} modules, "
                   f"{len(index.functions)} functions",
                   findings=program.diagnostics,
                   counts={"modules_checked": len(index.modules),
                           "functions_analyzed": len(index.functions)})


#: One work unit: its tool name, the unit function and its arguments.
Unit = Tuple[str, Callable[..., Outcome], tuple]


def run_unit(unit: Unit) -> Outcome:
    """Run one work unit; a crash becomes that unit's internal error.

    Module-level and picklable so ``--jobs N`` can dispatch it to worker
    processes; one broken analyzer cannot mask the others.
    """
    tool, function, args = unit
    try:
        return function(*args)
    except Exception as error:
        if isinstance(error, HOST_ERRORS):
            raise  # a sick host is not an analyzer finding
        return Outcome(tool, errors=[traceback.format_exc()])


def render_text(outcomes: Sequence[Outcome], verbose: bool = False) -> None:
    """Findings on stdout, one verdict line per unit on stderr."""
    for outcome in outcomes:
        for diag in outcome.findings:
            print(diag.format())
        for check in outcome.checks:
            if not check.ok:
                print(f" FAIL {check.name}")
                for line in check.detail.splitlines():
                    print(f"      {line}")
            elif verbose:
                print(f"   ok {check.name}")
        for error in outcome.errors:
            print(f"{outcome.tool}: {error}", file=sys.stderr)
        print(outcome.verdict(), file=sys.stderr)


def render_json(outcomes: Sequence[Outcome]) -> None:
    """One JSON payload: findings, per-rule statistics, counters."""
    rows = [dict(asdict(diag), tool=outcome.tool,
                 path=display_path(diag.path))
            for outcome in outcomes for diag in outcome.findings]
    statistics = rule_statistics(
        [diag for outcome in outcomes for diag in outcome.findings],
        [rule_id for rule_id, _, _ in RULES])
    counts: Dict[str, int] = {}
    for outcome in outcomes:
        counts.update(outcome.counts)
    print(json_report(
        rows, statistics,
        shapecheck_failures=[asdict(check) for outcome in outcomes
                             for check in outcome.failures],
        errors=[f"{outcome.tool}: {error}" for outcome in outcomes
                for error in outcome.errors],
        **counts))


def describe_rules() -> None:
    """Print every rule: id, title, indented rationale."""
    for rule_id, title, rationale in RULES:
        print(f"{rule_id}  {title}")
        print(f"        {rationale}")


def run_check(paths: Sequence[str], fmt: str = "text", jobs: int = 1,
              verbose: bool = False) -> int:
    """Run every analyzer, print one report, return the exit code.

    ``paths`` scope graphlint; the program analysis always covers the
    installed ``repro`` package.  With ``jobs > 1`` the three units run
    in that many worker processes, the program analysis (the longest)
    dispatched first.
    """
    missing = [path for path in paths if not Path(path).exists()]
    for path in missing:
        # A typo'd CI path must not produce a vacuous "clean" pass.
        print(f"repro check: no such file or directory: {path}",
              file=sys.stderr)
    if missing:
        return EXIT_INTERNAL
    units: List[Unit] = [("graphlint", lint_unit, (list(paths),)),
                         ("shapecheck", shape_unit, ()),
                         (PROGRAM_TOOL, program_unit, (PACKAGE_ROOT,))]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(units))) as pool:
            outcomes = list(pool.map(run_unit, units[::-1]))[::-1]
    else:
        outcomes = [run_unit(unit) for unit in units]
    if fmt == "json":
        render_json(outcomes)
    else:
        render_text(outcomes, verbose)
    return max(outcome.code for outcome in outcomes)
