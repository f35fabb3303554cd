"""Conventions shared by the repo's static analyzers.

graphlint, shapecheck, effectcheck and faultcheck all report through
``python -m repro check``; this module is the single home for what they
have in common:

* **suppression comments** — ``# <marker>: disable=REPxxx`` on any
  physical line of the innermost statement containing a diagnostic
  (``disable`` with no ids silences every rule there).  Each rule family
  keeps its own marker: ``graphlint`` for REP000–REP008,
  ``effectcheck`` for REP009–REP012, ``faultcheck`` for REP013–REP017;
* **report plumbing** — the ``--format json`` payload and its per-rule
  ``statistics`` counts;
* **exit codes** — ``0`` clean, ``1`` findings, ``2`` internal error
  (bad paths, unparseable sources, analyzer crashes).  ``argparse``
  usage errors also exit ``2``, so CI can gate on the codes alone.

Nothing here imports the analyzed package or the numeric stack; the
module is stdlib-only so the linters stay runnable in a bare container.
"""

from __future__ import annotations

import ast
import functools
import json
import re
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

#: Uniform analyzer exit codes (see module docstring).
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_INTERNAL = 2


@functools.lru_cache(maxsize=None)
def suppression_pattern(tool: str) -> "re.Pattern[str]":
    """The compiled ``# <tool>: disable[=ids]`` comment pattern."""
    return re.compile(
        rf"#\s*{re.escape(tool)}:\s*disable(?:=(?P<ids>[A-Za-z0-9_,\s]+))?")


def suppressed_rules(line: str,
                     pattern: "re.Pattern[str]") -> Optional[frozenset]:
    """Rule ids disabled on ``line``; empty set means "all rules"."""
    match = pattern.search(line)
    if match is None:
        return None
    ids = match.group("ids")
    if not ids:
        return frozenset()
    return frozenset(part.strip().upper() for part in ids.split(",")
                     if part.strip())


def stmt_spans(tree: ast.AST) -> List[Tuple[int, int]]:
    """Physical line spans of every statement, headers only for blocks.

    A compound statement's span stops before its first body statement so
    a suppression inside a ``def`` cannot silence a diagnostic anchored
    on the ``def`` line itself.
    """
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            end = max(start, body[0].lineno - 1)
        else:
            end = getattr(node, "end_lineno", None) or start
        spans.append((start, end))
    return spans


class SuppressionFilter:
    """Per-file suppression lookups, built from the file's parsed AST.

    The disable comment may sit on any physical line of the *innermost*
    statement containing the diagnostic — multi-line calls and
    parenthesized expressions commonly carry it on their closing line.
    """

    def __init__(self, lines: Sequence[str], tree: ast.AST) -> None:
        self.lines = lines
        self.spans = stmt_spans(tree)

    def covers(self, marker: str, rule: str, line: int) -> bool:
        """Whether a ``# <marker>: disable`` comment silences ``rule``."""
        pattern = suppression_pattern(marker)
        candidates = {line}
        best: Optional[Tuple[int, int]] = None
        for start, end in self.spans:
            if start <= line <= end:
                if best is None or end - start < best[1] - best[0]:
                    best = (start, end)
        if best is not None:
            candidates.update(range(best[0], best[1] + 1))
        for lineno in candidates:
            if not 0 < lineno <= len(self.lines):
                continue
            disabled = suppressed_rules(self.lines[lineno - 1], pattern)
            if disabled is not None and (not disabled or rule in disabled):
                return True
        return False


def rule_statistics(diagnostics: Iterable, rule_ids: Iterable[str]) -> dict:
    """Diagnostic counts per rule id, covering every registered rule."""
    counts = {rule_id: 0 for rule_id in rule_ids}
    for diag in diagnostics:
        counts[diag.rule] = counts.get(diag.rule, 0) + 1
    return counts


def json_report(rows: Sequence[dict], statistics: dict, **extra) -> str:
    """The ``--format json`` payload: diagnostics, statistics, extras."""
    payload = {"diagnostics": list(rows), "statistics": statistics}
    payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True)


def display_path(path: str) -> str:
    """Render ``path`` relative to the CWD when possible (clickable)."""
    try:
        return str(Path(path).resolve().relative_to(Path.cwd()))
    except ValueError:
        return path


def exit_code(diagnostics: Sequence) -> int:
    """The uniform exit code for a finished, non-crashed analysis."""
    return EXIT_FINDINGS if diagnostics else EXIT_CLEAN
