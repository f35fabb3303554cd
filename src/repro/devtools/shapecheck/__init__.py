"""Shapecheck: ``@shape_spec`` contract verification for the repro stack.

Runs the real forward passes of every nn layer, inner recommender net,
policy network and registered ranker on small concrete inputs and
verifies each declared contract against the actual int shapes with
:func:`checked_call`.  See ``docs/static_analysis.md`` for the design;
``python -m repro check`` runs the whole-repo check (:func:`run_all`).
"""

from .contracts import ContractError, checked_call, parse_spec
from .drivers import CheckResult, build_checks, run_all, run_checks

__all__ = [
    "ContractError", "checked_call", "parse_spec",
    "CheckResult", "build_checks", "run_checks", "run_all",
]
