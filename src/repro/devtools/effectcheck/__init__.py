"""effectcheck — cross-procedural purity/effect analysis for repro.

The static half of the effect-contract system declared in
:mod:`repro.effects`.  It indexes the package source (:mod:`.index`),
infers per-function effect summaries and propagates them bottom-up over
the call graph (:mod:`.summaries`), then enforces the bit-exactness
rules REP009-REP012 (:mod:`.rules`): sanctioned mutation channels,
snapshot coverage of every reward-query effect, fork safety of
pool-shipped objects, and ``@pure``/``@mutates`` contract conformance.

The index and summaries are shared with faultcheck: run both with
``python -m repro check``, whose program analysis
(:func:`repro.devtools.check.analyze_program`) builds them once.
"""

from .index import PackageIndex
from .rules import RULES, Diagnostic, check_all
from .summaries import (Effect, FunctionSummary, build_summaries,
                        propagate_facts)

__all__ = [
    "PackageIndex", "RULES", "Diagnostic", "check_all", "Effect",
    "FunctionSummary", "build_summaries", "propagate_facts",
]
