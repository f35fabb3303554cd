"""Repo-native developer tooling: static analysis and numerical checking.

Four static analyzers keep the reproduction trustworthy as it scales,
and ``python -m repro check`` (:mod:`repro.devtools.check`) is their one
entry point:

* :mod:`repro.devtools.lint` — **graphlint**, a dependency-free AST linter
  enforcing the repo's correctness invariants (seeded randomness, no blind
  exception handlers, sanctioned tensor mutation, dtype discipline,
  backward-closure hygiene, docstring coverage, checkpoint determinism,
  retry-wrapped environment queries) as named ``REPxxx`` rules.
* :mod:`repro.devtools.shapecheck` — **shapecheck**, which runs the
  real forward passes of the nn layers, neural rankers and policy on
  small concrete inputs and verifies the ``@shape_spec`` contracts
  declared across the stack.
* :mod:`repro.devtools.effectcheck` — **effectcheck**, a
  cross-procedural purity/effect analyzer that verifies the
  ``@pure``/``@mutates`` contracts from :mod:`repro.effects` and the
  snapshot/fork invariants behind the parallel query engine's bit-exact
  guarantee (rules REP009-REP012).
* :mod:`repro.devtools.faultcheck` — **faultcheck**, a cross-procedural
  exception-flow and fork-protocol analyzer proving the serve layer's
  fault-tolerance invariants: no taxonomy laundering of host errors,
  taxonomy exhaustiveness on the supervised query path, fork-safe
  worker closures, journal torn-tail discipline and restore-on-raise
  consistency (rules REP013-REP017).

effectcheck and faultcheck share one program analysis:
:func:`analyze_program` indexes the package and builds its call-graph
summaries once, then runs both rule families on them.  Suppression
comments, the JSON payload and the 0/1/2 exit codes live in
:mod:`repro.devtools.common`.

:mod:`repro.devtools.gradcheck` is the shared finite-difference gradient
checker used by the ``repro.nn`` test-suite and by recommender-loss
end-to-end checks.  The autograd *runtime* sanitizer lives next to the
engine it instruments: :mod:`repro.nn.anomaly`.
"""

__all__ = ["Diagnostic", "RULES", "lint_paths", "lint_source",
           "gradcheck", "gradcheck_param", "numeric_gradient",
           "ContractError", "checked_call", "analyze_program"]

_LINT_NAMES = ("Diagnostic", "RULES", "lint_paths", "lint_source")
_GRADCHECK_NAMES = ("gradcheck", "gradcheck_param", "numeric_gradient")
_SHAPECHECK_NAMES = ("ContractError", "checked_call")


def __getattr__(name):
    """Lazily resolve the public surface from the submodules.

    Keeps ``import repro.devtools`` cheap and keeps the (stdlib-only)
    linter importable without the numeric stack the gradcheck/shapecheck
    helpers need.
    """
    if name in _LINT_NAMES:
        from . import lint
        return getattr(lint, name)
    if name in _GRADCHECK_NAMES:
        from . import gradcheck as _gradcheck
        return getattr(_gradcheck, name)
    if name in _SHAPECHECK_NAMES:
        from . import shapecheck as _shapecheck
        return getattr(_shapecheck, name)
    if name == "analyze_program":
        from .check import analyze_program
        return analyze_program
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
