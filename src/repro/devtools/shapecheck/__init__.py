"""Shapecheck: a symbolic shape/dtype abstract interpreter for repro.nn.

Traces real forward-pass code on :class:`SymTensor` values whose dims
are ints or named symbols (``B``, ``T``), verifying ``@shape_spec``
contracts without a single real matmul.  See
``docs/static_analysis.md`` for the architecture; ``python -m repro
check`` runs the whole-repo check (:func:`run_all`).
"""

from .contracts import ContractError, checked_call, parse_spec, verify
from .drivers import CheckResult, build_checks, run_all, run_checks
from .symbolic import (BOOL, FLOAT32, FLOAT64, INT64, Dim, ShapeError,
                       SymTensor, as_symbolic, broadcast_shapes,
                       concat_shapes, matmul_shape, reshape_shape,
                       stack_shapes, sym_input)
from .trace import SYMBOLIC_OP_NAMES, is_tracing, symbolic_trace

__all__ = [
    "SymTensor", "Dim", "ShapeError", "sym_input", "as_symbolic",
    "BOOL", "INT64", "FLOAT32", "FLOAT64",
    "broadcast_shapes", "matmul_shape", "concat_shapes", "stack_shapes",
    "reshape_shape",
    "symbolic_trace", "is_tracing", "SYMBOLIC_OP_NAMES",
    "ContractError", "checked_call", "parse_spec", "verify",
    "CheckResult", "build_checks", "run_checks", "run_all",
]
