"""Shapecheck: shape algebra, tracer, contracts, CLI and mutation tests."""

import inspect
import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.devtools.shapecheck import (BOOL, ContractError, Dim, FLOAT64,
                                       INT64, ShapeError, SymTensor,
                                       broadcast_shapes, checked_call,
                                       concat_shapes, matmul_shape,
                                       parse_spec, reshape_shape,
                                       run_all, run_checks, stack_shapes,
                                       sym_input, symbolic_trace)
from repro.devtools.check import render_text, shape_unit
from repro.devtools.shapecheck import drivers
from repro.nn import Dense, Tensor
from repro.nn import functional as F
from repro.nn.spec import SPEC_ATTRIBUTE, get_shape_spec, shape_spec

B = Dim("B")
T = Dim("T")


class TestShapeAlgebra:
    def test_broadcast_symbolic_against_one(self):
        assert broadcast_shapes((B, 1), (B, 5)) == (B, 5)
        assert broadcast_shapes((3,), (B, 3)) == (B, 3)

    def test_broadcast_symbolic_against_concrete_fails(self):
        with pytest.raises(ShapeError, match="broadcast"):
            broadcast_shapes((B, 4), (3, 4))

    def test_matmul_batched(self):
        assert matmul_shape((B, 3, 4), (4, 5)) == (B, 3, 5)

    def test_matmul_inner_mismatch(self):
        with pytest.raises(ShapeError, match="inner dims"):
            matmul_shape((B, 4), (5, 6))

    def test_concat_sums_axis_symbolically(self):
        out = concat_shapes([(B, 3), (T, 3)], axis=0)
        assert out == (Dim("B+T"), 3)
        assert concat_shapes([(B, 3), (B, 2)], axis=1) == (B, 5)

    def test_concat_non_axis_mismatch(self):
        with pytest.raises(ShapeError):
            concat_shapes([(B, 3), (B, 4)], axis=0)

    def test_stack_requires_identical_shapes(self):
        assert stack_shapes([(B, 3), (B, 3)], axis=0) == (2, B, 3)
        with pytest.raises(ShapeError):
            stack_shapes([(B, 3), (B, 4)], axis=0)

    def test_reshape_concrete(self):
        assert reshape_shape((3, 5), (5, 3)) == (5, 3)
        assert reshape_shape((3, 5), (-1,)) == (15,)

    def test_reshape_minus_one_absorbs_symbolic_dim(self):
        assert reshape_shape((B, 4), (-1, 4)) == (B, 4)

    def test_reshape_element_count_mismatch(self):
        with pytest.raises(ShapeError):
            reshape_shape((3, 5), (4, 4))


class TestSymTensor:
    def test_arithmetic_broadcasts_and_promotes(self):
        a = sym_input(("B", 4))
        b = sym_input((4,), INT64)
        out = a + b
        assert out.shape == (B, 4) and out.dtype == FLOAT64

    def test_division_forces_float(self):
        a = sym_input(("B",), INT64)
        assert (a / 2).dtype == FLOAT64

    def test_comparison_yields_bool(self):
        a = sym_input(("B", 3))
        assert (a > 0.0).dtype == BOOL

    def test_matmul_mismatch_carries_op_chain(self):
        a = sym_input(("B", 4), name="x")
        with pytest.raises(ShapeError) as excinfo:
            _ = F is None or a @ sym_input((5, 6))
        assert "matmul" in str(excinfo.value)
        assert "operand" in str(excinfo.value)

    def test_numpy_materialization_fails_loudly(self):
        with pytest.raises(ShapeError, match="symbolic"):
            sym_input(("B",)).numpy()

    def test_getitem_slicing(self):
        a = sym_input(("B", 6))
        assert a[:, :3].shape == (B, 3)
        assert a[0].shape == (6,)


class TestTracer:
    def test_dense_forward_is_symbolic(self):
        dense = Dense(4, 7, np.random.default_rng(0))
        with symbolic_trace():
            out = dense(SymTensor((B, 4)))
        assert isinstance(out, SymTensor)
        assert out.shape == (B, 7)

    def test_functional_ops_restored_after_trace(self):
        original = F.relu
        with symbolic_trace():
            assert F.relu is not original
        assert F.relu is original

    def test_tensor_construction_survives_trace_exit(self):
        # Regression: the Tensor.__new__ passthrough must stay benign
        # outside a trace — plain construction broke when the patched
        # __new__ was deleted instead of neutralized.
        with symbolic_trace():
            pass
        t = Tensor(np.zeros((2, 3)))
        assert t.shape == (2, 3)
        assert (F.relu(t) + 1.0).numpy().shape == (2, 3)

    def test_trace_is_not_reentrant(self):
        with symbolic_trace():
            with pytest.raises(RuntimeError, match="reentrant"):
                with symbolic_trace():
                    pass


class TestContracts:
    def test_parse_spec_shapes_and_tuples(self):
        arg_terms, result_terms = parse_spec(
            "(B, T), ((B, H), (B, H)) -> (B, H)")
        assert len(arg_terms) == 2 and len(result_terms) == 1

    def test_parse_spec_requires_arrow(self):
        with pytest.raises(ContractError):
            parse_spec("(B, T)")

    def test_checked_call_verifies_and_returns(self):
        dense = Dense(4, 7, np.random.default_rng(0))
        out = checked_call(dense, "__call__", Tensor(np.zeros((2, 4))))
        assert out.shape == (2, 7)

    def test_instance_constant_mismatch_detected(self):
        dense = Dense(4, 7, np.random.default_rng(0))
        with pytest.raises(ContractError, match="in_dim"):
            with symbolic_trace():
                checked_call(dense, "__call__", sym_input(("B", 5)))

    def test_symbol_unification_failure(self):
        class Pair:
            @shape_spec("(B, D), (B, D) -> (B,)")
            def combine(self, a, b):
                return SymTensor((a.shape[0],))

        with pytest.raises(ContractError, match="'D'"):
            checked_call(Pair(), "combine", sym_input(("B", 3)),
                         sym_input(("B", 4)))

    def test_wildcard_and_trailing_defaults(self):
        class Thing:
            @shape_spec("(N,), _ -> (N,)")
            def go(self, a, extra=None):
                return SymTensor((a.shape[0],))

        out = checked_call(Thing(), "go", sym_input(("N",)))
        assert out.shape == (Dim("N"),)


def _iter_repo_specs():
    """Every ``@shape_spec`` attached anywhere under the repro package."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for _, member in inspect.getmembers(module):
            if inspect.isclass(member) and member.__module__ == info.name:
                for _, fn in inspect.getmembers(member, inspect.isfunction):
                    spec = getattr(fn, SPEC_ATTRIBUTE, None)
                    if spec is not None:
                        yield f"{info.name}.{member.__qualname__}", spec


def test_every_attached_spec_parses():
    specs = list(_iter_repo_specs())
    assert len(specs) >= 20  # nn layers + policy + all 8 rankers
    for owner, spec in specs:
        parse_spec(spec)  # raises ContractError on a malformed contract


class TestCLIAndMutation:
    def test_run_all_is_clean(self):
        results = run_all()
        assert len(results) >= 23
        failures = [r for r in results if not r.ok]
        assert failures == []

    def test_cli_exit_zero_when_clean(self, capsys):
        outcome = shape_unit()
        assert outcome.code == 0
        render_text([outcome])
        assert "clean" in capsys.readouterr().err

    def _mutated_dense_check(self):
        dense = Dense(4, 7, np.random.default_rng(0))
        dense.weight = Tensor(dense.weight.data.T.copy(),
                              requires_grad=True, name="dense.weight")

        def check():
            with symbolic_trace():
                checked_call(dense, "__call__", sym_input(("B", 4)))
        return check

    def _expected_anchor(self):
        lines, start = inspect.getsourcelines(Dense.__call__)
        offset = next(i for i, line in enumerate(lines)
                      if "x @ self.weight" in line)
        return f"layers.py:{start + offset}"

    def test_mutated_weight_reported_with_file_and_line(self):
        results = run_checks([("nn.Dense[mutated]",
                               self._mutated_dense_check())])
        assert len(results) == 1 and not results[0].ok
        detail = results[0].detail
        assert "ShapeError" in detail
        assert "inner dims" in detail
        assert self._expected_anchor() in detail

    def test_mutated_weight_fails_cli_with_nonzero_exit(self, capsys,
                                                        monkeypatch):
        monkeypatch.setattr(
            drivers, "run_all",
            lambda: run_checks([("nn.Dense[mutated]",
                                 self._mutated_dense_check())]))
        outcome = shape_unit()
        assert outcome.code == 1
        render_text([outcome])
        captured = capsys.readouterr()
        assert "FAIL nn.Dense[mutated]" in captured.out
        assert self._expected_anchor() in captured.out
