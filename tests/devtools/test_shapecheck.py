"""Shapecheck: contracts, the whole-repo run, planted bugs, hygiene."""

import inspect
import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.devtools.shapecheck import (ContractError, checked_call,
                                       parse_spec, run_all, run_checks)
from repro.devtools.check import render_text, shape_unit
from repro.devtools.shapecheck import drivers
from repro.devtools.shapecheck.drivers import PROBE_BATCH
from repro.nn import Dense, Tensor
from repro.nn import functional as F
from repro.nn import tensor as tensor_module
from repro.nn.spec import SPEC_ATTRIBUTE, shape_spec

from .plants import SHAPE_PLANTS, mutated_dense_check, source_anchor


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
            checked_call(dense, "__call__", Tensor(np.zeros((3, 5))))

    def test_symbol_unification_failure(self):
        class Pair:
            @shape_spec("(B, D), (B, D) -> (B,)")
            def combine(self, a, b):
                return np.zeros(len(a))

        with pytest.raises(ContractError, match="'D'"):
            checked_call(Pair(), "combine", np.zeros((2, 3)),
                         np.zeros((2, 4)))

    def test_wildcard_and_trailing_defaults(self):
        class Thing:
            @shape_spec("(N,), _ -> (N,)")
            def go(self, a, extra=None):
                return np.zeros(len(a))

        out = checked_call(Thing(), "go", np.zeros(5))
        assert out.shape == (5,)

    def test_mismatch_reports_int_shapes(self):
        dense = Dense(4, 7, np.random.default_rng(0))
        with pytest.raises(ContractError, match=r"actual \(3,\)"):
            checked_call(dense, "__call__", Tensor(np.zeros(3)))


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

    def _expected_anchor(self):
        return source_anchor(Dense.__call__, "x @ self.weight")

    def test_mutated_weight_reported_with_file_and_line(self):
        results = run_checks([("nn.Dense[mutated]",
                               mutated_dense_check())])
        assert len(results) == 1 and not results[0].ok
        detail = results[0].detail
        assert detail.startswith("ValueError: matmul")
        assert self._expected_anchor() in detail

    def test_mutated_weight_fails_cli_with_nonzero_exit(self, capsys,
                                                        monkeypatch):
        monkeypatch.setattr(
            drivers, "run_all",
            lambda: run_checks([("nn.Dense[mutated]",
                                 mutated_dense_check())]))
        outcome = shape_unit()
        assert outcome.code == 1
        render_text([outcome])
        captured = capsys.readouterr()
        assert "FAIL nn.Dense[mutated]" in captured.out
        assert self._expected_anchor() in captured.out


@pytest.mark.parametrize("plant", SHAPE_PLANTS, ids=lambda p: p.check)
def test_planted_bug_fails_only_its_check(plant, monkeypatch):
    plant.install(monkeypatch, drivers)
    outcome = shape_unit()
    assert outcome.code == 1
    assert [check.name for check in outcome.failures] == [plant.check]
    assert plant.anchor() in outcome.failures[0].detail


def test_probe_batch_equals_no_other_dim(monkeypatch):
    # Rerun the batched lanes with a sentinel batch and collect every
    # dim of every tensor they build: the real batch must be none of
    # them, or a swapped axis could line up with it by coincidence.
    sentinel = 1000
    dims = set()
    original_init = Tensor.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        dims.update(self.shape)

    monkeypatch.setattr(drivers, "PROBE_BATCH", sentinel)
    monkeypatch.setattr(Tensor, "__init__", recording_init)
    batched = [check for name, check in drivers.build_checks()
               if not name.startswith("recsys.probe")]
    results = run_checks([(str(index), check)
                          for index, check in enumerate(batched)])
    assert all(result.ok for result in results)
    assert sentinel in dims
    assert PROBE_BATCH not in dims


class TestTracer:
    """run_all drives the engine on concrete probes and must leave it
    exactly as it found it: nothing patched, construction unchanged."""

    def test_functional_ops_restored_after_trace(self):
        functional = dict(vars(F))
        tensor_attrs = dict(vars(tensor_module))
        run_all()
        for name, value in functional.items():
            assert getattr(F, name) is value, name
        for name, value in tensor_attrs.items():
            assert getattr(tensor_module, name) is value, name

    def test_tensor_construction_survives_trace_exit(self):
        run_all()
        assert Tensor.__new__ is object.__new__
        t = Tensor(np.zeros((2, 3)))
        assert t.shape == (2, 3)
        assert (F.relu(t) + 1.0).numpy().shape == (2, 3)
