"""The term-arithmetic kernel and the names the benchmark reads."""

import ast
import importlib
import sys
from fractions import Fraction
from pathlib import Path

import ckexpand
from ckexpand import kernel
from ckexpand.poly import _coeff

SPANS = Path(__file__).resolve().parent.parent / "ckbench" / "spans.py"


# coefficients as the engine holds them: each number read by _coeff
A = {(("x", 1),): _coeff(Fraction(2)), (("y", 2),): _coeff(Fraction(-1, 3))}
B = {(): _coeff(Fraction(1)), (("x", 1), ("y", 1)): _coeff(Fraction(5))}


def test_pure_python_kernel():
    assert kernel.terms_mul(A, B) == {
        (("x", 1),): 2,
        (("x", 2), ("y", 1)): 10,
        (("y", 2),): _coeff(Fraction(-1, 3)),
        (("x", 1), ("y", 3)): _coeff(Fraction(-5, 3)),
    }
    assert kernel.terms_add(A, kernel.terms_neg(A)) == {}
    assert kernel.terms_scale(B, _coeff(Fraction(0))) == {}


def test_benchmark_names():
    # ckbench records KERNEL_IMPLEMENTATION and traces kernel.terms_mul by
    # replacing the object wherever it is bound; Poly must call that object.
    assert ckexpand.KERNEL_IMPLEMENTATION == "python"
    assert ckexpand.poly.terms_mul is ckexpand.kernel.terms_mul
    # ckbench/spans.py wraps engine functions by module and attribute name;
    # read its tables without importing it and resolve every entry
    tables = {}
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "METHODS"):
                tables[target.id] = ast.literal_eval(node.value)
    assert len(tables["FUNCTIONS"]) >= 17 and len(tables["METHODS"]) >= 2
    targets = {}
    for module, attribute, _ in tables["FUNCTIONS"]:
        target = getattr(importlib.import_module(module), attribute)
        assert callable(target)
        targets[target.__code__] = f"{module}.{attribute}"
    for module, cls, method, _ in tables["METHODS"]:
        owner = getattr(importlib.import_module(module), cls)
        target = getattr(owner, method)
        assert callable(target)
        targets[target.__code__] = f"{module}.{cls}.{method}"
    # a name that resolves but is never entered would make its traced
    # metric read 0: every entry must be called by the atlas run plus one
    # structure check
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        ckexpand.run_atlas()
        ckexpand.check_structure(ckexpand.builtin_algebra("poincare"))
    finally:
        sys.setprofile(None)
    assert sorted(name for code, name in targets.items() if code not in entered) == []
    # the NOTES of spans.py read these attributes of traced calls' arguments
    # and results: a reducer's algebra name and its int bound, a report's
    # initial algebra dimension and a Groebner result's basis
    g = ckexpand.builtin_algebra("poincare")
    reducer = ckexpand.CentralReducer(g, ckexpand.standard_relations(g))
    assert type(reducer.bound) is int
    reducer.reduce(ckexpand.casimir(g, 1))
    assert reducer.algebra.name == "poincare" and type(reducer.bound) is int
    report = ckexpand.run_expansion(ckexpand.make_problem(g, 1))
    assert report.problem.initial.dim == 6
    basis = ckexpand.groebner_basis(report.constraints.generators,
                                    report.constraints.unknowns).groebner
    assert basis and all(isinstance(p.terms, dict) for p in basis)
