"""The term-arithmetic kernel and the names the benchmark reads."""

from fractions import Fraction

import ckexpand
from ckexpand import kernel


A = {(("x", 1),): Fraction(2), (("y", 2),): Fraction(-1, 3)}
B = {(): Fraction(1), (("x", 1), ("y", 1)): Fraction(5)}


def test_pure_python_kernel():
    assert kernel.terms_mul(A, B) == {
        (("x", 1),): Fraction(2),
        (("x", 2), ("y", 1)): Fraction(10),
        (("y", 2),): Fraction(-1, 3),
        (("x", 1), ("y", 3)): Fraction(-5, 3),
    }
    assert kernel.terms_add(A, kernel.terms_neg(A)) == {}
    assert kernel.terms_scale(B, Fraction(0)) == {}


def test_benchmark_names():
    # ckbench records KERNEL_IMPLEMENTATION and traces kernel.terms_mul by
    # replacing the object wherever it is bound; Poly must call that object.
    assert ckexpand.KERNEL_IMPLEMENTATION == "python"
    assert ckexpand.poly.terms_mul is ckexpand.kernel.terms_mul
