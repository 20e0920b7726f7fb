"""Rational, the engine's coefficient that is not an int, against
fractions.Fraction as the oracle.

A Fraction enters the engine only through ``_coeff``; past it every
operand is an int or a Rational, and each result is compared with the
oracle's by its (numerator, denominator).
"""

import ast
import operator
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import ckexpand
from ckexpand.poly import (
    Poly,
    Rational,
    Scalar,
    ScalarDivisionError,
    _coeff,
    _quotient,
    exact_div,
    parse_scalar,
)

# small values share factors often; large ones pass any machine word
values = st.one_of(
    st.integers(-12, 12).map(Fraction),
    st.fractions(min_value=-12, max_value=12, max_denominator=12),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**25)),
)
non_integral = values.filter(lambda q: q.denominator != 1)


def assert_engine_form(result, want):
    """result is the value of the Fraction want, as an int when integral
    and else as a Rational in lowest terms."""
    if want.denominator == 1:
        assert type(result) is int and result == want.numerator
    else:
        assert type(result) is Rational
        assert (result.numerator, result.denominator) == (
            want.numerator, want.denominator
        )


# n and n/d are read without fractions; the rest goes through Fraction
SPELLINGS = ["1/2", "+2/4", "-6/3", "7", "-0", "0/5", "\u0661/\u0662",
             " 2/4 ", "0.5", "5e-1", "1_0/4", "1/0", "1/-2", "1 /2", "--1",
             "+", "", "1/", "/2", "\u00b2", "abc"]


def test_text_is_read_as_fraction_reads_it():
    for text in SPELLINGS:
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)):
                _coeff(text)
        else:
            assert_engine_form(_coeff(text), want)


def test_the_engine_form_of_a_number():
    assert _coeff(Fraction(6, 3)) == 2 and type(_coeff(Fraction(6, 3))) is int
    assert type(_coeff(True)) is int and _coeff(True) == 1
    assert_engine_form(_coeff(Decimal("-0.25")), Fraction(-1, 4))
    with pytest.raises(TypeError, match="0.5"):
        _coeff(0.5)
    with pytest.raises(ValueError):
        _coeff("abc")


# the other operand as the engine holds it: an int when integral, else a
# Rational
@given(non_integral, values)
def test_arithmetic_matches_fraction(p, q):
    a, b = _coeff(p), _coeff(q)
    for op in (operator.add, operator.sub, operator.mul):
        assert_engine_form(op(a, b), op(p, q))
        assert_engine_form(op(b, a), op(q, p))
    if q:
        assert_engine_form(_quotient(a, b), p / q)
    assert_engine_form(_quotient(b, a), q / p)
    assert_engine_form(-a, -p)
    assert_engine_form(abs(a), abs(p))


# the engine form of a value is unique, so == and != match too
@given(non_integral, values)
def test_comparison_matches_fraction(p, q):
    a, b = _coeff(p), _coeff(q)
    for op in (operator.eq, operator.ne, operator.lt, operator.le,
               operator.gt, operator.ge):
        assert op(a, b) is op(p, q)
        assert op(b, a) is op(q, p)


@given(values, st.integers(1, 10**6))
def test_equal_values_hash_and_print_alike(p, k):
    # two equal coefficients made apart, the second from an unreduced pair
    a, b = _coeff(p), _coeff(f"{p.numerator * k}/{p.denominator * k}")
    assert a == b and hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
    assert str(a) == str(b) == str(p)
    if type(a) is Rational:
        assert a is not b and bool(a)
        assert repr(a) == f"Rational({p.numerator}, {p.denominator})"


@given(non_integral)
def test_a_rational_never_equals_an_int_or_a_fraction(p):
    a = _coeff(p)
    for other in (p, Fraction(p), p.numerator, p.numerator // p.denominator):
        assert a != other and other != a
        assert not a == other and not other == a
    assert {p: "x"}.get(a) is None and {a: "x"}.get(p) is None
    # nor is it ordered against one, so <= cannot disagree with < or ==
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(a, p)
        with pytest.raises(TypeError):
            op(p, a)


def test_other_operands_are_refused():
    # floats too: the engine refuses them, so 1/2 is not equal to 0.5
    half = Rational(1, 2)
    for other in ("1/2", 0.5, None):
        assert half != other and other != half
    for op in (operator.add, operator.sub, operator.mul, operator.lt):
        with pytest.raises(TypeError):
            op(half, "1/2")
        with pytest.raises(TypeError):
            op(0.5, half)
    # and a Fraction, as == refuses it: only _coeff reads one
    for op in (operator.add, operator.sub, operator.mul):
        for fraction in (Fraction(1, 2), Fraction(1, 3), Fraction(2)):
            with pytest.raises(TypeError):
                op(half, fraction)
            with pytest.raises(TypeError):
                op(fraction, half)


@given(values)
def test_division_by_zero_raises_as_before(p):
    a = _coeff(p)
    with pytest.raises(ZeroDivisionError):
        _quotient(a, 0)
    for zero in (0, Fraction(0)):
        with pytest.raises(ScalarDivisionError):
            Scalar.const(a) / zero
    with pytest.raises(ScalarDivisionError):
        Scalar.const(0).inverse()
    with pytest.raises(ScalarDivisionError):
        exact_div(Poly.const(a), Poly())
    with pytest.raises(ScalarDivisionError):
        parse_scalar(f"({p})/0")


def _fraction_uses(path):
    """(enclosing definitions, what) for each import of ``fractions`` and
    each name ``Fraction`` in the module at path."""
    uses = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        if any(m.split(".")[0] == "fractions" for m in modules):
            uses.append((where, "import"))
        named = {getattr(node, "id", None), getattr(node, "attr", None)}
        if isinstance(node, ast.alias):
            named |= {node.name, node.asname}
        if "Fraction" in named:
            uses.append((where, "Fraction"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), path.stem)
    return uses


def test_fraction_is_read_only_in_coeff():
    # the one boundary where a number from outside becomes a coefficient:
    # no engine code past it makes or compares a Fraction
    src = Path(ckexpand.__file__).parent
    uses = [use for path in sorted(src.glob("*.py"))
            for use in _fraction_uses(path)]
    assert [where for where, what in uses if what == "import"] == ["poly._coeff"]
    assert {where for where, _ in uses} == {"poly._coeff"}
