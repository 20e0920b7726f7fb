"""Rational, the engine's coefficient that is not an int, against
fractions.Fraction as the oracle."""

import operator
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
# the other operand as the engine holds it (an int when integral, else a
# Rational) or as a Fraction
operands = st.tuples(values, st.sampled_from(("engine", "fraction")))


def operand(q, kind):
    return _coeff(q) if kind == "engine" else q


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


@given(non_integral, operands)
def test_arithmetic_matches_fraction(p, other):
    q, kind = other
    a, b = _coeff(p), operand(q, kind)
    for op in (operator.add, operator.sub, operator.mul):
        assert_engine_form(op(a, b), op(p, q))
        assert_engine_form(op(b, a), op(q, p))
    if q:
        assert_engine_form(_quotient(a, b), p / q)
    assert_engine_form(_quotient(b, a), q / p)
    assert_engine_form(-a, -p)
    assert_engine_form(abs(a), abs(p))


@given(non_integral, operands)
def test_comparison_matches_fraction(p, other):
    q, kind = other
    a, b = _coeff(p), operand(q, kind)
    for op in (operator.eq, operator.ne, operator.lt, operator.le,
               operator.gt, operator.ge):
        assert op(a, b) is op(p, q)
        assert op(b, a) is op(q, p)


@given(values)
def test_equal_values_hash_and_print_alike(p):
    a = _coeff(p)
    assert a == p and p == a
    assert hash(a) == hash(p)
    assert str(a) == str(p)
    assert {p: "x"}[a] == "x" and {a: "x"}[p] == "x"
    if type(a) is Rational:
        assert bool(a) and a != p.numerator
        assert repr(a) == f"Rational({p.numerator}, {p.denominator})"


def test_a_denominator_without_a_hash_inverse_hashes_as_fraction():
    modulus = sys.hash_info.modulus
    for n in (1, -3):
        assert hash(Rational(n, modulus)) == hash(Fraction(n, modulus))


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


@given(values)
def test_division_by_zero_raises_as_before(p):
    a = _coeff(p)
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            _quotient(a, zero)
        with pytest.raises(ScalarDivisionError):
            Scalar.const(a) / zero
    with pytest.raises(ScalarDivisionError):
        Scalar.const(0).inverse()
    with pytest.raises(ScalarDivisionError):
        exact_div(Poly.const(a), Poly())
    with pytest.raises(ScalarDivisionError):
        parse_scalar(f"({p})/0")
