"""Exact polynomial and fraction-field arithmetic."""

import ast
import operator
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from oracles import (
    count_calls,
    oracle_inverse,
    oracle_monic,
    oracle_mul,
    oracle_scalar,
    oracle_sum,
    to_sympy,
    to_sympy_field,
)

from ckexpand.expand import make_problem
from ckexpand.groebner import ParamPoly, _monic
from ckexpand.kernel import terms_mul
from ckexpand.liealg import _scalar_sign, make_ck_algebra
from ckexpand.poly import (
    ONE,
    Poly,
    Rational,
    Scalar,
    ScalarDivisionError,
    _coeff,
    _either_div,
    add_term,
    as_scalar,
    exact_div,
    grlex_key,
    monomial_content,
    parse_scalar,
    split_symbols,
)
from ckexpand.uea import UEAElement, parse_element

SYMBOLS = ("x", "y", "z")


# -- naive reference implementation ----------------------------------------
#
# Multiplication oracle kept deliberately dumb: monomials are dicts of
# exponents, products merge them with explicit loops.


def naive_mul(a: Poly, b: Poly) -> Poly:
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            merged = dict(ma)
            for sym, e in mb:
                merged[sym] = merged.get(sym, 0) + e
            key = tuple(sorted(merged.items()))
            out[key] = out.get(key, 0) + ca * cb
    return Poly({k: v for k, v in out.items() if v})


monomials = st.builds(
    lambda pairs: tuple(sorted({s: e for s, e in pairs if e}.items())),
    st.lists(
        st.tuples(st.sampled_from(SYMBOLS), st.integers(0, 3)), max_size=3
    ),
)
# plain ints too: the engine mixes int and Rational coefficients, and
# _coeff makes each the one the engine holds, as Poly requires of its terms
coeffs = (
    st.one_of(
        st.integers(-5, 5),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    )
    .filter(lambda q: q != 0)
    .map(_coeff)
)
polys = st.builds(
    lambda terms: Poly(dict(terms)),
    st.lists(st.tuples(monomials, coeffs), max_size=4).map(dict),
)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


@given(polys, polys)
def test_mul_matches_naive_oracle(a, b):
    assert (a * b).terms == naive_mul(a, b).terms


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly.const(0) == a
    assert a * Poly.const(1) == a
    assert (a - a).is_zero


@given(polys, nonzero_polys)
def test_exact_division_roundtrip(a, b):
    quotient = exact_div(a * b, b)
    assert quotient is not None
    assert quotient == a


# -- sympy oracle for Scalar arithmetic -----------------------------------------

# the constants that take the shortcut in Scalar products and quotients
constants = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(-5, 5).filter(lambda q: q not in (0, 1, -1)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(
        lambda q: q.denominator != 1
    ),
)
scalars = st.one_of(
    polys.map(Scalar),
    st.builds(Scalar, polys, nonzero_polys),
    constants.map(Scalar.const),
)


# sympy's import is slow next to the deadline
@settings(deadline=None)
@given(scalars, scalars)
def test_scalar_arithmetic_matches_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    field = sympy.field(SYMBOLS, sympy.QQ)[0]

    def f(s):
        return to_sympy_field(field, s)

    fa, fb = f(a), f(b)
    assert f(a + b) == fa + fb
    assert f(a * b) == fa * fb
    if not b.is_zero:
        assert f(a / b) == fa / fb
    for x, y in ((a, b), (a + b - b, a)):
        assert (x == y) == (f(x) == f(y))


def _shape(s):
    """Terms and coefficient types of a Scalar's numerator and denominator."""
    return [
        {mono: (coeff, type(coeff)) for mono, coeff in p.terms.items()}
        for p in (s.num, s.den)
    ]


@given(scalars, constants)
def test_constant_factors_give_the_general_normal_form(a, c):
    # the atlas JSON prints num and den as they are, so the shortcut must
    # give the very terms the normaliser would, not just an equal value
    product = _shape(Scalar(a.num * Poly.const(c), a.den))
    assert _shape(a * c) == product
    assert _shape(c * a) == product
    assert _shape(a * Scalar.const(c)) == product
    assert _shape(Scalar.const(c) * a) == product
    quotient = _shape(Scalar(a.num * Poly.const(Fraction(1) / c), a.den))
    assert _shape(a / c) == quotient
    assert _shape(a / Scalar.const(c)) == quotient


def test_constant_factors_never_reach_the_polynomial_product():
    import ckexpand.poly

    s = parse_scalar("(w1*c1 + 2)/(w1 - 3*c2)")
    assert not s.den.is_one

    def refused(x, y):
        raise AssertionError("terms_mul called for a constant factor")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ckexpand.poly, "terms_mul", refused)
        results = [s * 1, s * -1, 3 * s, s * Scalar.const(3), s / 2]
    assert results[0] is s
    expected = ["-w1*c1 - 2", "3*w1*c1 + 6", "3*w1*c1 + 6", "1/2*w1*c1 + 1"]
    for got, num in zip(results[1:], expected):
        assert got == parse_scalar(f"({num})/(w1 - 3*c2)")
        assert got.den is s.den


def test_a_polynomial_and_a_fraction_multiply_only_numerators():
    import ckexpand.poly

    s = parse_scalar("(w1*c1 + 2)/(w1 - 3*c2)")
    p = parse_scalar("c1 + w2")
    calls = []

    def counted(x, y):
        calls.append({id(x), id(y)})
        return terms_mul(x, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ckexpand.poly, "terms_mul", counted)
        products = [p * s, s * p]
        product_calls, calls[:] = calls[:], []
        sums = [p + s, s + p, p - s, s - p]
    # a product multiplies the two numerators, a sum one numerator by the
    # denominator, and no product copies the denominator through ONE
    assert product_calls == [{id(p.num.terms), id(s.num.terms)}] * 2
    assert len(calls) == 4 and all(id(s.den.terms) in c for c in calls)
    for got in products + sums:
        assert got.den is s.den
    assert products[0] == parse_scalar("(c1 + w2)*(w1*c1 + 2)/(w1 - 3*c2)")
    assert sums[0] == parse_scalar("(c1 + w2) + (w1*c1 + 2)/(w1 - 3*c2)")
    assert sums[2] == -sums[3]


@given(polys)
def test_a_product_with_the_shared_one_is_the_other_factor(a):
    assert a * ONE is a and ONE * a is a
    assert ONE * ONE is ONE


def naive_content(monos):
    """The least exponent of each symbol that every monomial has."""
    exponents = [dict(m) for m in monos]
    if not exponents:
        return ()
    shared = set(exponents[0]).intersection(*exponents)
    return tuple(sorted((s, min(e[s] for e in exponents)) for s in shared))


@given(st.lists(monomials, max_size=5), st.lists(st.integers(0, 9),
                                                  max_size=4))
@example([], [])
@example([(("x", 2),)], [])
@example([(("x", 2), ("y", 1)), ()], [0, 0])
@example([(("x", 2), ("y", 1)), (("x", 1), ("z", 1))], [1, 0, 0])
def test_monomial_content_is_the_least_shared_exponent(monos, repeats):
    # repeats puts the very objects of monos in again, the first one too
    monos = monos + [monos[i % len(monos)] for i in repeats if monos]
    want = naive_content(monos)
    assert monomial_content(monos) == want
    # a generator, as ParamPoly.normalized passes
    assert monomial_content(m for m in monos) == want


def test_constant_arithmetic_never_reaches_the_polynomials():
    import ckexpand.poly

    def refused(*args):
        raise AssertionError("polynomial arithmetic on constants")

    half, three = parse_scalar("1/2"), Scalar.const(3)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("terms_add", "terms_mul", "_either_div"):
            mp.setattr(ckexpand.poly, name, refused)
        results = [half + three, half - three, half * three, three / half,
                   half + half, half - half]
        zero = (half - half).is_zero
    assert [r.value for r in results] == [
        Rational(7, 2), Rational(-5, 2), Rational(3, 2), 6, 1, 0
    ]
    assert type(results[4].value) is int and results[4].num.terms == {(): 1}
    assert zero and results[5].num.is_zero and results[5].den.is_one
    assert parse_scalar("x").value is None
    assert parse_scalar("x/x").value == 1


# -- the cancelling sum and product rules, checked against sympy --------------


def test_a_sum_goes_over_the_denominator_that_the_other_divides():
    x, y = Poly.symbol("x"), Poly.symbol("y")
    b, q = x + Poly.const(1), y + Poly.const(2)
    total = Scalar(Poly.const(1), b) + Scalar(Poly.const(1), b * q)
    assert total.den.terms == (b * q).terms
    assert total == Scalar(y + Poly.const(3), b * q)


# sympy's cancel on these sums and products is slow: fewer examples
@settings(deadline=None, max_examples=30)
@given(polys, nonzero_polys, polys, nonzero_polys)
def test_sum_over_a_dividing_denominator_matches_sympy(a, b, c, q):
    sympy = pytest.importorskip("sympy")
    x, y = Scalar(a, b), Scalar(c, b * q)
    total = x + y
    assert sympy.cancel(to_sympy(total) - to_sympy(x) - to_sympy(y)) == 0
    if exact_div(y.den, x.den) is not None:
        # over y's denominator b*q, not the cross product b^2*q
        assert exact_div(y.den, total.den) is not None


@settings(deadline=None, max_examples=30)
@given(polys, nonzero_polys, polys, nonzero_polys)
def test_product_cancels_a_numerator_by_a_dividing_denominator(e, b, c, d):
    sympy = pytest.importorskip("sympy")
    x, y = Scalar(d * e, b), Scalar(c, d)
    product = x * y
    assert sympy.cancel(to_sympy(product) - to_sympy(x) * to_sympy(y)) == 0
    if exact_div(x.num, y.den) is not None:
        # d cancels, so the denominator is b's or a divisor of it
        assert exact_div(x.den, product.den) is not None


@settings(deadline=None, max_examples=50)
@given(polys, nonzero_polys, polys, st.sampled_from(["any", "exact", "near"]))
def test_exact_division_refuses_exactly_what_sympy_leaves_a_remainder_of(
    a, b, r, kind
):
    sympy = pytest.importorskip("sympy")
    num = {"any": a, "exact": a * b, "near": a * b + r}[kind]
    got = exact_div(num, b)
    gens = [sympy.Symbol(sym) for sym in SYMBOLS]
    quotient, remainder = sympy.div(
        to_sympy(Scalar(num)), to_sympy(Scalar(b)), *gens, domain="QQ"
    )
    assert (got is None) == (remainder != 0)
    if got is not None:
        assert sympy.expand(to_sympy(Scalar(got)) - quotient) == 0


@settings(deadline=None, max_examples=60)
@given(nonzero_polys, nonzero_polys, nonzero_polys,
       st.sampled_from(["any", "b | a", "a | b", "shared"]))
def test_two_way_division_matches_sympy_in_both_directions(f, g, h, kind):
    sympy = pytest.importorskip("sympy")
    a, b = {
        "any": (f, g),
        "b | a": (g * h, g),
        "a | b": (f, f * h),
        "shared": (f * g, f * h),
    }[kind]
    gens = [sympy.Symbol(sym) for sym in SYMBOLS]

    def divided(n, d):
        quotient, remainder = sympy.div(
            to_sympy(Scalar(n)), to_sympy(Scalar(d)), *gens, domain="QQ"
        )
        return quotient if remainder == 0 else None

    want = divided(a, b), divided(b, a)
    got, flipped = _either_div(a, b)
    if want[0] is not None:
        assert not flipped
        assert sympy.expand(to_sympy(Scalar(got)) - want[0]) == 0
    elif want[1] is not None:
        assert flipped
        assert sympy.expand(to_sympy(Scalar(got)) - want[1]) == 0
    else:
        assert (got, flipped) == (None, False)


@given(scalars.filter(lambda s: not s.is_zero))
def test_inverse_swaps_the_pair_without_dividing(s):
    import ckexpand.poly

    calls = []
    div = ckexpand.poly._either_div

    def counted_div(a, b):
        calls.append(1)
        return div(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ckexpand.poly, "_either_div", counted_div)
        inverse = s.inverse()
    assert _shape(inverse) == _shape(Scalar(s.den, s.num))
    assert len(calls) == 0


# -- printed forms against the earlier cancellation rules -------------------
#
# Scalar's form is not canonical, and the atlas JSON prints num and den as
# they are.  Skipping the one-term divisions must leave every form as the
# earlier rules (tests/oracles.py) gave it, not just an equal value.

X, Y, Z = (Poly.symbol(s) for s in SYMBOLS)
# engine coefficients, so that a planted sum like 1/2 + 1/2 is an int
PLANT_COEFFS = (1, -1, 2, -3, Rational(1, 2), Rational(-2, 3))
# factors that operands share, so that denominators divide each other
FACTORS = (
    X + Poly.const(1), Y - Poly.const(2), X * Y + Z, X.scale(2) - Z.scale(3),
    X * X + Y, Z - Poly.const(Fraction(1, 2)),
)


def _random_poly(rng, size):
    terms = {}
    for _ in range(size):
        mono = tuple(
            (sym, e) for sym in SYMBOLS if (e := rng.choice((0, 0, 1, 2)))
        )
        terms[mono] = terms.get(mono, 0) + rng.choice(PLANT_COEFFS)
    return Poly({m: c for m, c in terms.items() if c}) or Poly.const(1)


def _shared(rng, k):
    product = Poly.const(1)
    for f in rng.sample(FACTORS, k):
        product = product * f
    return product


def _planted(rng):
    """(num, den) of one of the shapes that the rules tell apart."""
    kind = rng.randrange(9)
    if kind == 0:  # a factor planted in both
        f = _shared(rng, rng.randint(1, 2))
        num = _random_poly(rng, rng.randint(1, 3)) * f
        return num, _random_poly(rng, rng.randint(1, 2)) * f
    if kind == 1:  # a monomial denominator
        return _random_poly(rng, rng.randint(1, 3)), _random_poly(rng, 1)
    if kind == 2:  # a monomial times shared factors
        num = _random_poly(rng, rng.randint(1, 3))
        return num, _random_poly(rng, 1) * _shared(rng, rng.randint(1, 2))
    if kind == 3:  # a constant numerator
        num = Poly.const(rng.choice(PLANT_COEFFS))
        return num, _shared(rng, rng.randint(1, 3))
    if kind == 4:  # a monomial numerator
        return _random_poly(rng, 1), _shared(rng, rng.randint(1, 3))
    if kind == 5:
        return _random_poly(rng, rng.randint(1, 3)), Poly.const(1)
    if kind == 7:  # a polynomial with shared factors
        f = _shared(rng, rng.randint(1, 2))
        return _random_poly(rng, rng.randint(1, 3)) * f, Poly.const(1)
    if kind == 8:  # a polynomial once its planted denominator cancels
        f = _shared(rng, rng.randint(1, 2))
        return _random_poly(rng, rng.randint(1, 3)) * f, f
    return Poly.const(rng.choice(PLANT_COEFFS)), Poly.const(1)


def _planted_operations(seed, rounds):
    """(name, new, reference) triples of results to be computed: the
    construction, +, -, *, / and inverse() of planted Scalars."""
    rng = random.Random(seed)
    for _ in range(rounds):
        (an, ad), (bn, bd) = _planted(rng), _planted(rng)
        yield "Scalar", lambda: Scalar(an, ad), lambda: oracle_scalar(an, ad)
        a, b = oracle_scalar(an, ad), oracle_scalar(bn, bd)
        yield "+", lambda: a + b, lambda: oracle_sum(a, b)
        yield "-", lambda: a - b, lambda: oracle_sum(a, b, negate=True)
        yield "*", lambda: a * b, lambda: oracle_mul(a, b)
        if not b.is_zero:
            yield "/", lambda: a / b, lambda: oracle_mul(a, oracle_inverse(b))
            yield "inverse", b.inverse, lambda: oracle_inverse(b)


def test_planted_scalar_arithmetic_prints_as_the_earlier_rules():
    ops = 0
    for name, new, reference in _planted_operations(20261019, 500):
        got, want = new(), reference()
        assert _shape(got) == _shape(want), name
        assert (str(got.num), str(got.den)) == (str(want.num), str(want.den))
        assert (got.den is ONE) == want.den.is_one, name
        ops += 1
    assert ops == 3000


def test_planted_monic_prints_as_the_earlier_rule():
    # groebner._monic divides polynomial coefficients by the leading one,
    # one Scalar(c, lc) each; the earlier monic multiplied by 1/lc
    rng = random.Random(20261019)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = (rng.randint(0, 2), rng.randint(0, 2))
            for side in _planted(rng):  # coefficients that share factors
                add_term(terms, exps, Scalar(side))
        p = ParamPoly(UNKNOWNS, terms)
        if p.is_zero:
            continue
        got, want = _monic(p), oracle_monic(p)
        assert got.terms.keys() == want.terms.keys()
        for exps, coeff in got.terms.items():
            assert _shape(coeff) == _shape(want.terms[exps])


# Scalars with a real denominator, some sharing a factor with another
real_fractions = st.builds(
    lambda n, d, f: Scalar(n * f, d * f), nonzero_polys, nonzero_polys,
    st.sampled_from((Poly.const(1), *FACTORS)),
).filter(lambda s: s.den is not ONE)


# sums whose numerator divides the denominator, 2*x + 2 into x^2 - 1:
# the quotient (x - 1)/2 is the one denominator that needs the content pass
@example(parse_scalar("2*x/(x^2 - 1)"), parse_scalar("2/(x^2 - 1)"))
@example(parse_scalar("2*x/(x^2 - 1)"), parse_scalar("-2/(x^2 - 1)"))
@settings(deadline=None, max_examples=50)
@given(real_fractions, real_fractions)
def test_fraction_results_keep_a_primitive_positive_denominator(a, b):
    # by Gauss's lemma the denominators that skip the content pass keep
    # content 1 and a positive leading coefficient; the oracles run it
    results = [
        (a + b, oracle_sum(a, b)),
        (a - b, oracle_sum(a, b, negate=True)),
        (a * b, oracle_mul(a, b)),
        (a / b, oracle_mul(a, oracle_inverse(b))),
    ]
    for got, want in results:
        if got.den is not ONE:
            assert got.den.content() == 1 and got.den.leading()[1] > 0
        assert (str(got.num), str(got.den)) == (str(want.num), str(want.den))


def test_scalar_arithmetic_never_divides_by_or_into_one_term(monkeypatch):
    import ckexpand.poly

    sizes = []
    inside_exact_div = []
    div, exact = ckexpand.poly._either_div, oracles.exact_div

    # the calls that are not Scalar arithmetic come from exact_div, which
    # the oracles run between the operations
    def counted_div(a, b):
        if not inside_exact_div:
            sizes.append((len(a.terms), len(b.terms)))
        return div(a, b)

    def marked_exact_div(a, b):
        inside_exact_div.append(1)
        try:
            return exact(a, b)
        finally:
            inside_exact_div.pop()

    monkeypatch.setattr(ckexpand.poly, "_either_div", counted_div)
    monkeypatch.setattr(oracles, "exact_div", marked_exact_div)
    for _, new, _ in _planted_operations(20261019, 500):
        new()
    assert sizes, "no division was tried at all"
    assert min(min(pair) for pair in sizes) >= 2


def test_monic_never_multiplies_the_leading_coefficient(monkeypatch):
    p = ParamPoly.from_scalar(
        parse_scalar("(c1 + 1)*c2*a1^2 + c2*a1*a2 + 3*a2 - (c1 - c2)"),
        UNKNOWNS,
    )
    calls = count_calls(monkeypatch, Scalar, "__mul__")
    monic = _monic(p)
    assert monic.leading()[1].is_one
    assert str(monic.terms[(0, 1)]) == "(3)/(c1*c2 + c2)"
    # one Scalar(c, lc) per coefficient and no product at all
    assert calls == []


# -- the polynomial path: a denominator 1 is the shared ONE --------------------


@given(scalars, scalars, st.lists(st.sampled_from(SYMBOLS), unique=True))
def test_every_result_with_denominator_one_holds_the_shared_one(a, b, syms):
    results = [a, b, a + b, a - b, a * b, -a]
    if not b.is_zero:
        results += [a / b, b.inverse()]
    free = [sym for sym in syms if sym not in a.den.variables()]
    results += split_symbols(a, free).values()
    factors = (1, -1, 0, 3, Rational(-2, 3))
    results += [a * q for q in factors]
    if a.value is None:  # _scaled is only called on a non-constant
        results += [a._scaled(q) for q in factors]
    for r in results:
        assert r.den is ONE or not r.den.is_one, r
        if r.den is ONE and set(r.num.terms) <= {()}:
            assert r.value == r.num.terms.get((), 0), r
        else:
            assert r.value is None, r
        if r.den is not ONE:
            assert r.den.content() == 1 and r.den.leading()[1] > 0, r


def test_only_the_builder_and_settle_fill_a_scalar():
    # the invariant that den is ONE exactly for a polynomial, and value is
    # set exactly for a constant, is written in _build and _settle alone:
    # every bare Scalar comes from _build, except that inverse settles one
    import ckexpand.poly

    tree = ast.parse(Path(ckexpand.poly.__file__).read_text())
    made, filled = [], []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute):
                    if node.attr == "__new__":
                        made.append(fn.name)
                    elif node.attr in ("num", "den", "value") and isinstance(
                        node.ctx, ast.Store
                    ):
                        filled.append(fn.name)
    everywhere = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
    ]
    assert len(made) == len(everywhere)
    assert sorted(made) == ["_build", "inverse"]
    assert set(filled) == {"_build", "_settle"}


def test_a_denominator_that_settles_to_one_is_the_shared_one():
    # the rational content divides each denominator down to 1
    assert Scalar(Poly.symbol("x"), Poly.const(3)).den is ONE
    assert parse_scalar("2/(x + 1)").inverse().den is ONE


def test_polynomial_operands_skip_the_fraction_path(monkeypatch):
    import ckexpand.poly

    a, b = parse_scalar("w1*c1 + 2"), parse_scalar("c1 - 3*a1^2")
    cases = (
        (lambda x, y: x * y, "terms_mul", a.num * b.num),
        (lambda x, y: x + y, "terms_add", a.num + b.num),
        (lambda x, y: x - y, "terms_add", a.num - b.num),
    )
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    # the module globals, so a wrapper installed there sees every product
    for name in ("_cancel", "as_scalar", "terms_add", "terms_mul"):
        monkeypatch.setattr(
            ckexpand.poly, name, counted(name, getattr(ckexpand.poly, name))
        )
    monkeypatch.setattr(Scalar, "__init__", counted("init", Scalar.__init__))
    for op, kernel, want in cases:
        calls.clear()
        got = op(a, b)
        assert calls == [kernel]
        assert got.num.terms == want.terms and got.den is ONE
        assert got.value is None


@given(polys, polys)
def test_polynomial_scalars_stay_polynomial(a, b):
    assert (Scalar(a) + Scalar(b)).den.is_one
    assert (Scalar(a) * Scalar(b)).den.is_one


def test_exact_division_quotient_is_a_fraction_not_a_float():
    quotient = exact_div(Poly.const(1), Poly.const(2))
    assert quotient.terms == {(): Rational(1, 2)}
    assert type(quotient.terms[()]) is Rational
    assert type(exact_div(Poly.const(2), Poly.const(2)).terms[()]) is int


def test_integral_numbers_enter_a_poly_as_ints():
    x = Poly.symbol("x")
    for p in (
        x,
        Poly.const(Fraction(6, 3)),
        Poly.const(True),
        Poly.const("4/2"),
        x * Poly.const(Fraction(4, 2)),
        x.scale(Fraction(-2, 2)),
        x.scale(Decimal("2.0")),
        x.scale(Fraction(1, 2)).scale(2),
        x.scale(Fraction(1, 2)) * Poly.const(Fraction(4, 3)).scale(3),
        x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2)),
        Scalar.const(Fraction(6, 3)).num,
        as_scalar(Decimal("-3")).num,
        as_scalar(True).num,
    ):
        assert [type(c) for c in p.terms.values()] == [int]


# the ways a number from outside becomes a coefficient: each reads it
# through _coeff
BOUNDARY = {
    "Poly.const": lambda q: Poly.const(q).terms[()],
    "Poly.scale": lambda q: Poly.symbol("x").scale(q).terms[(("x", 1),)],
    "Scalar.const": lambda q: Scalar.const(q).value,
    "as_scalar": lambda q: as_scalar(q).value,
}


def test_numbers_enter_only_through_the_boundary():
    x = Poly.symbol("x")
    for q in (2, Rational(1, 2), Fraction(1, 2)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(x, q)
            with pytest.raises(TypeError):
                op(q, x)
        assert x != q and q != x
    for name, enter in BOUNDARY.items():
        for q in (Fraction(1, 2), Decimal("0.5"), "1/2"):
            got = enter(q)
            assert type(got) is Rational and got == Rational(1, 2), name
        assert type(enter(True)) is int and enter(True) == 1, name


def test_floats_are_refused():
    for enter in BOUNDARY.values():
        with pytest.raises(TypeError, match="0.1"):
            enter(0.1)
    half = Scalar.const(Fraction(1, 2))
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(half, 0.1)
        with pytest.raises(TypeError):
            op(0.1, half)
    assert half != 0.1 and 0.1 != half


@given(polys.filter(lambda p: not p.is_zero))
def test_leading_matches_the_dense_frame_formula(a):
    def dense(mono):
        exps = dict(mono)
        return tuple(exps.get(s, 0) for s in a.variables())

    mono = max(a.terms, key=lambda m: grlex_key(dense(m)))
    assert a.leading() == (mono, a.terms[mono])
    order = sorted(a.terms, key=lambda m: grlex_key(dense(m)), reverse=True)
    assert [m for m, _ in a._sorted_terms()] == order


def test_exact_division_rejects_remainder():
    x, y = Poly.symbol("x"), Poly.symbol("y")
    assert exact_div(x * x + y, x) is None


@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_scalar_equality_is_cross_multiplication(a, b, c):
    # a/b == (a*c)/(b*c) regardless of whether normalization cancels c
    assert Scalar(a, b) == Scalar(a * c, b * c)


def test_a_power_squares_only_below_its_top_bit(monkeypatch):
    import ckexpand.poly

    p = Poly.symbol("x") + Poly.const(-2)
    want = {1: p}
    for n in (2, 3, 4):
        want[n] = naive_mul(want[n - 1], p)
    calls = count_calls(monkeypatch, ckexpand.poly, "terms_mul")
    assert p ** 0 is ONE and p ** 1 is p and not calls
    made = {}
    for n in (2, 3, 4):
        calls.clear()
        assert p ** n == want[n]
        made[n] = len(calls)
    assert made == {2: 1, 3: 2, 4: 2}


def test_polynomial_scalar_equality_multiplies_nothing(monkeypatch):
    import ckexpand.poly

    a, b = parse_scalar("w1*c1 + 2"), parse_scalar("w1*c1 + 2")
    calls = []
    mul = ckexpand.poly.terms_mul

    def counted_mul(x, y):
        calls.append(1)
        return mul(x, y)

    monkeypatch.setattr(ckexpand.poly, "terms_mul", counted_mul)
    assert a == b
    assert len(calls) == 0


@given(scalars)
def test_negation_keeps_the_normal_form_without_dividing(s):
    import ckexpand.poly

    want = Scalar(-s.num, s.den)
    calls = []
    div = ckexpand.poly._either_div

    def counted_div(a, b):
        calls.append(1)
        return div(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ckexpand.poly, "_either_div", counted_div)
        neg = -s
    assert neg.num.terms == want.num.terms
    assert neg.den.terms == want.den.terms
    assert len(calls) == 0


@given(scalars, scalars)
def test_subtraction_is_addition_of_the_negation(a, b):
    diff, total = a - b, a + (-b)
    assert diff.num.terms == total.num.terms
    assert diff.den.terms == total.den.terms


def test_add_term_inserts_sums_and_drops_a_cancelled_key():
    x = parse_scalar("x")
    terms = {}
    add_term(terms, "a", x)
    assert list(terms) == ["a"] and terms["a"] is x
    add_term(terms, "a", parse_scalar("1/2"))
    assert terms["a"] == parse_scalar("x + 1/2")
    add_term(terms, "b", Scalar.one())
    add_term(terms, "a", parse_scalar("-x - 1/2"))
    assert list(terms) == ["b"]
    add_term(terms, "c", Scalar.zero())
    assert list(terms) == ["b"]


@given(polys, nonzero_polys, st.lists(st.sampled_from(SYMBOLS), unique=True))
def test_split_symbols_recombines_to_the_input(num, den, syms):
    s = Scalar(num, den)
    if set(s.den.variables()) & set(syms):
        with pytest.raises(ValueError):
            split_symbols(s, syms)
        return
    total = Scalar.zero()
    for exps, coeff in split_symbols(s, syms).items():
        assert len(exps) == len(syms)
        assert not set(coeff.variables()) & set(syms)
        for sym, e in zip(syms, exps):
            coeff = coeff * Scalar.symbol(sym) ** e
        total = total + coeff
    assert total == s


def test_split_symbols_groups_by_exponents_and_names_a_denominator_symbol():
    parts = split_symbols(parse_scalar("(2*x^2*y + z*x^2 - y)/(z + 1)"), ("x", "y"))
    assert parts == {
        (2, 1): parse_scalar("2/(z + 1)"),
        (2, 0): parse_scalar("z/(z + 1)"),
        (0, 1): parse_scalar("-1/(z + 1)"),
    }
    with pytest.raises(ValueError, match="'y'"):
        split_symbols(parse_scalar("x/(y + 1)"), ("x", "y"))


def test_scalar_normalizes_exact_divisor():
    x = Poly.symbol("x")
    one = Poly.const(1)
    # the denominator divides the numerator exactly, so it cancels
    assert str(Scalar((x + one) * (x + one), x + one)) == "x + 1"
    # common factors that are not exact divisors are left alone (there is
    # no multivariate gcd); equality still sees through them
    s = Scalar((x + one) * (x - one), (x + one) * (x + one))
    assert s == Scalar(x - one, x + one)
    assert str(s) == "(x^2 - 1)/(x^2 + 2*x + 1)"


@given(nonzero_polys)
def test_scalar_inverse(a):
    s = Scalar(a)
    assert s * s.inverse() == Scalar.one()


def test_scalar_sign_of_a_rational_constant():
    third = Scalar.const(1) / Scalar.const(3)
    assert _scalar_sign(third) == 1
    assert _scalar_sign(-third) == -1
    assert _scalar_sign(Scalar.const(-1) / Scalar.const(3)) == -1


def test_zero_denominator_rejected():
    with pytest.raises(ScalarDivisionError):
        Scalar(Poly.const(1), Poly.const(0))
    with pytest.raises(ScalarDivisionError):
        Scalar.one() / Scalar.zero()


@pytest.mark.parametrize(
    "text, expected",
    [
        ("0", Scalar.zero()),
        ("2 + 3", as_scalar(5)),
        ("-x^2", Scalar(-Poly.symbol("x") ** 2)),
        ("1/2 * x", Scalar(Poly.symbol("x").scale(Fraction(1, 2)))),
        ("(x + 1)*(x - 1)", Scalar(Poly.symbol("x") ** 2 - Poly.const(1))),
        ("x / (y + 1)", Scalar(Poly.symbol("x"), Poly.symbol("y") + Poly.const(1))),
        ("2^3", as_scalar(8)),
        # juxtaposition multiplies, at the precedence of *
        ("2 x (y + 1)",
         Scalar((Poly.symbol("x") * (Poly.symbol("y") + ONE)).scale(2))),
        ("1/2 x^2 y",
         Scalar((Poly.symbol("x") ** 2 * Poly.symbol("y")).scale(Fraction(1, 2)))),
        # a negative exponent is a quotient
        ("w1^-1", Scalar(ONE, Poly.symbol("w1"))),
        ("2*w1^-2", Scalar(Poly.const(2), Poly.symbol("w1") ** 2)),
        # trailing blanks end the expression
        ("c1 + 1 ", Scalar(Poly.symbol("c1") + ONE)),
    ],
)
def test_parse_scalar_examples(text, expected):
    assert parse_scalar(text) == expected


@given(nonzero_polys, nonzero_polys)
def test_parse_roundtrips_str(a, b):
    s = Scalar(a, b)
    assert parse_scalar(str(s)) == s


def test_parse_rejects_garbage():
    for bad in ("", "x +", "((x)", "x ** 2", "1//2",
                "P1 $ 2", "K1^w1", "(K1", "K1)"):
        with pytest.raises(ValueError):
            parse_scalar(bad)
    # the character that cannot be read is named, with its position
    with pytest.raises(ValueError, match=r"^bad character '\$' at position 4 "
                       r"of expression 'P1 \$ 2'$"):
        parse_scalar("P1 $ 2")


def test_substitute():
    s = parse_scalar("x^2 + y")
    assert s.substitute({"x": 2, "y": -1}) == as_scalar(3)
    assert s.substitute({"y": as_scalar("x")}) == parse_scalar("x^2 + x")


def test_coercion():
    assert as_scalar(Fraction(3, 4)) == parse_scalar("3/4")
    assert as_scalar("w1") == Scalar.symbol("w1")
    assert as_scalar(7) == Scalar(Poly.const(7))


H = UEAElement.generator(make_ck_algebra(1, 1), "H")
COERCING_CALLERS = {
    "as_scalar": as_scalar,
    "make_problem": lambda v: make_problem("poincare", 1, v),
    "make_ck_algebra": lambda v: make_ck_algebra(v, 1),
    "UEAElement.monomial": lambda v: UEAElement.monomial(
        H.algebra, {"H": 1}, v),
    "UEAElement * value": lambda v: H * v,
}


@pytest.mark.parametrize("value, message", [
    (0.5, "inexact coefficient 0.5"),
    (None, "cannot use None as a coefficient"),
])
@pytest.mark.parametrize("caller", sorted(COERCING_CALLERS))
def test_a_value_that_is_no_coefficient_is_named(caller, value, message):
    # as_scalar raises; only the Scalar operators turn that into
    # NotImplemented, so no caller meets NotImplemented as a value
    with pytest.raises(TypeError, match=message):
        COERCING_CALLERS[caller](value)


def test_scalar_operators_defer_to_the_other_operand():
    assert str(Scalar.symbol("a1") * H) == "a1 * H"
    assert (Scalar.one() == None) is False  # noqa: E711
    assert Scalar.one() != 0.5
    with pytest.raises(TypeError, match="unsupported operand"):
        Scalar.one() + None
    with pytest.raises(TypeError, match="unsupported operand"):
        None / Scalar.one()


# -- the TermSum core of enveloping-algebra elements and constraint polynomials

TERM_ALGEBRA = make_ck_algebra("w1", "w2")
UNKNOWNS = ("a1", "a2")

# every branch of the sign rule: positive, bare negative (its "-" is
# stripped) and any other negative (printed as the negation)
term_coeffs = st.one_of(
    constants.map(Scalar.const),
    st.sampled_from([
        "w1", "-w1", "-w1^2*w2", "2*w1 - 1", "-w1 - 1", "-w1 + w2",
        "1 - w1*w2",
        "(w1 + 1)/(w2)", "-3/(w1 - w2)", "(-w1 + 2)/(w1^2 + w2)",
    ]).map(parse_scalar),
)


@st.composite
def term_sums(draw, kind):
    if kind == "uea":
        size, make = TERM_ALGEBRA.dim, lambda t: UEAElement(TERM_ALGEBRA, t)
    else:
        size, make = len(UNKNOWNS), lambda t: ParamPoly(UNKNOWNS, t)
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        # zero exponents are likelier, so constant terms come up often
        exps = tuple(draw(st.lists(st.sampled_from((0, 0, 1, 2)),
                                   min_size=size, max_size=size)))
        add_term(terms, exps, draw(term_coeffs))
    return make(terms)


def _reparse(x):
    if isinstance(x, UEAElement):
        return parse_element(x.algebra, str(x))
    return ParamPoly.from_scalar(parse_scalar(str(x)), x.unknowns)


@pytest.mark.parametrize("kind", ["uea", "param"])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_term_sum_arithmetic_and_printing(kind, data):
    a = data.draw(term_sums(kind))
    b = data.draw(term_sums(kind))
    c = data.draw(term_coeffs)
    assert (a + b) - b == a
    assert (a - a).is_zero
    assert -(-a) == a
    assert a.scale(c).scale(c.inverse()) == a
    assert _reparse(a) == a


def test_param_polys_over_different_unknowns_do_not_mix():
    p = ParamPoly.from_scalar(parse_scalar("a1 + w1"), UNKNOWNS)
    q = ParamPoly.from_scalar(parse_scalar("a1 + w1"), ("a1",))
    with pytest.raises(ValueError, match="unknown lists differ"):
        p + q
    with pytest.raises(ValueError, match="unknown lists differ"):
        p - q


@pytest.mark.parametrize("cls", [UEAElement, ParamPoly])
def test_term_sum_arithmetic_is_not_redefined(cls):
    # both classes take their arithmetic from TermSum alone
    shared = ("__add__", "__sub__", "__neg__", "scale", "__eq__")
    assert not [name for name in shared if name in vars(cls)]

