"""Exact polynomial and fraction-field arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    oracle_inverse,
    oracle_monic,
    oracle_mul,
    oracle_scalar,
    oracle_sum,
    to_sympy,
)

from ckexpand.groebner import ParamPoly
from ckexpand.liealg import _scalar_sign, make_ck_algebra
from ckexpand.poly import (
    ONE,
    Poly,
    Scalar,
    ScalarDivisionError,
    _dense,
    add_term,
    as_scalar,
    exact_div,
    grlex_key,
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
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return Poly({k: v for k, v in out.items() if v})


monomials = st.builds(
    lambda pairs: tuple(sorted({s: e for s, e in pairs if e}.items())),
    st.lists(
        st.tuples(st.sampled_from(SYMBOLS), st.integers(0, 3)), max_size=3
    ),
)
# plain ints too: the engine mixes int and Fraction coefficients; an
# integral value is an int, as Poly requires of its terms
coeffs = (
    st.one_of(
        st.integers(-5, 5),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    )
    .filter(lambda q: q != 0)
    .map(lambda q: q.numerator if q.denominator == 1 else q)
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


# sympy's import and cancel are slow next to the deadline
@settings(deadline=None)
@given(scalars, scalars)
def test_scalar_arithmetic_matches_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    sa, sb = to_sympy(a), to_sympy(b)
    assert sympy.cancel(to_sympy(a + b) - (sa + sb)) == 0
    assert sympy.cancel(to_sympy(a * b) - sa * sb) == 0
    if not b.is_zero:
        assert sympy.cancel(to_sympy(a / b) - sa / sb) == 0
    for x, y in ((a, b), (a + b - b, a)):
        assert (x == y) == (sympy.cancel(to_sympy(x) - to_sympy(y)) == 0)


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


def test_constant_arithmetic_never_reaches_the_polynomials():
    import ckexpand.poly

    def refused(*args):
        raise AssertionError("polynomial arithmetic on constants")

    half, three = parse_scalar("1/2"), Scalar.const(3)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("terms_add", "terms_mul", "exact_div"):
            mp.setattr(ckexpand.poly, name, refused)
        results = [half + three, half - three, half * three, three / half,
                   half + half, half - half]
        zero = (half - half).is_zero
    assert [r.value for r in results] == [
        Fraction(7, 2), Fraction(-5, 2), Fraction(3, 2), 6, 1, 0
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


@given(scalars.filter(lambda s: not s.is_zero))
def test_inverse_swaps_the_pair_without_dividing(s):
    import ckexpand.poly

    calls = []
    div = ckexpand.poly.exact_div

    def counted_div(a, b):
        calls.append(1)
        return div(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ckexpand.poly, "exact_div", counted_div)
        inverse = s.inverse()
    assert _shape(inverse) == _shape(Scalar(s.den, s.num))
    assert len(calls) == 0


# -- printed forms against the earlier cancellation rules -------------------
#
# Scalar's form is not canonical, and the atlas JSON prints num and den as
# they are.  Skipping the one-term divisions must leave every form as the
# earlier rules (tests/oracles.py) gave it, not just an equal value.

X, Y, Z = (Poly.symbol(s) for s in SYMBOLS)
PLANT_COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))
# factors that operands share, so that denominators divide each other
FACTORS = (
    X + 1, Y - 2, X * Y + Z, 2 * X - 3 * Z, X * X + Y, Z - Fraction(1, 2)
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
    rng = random.Random(20261019)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = (rng.randint(0, 2), rng.randint(0, 2))
            add_term(terms, exps, oracle_scalar(*_planted(rng)))
        p = ParamPoly(UNKNOWNS, terms)
        got, want = p.monic(), oracle_monic(p)
        assert got.terms.keys() == want.terms.keys()
        for exps, coeff in got.terms.items():
            assert _shape(coeff) == _shape(want.terms[exps])


def test_scalar_arithmetic_never_divides_by_or_into_one_term(monkeypatch):
    import ckexpand.poly

    sizes = []
    div = ckexpand.poly.exact_div

    def counted_div(a, b):
        sizes.append((len(a.terms), len(b.terms)))
        return div(a, b)

    monkeypatch.setattr(ckexpand.poly, "exact_div", counted_div)
    for _, new, _ in _planted_operations(20261019, 500):
        new()
    assert sizes, "no division was tried at all"
    assert min(min(pair) for pair in sizes) >= 2


def test_monic_never_multiplies_the_leading_coefficient(monkeypatch):
    p = ParamPoly.from_scalar(
        parse_scalar("(c1 + 1)/(c2)*a1^2 + c2*a1*a2 + 3*a2 - 1/(c1 - c2)"),
        UNKNOWNS,
    )
    _, lc = p.leading()
    calls = []
    mul = Scalar.__mul__

    def counted_mul(x, y):
        calls.append((x, y))
        return mul(x, y)

    monkeypatch.setattr(Scalar, "__mul__", counted_mul)
    monic = p.monic()
    assert monic.leading()[1].is_one
    assert len(calls) == len(p.terms) - 1
    assert not [pair for pair in calls if lc is pair[0] or lc is pair[1]]


# -- the polynomial path: a denominator 1 is the shared ONE --------------------


@given(scalars, scalars, st.lists(st.sampled_from(SYMBOLS), unique=True))
def test_every_result_with_denominator_one_holds_the_shared_one(a, b, syms):
    results = [a, b, a + b, a - b, a * b, -a]
    if not b.is_zero:
        results += [a / b, b.inverse()]
    free = [sym for sym in syms if sym not in a.den.variables()]
    results += split_symbols(a, free).values()
    for r in results:
        assert r.den is ONE or not r.den.is_one, r


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
    assert quotient.terms == {(): Fraction(1, 2)}
    assert type(quotient.terms[()]) is Fraction


def test_integral_numbers_enter_a_poly_as_ints():
    x = Poly.symbol("x")
    for p in (
        x,
        Poly.const(Fraction(6, 3)),
        Poly.const(True),
        x * Fraction(4, 2),
        x.scale(Fraction(-2, 2)),
        x.scale(Fraction(1, 2)) * 2,
        x.scale(Fraction(1, 2)) * Poly.const(Fraction(4, 3)) * 3,
        x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2)),
    ):
        assert [type(c) for c in p.terms.values()] == [int]


def test_floats_are_refused():
    with pytest.raises(TypeError, match="0.1"):
        Poly.const(0.1)
    with pytest.raises(TypeError, match="0.1"):
        Poly.symbol("x").scale(0.1)


@given(polys.filter(lambda p: not p.is_zero))
def test_leading_matches_the_dense_frame_formula(a):
    idx = {s: i for i, s in enumerate(a.variables())}
    mono = max(a.terms, key=lambda m: grlex_key(_dense(m, idx)))
    assert a.leading() == (mono, a.terms[mono])


def test_exact_division_rejects_remainder():
    x, y = Poly.symbol("x"), Poly.symbol("y")
    assert exact_div(x * x + y, x) is None


@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_scalar_equality_is_cross_multiplication(a, b, c):
    # a/b == (a*c)/(b*c) regardless of whether normalization cancels c
    assert Scalar(a, b) == Scalar(a * c, b * c)


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
    div = ckexpand.poly.exact_div

    def counted_div(a, b):
        calls.append(1)
        return div(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ckexpand.poly, "exact_div", counted_div)
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
        ("1/2 * x", Scalar(Poly({((("x"), 1),): Fraction(1, 2)}))),
        ("(x + 1)*(x - 1)", Scalar(Poly.symbol("x") ** 2 - Poly.const(1))),
        ("x / (y + 1)", Scalar(Poly.symbol("x"), Poly.symbol("y") + Poly.const(1))),
        ("2^3", as_scalar(8)),
        # juxtaposition multiplies, at the precedence of *
        ("2 x (y + 1)", Scalar(2 * Poly.symbol("x") * (Poly.symbol("y") + 1))),
        ("1/2 x^2 y", Scalar(Poly({(("x", 2), ("y", 1)): Fraction(1, 2)}))),
    ],
)
def test_parse_scalar_examples(text, expected):
    assert parse_scalar(text) == expected


@given(nonzero_polys, nonzero_polys)
def test_parse_roundtrips_str(a, b):
    s = Scalar(a, b)
    assert parse_scalar(str(s)) == s


def test_parse_rejects_garbage():
    for bad in ("", "x +", "((x)", "x ** 2", "1//2"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_substitute():
    s = parse_scalar("x^2 + y")
    assert s.substitute({"x": 2, "y": -1}) == as_scalar(3)
    assert s.substitute({"y": as_scalar("x")}) == parse_scalar("x^2 + x")


def test_coercion():
    assert as_scalar(Fraction(3, 4)) == parse_scalar("3/4")
    assert as_scalar("w1") == Scalar.symbol("w1")
    assert as_scalar(7) == Scalar(Poly.const(7))


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
    assert a.scale(c).scale(1 / c) == a
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
