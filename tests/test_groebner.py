"""Groebner bases of the constraint ideals in the expansion unknowns."""

import functools
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    count_calls, name_uses, oracle_groebner_basis, oracle_proportional,
    oracle_reduce, to_sympy,
)

import ckexpand.groebner
from ckexpand.groebner import (
    ParamPoly,
    RelationIdeal,
    groebner_basis,
    ideal_equals,
    reduce_mod_ideal,
)
from ckexpand.poly import Scalar, parse_scalar

AB = ("a1", "a2")


def pp(text):
    return ParamPoly.from_scalar(parse_scalar(text), AB)


def test_from_scalar_splits_unknowns_from_parameters():
    p = pp("4*w2*c1*a1^2 + w1")
    assert p.total_degree() == 2
    assert str(p) == "4*c1*w2*a1^2 + w1"
    assert p.constant_part() == parse_scalar("w1")


def test_from_scalar_rejects_unknowns_in_denominator():
    with pytest.raises(ValueError):
        ParamPoly.from_scalar(parse_scalar("w1 / a1"), AB)


def test_proportionality_over_the_parameter_field():
    a = pp("4*w2*c1*a1^2 + w1")
    assert a.proportional_to(pp("-8*w2*c1*a1^2 - 2*w1"))
    assert a.proportional_to(pp("w1*(4*w2*c1*a1^2 + w1)"))
    assert not a.proportional_to(pp("4*w2*c1*a1^2 - w1"))
    assert not a.proportional_to(pp("a1"))


# parameter coefficients, fractions among them
COEFFICIENTS = ("1", "-2", "1/2", "w1", "c1 - w1", "2*c1*w1", "1/(w1 + 1)",
                "(c1 - 1)/c2")
SUPPORT = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


@st.composite
def proportionality_pairs(draw):
    """(p, q, planted): q is a random ParamPoly, a multiple u*p for a
    nonzero parameter Scalar u (planted True), such a multiple with one
    coefficient changed (the same support), or with a term added or
    dropped (another support)."""
    def poly(size):
        if not size:
            return ParamPoly(AB)
        monos = draw(st.lists(st.sampled_from(SUPPORT), min_size=size,
                              max_size=size, unique=True))
        return pp(" + ".join(
            f"({draw(st.sampled_from(COEFFICIENTS))})*a1^{e1}*a2^{e2}"
            for e1, e2 in monos
        ))

    p = poly(draw(st.integers(1, 3)))
    kind = draw(st.sampled_from(["random", "multiple", "support", "other"]))
    if kind == "random":
        return p, poly(draw(st.integers(0, 3))), None
    q = p.scale(parse_scalar(draw(st.sampled_from(COEFFICIENTS[1:]))))
    if kind == "multiple":
        return p, q, True
    terms = dict(q.terms)
    if kind == "support":
        exps = draw(st.sampled_from(sorted(terms)))
        terms[exps] = terms[exps] * parse_scalar("c2 + 3")
        return p, q._like(terms), None
    exps = draw(st.sampled_from(SUPPORT))
    if exps in terms and len(terms) > 1:
        del terms[exps]
    else:
        terms[exps] = terms.get(exps, Scalar.zero()) + parse_scalar("c2")
    return p, q._like(terms), None


@settings(deadline=None)
@given(proportionality_pairs())
def test_proportionality_matches_the_leading_coefficient_rule(pair):
    p, q, planted = pair
    got = p.proportional_to(q)
    assert got == oracle_proportional(p, q)
    assert q.proportional_to(p) == oracle_proportional(q, p)
    if planted is not None:
        assert got is planted


def test_other_supports_and_equal_terms_multiply_no_scalar(monkeypatch):
    a = pp("4*w2*c1*a1^2 + w1/(c1 + 1)")
    same = pp("4*w2*c1*a1^2 + w1/(c1 + 1)")
    # the same leading monomial a1^2 on another support
    others = [pp("4*w2*c1*a1^2 + w1*a2"), pp("4*w2*c1*a1^2"),
              pp("a1^2 + a1 + w1/(c1 + 1)")]
    multiple = pp("-w1*(4*w2*c1*a1^2 + w1/(c1 + 1))")
    calls = []
    mul = Scalar.__mul__

    def counted_mul(x, y):
        calls.append(1)
        return mul(x, y)

    monkeypatch.setattr(Scalar, "__mul__", counted_mul)
    assert a.proportional_to(same) and same.proportional_to(a)
    assert not any(a.proportional_to(o) or o.proportional_to(a)
                   for o in others)
    assert calls == []
    assert a.proportional_to(multiple)
    assert calls, "a true multiple is decided by the cross-scaled test"


def test_normalized_clears_denominators_and_content():
    raw = pp("2*a1^2 + 1/2").scale(parse_scalar("1/(w2)"))
    assert str(raw.normalized()) == "4*a1^2 + 1"
    assert str(pp("-6*w1*a1 - 2*w1*a2").normalized()) == "3*a1 + a2"
    # a polynomial content that the division test finds goes too
    assert (str(pp("(c1 + c2)*a1 + (c1^2 - c2^2)*a2").normalized())
            == "a1 + (c1 - c2)*a2")
    assert (str(pp("(w1+1)*a1/c1 + (w1^2-1)*a2/c1^2").normalized())
            == "c1*a1 + (w1 - 1)*a2")
    # each coefficient with the fewest terms is tried, so the order in
    # which the terms are written does not matter
    for text in ("(c1*w1 + c1)*a2 + (w1^2 - 1)*a1",
                 "(w1^2 - 1)*a1 + (c1*w1 + c1)*a2"):
        assert str(pp(text).normalized()) == "(w1 - 1)*a1 + c1*a2"
        [basis] = groebner_basis([pp(text)], AB).groebner
        assert str(basis) == "a1 + ((c1)/(w1 - 1))*a2"
    # a factor that two denominators share needs a gcd, and stays
    shared = pp("a1/((q+1)*(q+2)) + a2/((q+1)*(q+3))")
    assert (str(shared.normalized())
            == "(q^2 + 4*q + 3)*a1 + (q^2 + 3*q + 2)*a2")


def test_normalized_clears_a_repeated_denominator_once():
    assert str(pp("a1/(w1+1) + a2/(w1+1)").normalized()) == "a1 + a2"
    shared = pp("a1/(w1+1) + a2/(w1+1) + 1/(w1+1)")
    assert str(shared.normalized()) == "a1 + a2 + 1"


def test_a_negated_constant_sum_keeps_its_parentheses():
    assert str(pp("a1^2 - w1 - 1")) == "a1^2 - (w1 + 1)"
    assert str(pp("-w1 - 1")) == "-(w1 + 1)"
    assert str(pp("a1 - 1/3*w1")) == "a1 - 1/3*w1"


def test_principal_ideal():
    ideal = groebner_basis([pp("4*w2*c1*a1^2 + w1")], AB)
    assert len(ideal.groebner) == 1
    assert str(ideal.groebner[0]) == "a1^2 + (1/4*w1)/(c1*w2)"
    assert reduce_mod_ideal(pp("4*w2*c1*a1^2 + w1"), ideal).is_zero
    # a derived combination: -w1*w2 is the normal form of 4*w2^2*c1*a1^2
    nf = reduce_mod_ideal(pp("4*w2^2*c1*a1^2"), ideal)
    assert nf == pp("-w1*w2")


def test_two_quadratic_ideal_reduces_its_generators():
    g1 = pp("4*w1*c1*a1^2 + c1*a2^2 + 8*w1*c2*a1*a2 + w2")
    g2 = pp("4*w1*c2*a1^2 + c2*a2^2 + 2*c1*a1*a2")
    ideal = groebner_basis([g1, g2], AB)
    assert reduce_mod_ideal(g1, ideal).is_zero
    assert reduce_mod_ideal(g2, ideal).is_zero
    # the combination c2*g1 - c1*g2 is linear in the monomials a1*a2, 1
    combo = g1.scale(parse_scalar("c2")) - g2.scale(parse_scalar("c1"))
    assert reduce_mod_ideal(combo, ideal).is_zero
    assert combo.total_degree() == 2


def test_ideal_equality_modulo_presentation():
    # the a2-divisible generator presents the same ideal because the
    # constant term of the first quadratic is an invertible parameter
    with_factor = groebner_basis(
        [pp("c1*a2^2 + w2"), pp("2*c1*a1*a2 + c2*a2^2")], AB
    )
    linear = groebner_basis([pp("c1*a2^2 + w2"), pp("2*c1*a1 + c2*a2")], AB)
    assert ideal_equals(with_factor, linear)
    assert not ideal_equals(linear, groebner_basis([pp("a1")], AB))


def test_trivial_and_unit_ideals():
    empty = groebner_basis([], AB)
    assert not empty.groebner
    p = pp("a1*a2 + w1")
    assert reduce_mod_ideal(p, empty) == p
    unit = groebner_basis([pp("a1"), pp("a1 + 1")], AB)
    assert [str(b) for b in unit.groebner] == ["1"]
    assert reduce_mod_ideal(pp("w1*a2^2"), unit).is_zero


def test_buchberger_textbook_example():
    # x^2 - y, x^3 - x over unknowns (x, y): the reduced basis exposes y
    xy = ("x", "y")
    f = ParamPoly.from_scalar(parse_scalar("x^2 - y"), xy)
    g = ParamPoly.from_scalar(parse_scalar("x^3 - x"), xy)
    ideal = groebner_basis([f, g], xy)
    members = [str(b) for b in ideal.groebner]
    assert "x^2 - y" in members
    assert any("y^2" in m or "x*y" in m for m in members)
    assert reduce_mod_ideal(
        ParamPoly.from_scalar(parse_scalar("x^4 - x^2"), xy), ideal
    ).is_zero


def test_unknown_budget_is_enforced():
    with pytest.raises(ValueError):
        groebner_basis([], ("a1", "a2", "a3", "a4"))


# -- S-pairs and the single inter-reduction pass ------------------------------


def test_coprime_leading_monomials_reduce_no_s_pair(monkeypatch):
    spolys = count_calls(monkeypatch, ckexpand.groebner, "_spoly")
    ideal = groebner_basis([pp("a1^2 + w1"), pp("a2^2 + w2")], AB)
    assert [str(b) for b in ideal.groebner] == ["a2^2 + w2", "a1^2 + w1"]
    # the product criterion skips the only pair
    assert len(spolys) == 0


def test_pairs_without_coprime_leads_each_reduce_an_s_polynomial(
        monkeypatch):
    spolys = count_calls(monkeypatch, ckexpand.groebner, "_spoly")
    # every element of this ideal is a multiple of a1, so no two leading
    # monomials are coprime and the product criterion never applies
    gens = [pp("a1^3 + w1*a1"), pp("a1^2*a2 + c1*a1"), pp("a1*a2^2 + a1")]
    ideal = groebner_basis(gens, AB)
    assert [str(b) for b in ideal.groebner] == ["a1"]
    # reducing every pair takes 10 S-polynomials
    assert len(spolys) == 10


def test_redundant_generator_is_dropped_in_one_pass(monkeypatch):
    spolys = count_calls(monkeypatch, ckexpand.groebner, "_spoly")
    reductions = count_calls(monkeypatch, ckexpand.groebner, "_reduce")
    # the leading monomial a1 divides a1*a2
    ideal = groebner_basis([pp("a1 + w1"), pp("a1*a2 + c1*a2^2")], AB)
    assert [str(b) for b in ideal.groebner] == [
        "a1 + w1",
        "a2^2 + ((-w1)/(c1))*a2",
    ]
    # the second generator is reduced on entry to c1*a2^2 - w1*a2, whose
    # leading monomial is coprime to a1, so no S-pair is formed; then one
    # reduction per element of the reduced basis
    assert len(spolys) == 0
    assert len(reductions) == 1 + len(ideal.groebner) == 3


def test_generator_in_the_ideal_of_the_earlier_ones_forms_no_s_pair(
        monkeypatch):
    spolys = count_calls(monkeypatch, ckexpand.groebner, "_spoly")
    gens = [pp("a1 + w1"), pp("a2 + c1"), pp("(a1 + w1)*a2 + a2 + c1")]
    ideal = groebner_basis(gens, AB)
    assert [str(b) for b in ideal.groebner] == ["a2 + c1", "a1 + w1"]
    # the third generator reduces to zero on entry and is dropped; the
    # first two have coprime leading monomials
    assert len(spolys) == 0
    # generators keeps every nonzero input
    assert list(ideal.generators) == gens


# -- ideal_equals: the reduced bases compared as lists ------------------------


def test_equal_bases_are_one_ideal_without_a_reduction(monkeypatch):
    gens = [pp("c1*a2^2 + w2"), pp("2*c1*a1*a2 + c2*a2^2")]
    ideal = groebner_basis(gens, AB)
    again = groebner_basis(list(reversed(gens)), AB)
    assert ideal.groebner is not again.groebner
    reductions = count_calls(monkeypatch, ckexpand.groebner, "_reduce")
    assert ideal_equals(ideal, ideal)
    assert ideal_equals(ideal, again)
    assert len(reductions) == 0


def test_other_generators_of_the_same_ideal_give_the_same_basis():
    gens = [pp("c1*a2^2 + w2"), pp("2*c1*a1 + c2*a2")]
    ideal = groebner_basis(gens, AB)
    # each generator scaled by a parameter, and a multiple appended
    scaled = [g.scale(parse_scalar("w1 + 1")) for g in gens]
    extended = [*gens, gens[0].shift((1, 1)).scale(parse_scalar("c2"))]
    for other in (scaled, extended):
        same = groebner_basis(other, AB)
        assert list(same.groebner) == list(ideal.groebner)
        assert ideal_equals(ideal, same)


def test_different_ideals_or_unknowns_are_not_equal():
    ideal = groebner_basis([pp("c1*a2^2 + w2"), pp("2*c1*a1 + c2*a2")], AB)
    assert not ideal_equals(ideal, groebner_basis([pp("a1")], AB))
    assert not ideal_equals(groebner_basis([pp("a1")], AB),
                            groebner_basis([pp("a2")], AB))
    # the same leading monomials, another ideal
    assert not ideal_equals(groebner_basis([pp("a1")], AB),
                            groebner_basis([pp("a1 + c1")], AB))
    # equal (empty) bases in different unknowns
    assert not ideal_equals(groebner_basis([], AB), groebner_basis([], ("a1",)))
    a1 = groebner_basis([pp("a1")], AB).groebner
    assert not ideal_equals(RelationIdeal(AB, (), a1),
                            RelationIdeal(("a1", "a3"), (), a1))


# -- sympy oracle for groebner_basis ------------------------------------------

MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
INTEGERS = st.integers(-3, 3).filter(bool).map(str)
PARAMETERS = st.sampled_from(["w1", "c1", "-w1", "2*c1", "w1*c1", "-3*w1^2",
                              "1/2", "1/(w1 + 1)", "c1/(w1 - 2)"])


def generator_text(terms):
    return " + ".join(
        f"({c})*a1^{e1}*a2^{e2}" for (e1, e2), c in sorted(terms.items())
    )


@st.composite
def systems(draw):
    """1-3 generators of degree <= 2 in (a1, a2), each with 1-3 terms whose
    coefficients are integers or parameters, and sometimes a combination
    of them appended, which reduces to zero on entry."""
    texts = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 3))
        monos = draw(st.lists(st.sampled_from(MONOMIALS), min_size=size,
                              max_size=size, unique=True))
        coeffs = st.one_of(INTEGERS, PARAMETERS)
        texts.append(generator_text({m: draw(coeffs) for m in monos}))
    if draw(st.booleans()):
        factors = st.sampled_from(["1", "-2", "w1", "c1 + 1", "a1", "a2"])
        texts.append(" + ".join(f"({draw(factors)})*({t})" for t in texts))
    return texts


def param_poly_to_sympy(p: ParamPoly):
    import sympy

    return sympy.Add(*(
        to_sympy(coeff)
        * sympy.Mul(*(sympy.Symbol(u) ** e for u, e in zip(p.unknowns, exps)))
        for exps, coeff in p.terms.items()
    ))


def assert_matches_sympy(ideal: RelationIdeal):
    sympy = pytest.importorskip("sympy")
    gens = [param_poly_to_sympy(g) for g in ideal.generators]
    syms = [sympy.Symbol(u) for u in ideal.unknowns]
    params = sorted(
        set().union(*(g.free_symbols for g in gens)) - set(syms), key=str
    )
    domain = sympy.QQ.frac_field(*params) if params else sympy.QQ
    want = sympy.groebner(gens, *syms, order="grlex", domain=domain).exprs
    got = [param_poly_to_sympy(b) for b in ideal.groebner]
    assert len(got) == len(want)
    for g in got:
        assert any(sympy.cancel(g - w) == 0 for w in want), g
    # reduced: no term is divisible by another element's leading monomial
    leads = [b.leading()[0] for b in ideal.groebner]
    for i, b in enumerate(ideal.groebner):
        for exps in b.terms:
            for k, lead in enumerate(leads):
                assert k == i or not all(
                    e >= l for e, l in zip(exps, lead)
                ), (str(b), str(ideal.groebner[k]))


# sympy's import and groebner are slow next to the deadline
@settings(deadline=None)
@given(systems())
def test_groebner_basis_matches_sympy(texts):
    assert_matches_sympy(groebner_basis([pp(t) for t in texts], AB))


# the unit ideal below, where fraction-free coefficients swell most
@example(["w1*c1*a1^2 - w1*a2^2 - 3*a2", "w1*c1*a1 + a1^2 - 3*w1^2*a1*a2",
          "-1 + 2*c1*a1^2 + c1*a1"])
@settings(deadline=None)
@given(systems())
def test_groebner_basis_equals_the_earlier_field_buchberger(texts):
    gens = [pp(t) for t in texts]
    assert list(groebner_basis(gens, AB).groebner) == oracle_groebner_basis(
        gens, AB)


def test_parametric_trinomial_system_is_the_unit_ideal():
    # three trinomials with parameter coefficients: without cancelling
    # shared denominator factors the fractions swelled for many seconds
    gens = [
        pp("w1*c1*a1^2 - w1*a2^2 - 3*a2"),
        pp("w1*c1*a1 + a1^2 - 3*w1^2*a1*a2"),
        pp("-1 + 2*c1*a1^2 + c1*a1"),
    ]
    ideal = groebner_basis(gens, AB)
    assert [str(b) for b in ideal.groebner] == ["1"]
    assert_matches_sympy(ideal)


# the benchmark's systems over the rationals, in three unknowns
QQ_SYSTEMS = {
    "katsura-2": ["x + 2*y + 2*z - 1", "x^2 + 2*y^2 + 2*z^2 - x",
                  "2*x*y + 2*y*z - y"],
    "cyclic-3": ["x + y + z", "x*y + y*z + z*x", "x*y*z - 1"],
}


@pytest.mark.parametrize("name, want", [
    ("katsura-2", ["x + 2*y + 2*z - 1",
                   "y*z + (6/5)*z^2 - (1/10)*y - (2/5)*z",
                   "y^2 - (3/5)*z^2 - (1/5)*y + (1/5)*z",
                   "z^3 - (79/210)*z^2 + (1/30)*y + (1/70)*z"]),
    ("cyclic-3", ["x + y + z", "y^2 + y*z + z^2", "z^3 - 1"]),
])
def test_three_unknown_systems_match_sympy(monkeypatch, name, want):
    xyz = ("x", "y", "z")
    leads = []
    primitive = ckexpand.groebner._primitive

    def recorded(p):
        p = primitive(p)
        leads.append(p.leading()[1])
        return p

    monkeypatch.setattr(ckexpand.groebner, "_primitive", recorded)
    ideal = groebner_basis([ParamPoly.from_scalar(parse_scalar(t), xyz)
                            for t in QQ_SYSTEMS[name]], xyz)
    assert [str(b) for b in ideal.groebner] == want
    assert_matches_sympy(ideal)
    # elements whose constant leading coefficient is not one stay so in
    # the loop; only the final division makes them monic
    assert any(lc.value not in (None, 1) for lc in leads)


def test_atlas_bases_match_sympy():
    from ckexpand.expand import run_atlas

    ideals = [r.constraints for r in run_atlas() if r.constraints is not None]
    assert len(ideals) == 12
    for ideal in ideals:
        assert_matches_sympy(ideal)


# -- printed bases do not depend on the generators given ---------------------


def recombined(gens, rng):
    """The same ideal from other generators: the row p = sum c_k g_k is
    appended, c*p is added to the first generator, and the rows are
    shuffled, with each c drawn from -2, -1, 1 and 2.  Every step is an
    invertible row operation."""
    def const():
        return Scalar.const(rng.choice((-2, -1, 1, 2)))

    extra = ParamPoly(AB)
    for g in gens:
        extra = extra + g.scale(const())
    rows = [gens[0] + extra.scale(const()), *gens[1:], extra]
    rng.shuffle(rows)
    return rows


@functools.cache
def constraint_systems():
    """The raw constraint generators of every atlas arrow, then of every
    (initial, axis) of the atlas with the expanded coefficient symbolic."""
    from ckexpand.expand import ATLAS, make_problem, run_expansion

    systems = [tuple(ideal.generators) for ideal in atlas_ideals()]
    seen = []
    for _, initial, axis, _, expected_failure in ATLAS:
        if not expected_failure and (initial, axis) not in seen:
            seen.append((initial, axis))
            report = run_expansion(make_problem(initial, axis, "sym"))
            systems.append(tuple(report.constraints.generators))
    return tuple(systems)


@pytest.mark.parametrize("seed", [7, 11])
def test_printed_bases_do_not_depend_on_the_generators_given(seed):
    # the reduced basis is unique, so each coefficient prints alike only
    # when it comes out in lowest terms whatever generators were given
    rng = random.Random(seed)
    systems = constraint_systems()
    assert len(systems) == 18
    for gens in systems:
        want = [str(b) for b in groebner_basis(gens, AB).groebner]
        for _ in range(5):
            got = groebner_basis(recombined(list(gens), rng), AB)
            assert [str(b) for b in got.groebner] == want


# -- normal forms against the earlier reduction and sympy ---------------------

CUBIC = tuple((i, d - i) for d in range(4) for i in range(d + 1))


@functools.cache
def atlas_ideals():
    from ckexpand.expand import run_atlas

    return tuple(r.constraints for r in run_atlas()
                 if r.constraints is not None)


@st.composite
def reductions(draw):
    """(p, ideal, member): the groebner_basis of a systems() draw or of an
    atlas arrow's raw constraints, and a ParamPoly of degree <= 3 that is
    a combination of the generators (member True), a random one, or the
    sum of the two (member None: either)."""
    if draw(st.booleans()):
        ideal = groebner_basis([pp(t) for t in draw(systems())], AB)
    else:
        ideal = draw(st.sampled_from(atlas_ideals()))

    def coefficient():
        return parse_scalar(draw(st.sampled_from(COEFFICIENTS)))

    member = ParamPoly(AB)
    for g in ideal.generators:
        shift = draw(st.sampled_from(MONOMIALS[:3]))
        member = member + g.shift(shift).scale(coefficient())
    size = draw(st.integers(1, 4))
    monos = draw(st.lists(st.sampled_from(CUBIC), min_size=size,
                          max_size=size, unique=True))
    other = ParamPoly(AB)
    for exps in monos:
        other = other + ParamPoly(AB, {exps: coefficient()})
    kind = draw(st.sampled_from(["member", "other", "sum"]))
    if kind == "member":
        return member, ideal, True
    return (other if kind == "other" else member + other), ideal, None


def coefficient_terms(p: ParamPoly):
    # by monomial: an input that takes no step comes back as it is, in
    # its own term order
    return {e: (c.num.terms, c.den.terms) for e, c in p.terms.items()}


# sympy's import and reduced are slow next to the deadline
@settings(deadline=None)
@given(reductions())
def test_normal_forms_match_the_earlier_reduction_and_sympy(case):
    p, ideal, member = case
    got = reduce_mod_ideal(p, ideal)
    want = oracle_reduce(p, ideal.groebner)
    assert coefficient_terms(got) == coefficient_terms(want)
    assert str(got) == str(want)
    if member:
        assert got.is_zero
    sympy = pytest.importorskip("sympy")
    syms = [sympy.Symbol(u) for u in AB]
    f = param_poly_to_sympy(p)
    basis = [param_poly_to_sympy(b) for b in ideal.groebner]
    params = sorted(
        set().union(f.free_symbols, *(b.free_symbols for b in basis))
        - set(syms), key=str
    )
    domain = sympy.QQ.frac_field(*params) if params else sympy.QQ
    _, remainder = sympy.reduced(f, basis, *syms, order="grlex",
                                 domain=domain)
    assert sympy.cancel(remainder - param_poly_to_sympy(got)) == 0


def test_a_basis_that_is_not_monic_is_refused():
    # _reduce never divides, so reduce_mod_ideal takes only the monic basis
    # that groebner_basis makes
    ideal = next(i for i in atlas_ideals() if i.groebner)
    member = ideal.generators[0]
    for text in ("c1", "2"):
        basis = tuple(b.scale(parse_scalar(text)) for b in ideal.groebner)
        message = f"basis element {re.escape(str(basis[0]))} is not monic"
        with pytest.raises(ValueError, match=message):
            reduce_mod_ideal(member, ideal._replace(groebner=basis))
    assert reduce_mod_ideal(member, ideal).is_zero


def test_inputs_are_coerced_to_param_polys_in_the_ideal_unknowns():
    texts = ["c1*a2^2 + w2", "2*c1*a1 + c2*a2"]
    want = groebner_basis([pp(t) for t in texts], AB)
    for gens in ([parse_scalar(t) for t in texts], texts):
        assert list(groebner_basis(gens, AB).groebner) == list(want.groebner)
    assert reduce_mod_ideal("a1*a2", want) == reduce_mod_ideal(pp("a1*a2"), want)
    other = ParamPoly.from_scalar(parse_scalar("a1 + w1"), ("a1",))
    with pytest.raises(ValueError, match="unknown lists differ"):
        reduce_mod_ideal(other, want)


# -- one content rule ---------------------------------------------------------

# each content helper of groebner.py and the one function that may use it
CONTENT_RULE = {
    "rational_content": "_content",
    "monomial_content": "_content",
    "_mono_div": "_over_content",
    "_content": "_primitive",
    "_over_content": "_primitive",
}


def test_the_content_rule_is_used_only_through_primitive():
    # normalized and the Buchberger loop share one content rule: a second
    # copy of it would call these helpers outside their one caller
    assert set(name_uses(ckexpand.groebner.__file__, CONTENT_RULE)) == {
        (f"groebner.{caller}", name) for name, caller in CONTENT_RULE.items()
    }
