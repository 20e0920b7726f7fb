"""Groebner bases of the constraint ideals in the expansion unknowns."""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import oracle_proportional, to_sympy

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
    assert empty.is_trivial
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


# -- S-pair criteria and the single inter-reduction pass ----------------------


def count_calls(monkeypatch, name):
    import ckexpand.groebner

    calls = []
    original = getattr(ckexpand.groebner, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(ckexpand.groebner, name, counted)
    return calls


def test_coprime_leading_monomials_reduce_no_s_pair(monkeypatch):
    spolys = count_calls(monkeypatch, "_spoly")
    ideal = groebner_basis([pp("a1^2 + w1"), pp("a2^2 + w2")], AB)
    assert [str(b) for b in ideal.groebner] == ["a2^2 + w2", "a1^2 + w1"]
    # the product criterion skips the only pair
    assert len(spolys) == 0


def test_chain_criterion_skips_s_pairs(monkeypatch):
    spolys = count_calls(monkeypatch, "_spoly")
    # every element of this ideal is a multiple of a1, so no two leading
    # monomials are coprime and the product criterion never applies
    gens = [pp("a1^3 + w1*a1"), pp("a1^2*a2 + c1*a1"), pp("a1*a2^2 + a1")]
    ideal = groebner_basis(gens, AB)
    assert [str(b) for b in ideal.groebner] == ["a1"]
    # reducing every pair takes 10 S-polynomials
    assert len(spolys) == 5


def test_redundant_generator_is_dropped_in_one_pass(monkeypatch):
    spolys = count_calls(monkeypatch, "_spoly")
    reductions = count_calls(monkeypatch, "_reduce")
    # the leading monomial a1 divides a1*a2
    ideal = groebner_basis([pp("a1 + w1"), pp("a1*a2 + c1*a2^2")], AB)
    assert [str(b) for b in ideal.groebner] == [
        "a1 + w1",
        "a2^2 + ((-w1)/(c1))*a2",
    ]
    # one reduction per S-pair, then one per element of the reduced basis;
    # the redundant generator is dropped without being reduced
    assert len(spolys) == 1
    assert len(reductions) == len(spolys) + len(ideal.groebner)


# -- ideal_equals: the reduced bases compared as lists ------------------------


def test_equal_bases_are_one_ideal_without_a_reduction(monkeypatch):
    gens = [pp("c1*a2^2 + w2"), pp("2*c1*a1*a2 + c2*a2^2")]
    ideal = groebner_basis(gens, AB)
    again = groebner_basis(list(reversed(gens)), AB)
    assert ideal.groebner is not again.groebner
    reductions = count_calls(monkeypatch, "_reduce")
    assert ideal_equals(ideal, ideal)
    assert ideal_equals(ideal, again)
    assert len(reductions) == 0


def test_other_generators_of_the_same_ideal_give_the_same_basis():
    gens = [pp("c1*a2^2 + w2"), pp("2*c1*a1 + c2*a2")]
    ideal = groebner_basis(gens, AB)
    # each generator scaled by a parameter, and a multiple appended
    scaled = [g.scale(parse_scalar("w1 + 1")) for g in gens]
    extended = [*gens, gens[0].shift((1, 1), parse_scalar("c2"))]
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
PARAMETERS = st.sampled_from(["w1", "c1", "-w1", "2*c1", "w1*c1", "-3*w1^2"])


def generator_text(terms):
    return " + ".join(
        f"({c})*a1^{e1}*a2^{e2}" for (e1, e2), c in sorted(terms.items())
    )


@st.composite
def systems(draw):
    """1-3 generators of degree <= 2 in (a1, a2), each with 1-3 terms whose
    coefficients are integers or parameters."""
    texts = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 3))
        monos = draw(st.lists(st.sampled_from(MONOMIALS), min_size=size,
                              max_size=size, unique=True))
        coeffs = st.one_of(INTEGERS, PARAMETERS)
        texts.append(generator_text({m: draw(coeffs) for m in monos}))
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


def test_atlas_bases_match_sympy():
    from ckexpand.expand import run_atlas

    ideals = [r.constraints for r in run_atlas() if r.constraints is not None]
    assert len(ideals) == 12
    for ideal in ideals:
        assert_matches_sympy(ideal)
