"""PBW normal ordering, Casimirs, and central reduction."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ckexpand.expand import ExpansionError, make_problem
from ckexpand.liealg import (
    BUILTIN_NAMES,
    UnsupportedAlgebraError,
    builtin_algebra,
    contract,
    identify,
    make_ck_algebra,
    make_extended_galilei,
)
from ckexpand.poly import Scalar, add_term, as_scalar, grlex_key, parse_scalar
from ckexpand.uea import (
    CentralReducer,
    CentralRelation,
    MixedAlgebraError,
    UEAElement,
    casimir,
    is_central,
    parse_element,
    pbw_normalize,
    standard_relations,
    uea_commutator,
    uea_mul,
)

SYMBOLIC = make_ck_algebra("w1", "w2")
EXT = make_extended_galilei()


# The engine always swaps the *first* out-of-order adjacent pair; PBW says
# the result is independent of that choice.  The oracle picks a random
# inversion at every step, so agreement over many runs is strong evidence
# that both terminate on the same normal form.
from oracles import (
    oracle_normalize, oracle_reconstruct, oracle_span_reducer, to_sympy,
)


@pytest.mark.parametrize("algebra", [SYMBOLIC, EXT], ids=lambda g: g.name)
def test_pbw_matches_random_choice_oracle(algebra):
    rng = random.Random(20260824)
    for _ in range(200):
        word = [rng.randrange(algebra.dim) for _ in range(rng.randint(0, 6))]
        assert pbw_normalize(algebra, word) == oracle_normalize(
            algebra, word, rng
        )


def test_pbw_single_swap():
    # K1 * P1 = P1 K1 + [K1, P1] = P1 K1 - w2 H
    k1, p1 = SYMBOLIC.index("K1"), SYMBOLIC.index("P1")
    got = pbw_normalize(SYMBOLIC, (k1, p1))
    expected = parse_element(SYMBOLIC, "P1 K1 - w2 * H")
    assert got == expected


def test_commutator_agrees_with_bracket_table():
    for x in SYMBOLIC.generators:
        for y in SYMBOLIC.generators:
            got = uea_commutator(
                UEAElement.generator(SYMBOLIC, x),
                UEAElement.generator(SYMBOLIC, y),
            )
            want = UEAElement(SYMBOLIC)
            for label, c in SYMBOLIC.bracket_labels(x, y).items():
                want = want + UEAElement.generator(SYMBOLIC, label).scale(c)
            assert got == want


def test_product_degree_and_leibniz():
    h = UEAElement.generator(SYMBOLIC, "H")
    p1 = UEAElement.generator(SYMBOLIC, "P1")
    k1 = UEAElement.generator(SYMBOLIC, "K1")
    assert uea_mul(h, p1).degree() == 2
    lhs = uea_commutator(h, uea_mul(p1, k1))
    rhs = uea_mul(uea_commutator(h, p1), k1) + uea_mul(
        p1, uea_commutator(h, k1)
    )
    assert lhs == rhs


def test_mixed_algebra_operands_rejected():
    with pytest.raises(MixedAlgebraError):
        uea_mul(
            UEAElement.generator(SYMBOLIC, "H"),
            UEAElement.generator(builtin_algebra("poincare"), "H"),
        )
    # the derivation rule checks before it looks at a single letter
    for a, b in [
        (UEAElement.generator(SYMBOLIC, "H"), UEAElement.generator(EXT, "P1")),
        (UEAElement(EXT), UEAElement.generator(SYMBOLIC, "K1")),
    ]:
        with pytest.raises(MixedAlgebraError):
            uea_commutator(a, b)


COEFFS = [parse_scalar(t) for t in ("1", "-2", "w1", "3/2*w2 - 1", "a1*w1")]


@st.composite
def elements(draw, algebra):
    """A random element: up to three words of length <= 3."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        word = draw(st.lists(st.integers(0, algebra.dim - 1), max_size=3))
        exps = [0] * algebra.dim
        for idx in word:
            exps[idx] += 1
        add_term(terms, tuple(exps), draw(st.sampled_from(COEFFS)))
    return UEAElement(algebra, terms)


def oracle_product_difference(a, b, rng):
    """ab - ba, every word normal-ordered by the random-choice oracle."""
    g = a.algebra
    total = UEAElement(g)
    for ea, ca in a.terms.items():
        wa = [idx for idx, e in enumerate(ea) for _ in range(e)]
        for eb, cb in b.terms.items():
            wb = [idx for idx, e in enumerate(eb) for _ in range(e)]
            total = total + (
                oracle_normalize(g, wa + wb, rng)
                - oracle_normalize(g, wb + wa, rng)
            ).scale(ca * cb)
    return total


@pytest.mark.parametrize("algebra", [SYMBOLIC, EXT], ids=lambda g: g.name)
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_commutator_matches_product_difference(algebra, data):
    a = data.draw(elements(algebra))
    b = data.draw(elements(algebra))
    got = uea_commutator(a, b)
    assert got == uea_mul(a, b) - uea_mul(b, a)
    assert got == oracle_product_difference(a, b, data.draw(st.randoms()))


# -- Casimirs ---------------------------------------------------------------


def test_casimir_expressions():
    c1 = casimir(SYMBOLIC, 1)
    assert c1 == parse_element(
        SYMBOLIC,
        "w2 * H^2 + P1^2 + P2^2 + w1 * K1^2 + w1 * K2^2 + w1*w2 * J^2",
    )
    c2 = casimir(SYMBOLIC, 2)
    assert c2 == parse_element(SYMBOLIC, "w2 * H J - P1 K2 + P2 K1")


@pytest.mark.parametrize("index", [1, 2])
def test_casimirs_are_central_symbolically(index):
    central, witness = is_central(casimir(SYMBOLIC, index))
    assert central, witness


def test_extended_galilei_casimirs_absorb_the_extension():
    # m*Xi takes over the role of w2*H in both invariants
    assert casimir(EXT, 1) == parse_element(EXT, "P1^2 + P2^2 + 2*m * H Xi")
    assert casimir(EXT, 2) == parse_element(
        EXT, "-1 * P1 K2 + P2 K1 + m * J Xi"
    )
    for index in (1, 2):
        assert is_central(casimir(EXT, index))[0]
    assert is_central(UEAElement.generator(EXT, "Xi"))[0]
    # the unextended expressions stop being central once [P,K] = m*Xi
    assert not is_central(parse_element(EXT, "P1^2 + P2^2"))[0]


def test_contracted_algebras_have_central_casimirs():
    # a contraction drops the m*Xi extension of ext-galilei along either
    # axis; the Casimirs must follow the brackets, not the seed's mass
    accepted = 0
    for name in sorted(BUILTIN_NAMES) + ["ext-galilei", "ck"]:
        for kind in ("space-time", "speed-space"):
            g = contract(builtin_algebra(name), kind)
            try:
                identify(g)
            except UnsupportedAlgebraError:
                continue
            accepted += 1
            for rel in standard_relations(g):
                assert is_central(rel.element)[0], (name, kind, rel.label)
    assert accepted == 22
    g = contract(EXT, "speed-space")
    assert casimir(g, 1) == parse_element(g, "P1^2 + P2^2")
    assert [rel.label for rel in standard_relations(g)] == ["C1", "C2"]


def test_non_central_element_reports_witness():
    central, (label, residual) = is_central(
        UEAElement.generator(SYMBOLIC, "P1")
    )
    assert not central
    assert not residual.is_zero


# -- central reduction --------------------------------------------------------


def test_standard_relations():
    labels = [rel.label for rel in standard_relations(SYMBOLIC)]
    assert labels == ["C1", "C2"]
    ext_rels = standard_relations(EXT)
    assert [rel.label for rel in ext_rels] == ["C1", "C2", "mXi"]
    assert ext_rels[2].scalar == parse_scalar("m * xi")


def test_casimir_reduces_to_its_eigenvalue():
    relations = standard_relations(SYMBOLIC)
    remainder, witness = CentralReducer(SYMBOLIC, relations).reduce(
        casimir(SYMBOLIC, 1)
    )
    assert remainder == UEAElement.one(SYMBOLIC).scale(Scalar.symbol("c1"))
    assert oracle_reconstruct(remainder, witness, relations) == casimir(
        SYMBOLIC, 1
    )


def test_reduction_witness_reconstructs_input():
    relations = standard_relations(SYMBOLIC)
    x = uea_mul(casimir(SYMBOLIC, 2), UEAElement.generator(SYMBOLIC, "J"))
    remainder, witness = CentralReducer(SYMBOLIC, relations).reduce(x)
    assert witness  # something was actually subtracted
    assert oracle_reconstruct(remainder, witness, relations) == x
    # idempotent: the remainder is already fully reduced
    again, more = CentralReducer(SYMBOLIC, relations).reduce(remainder)
    assert again == remainder
    assert not more


def test_degree_one_relation_needs_the_wider_default_bound():
    relations = standard_relations(EXT)
    x = parse_element(EXT, "m * K1 Xi")
    remainder, witness = CentralReducer(EXT, relations).reduce(x)
    assert remainder == parse_element(EXT, "m*xi * K1")
    assert any(label == "mXi" for label, _, _ in witness)
    assert oracle_reconstruct(remainder, witness, relations) == x


def test_reduction_grows_to_the_input_degree():
    # no bound to exceed: the span grows to each input's degree, so C1^2
    # reduces to c1^2 after C1 has grown it only to degree 2
    relations = standard_relations(SYMBOLIC)
    reducer = CentralReducer(SYMBOLIC, relations)
    c1 = casimir(SYMBOLIC, 1)
    assert reducer.reduce(c1)[0] == UEAElement.one(SYMBOLIC).scale(
        Scalar.symbol("c1")
    )
    assert reducer.bound == 0
    x = uea_mul(c1, c1)
    remainder, witness = reducer.reduce(x)
    assert reducer.bound == 2
    assert remainder == UEAElement.one(SYMBOLIC).scale(parse_scalar("c1^2"))
    assert oracle_reconstruct(remainder, witness, relations) == x


def test_central_relations_are_immutable():
    relation = standard_relations(SYMBOLIC)[0]
    with pytest.raises(AttributeError):
        relation.scalar = Scalar.symbol("c2")


def test_relation_from_foreign_algebra_rejected():
    foreign = CentralRelation(
        "C1", casimir(builtin_algebra("poincare"), 1), Scalar.symbol("c1")
    )
    with pytest.raises(MixedAlgebraError):
        CentralReducer(SYMBOLIC, [foreign]).reduce(casimir(SYMBOLIC, 1))


def test_reducer_rows_are_built_by_right_multiplication(monkeypatch):
    # each row is the row of its cofactor without the last letter, times
    # that letter: the build makes no full product.  Grown to degree 5,
    # poincare has 2 x 84 cofactors of degree <= 3, of which 161 give
    # independent rows; each of the 2 x 83 non-empty ones costs one
    # product by a single generator, once across growths.
    import ckexpand.uea

    g = builtin_algebra("poincare")
    relations = standard_relations(g)
    calls = []
    mul = ckexpand.uea.uea_mul

    def counted_mul(a, b):
        calls.append(b)
        return mul(a, b)

    monkeypatch.setattr(ckexpand.uea, "uea_mul", counted_mul)
    reducer = CentralReducer(g, relations)
    assert (len(calls), reducer.bound) == (0, -1)
    reducer.reduce(pbw_normalize(g, [0, 1, 2]))
    assert (len(calls), reducer.bound) == (2 * 6, 1)
    reducer.reduce(pbw_normalize(g, [0, 1, 2, 3, 4]))
    assert (len(calls), reducer.bound) == (166, 3)
    for right in calls:
        [(exps, coeff)] = right.terms.items()
        assert sum(exps) == 1 and coeff.is_one
    rows = reducer.span.rows
    assert len(rows) == 161
    for lead, (terms, _) in rows.items():
        assert lead == max(terms, key=grlex_key)
    # the remainder is the normal form: no row leader survives, and the
    # witness rebuilds the input under the oracle's products
    rng = random.Random(20261018)
    products = {}
    for _ in range(40):
        x = pbw_normalize(g, [rng.randrange(g.dim) for _ in range(rng.randint(0, 5))])
        remainder, witness = reducer.reduce(x)
        assert not set(remainder.terms) & set(rows)
        assert oracle_reconstruct(remainder, witness, relations, products) == x


EXT_SEEDS = [
    EXT,
    make_extended_galilei("2*n+1", name="ext-galilei(2n+1)"),
    # c = 1/(q+1) in c*Xi = c*xi: the substitution divides by a fraction
    make_extended_galilei("1/(q+1)", name="ext-galilei(1/(q+1))"),
]


def _with_xi_powers(algebra, rng):
    """A random element: up to four PBW monomials, each a word of degree
    <= 3 in the letters other than Xi times Xi^k for k <= 3."""
    xi = algebra.index("Xi")
    others = [i for i in range(algebra.dim) if i != xi]
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * algebra.dim
        for _ in range(rng.randint(0, 3)):
            exps[rng.choice(others)] += 1
        exps[xi] = rng.randint(0, 3)
        add_term(terms, tuple(exps), rng.choice(COEFFS))
    return UEAElement(algebra, terms)


@pytest.mark.parametrize("algebra", EXT_SEEDS, ids=lambda g: g.name)
def test_a_central_generator_is_substituted(algebra):
    # c*Xi = c*xi sets Xi to xi: no remainder holds Xi or a row leader, and
    # the witness, which carries the substitution's (Xi - xi) multiples as
    # mXi entries, rebuilds the input under the oracle's products
    relations = standard_relations(algebra)
    reducer = CentralReducer(algebra, relations)
    xi = algebra.index("Xi")
    rng = random.Random(20261019)
    products = {}
    substituted = 0
    for _ in range(30):
        x = _with_xi_powers(algebra, rng)
        remainder, witness = reducer.reduce(x)
        assert not any(exps[xi] for exps in remainder.terms)
        assert not set(remainder.terms) & set(reducer.span.rows)
        assert oracle_reconstruct(remainder, witness, relations, products) == x
        substituted += any(label == "mXi" for label, _, _ in witness)
    assert substituted > 0


def test_substitution_spans_only_the_casimir_relations(monkeypatch):
    # grown to degree 3, ext-galilei spans C1 and C2 times the cofactors of
    # degree <= 1 in the six letters other than Xi: 2 x 7 rows, one
    # product by a single letter per non-empty cofactor.  Spanning m*Xi
    # too made 50 rows, 36 of them multiples of that relation
    import ckexpand.uea

    calls = []
    mul = ckexpand.uea.uea_mul

    def counted_mul(a, b):
        calls.append(b)
        return mul(a, b)

    monkeypatch.setattr(ckexpand.uea, "uea_mul", counted_mul)
    reducer = CentralReducer(EXT, standard_relations(EXT))
    reducer.reduce(parse_element(EXT, "P1 K1 J + m * H Xi^2"))
    assert (len(reducer.span.rows), len(calls), reducer.bound) == (14, 2 * 6, 1)
    for right in calls:
        [(exps, coeff)] = right.terms.items()
        assert sum(exps) == 1 and coeff.is_one
    xi = EXT.index("Xi")
    for lead, (terms, _) in reducer.span.rows.items():
        assert not any(exps[xi] for exps in terms)


def _reductions(algebra, seed):
    relations = standard_relations(algebra)
    reducer = CentralReducer(algebra, relations)
    rng = random.Random(seed)
    out = [reducer.reduce(_with_xi_powers(algebra, rng)) for _ in range(20)]
    return reducer, [(r.terms, w) for r, w in out]


def test_a_loaded_algebra_gets_the_same_substitution():
    # the substitution is chosen from the bracket table, so the algebra
    # read back from its JSON form reduces exactly as the builtin does
    from ckexpand.liealg import LieAlgebra

    loaded = LieAlgebra.from_json_dict(EXT.to_json_dict())
    assert loaded is not EXT
    builtin_reducer, builtin = _reductions(EXT, 7)
    loaded_reducer, got = _reductions(loaded, 7)
    assert list(loaded_reducer._subs) == list(builtin_reducer._subs) == [
        EXT.index("Xi")
    ]
    assert len(loaded_reducer.span.rows) == len(builtin_reducer.span.rows)
    assert got == builtin


def test_a_relation_on_a_non_central_generator_is_spanned():
    # H is not central in poincare, so H = e is spanned like a Casimir
    g = builtin_algebra("poincare")
    relations = [CentralRelation("He", UEAElement.generator(g, "H"),
                                 Scalar.symbol("e"))]
    reducer = CentralReducer(g, relations)
    assert reducer._subs == {}
    x = parse_element(g, "H P1 + 2 * P2")
    remainder, witness = reducer.reduce(x)
    assert len(reducer.span.rows) == 1 + g.dim
    assert remainder == parse_element(g, "e * P1 + 2 * P2")
    assert [(label, exps) for label, exps, _ in witness] == [
        ("He", parse_element(g, "P1").terms.popitem()[0])
    ]
    assert oracle_reconstruct(remainder, witness, relations) == x


SEEDS = [builtin_algebra(name) for name in sorted(BUILTIN_NAMES)] + [
    EXT,
    SYMBOLIC,
    make_ck_algebra(0, "w2", name="ck(0,w2)"),
    make_ck_algebra("w1", 0, name="ck(w1,0)"),
    make_ck_algebra(0, "1/(q+1)", name="ck(0,1/(q+1))"),
    make_extended_galilei("2*n+1", name="ext-galilei(2n+1)"),
    make_extended_galilei("1/(q+1)", name="ext-galilei(1/(q+1))"),
]


@pytest.mark.parametrize("algebra", SEEDS, ids=lambda g: g.name)
def test_remainders_equal_the_bound_3_span(algebra):
    # the span grown to the input's degree gives the normal form of the
    # uniform cofactor bound 3, which covers words of degree <= 3 + the
    # smallest relation degree
    relations = standard_relations(algebra)
    oracle = oracle_span_reducer(algebra, relations, 3)
    reducer = CentralReducer(algebra, relations)
    top = 3 + min(rel.element.degree() for rel in relations)
    rng = random.Random(20261018)
    for _ in range(60):
        word = [rng.randrange(algebra.dim) for _ in range(rng.randint(0, top))]
        x = pbw_normalize(algebra, word, rng.choice(COEFFS))
        assert reducer.reduce(x)[0] == oracle(x)


def _top_part(element):
    """The top-degree part of an element as a sympy polynomial in its
    generator labels over the field of its parameters."""
    import sympy

    deg = element.degree()
    return sympy.Add(*(
        to_sympy(coeff) * sympy.Mul(*(
            sympy.Symbol(label) ** e
            for label, e in zip(element.algebra.generators, exps)
        ))
        for exps, coeff in element.terms.items() if sum(exps) == deg
    ))


def _accepted(g):
    for axis in (1, 2):
        try:
            make_problem(g, axis)
            return True
        except ExpansionError:
            pass
    return False


@pytest.mark.parametrize(
    "algebra", [g for g in SEEDS if _accepted(g)], ids=lambda g: g.name
)
def test_relation_tops_are_coprime(algebra):
    # the premise of the exact reducer: the top-degree parts of the central
    # relations form a regular sequence in S(g).  Two forms do when they
    # are coprime; with the variable m*Xi as a third, the two Casimir tops
    # must stay coprime once Xi is set to zero
    sympy = pytest.importorskip("sympy")
    gens = [sympy.Symbol(label) for label in algebra.generators]
    tops = [_top_part(rel.element) for rel in standard_relations(algebra)]
    cases = [tops]
    if "Xi" in algebra.generators:
        xi = sympy.Symbol("Xi")
        cases.append([t.subs(xi, 0) for t in tops if t.subs(xi, 0) != 0])
        assert len(cases[-1]) == 2
    for case in cases:
        for f, h in itertools.combinations(case, 2):
            gcd = sympy.gcd(sympy.Poly(f, *gens), sympy.Poly(h, *gens))
            assert gcd.total_degree() == 0, (f, h, gcd)


def test_products_accumulate_in_one_dict_not_by_element_sums(monkeypatch):
    # a product adds each normal-ordered piece into a single term dict;
    # summing whole elements (by + or -) would copy the running total once
    # per piece
    g = builtin_algebra("poincare")
    c2 = casimir(g, 2)
    relations = standard_relations(g)
    calls = []
    for name in ("__add__", "__sub__"):
        def counted(a, b, op=getattr(UEAElement, name)):
            calls.append(1)
            return op(a, b)

        monkeypatch.setattr(UEAElement, name, counted)
    x = uea_mul(c2, c2)
    assert not x.is_zero
    assert len(calls) == 0
    CentralReducer(g, relations).reduce(uea_mul(x, UEAElement.generator(g, "J")))
    # only (element - scalar) of each of the two relations
    assert len(calls) == 2


def test_a_product_builds_each_factor_word_once(monkeypatch):
    # len(a) + len(b) words per product, not two per pair of terms
    import ckexpand.uea

    g = builtin_algebra("poincare")
    c2 = casimir(g, 2)
    calls = []
    word_of = ckexpand.uea._word_of

    def counted_word_of(exps):
        calls.append(exps)
        return word_of(exps)

    monkeypatch.setattr(ckexpand.uea, "_word_of", counted_word_of)
    assert not uea_mul(c2, c2).is_zero
    assert len(calls) == 2 * len(c2.terms) == 6


# -- textual format -------------------------------------------------------------


def test_str_format_examples():
    x = parse_element(SYMBOLIC, "2 * H^2 - 1/3 * P1 K2 + J")
    assert str(x) == "2 * H^2 - 1/3 * P1 K2 + 1 * J"
    assert str(UEAElement(SYMBOLIC)) == "0"
    assert str(UEAElement.one(SYMBOLIC).scale(as_scalar("c1"))) == "c1 * 1"


def test_parse_roundtrip_on_engine_outputs():
    for x in (
        casimir(SYMBOLIC, 1),
        casimir(SYMBOLIC, 2),
        uea_mul(casimir(SYMBOLIC, 2), casimir(SYMBOLIC, 2)),
        UEAElement.one(SYMBOLIC).scale(parse_scalar("(w1 + 1)/(w2)")),
        UEAElement(SYMBOLIC),
    ):
        assert parse_element(SYMBOLIC, str(x)) == x


def test_parse_rejects_unknown_generator_power():
    with pytest.raises(ValueError):
        parse_element(SYMBOLIC, "2 * H^")


def test_parse_reads_generator_labels_anywhere_in_a_term():
    g = builtin_algebra("poincare")
    h_p1 = UEAElement.monomial(g, {"H": 1, "P1": 1})
    assert parse_element(g, "H*P1") == parse_element(g, "H P1") == h_p1
    assert parse_element(g, "2 * H P1") == h_p1.scale(2)
    c1_h2 = UEAElement.monomial(g, {"H": 2}, "c1")
    assert parse_element(g, "H^2 * c1") == parse_element(g, "c1 * H^2") == c1_h2


def test_parse_rejects_a_generator_in_a_denominator():
    g = builtin_algebra("poincare")
    with pytest.raises(ValueError, match="'H'"):
        parse_element(g, "1/H * P1")
