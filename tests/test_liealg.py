"""Structure constants, involutions, contractions, catalog."""

import itertools
import re

import pytest

from ckexpand.liealg import (
    BUILTIN_NAMES,
    CATALOG,
    ContractionError,
    Decomposition,
    Involution,
    LieAlgebra,
    UnsupportedAlgebraError,
    apply_involution,
    builtin_algebra,
    cartan_check,
    catalog_arrows,
    catalog_lookup,
    check_structure,
    contract,
    identify,
    make_ck_algebra,
    make_extended_galilei,
    standard_involutions,
    with_central_generator,
)
from ckexpand.poly import Scalar, as_scalar

SYMBOLIC = make_ck_algebra("w1", "w2")


# -- independent Jacobi oracle ------------------------------------------------
#
# check_structure already brute-forces the Jacobi identity; this oracle
# recomputes it from the raw bracket table without going through
# LieAlgebra.bracket, so the two implementations are independent.


def raw_bracket(g, i, j):
    if i == j:
        return {}
    if i < j:
        return g.brackets.get((i, j), {})
    return {n: -c for n, c in g.brackets.get((j, i), {}).items()}


def jacobi_residual(g, i, j, k):
    residual = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        inner = raw_bracket(g, a, b)
        for n, coeff in inner.items():
            for m, d in raw_bracket(g, n, c).items():
                residual[m] = residual.get(m, Scalar.zero()) + coeff * d
    return {m: c for m, c in residual.items() if not c.is_zero}


def oracle_jacobi_ok(g):
    return all(
        not jacobi_residual(g, i, j, k)
        for i, j, k in itertools.combinations(range(g.dim), 3)
    )


def test_symbolic_family_satisfies_jacobi():
    report = check_structure(SYMBOLIC)
    assert report.ok
    assert report.triples_checked == 20
    assert oracle_jacobi_ok(SYMBOLIC)


@pytest.mark.parametrize("name", sorted(BUILTIN_NAMES))
def test_every_cell_satisfies_jacobi(name):
    g = builtin_algebra(name)
    assert check_structure(g).ok
    assert oracle_jacobi_ok(g)


def test_extended_galilei_satisfies_jacobi():
    g = make_extended_galilei()
    report = check_structure(g)
    assert report.ok
    assert report.triples_checked == 35
    assert oracle_jacobi_ok(g)
    # Xi is central and the boost-momentum bracket carries the extension
    assert g.bracket_labels("P1", "K1") == {"Xi": as_scalar("m")}
    assert all(not g.bracket(g.index("Xi"), j) for j in range(g.dim))


def test_mutated_table_fails_jacobi():
    g = make_ck_algebra(1, -1)
    bad = dict(g.brackets)
    i, j = g.index("H"), g.index("P1")
    bad[(i, j)] = {g.index("K2"): as_scalar(1)}  # wrong boost component
    broken = LieAlgebra("broken", g.generators, bad)
    assert not check_structure(broken).ok
    assert not oracle_jacobi_ok(broken)


@pytest.mark.parametrize("name", sorted(BUILTIN_NAMES) + ["ext-galilei", "ck"])
def test_signed_table_is_antisymmetric(name):
    g = builtin_algebra(name)
    for i in range(g.dim):
        for j in range(g.dim):
            assert g.bracket(i, j) == {n: -c for n, c in g.bracket(j, i).items()}
            if i < j:
                assert g.bracket(i, j) == g.brackets.get((i, j), {})
    # bracket hands out a copy: changing it leaves the table alone
    got = g.bracket(3, 0)
    assert got == {g.index("P1"): as_scalar(1)}
    got.clear()
    assert g.bracket(3, 0) == dict(g.table[3][0]) != {}


def test_bracket_antisymmetry_accessor():
    i, j = SYMBOLIC.index("H"), SYMBOLIC.index("K1")
    assert SYMBOLIC.bracket(i, j) == {SYMBOLIC.index("P1"): as_scalar(-1)}
    assert SYMBOLIC.bracket(j, i) == {SYMBOLIC.index("P1"): as_scalar(1)}
    assert SYMBOLIC.bracket(i, i) == {}


# -- involutions and Cartan decompositions -------------------------------------


@pytest.mark.parametrize("kind", ["P", "T", "PT"])
def test_involutions_are_automorphisms(kind):
    inv = standard_involutions()[kind]
    for g in (SYMBOLIC, make_extended_galilei()):
        report = apply_involution(g, inv)
        assert report.is_automorphism, report.violations


def test_pt_decomposition_is_cartan():
    # invariant part <K1, K2, J>, anti-invariant part <H, P1, P2>
    report = apply_involution(SYMBOLIC, standard_involutions()["PT"])
    k_labels = {SYMBOLIC.generators[i] for i in report.decomposition.k}
    assert k_labels == {"K1", "K2", "J"}
    cartan = cartan_check(SYMBOLIC, report.decomposition)
    assert cartan.ok
    assert not cartan.p_abelian  # [P1, P2] = w1*w2*J sits in h


def test_p_decomposition_is_cartan():
    report = apply_involution(SYMBOLIC, standard_involutions()["P"])
    k_labels = {SYMBOLIC.generators[i] for i in report.decomposition.k}
    assert k_labels == {"H", "J"}
    assert cartan_check(SYMBOLIC, report.decomposition).ok


def test_a_sign_map_that_is_no_automorphism_fails_the_grading_scan():
    # flipping P1 alone: [H,P1] = w1*K1 lands in k where t is required
    signs = {label: 1 for label in SYMBOLIC.generators}
    signs["P1"] = -1
    report = apply_involution(SYMBOLIC, Involution("P1 only", signs))
    assert not report.is_automorphism
    assert ("hp", "H", "P1", ("K1",)) in report.violations
    cartan = cartan_check(SYMBOLIC, report.decomposition)
    assert (report.is_automorphism, report.violations) == (
        cartan.ok, cartan.violations
    )
    # hh pairs, then hp pairs with the k generator first, each in index order
    assert cartan.violations == [
        ("hh", "H", "K1", ("P1",)),
        ("hh", "P2", "J", ("P1",)),
        ("hp", "H", "P1", ("K1",)),
        ("hp", "P2", "P1", ("J",)),
        ("hp", "K1", "P1", ("H",)),
        ("hp", "J", "P1", ("P2",)),
    ]
    assert (cartan.hh_ok, cartan.hp_ok, cartan.pp_ok) == (False, False, True)


def test_cartan_check_rejects_non_partition():
    with pytest.raises(ValueError):
        cartan_check(SYMBOLIC, Decomposition(k=(0, 1), t=(1, 2, 3, 4, 5)))


def test_involution_signs_must_be_plus_or_minus_one():
    with pytest.raises(ValueError, match="signs must be"):
        Involution("x", {"H": 2})


def test_decompositions_and_catalog_entries_are_immutable():
    for record, attr in (
        (Decomposition(k=(0,), t=(1,)), "k"),
        (catalog_lookup((0, -1)), "algebra"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)


# -- contractions ---------------------------------------------------------------


def test_space_time_contraction_kills_w1():
    g = contract(SYMBOLIC, "space-time")
    assert g.same_brackets(make_ck_algebra(0, "w2"))
    assert identify(g).w1.is_zero


def test_speed_space_contraction_kills_w2():
    g = contract(SYMBOLIC, "speed-space")
    assert g.same_brackets(make_ck_algebra("w1", 0))
    assert identify(g).w2.is_zero


def test_all_twelve_contraction_arrows():
    arrows = [a for a in catalog_arrows() if a[3] == "contraction"]
    assert len(arrows) == 12
    for source, target, kind, _ in arrows:
        got = contract(make_ck_algebra(*source), kind)
        assert got.same_brackets(make_ck_algebra(*target)), (source, kind)


def test_contraction_of_extension_drops_the_center_bracket():
    g = contract(make_extended_galilei(), "speed-space")
    assert not g.bracket_labels("P1", "K1")
    assert g.same_brackets(
        with_central_generator(make_ck_algebra(0, 0))
    )


def test_contraction_negative_power_is_an_error():
    # a bracket of unscaled generators valued in a scaled one cannot survive
    bad = LieAlgebra(
        "bad", ("H", "K1", "K2"), {(1, 2): {0: as_scalar(1)}}
    )
    with pytest.raises(ContractionError):
        contract(bad, "space-time")
    with pytest.raises(ValueError):
        contract(SYMBOLIC, "sideways")


# -- catalog and JSON schema ------------------------------------------------------


def test_catalog_lookup():
    assert catalog_lookup((0, -1)).algebra == "iso(2,1)"
    assert catalog_lookup(("+", "-")).algebra == "so(2,2)"
    assert catalog_lookup("iso(3)").signs == (0, 1)
    assert "Galilean" in catalog_lookup((0, 0)).space
    assert len(CATALOG) == 9
    with pytest.raises(KeyError):
        catalog_lookup((2, 0))


def test_builtin_names_cover_the_grid():
    assert sorted(BUILTIN_NAMES.values()) == sorted(CATALOG.keys())
    assert identify(builtin_algebra("poincare")).w2 == as_scalar(-1)
    with pytest.raises(KeyError):
        builtin_algebra("nope")


# -- identification from the brackets ---------------------------------------------


def test_identify_reads_every_builtin():
    zero = as_scalar(0)
    for name, (s1, s2) in BUILTIN_NAMES.items():
        assert identify(builtin_algebra(name)) == (s1, s2, zero, None), name
    assert identify(SYMBOLIC) == (as_scalar("w1"), as_scalar("w2"), zero, None)
    ext = make_extended_galilei()
    assert identify(ext) == (zero, zero, as_scalar("m"), "Xi")
    # a definition file carries the same structure and so the same answer
    for g in (SYMBOLIC, ext, builtin_algebra("so22")):
        assert identify(LieAlgebra.from_json_dict(g.to_json_dict())) == identify(g)
    centered = with_central_generator(make_ck_algebra(1, 0), "Z")
    assert identify(centered) == (as_scalar(1), zero, zero, "Z")


def test_identify_names_the_first_bracket_off_the_family():
    def altered(g, x, y, combo):
        data = g.to_json_dict()
        data["brackets"][f"[{x},{y}]"] = combo
        return LieAlgebra.from_json_dict(data)

    cases = [
        (altered(builtin_algebra("poincare"), "H", "P1", "K2"), "[H,P1] = K2"),
        # w1 = 2 is read off [H,P1], so [H,P2] = K2 is the first mismatch
        (altered(builtin_algebra("so4"), "H", "P1", "2*K1"), "[H,P2] = K2"),
        (altered(make_extended_galilei(), "H", "Xi", "P1"), "[H,Xi] = P1"),
        (LieAlgebra("short", ("H", "P1", "P2"), {}), "H P1 P2 K1 K2 J"),
    ]
    for g, named in cases:
        with pytest.raises(UnsupportedAlgebraError, match=re.escape(named)):
            identify(g)


def test_contraction_names_follow_the_brackets():
    # a definition file carries no name hint, only its brackets
    so22_file = LieAlgebra.from_json_dict(builtin_algebra("so22").to_json_dict())
    assert contract(so22_file, "space-time").name == "iso(2,1)"
    ext = contract(make_extended_galilei(), "space-time")
    assert ext.name == "ext-galilei->space-time"


def test_json_roundtrip():
    for g in (SYMBOLIC, builtin_algebra("nh-minus"), make_extended_galilei()):
        data = g.to_json_dict()
        assert set(data) == {"name", "generators", "parameters", "brackets"}
        back = LieAlgebra.from_json_dict(data)
        assert back.same_brackets(g)
        assert back.name == g.name


def test_json_rejects_nonlinear_bracket():
    data = {
        "name": "x",
        "generators": ["H", "P1"],
        "brackets": {"[H,P1]": "P1^2"},
    }
    with pytest.raises(ValueError):
        LieAlgebra.from_json_dict(data)
