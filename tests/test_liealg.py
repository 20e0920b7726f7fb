"""Structure constants, gradings, contractions, catalog."""

import itertools
import re

import pytest

from ckexpand.expand import centralizer_split
from ckexpand.liealg import (
    BUILTIN_NAMES,
    CATALOG,
    ContractionError,
    LieAlgebra,
    UnsupportedAlgebraError,
    builtin_algebra,
    check_structure,
    contract,
    identify,
    make_ck_algebra,
    make_extended_galilei,
    with_central_generator,
)
from ckexpand.poly import Scalar, as_scalar

from oracles import CONTRACTION_KIND, grid_edges, same_brackets

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


# -- parity and time reversal, and the centralizer split ----------------------
#
# Parity P, time reversal T and their product PT flip the signs of these
# generators.  The central generator Xi carries the product of the
# momentum and boost signs, the only assignment compatible with
# [P_i, K_i] = m*Xi.

SIGN_MAPS = {
    "P": {"J": 1, "Xi": 1, "H": 1, "P1": -1, "P2": -1, "K1": -1, "K2": -1},
    "T": {"J": 1, "Xi": -1, "H": -1, "P1": 1, "P2": 1, "K1": -1, "K2": -1},
    "PT": {"J": 1, "Xi": -1, "H": -1, "P1": -1, "P2": -1, "K1": 1, "K2": 1},
}


def grading_violations(g, signs):
    """The brackets [X,Y] with a component Z whose sign is not sign(X) *
    sign(Y): the sign map is an automorphism exactly when there are none."""
    return [
        (g.generators[i], g.generators[j], g.generators[n])
        for (i, j), combo in g.brackets.items()
        for n in combo
        if signs[g.generators[n]]
        != signs[g.generators[i]] * signs[g.generators[j]]
    ]


@pytest.mark.parametrize("kind", ["P", "T", "PT"])
def test_involutions_are_automorphisms(kind):
    for g in (SYMBOLIC, make_extended_galilei()):
        assert not grading_violations(g, SIGN_MAPS[kind])
    # flipping J as well breaks [J,P1] = P2, so the scan sees a wrong sign
    flipped = {**SIGN_MAPS[kind], "J": -1}
    assert ("P1", "J", "P2") in grading_violations(SYMBOLIC, flipped)


def test_pt_decomposition_is_cartan():
    # invariant part <K1, K2, J>, anti-invariant part <H, P1, P2>: the
    # shortcut hypotheses hold, and [P1, P2] = w1*w2*J sits in k
    split = centralizer_split(SYMBOLIC, ("K1", "K2", "J"))
    assert split.holds
    assert split.t_labels == ("H", "P1", "P2")
    assert SYMBOLIC.bracket_labels("P1", "P2") == {"J": as_scalar("w1*w2")}


def test_p_decomposition_is_cartan():
    split = centralizer_split(SYMBOLIC, ("H", "J"))
    assert split.holds
    assert split.t_labels == ("P1", "P2", "K1", "K2")


def test_a_sign_map_that_is_no_automorphism_fails_the_grading_scan():
    # flipping P1 alone: [H,P1] = w1*K1 lands in k where t is required
    k = tuple(label for label in SYMBOLIC.generators if label != "P1")
    split = centralizer_split(SYMBOLIC, k)
    assert split.t_labels == ("P1",)
    assert (split.k_closes, split.kt_in_t) == (False, False)
    # the k generator first, then the t one, each in index order
    assert split.violations == (
        ("H", "P1", ("K1",)),
        ("P2", "P1", ("J",)),
        ("K1", "P1", ("H",)),
        ("J", "P1", ("P2",)),
    )
    assert not split.violations_central_only
    # flipping K1, K2 and J: with several t generators the violations are
    # ordered by the k generator, then by the t one
    split = centralizer_split(SYMBOLIC, ("H", "P1", "P2"))
    assert (split.k_closes, split.kt_in_t) == (False, False)
    assert split.violations == (
        ("H", "K1", ("P1",)),
        ("H", "K2", ("P2",)),
        ("P1", "K1", ("H",)),
        ("P1", "J", ("P2",)),
        ("P2", "K2", ("H",)),
        ("P2", "J", ("P1",)),
    )


# -- contractions ---------------------------------------------------------------


def test_space_time_contraction_kills_w1():
    g = contract(SYMBOLIC, "space-time")
    assert same_brackets(g, make_ck_algebra(0, "w2"))
    assert identify(g).w1.is_zero


def test_speed_space_contraction_kills_w2():
    g = contract(SYMBOLIC, "speed-space")
    assert same_brackets(g, make_ck_algebra("w1", 0))
    assert identify(g).w2.is_zero


def test_all_twelve_contraction_arrows():
    edges = grid_edges()
    assert len(edges) == 12
    for cell, neighbour, axis in edges:
        got = contract(make_ck_algebra(*neighbour), CONTRACTION_KIND[axis])
        assert same_brackets(got, make_ck_algebra(*cell)), (neighbour, axis)


def test_contraction_of_extension_drops_the_center_bracket():
    g = contract(make_extended_galilei(), "speed-space")
    assert not g.bracket_labels("P1", "K1")
    assert same_brackets(g, with_central_generator(make_ck_algebra(0, 0)))


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
    assert CATALOG[(0, -1)] == "iso(2,1)"
    assert CATALOG[(1, -1)] == "so(2,2)"
    assert len(CATALOG) == 9
    assert make_ck_algebra(0, 1).name == "iso(3)"
    with pytest.raises(KeyError):
        CATALOG[(2, 0)]


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
    # an algebra outside the family keeps the NAME->kind name
    heis = LieAlgebra("heis", ("X", "Y", "Z"), {(0, 1): {2: as_scalar(1)}})
    assert contract(heis, "speed-space").name == "heis->speed-space"


def test_json_roundtrip():
    for g in (SYMBOLIC, builtin_algebra("nh-minus"), make_extended_galilei()):
        data = g.to_json_dict()
        assert set(data) == {"name", "generators", "parameters", "brackets"}
        back = LieAlgebra.from_json_dict(data)
        assert same_brackets(back, g)
        assert back.name == g.name


def test_json_rejects_nonlinear_bracket():
    data = {
        "name": "x",
        "generators": ["H", "P1"],
        "brackets": {"[H,P1]": "P1^2"},
    }
    with pytest.raises(ValueError):
        LieAlgebra.from_json_dict(data)


def test_json_reads_a_reversed_key_with_the_sign_flipped():
    data = builtin_algebra("poincare").to_json_dict()
    assert data["brackets"].pop("[H,K1]") == "-P1"
    data["brackets"]["[K1,H]"] = "P1"
    assert same_brackets(LieAlgebra.from_json_dict(data),
                         builtin_algebra("poincare"))
