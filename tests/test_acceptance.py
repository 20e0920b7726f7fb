"""Acceptance gate: the eleven headline checks, one line of output each.

Every equality below is exact symbolic equality over the rationals —
there are no numeric tolerances anywhere.  Run with `pytest -s` to see
the PASS lines as they happen; a failing criterion fails its test.
"""

import itertools
import json
import random
import time

import pytest

from ckexpand.cli import main as cli_main
from ckexpand.expand import make_problem, run_atlas, run_expansion
from ckexpand.groebner import ParamPoly, groebner_basis, ideal_equals
from ckexpand.liealg import (
    CATALOG,
    builtin_algebra,
    check_structure,
    contract,
    make_ck_algebra,
    make_extended_galilei,
)
from ckexpand.poly import parse_scalar
from ckexpand.uea import (
    UEAElement, casimir, is_central, pbw_normalize, uea_commutator,
)

from oracles import (
    CONTRACTION_KIND, grid_edges, oracle_normalize, same_brackets,
)

AB = ("a1", "a2")


def pp(text):
    return ParamPoly.from_scalar(parse_scalar(text), AB)


def report(number, text):
    print(f"PASS criterion {number:2d}: {text}")


def test_criterion_01_structure_soundness():
    start = time.perf_counter()
    symbolic = make_ck_algebra("w1", "w2")
    rep = check_structure(symbolic)
    assert rep.ok and rep.triples_checked == 20
    for signs in CATALOG:
        assert check_structure(make_ck_algebra(*signs)).ok
    ext = check_structure(make_extended_galilei())
    assert ext.ok and ext.triples_checked == 35
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"antisymmetry + Jacobi for all nine cells, the symbolic "
              f"family and the extension ({elapsed:.3f}s)")


def test_criterion_02_casimir_centrality():
    start = time.perf_counter()
    symbolic = make_ck_algebra("w1", "w2")
    commutators = 0
    for index in (1, 2):
        element = casimir(symbolic, index)
        for label in symbolic.generators:
            residual = uea_commutator(
                element, UEAElement.generator(symbolic, label)
            )
            assert residual.is_zero, (index, label)
            commutators += 1
    assert commutators == 12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"both Casimirs commute with all six generators, symbolic "
              f"w1, w2 ({elapsed:.3f}s)")


def test_criterion_03_contraction_table():
    symbolic = make_ck_algebra("w1", "w2")
    assert same_brackets(
        contract(symbolic, "space-time"), make_ck_algebra(0, "w2")
    )
    assert same_brackets(
        contract(symbolic, "speed-space"), make_ck_algebra("w1", 0)
    )
    edges = grid_edges()
    assert len(edges) == 12
    for cell, neighbour, axis in edges:
        assert same_brackets(
            contract(make_ck_algebra(*neighbour), CONTRACTION_KIND[axis]),
            make_ck_algebra(*cell),
        )
    report(3, "both symbolic contractions + all 12 grid arrows reproduce "
              "the target tables")


def test_criterion_04_principal_ideal_reproduction():
    expected = pp("4*w2*c1*a1^2 + w1")
    rep = run_expansion(make_problem(make_ck_algebra(0, "w2"), 1))
    assert rep.verdict == "pass"
    assert len(rep.constraints.generators) == 1
    assert rep.constraints.generators[0].proportional_to(expected)
    assert ideal_equals(rep.constraints, groebner_basis([expected], AB))
    producing = [eqs for eqs in rep.per_pair.values() if eqs]
    assert len(producing) == 3
    for eqs in producing:
        assert len(eqs) == 1 and eqs[0].proportional_to(expected)
    # the four concrete sibling arrows
    for seed, omega in itertools.product(("euclid3", "poincare"), (1, -1)):
        arrow = run_expansion(make_problem(seed, 1, omega))
        assert arrow.verdict == "pass"
        assert len(arrow.constraints.generators) == 1
    report(4, "w1-expansion ideal <4*w2*c1*a1^2 + w1>, same condition from "
              "all three brackets, 4 sibling arrows pass")


def test_criterion_05_two_quadratics_reproduction():
    rep = run_expansion(make_problem(make_ck_algebra("w1", 0), 2))
    assert rep.verdict == "pass"
    q1 = pp("4*w1*c1*a1^2 + c1*a2^2 + 8*w1*c2*a1*a2 + w2")
    q2 = pp("4*w1*c2*a1^2 + c2*a2^2 + 2*c1*a1*a2")
    assert ideal_equals(rep.constraints, groebner_basis([q1, q2], AB))
    assert rep.per_pair["[P1,K2]"] == []
    assert rep.per_pair["[P2,K1]"] == []
    assert all(b.ok for b in rep.brackets)
    report(5, "NH w2-expansion yields the two quadratics; [P1',K2'] and "
              "[P2',K1'] impose nothing; all brackets verified")


def test_criterion_06_galilei_ideal_reproduction():
    rep = run_expansion(make_problem(make_ck_algebra(0, 0, name="galilei"), 2))
    assert rep.verdict == "pass"
    expected = groebner_basis(
        [pp("c1*a2^2 + w2"), pp("2*c1*a1 + c2*a2")], AB
    )
    assert ideal_equals(rep.constraints, expected)
    symbols = {
        var
        for eq in rep.constraints.generators
        for coeff in eq.terms.values()
        for var in coeff.num.variables()
    }
    assert {"c1", "c2"} <= symbols
    report(6, "Galilei w2-expansion ideal <c1*a2^2 + w2, 2*c1*a1 + c2*a2> "
              "with both eigenvalues appearing")


def test_criterion_07_extended_galilei_reproduction():
    rep = run_expansion(make_problem("ext-galilei", 1))
    assert rep.verdict == "pass"
    g = rep.problem.initial
    x = {lab: UEAElement.generator(g, lab) for lab in g.generators}
    a1, m = parse_scalar("a1"), parse_scalar("m")
    for lab in ("K1", "K2", "J", "Xi"):
        assert rep.primed[lab] == x[lab]
    assert rep.primed["H"] == (
        x["K1"] * x["P1"] + x["K2"] * x["P2"] + x["Xi"].scale(m)
    ).scale(2 * a1)
    assert rep.primed["P1"] == -(x["Xi"] * x["K1"]).scale(2 * a1 * m)
    assert rep.primed["P2"] == -(x["Xi"] * x["K2"]).scale(2 * a1 * m)
    assert len(rep.constraints.generators) == 1
    assert rep.constraints.generators[0].proportional_to(
        pp("4*m^2*xi^2*a1^2 + w1")
    )
    pp12 = next(b for b in rep.brackets if b.pair == "[P1,P2]")
    assert pp12.ok and pp12.mode == "exact"
    report(7, "extended Galilei primed generators match, constraint "
              "4*m^2*xi^2*a1^2 + w1 = 0, [P1',P2'] = 0 exactly")


def test_criterion_08_negative_control():
    rep = run_expansion(make_problem("galilei", 1, expected_failure=True))
    assert rep.verdict == "closes-but-not-ck"
    assert not rep.hypothesis.kt_in_t
    assert not rep.hypothesis.violations_central_only
    assert rep.closure.closes
    assert rep.closure.matches_cell is None
    report(8, "unextended Galilei w1 attempt: [k,t] leaks into k, primed "
              "set closes but matches no cell")


def test_criterion_09_shortcut_as_executable_theorem():
    checked = 0
    for rep in run_atlas():
        if rep.hypothesis is None or not rep.hypothesis.holds:
            continue
        for verdict in rep.brackets:
            if verdict.klass in ("kk", "kt"):
                assert verdict.mode == "exact" and verdict.ok, (
                    rep.problem.name, verdict.pair,
                )
                checked += 1
    assert checked > 0
    report(9, f"k'k' and k't' brackets exact in the UEA (no ideal "
              f"reduction) on every passing arrow ({checked} brackets)")


def test_criterion_10_pbw_oracle_equivalence():
    rng = random.Random(11)
    algebras = (make_ck_algebra("w1", "w2"), make_extended_galilei())
    for algebra in algebras:
        for _ in range(200):
            word = [
                rng.randrange(algebra.dim) for _ in range(rng.randint(0, 6))
            ]
            assert pbw_normalize(algebra, word) == oracle_normalize(
                algebra, word, rng
            )
    report(10, "engine normal form equals random-choice rewriting oracle "
               "on 200 words per algebra")


def test_criterion_11_full_atlas(capsys):
    start = time.perf_counter()
    code = cli_main(["atlas", "--json"])
    out1 = capsys.readouterr().out
    assert code == 0
    code = cli_main(["atlas", "--json"])
    out2 = capsys.readouterr().out
    assert code == 0
    assert out1 == out2  # byte-for-byte deterministic
    data = json.loads(out1)
    verdicts = [a["verdict"] for a in data["arrows"]]
    assert verdicts.count("pass") == 12
    expected_fail = [a for a in data["arrows"] if a["expected_failure"]]
    assert len(expected_fail) == 1
    assert expected_fail[0]["verdict"] == "closes-but-not-ck"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        print()
        report(11, f"ck atlas: 12 PASS + 1 expected failure, deterministic "
                   f"JSON ({elapsed:.2f}s)")
