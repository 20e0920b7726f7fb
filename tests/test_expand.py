"""The expansion engine: splits, primed generators, constraints, atlas."""

import json
from math import gcd
from pathlib import Path

import pytest

from ckexpand.expand import (
    ATLAS,
    ExpansionError,
    InconsistentSystemError,
    analyze_closure,
    build_J,
    BracketVerdict,
    CasimirSplit,
    ClosureReport,
    ExpansionProblem,
    ExpansionReport,
    HypothesisReport,
    derive_constraints,
    make_problem,
    run_atlas,
    run_expansion,
    verify_expansion,
    verify_with_values,
    _bracket_diff,
    _split_linear,
)
from ckexpand.groebner import (
    ParamPoly, RelationIdeal, groebner_basis, ideal_equals,
)
from ckexpand.liealg import (
    BUILTIN_NAMES,
    LieAlgebra,
    builtin_algebra,
    identify,
    make_ck_algebra,
)
from ckexpand.poly import Rational, parse_scalar
from ckexpand.uea import (
    UEAElement, casimir, parse_element, uea_commutator, uea_mul,
)

from oracles import (
    count_calls, grid_edges, oracle_reconstruct, oracle_span_reducer,
    same_brackets,
)

AB = ("a1", "a2")
REFERENCE = Path(__file__).resolve().parent.parent / "ckbench" / "reference.json"


def pp(text):
    return ParamPoly.from_scalar(parse_scalar(text), AB)


def gens(g):
    return {lab: UEAElement.generator(g, lab) for lab in g.generators}


def scal(text):
    return parse_scalar(text)


# the four symbolic seeds: only the expanded coefficient stays a symbol in
# the target, everything already present in the seed is kept symbolic too
def axis1_problem():
    return make_problem(make_ck_algebra(0, "w2"), 1)


def nh_problem():
    return make_problem(make_ck_algebra("w1", 0), 2)


def galilei_problem():
    return make_problem(make_ck_algebra(0, 0, name="galilei"), 2)


def ext_problem():
    return make_problem("ext-galilei", 1)


# -- problem setup ----------------------------------------------------------


def test_make_problem_invariants():
    p = axis1_problem()
    assert p.omega_symbol == "w1"
    assert identify(p.target).w1 == scal("w1")
    assert identify(p.target).w2 == scal("w2")
    with pytest.raises(ExpansionError):
        make_problem("poincare", 3)
    with pytest.raises(ExpansionError):
        make_problem("poincare", 1, omega=0)  # nothing to expand
    with pytest.raises(ExpansionError):
        make_problem("poincare", 2)  # w2 is already nonzero
    with pytest.raises(ExpansionError):
        make_problem("ext-galilei", 2)


def test_expansion_problem_takes_positional_and_keyword_arguments():
    p = make_problem("poincare", 1)
    names = ("name", "initial", "target", "axis", "omega_symbol",
             "omega_value", "relations", "member")
    values = [getattr(p, name) for name in names]
    positional = ExpansionProblem(*values, True)
    keyword = ExpansionProblem(**dict(zip(names, values)))
    for q in (positional, keyword):
        assert [getattr(q, name) for name in names] == values
    assert positional.expected_failure and not keyword.expected_failure
    keyword.target = p.initial
    assert keyword.target is p.initial


def test_records_built_with_defaults_share_no_mutable_object():
    # a list or dict default would be one object shared by every record
    pairs = [
        [HypothesisReport((), (), True, True) for _ in range(2)],
        [ClosureReport(True, {}) for _ in range(2)],
        [RelationIdeal(AB) for _ in range(2)],
        [vars(ExpansionReport(None)) for _ in range(2)],
    ]
    immutable = (tuple, str, bool, int, type(None))
    for a, b in pairs:
        values = zip(a.values(), b.values()) if isinstance(a, dict) else zip(a, b)
        for x, y in values:
            assert x is not y or isinstance(x, immutable), (a, x)


@pytest.mark.parametrize("sym", ["a1", "a2", "c1", "c2", "xi", "w1"])
def test_make_problem_rejects_a_reserved_symbol_in_the_target_value(sym):
    with pytest.raises(ExpansionError, match=f"'{sym}'"):
        make_problem("poincare", 1, omega=parse_scalar(f"2*{sym}"))


def test_split_linear_rejects_a_power_of_the_coefficient():
    g = builtin_algebra("poincare")
    square = UEAElement.monomial(g, {"H": 2}, parse_scalar("w1^2 + 1"))
    with pytest.raises(ExpansionError, match="not linear in w1"):
        _split_linear(square, "w1", g)


def test_numeric_omega_targets_the_right_cell():
    p = make_problem("poincare", 1, omega=-1)
    assert same_brackets(p.target, make_ck_algebra(-1, -1))
    p = make_problem("galilei", 2, omega=1)
    assert same_brackets(p.target, builtin_algebra("euclid3"))


# -- Casimir splitting --------------------------------------------------------


def test_axis1_split():
    report = run_expansion(axis1_problem())
    g = report.problem.initial
    assert report.splits[0].jpiece == parse_element(
        g, "K1^2 + K2^2 + w2 * J^2"
    )
    assert report.splits[1].jpiece.is_zero
    assert report.J == parse_element(g, "a1 * K1^2 + a1 * K2^2 + a1*w2 * J^2")


def test_nh_split_uses_both_casimirs():
    report = run_expansion(nh_problem())
    g = report.problem.initial
    assert report.splits[0].jpiece == parse_element(g, "H^2 + w1 * J^2")
    assert report.splits[1].jpiece == parse_element(g, "H J")


def test_galilei_split():
    report = run_expansion(galilei_problem())
    g = report.problem.initial
    assert report.splits[0].jpiece == parse_element(g, "H^2")
    assert report.splits[1].jpiece == parse_element(g, "H J")


def test_ext_galilei_split():
    report = run_expansion(ext_problem())
    g = report.problem.initial
    assert report.splits[0].jpiece == parse_element(g, "K1^2 + K2^2")
    assert report.splits[1].jpiece.is_zero


def test_build_J_requires_a_nonzero_piece():
    g = make_ck_algebra(0, "w2")
    zero = CasimirSplit(1, UEAElement(g), UEAElement(g))
    with pytest.raises(ExpansionError):
        build_J((zero, zero))


# -- primed generators (frozen from the worked examples) -----------------------
#
# The expected elements are written as ordered products, exactly as the
# method defines them, and multiplied out independently of the
# commutator pipeline that produces report.primed.


def test_axis1_primed_generators():
    report = run_expansion(axis1_problem())
    x = gens(report.problem.initial)
    a1, w2 = scal("a1"), scal("w2")
    assert report.primed["K1"] == x["K1"]
    assert report.primed["K2"] == x["K2"]
    assert report.primed["J"] == x["J"]
    assert report.primed["H"] == (
        x["K1"] * x["P1"] + x["K2"] * x["P2"] + x["H"].scale(w2)
    ).scale(2 * a1)
    assert report.primed["P1"] == (
        x["J"] * x["P2"] - x["K1"] * x["H"] + x["P1"]
    ).scale(2 * w2 * a1)
    assert report.primed["P2"] == (
        -(x["J"] * x["P1"]) - x["K2"] * x["H"] + x["P2"]
    ).scale(2 * w2 * a1)


def test_nh_primed_generators():
    report = run_expansion(nh_problem())
    x = gens(report.problem.initial)
    a1, a2, w1 = scal("a1"), scal("a2"), scal("w1")
    assert report.primed["H"] == x["H"]
    assert report.primed["J"] == x["J"]
    assert report.primed["P1"] == (
        (x["K1"] * x["H"] + x["J"] * x["P2"]).scale(2 * w1 * a1)
        + (x["P2"] * x["H"] + (x["J"] * x["K1"]).scale(w1)).scale(a2)
    )
    assert report.primed["P2"] == (
        (x["K2"] * x["H"] - x["J"] * x["P1"]).scale(2 * w1 * a1)
        + (-(x["P1"] * x["H"]) + (x["J"] * x["K2"]).scale(w1)).scale(a2)
    )
    assert report.primed["K1"] == (
        (-(x["P1"] * x["H"]) + (x["J"] * x["K2"]).scale(w1)).scale(2 * a1)
        + (x["K2"] * x["H"] - x["J"] * x["P1"]).scale(a2)
    )
    assert report.primed["K2"] == (
        (-(x["P2"] * x["H"]) - (x["J"] * x["K1"]).scale(w1)).scale(2 * a1)
        + (-(x["K1"] * x["H"]) - x["J"] * x["P2"]).scale(a2)
    )


def test_galilei_primed_generators():
    report = run_expansion(galilei_problem())
    x = gens(report.problem.initial)
    a1, a2 = scal("a1"), scal("a2")
    assert report.primed["H"] == x["H"]
    assert report.primed["J"] == x["J"]
    assert report.primed["P1"] == (x["P2"] * x["H"]).scale(a2)
    assert report.primed["P2"] == -(x["P1"] * x["H"]).scale(a2)
    assert report.primed["K1"] == (
        -(x["P1"] * x["H"]).scale(2 * a1)
        + (x["K2"] * x["H"] - x["J"] * x["P1"]).scale(a2)
    )
    assert report.primed["K2"] == (
        -(x["P2"] * x["H"]).scale(2 * a1)
        - (x["K1"] * x["H"] + x["J"] * x["P2"]).scale(a2)
    )


def test_ext_galilei_primed_generators():
    report = run_expansion(ext_problem())
    x = gens(report.problem.initial)
    a1, m = scal("a1"), scal("m")
    for lab in ("K1", "K2", "J", "Xi"):
        assert report.primed[lab] == x[lab]
    assert report.primed["H"] == (
        x["K1"] * x["P1"] + x["K2"] * x["P2"]
        + UEAElement.one(report.problem.initial).scale(m) * x["Xi"]
    ).scale(2 * a1)
    assert report.primed["P1"] == -(x["Xi"] * x["K1"]).scale(2 * a1 * m)
    assert report.primed["P2"] == -(x["Xi"] * x["K2"]).scale(2 * a1 * m)


# -- constraint ideals ------------------------------------------------------


def test_axis1_constraint_is_the_principal_ideal():
    report = run_expansion(axis1_problem())
    assert report.verdict == "pass"
    expected = pp("4*w2*c1*a1^2 + w1")
    assert len(report.constraints.generators) == 1
    assert report.constraints.generators[0].proportional_to(expected)
    assert ideal_equals(report.constraints, groebner_basis([expected], AB))
    # all three bracket pairs that produce equations give the same one
    producing = {
        pair: eqs for pair, eqs in report.per_pair.items() if eqs
    }
    assert set(producing) == {"[H,P1]", "[H,P2]", "[P1,P2]"}
    for eqs in producing.values():
        assert len(eqs) == 1
        assert eqs[0].proportional_to(expected)


def test_a_shared_denominator_factor_is_cancelled_in_each_equation():
    # w2 = 1/(q+1): the [P1,P2] equation used to carry an extra (q+1)
    report = run_expansion(make_problem(make_ck_algebra(0, "1/(q+1)"), 1))
    assert report.verdict == "pass"
    (hp,) = report.per_pair["[H,P1]"]
    assert report.per_pair["[P1,P2]"] == [hp]
    assert str(report.per_pair["[P1,P2]"][0]) == str(hp)
    assert str(hp) == "4*c1*a1^2 + q*w1 + w1"


def test_nh_constraints_are_the_two_quadratics():
    report = run_expansion(nh_problem())
    assert report.verdict == "pass"
    q1 = pp("4*w1*c1*a1^2 + c1*a2^2 + 8*w1*c2*a1*a2 + w2")
    q2 = pp("4*w1*c2*a1^2 + c2*a2^2 + 2*c1*a1*a2")
    assert ideal_equals(report.constraints, groebner_basis([q1, q2], AB))
    # the two skew bracket pairs impose nothing
    assert report.per_pair["[P1,K2]"] == []
    assert report.per_pair["[P2,K1]"] == []


def test_galilei_constraints_involve_both_eigenvalues():
    report = run_expansion(galilei_problem())
    assert report.verdict == "pass"
    expected = groebner_basis([pp("c1*a2^2 + w2"), pp("2*c1*a1 + c2*a2")], AB)
    assert ideal_equals(report.constraints, expected)
    seen = "".join(
        str(eq) for eqs in report.per_pair.values() for eq in eqs
    )
    assert "c1" in seen and "c2" in seen


def test_ext_galilei_constraint_and_central_violations():
    report = run_expansion(ext_problem())
    assert report.verdict == "pass"
    assert not report.hypothesis.holds
    assert report.hypothesis.violations_central_only
    expected = pp("4*m^2*xi^2*a1^2 + w1")
    assert len(report.constraints.generators) == 1
    assert report.constraints.generators[0].proportional_to(expected)
    by_pair = {b.pair: b for b in report.brackets}
    assert by_pair["[P1,P2]"].mode == "exact" and by_pair["[P1,P2]"].ok
    assert by_pair["[H,P1]"].mode == "reduced" and by_pair["[H,P1]"].ok


def test_inconsistent_target_is_detected():
    problem = make_problem("euclid3", 1)
    report = run_expansion(problem)
    # tamper with the target: send [H,P1] to the wrong boost component
    g = problem.target
    bad = dict(g.brackets)
    i, j = g.index("H"), g.index("P1")
    bad[(i, j)] = {g.index("K2"): scal("w1")}
    problem.target = LieAlgebra(g.name, g.generators, bad)
    with pytest.raises(InconsistentSystemError):
        derive_constraints(problem, report.primed)


def test_each_algebra_is_identified_at_most_once(monkeypatch):
    import ckexpand.expand
    import ckexpand.liealg
    import ckexpand.uea

    seen = []
    original = ckexpand.liealg.identify

    def counted(g):
        seen.append(g)
        return original(g)

    for module in (ckexpand.liealg, ckexpand.uea, ckexpand.expand):
        monkeypatch.setattr(module, "identify", counted)
    # a ck seed, the central extension, and the closure path
    for args in (("poincare", 1), ("ext-galilei", 1), ("galilei", 1, 1)):
        seen.clear()
        report = run_expansion(make_problem(*args))
        assert report.problem.initial in seen, args
        assert all(
            sum(other is g for other in seen) == 1 for g in seen
        ), (args, [g.name for g in seen])
    assert report.closure is not None


def test_each_bracket_is_computed_once(monkeypatch):
    import ckexpand.expand

    calls = []
    original = ckexpand.expand.uea_commutator

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(ckexpand.expand, "uea_commutator", counted)
    report = run_expansion(make_problem("poincare", 1))
    assert report.verdict == "pass"
    # 6 commutators [J, X] plus one per generator pair (15)
    assert len(calls) == 6 + 15


def test_commutators_normal_order_no_product(monkeypatch):
    # a commutator rewrites its derivation-rule words on one stack, so no
    # pbw_normalize call is left to it; products ab and ba would make one
    # call per term pair each (6 for this commutator, 198 for the run)
    import ckexpand.uea

    calls = []
    original = ckexpand.uea.pbw_normalize

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(ckexpand.uea, "pbw_normalize", counted)
    g = builtin_algebra("poincare")
    assert uea_commutator(casimir(g, 1), UEAElement.generator(g, "P1")).is_zero
    assert len(calls) == 0
    run_expansion(make_problem("poincare", 1))
    # only the reducer rows at bound 1: 6 letters x (4 + 4) relation terms
    assert len(calls) == 48


def test_bracket_difference_sums_into_one_dict(monkeypatch):
    report = run_expansion(make_problem("poincare", 1))
    problem, primed = report.problem, report.primed
    g = problem.initial
    want = {}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            diff = uea_commutator(primed[g.generators[i]],
                                  primed[g.generators[j]])
            for n, c in problem.target.bracket(i, j).items():
                diff = diff - primed[g.generators[n]].scale(c)
            want[(i, j)] = diff
    calls = []
    add = UEAElement.__add__

    def counted_add(a, b):
        calls.append(1)
        return add(a, b)

    monkeypatch.setattr(UEAElement, "__add__", counted_add)
    for (i, j), diff in want.items():
        assert _bracket_diff(problem, primed, i, j) == diff
    assert len(calls) == 0


def test_order_independence_is_still_checked(monkeypatch):
    import ckexpand.expand

    calls = []
    original = ckexpand.expand.groebner_basis

    def counted(gens, unknowns):
        calls.append(1)
        return original(gens, unknowns)

    monkeypatch.setattr(ckexpand.expand, "groebner_basis", counted)
    report = run_expansion(make_problem("poincare", 1))
    assert report.order_independent and report.verdict == "pass"
    assert len(calls) == 2

    def enlarged_on_second_call(gens, unknowns):
        calls.append(1)
        if len(calls) == 2:
            # a strictly larger ideal: every equation still reduces to
            # zero modulo it, but it differs from the forward one
            gens = list(gens) + [pp("a2")]
        return original(gens, unknowns)

    calls.clear()
    monkeypatch.setattr(
        ckexpand.expand, "groebner_basis", enlarged_on_second_call
    )
    report = run_expansion(make_problem("poincare", 1))
    assert len(calls) == 2
    assert report.order_independent is False
    assert report.verdict == "fail"


def test_the_reverse_run_sees_the_generators_reversed(monkeypatch):
    import ckexpand.expand

    seen = []
    original = ckexpand.expand.groebner_basis

    def recorded(gens, unknowns):
        seen.append([str(g) for g in gens])
        return original(gens, unknowns)

    monkeypatch.setattr(ckexpand.expand, "groebner_basis", recorded)
    reports = [r for r in run_atlas() if r.constraints is not None]
    assert len(seen) == 2 * len(reports) == 24
    for k in range(0, len(seen), 2):
        forward, backward = seen[k], seen[k + 1]
        assert backward == forward[::-1]
    # the six axis-2 arrows have two equations each, so their reverse run
    # sees another order (the pair order reversed gave the same list on
    # four of them)
    assert sum(seen[k] != seen[k + 1] for k in range(0, len(seen), 2)) == 6


def test_atlas_reduces_each_constraint_polynomial_once(monkeypatch):
    # a guard on the Groebner work of one atlas pass: generators are
    # reduced on entry, so a generator that lies in the ideal of the
    # earlier ones forms no S-pair; reducing every input pairwise instead
    # takes 32 S-polynomials and 168 reductions.  verify_expansion is the
    # only membership proof: reducing the raw generators against the basis
    # as well took 18 more reductions (122)
    import ckexpand.expand
    import ckexpand.groebner
    import ckexpand.poly

    spolys = count_calls(monkeypatch, ckexpand.groebner, "_spoly")
    reductions = count_calls(monkeypatch, ckexpand.groebner, "_reduce")
    normal_forms = count_calls(monkeypatch, ckexpand.expand, "reduce_mod_ideal")
    divisions = [count_calls(monkeypatch, module, name) for module, name in (
        (ckexpand.poly, "_either_div"), (ckexpand.poly, "_long_div"),
        (ckexpand.groebner, "exact_div"))]
    run_atlas()
    assert (len(spolys), len(reductions)) == (24, 104)
    # one reduce_mod_ideal per distinct remainder coefficient (42 before)
    assert len(normal_forms) == 24
    # every exact_div divides, so no division is tried in reverse
    assert [len(calls) for calls in divisions] == [24, 24, 16]


def test_atlas_central_reduction_work(monkeypatch):
    # a guard on the reducer work of one atlas pass: the central m*Xi = m*xi
    # of the two ext-galilei arrows is substituted, so their brackets, of
    # degree 1 once Xi = xi, grow no span; spanning it made 246 rows from
    # 218 products
    import ckexpand.uea

    spans = []
    steps = []
    init = ckexpand.uea._Span.__init__

    class Rows(dict):
        # the elimination loop reads one row by subscript per step
        def __getitem__(self, key):
            steps.append(1)
            return dict.__getitem__(self, key)

    def recorded(span):
        init(span)
        span.rows = Rows()
        spans.append(span)

    monkeypatch.setattr(ckexpand.uea._Span, "__init__", recorded)
    products = count_calls(monkeypatch, ckexpand.uea, "uea_mul")
    run_atlas()
    assert (sum(len(span.rows) for span in spans), len(products)) == (146, 120)
    assert len(steps) == 100


def test_to_json_prints_each_equation_once(monkeypatch):
    # the raw constraints and the per-pair equations share their objects
    for report in run_atlas():
        printed = count_calls(monkeypatch, ParamPoly, "__str__")
        data = report.to_json_dict()
        monkeypatch.undo()
        if report.constraints is None:
            assert not printed
            continue
        equations = [*report.constraints.generators,
                     *report.constraints.groebner]
        equations += [e for eqs in report.per_pair.values() for e in eqs]
        assert len(printed) == len({id(e) for e in equations})
        assert data["constraints"]["raw"] == [
            str(p) for p in report.constraints.generators]


def test_each_distinct_coefficient_is_normalized_and_reduced_once(
        monkeypatch):
    import ckexpand.expand

    # [P1,P2] and [K1,K2] give the same equations: 8 remainder
    # coefficients, 2 distinct ones
    problem = make_problem("nh-plus", 2, 1)
    report = run_expansion(problem)
    coeffs = [c for r in report.remainders.values() if r is not None
              for c in r.terms.values()]
    assert len(coeffs) == 8
    normalized = count_calls(monkeypatch, ParamPoly, "normalized")
    ideal, per_pair, remainders, _ = derive_constraints(
        problem, report.primed)
    assert len(normalized) == 2
    assert {p: [str(e) for e in eqs] for p, eqs in per_pair.items()} == {
        p: [str(e) for e in eqs] for p, eqs in report.per_pair.items()
    }
    reductions = count_calls(monkeypatch, ckexpand.expand, "reduce_mod_ideal")
    verdicts, ok = verify_expansion(
        problem, report.hypothesis, ideal, remainders)
    assert len(reductions) == 2
    assert ok and verdicts == report.brackets


def test_a_unit_constraint_ideal_fails(monkeypatch, capsys):
    # a1 - 1 and a1 - 2 force 1 into the ideal; every residual reduces to
    # zero modulo [1], so only the basis itself shows that nothing solves
    import ckexpand.expand
    from ckexpand.cli import main

    original = ckexpand.expand._constraint_ideal

    def forced(eq_lists):
        return original([*eq_lists, [pp("a1 - 1"), pp("a1 - 2")]])

    monkeypatch.setattr(ckexpand.expand, "_constraint_ideal", forced)
    report = run_expansion(make_problem("euclid3", 1, 1))
    assert [str(b) for b in report.constraints.groebner] == ["1"]
    assert report.verdict == "fail" and not report.ok
    assert report.remarks[0] == (
        "the constraint ideal is the unit ideal: no expansion exists")
    assert main(["expand", "euclid3", "--axis", "1", "--omega", "1"]) == 1
    assert "unit ideal" in capsys.readouterr().out


def test_bound_0_passes():
    # the reduction is exact at any bound; the value is only recorded
    report = run_expansion(make_problem("poincare", 1), degree_bound=0)
    assert (report.verdict, report.degree_bound) == ("pass", 0)


# -- the shortcut theorem and the negative control -----------------------------


def test_shortcut_classes_are_exact_on_every_passing_arrow():
    for report in run_atlas():
        if report.hypothesis is None or not report.hypothesis.holds:
            continue
        for verdict in report.brackets:
            if verdict.klass in ("kk", "kt"):
                assert verdict.mode == "exact", (
                    report.problem.name,
                    verdict.pair,
                )


def test_a_shortcut_class_that_needs_the_ideal_fails():
    # when the hypotheses hold, a kk pair that is not exact fails even if
    # its remainder lies in the ideal: [H,P1]'s does
    problem = make_problem("poincare", 1)
    report = run_expansion(problem)
    assert report.hypothesis.holds and report.remainders[(3, 4)] is None
    remainders = dict(report.remainders)
    remainders[(3, 4)] = remainders[(0, 1)]
    verdicts, ok = verify_expansion(
        problem, report.hypothesis, report.constraints, remainders)
    bad = [v for v in verdicts if not v.ok]
    assert not ok and bad == [BracketVerdict(
        "[K1,K2]", "kk", "reduced", False,
        "expected exact equality for class kk")]


def test_a_primed_set_that_does_not_close():
    g = builtin_algebra("so4")
    primed = gens(g)
    primed["H"] = uea_mul(primed["H"], primed["P1"])
    closure = analyze_closure(g, primed)
    assert not closure.closes and closure.matches_cell is None
    assert "not in the primed span" in closure.table.values()


def test_negative_control_closes_but_is_no_ck_cell():
    problem = make_problem("galilei", 1, expected_failure=True)
    report = run_expansion(problem)
    assert report.verdict == "closes-but-not-ck"
    assert report.ok
    # the hypothesis fails non-centrally: [K_i, H] = P_i leaks into k
    assert not report.hypothesis.holds
    assert not report.hypothesis.violations_central_only
    leaked = {bad for _, _, bads in report.hypothesis.violations for bad in bads}
    assert leaked == {"P1", "P2"}
    assert report.closure.closes
    assert report.closure.matches_cell is None
    # H' became central, which no cell of the family allows
    assert not any("H" in key for key in report.closure.table)


def test_closure_matches_exactly_the_cells_own_signs():
    # the unprimed generators close on their own table
    for name, signs in BUILTIN_NAMES.items():
        g = builtin_algebra(name)
        closure = analyze_closure(g, gens(g))
        assert closure.closes and closure.matches_cell == signs, name
    # the match is on exact coefficients, not on their signs
    so4 = builtin_algebra("so4")
    bad = dict(so4.brackets)
    bad[(so4.index("H"), so4.index("P1"))] = {so4.index("K1"): scal("2")}
    for g in (LieAlgebra("so4", so4.generators, bad), make_ck_algebra(2, 1)):
        closure = analyze_closure(g, gens(g))
        assert closure.closes and closure.matches_cell is None


# -- atlas ----------------------------------------------------------------------


def test_atlas_composition():
    assert len(ATLAS) == 13
    assert sum(1 for entry in ATLAS if entry[4]) == 1
    reports = run_atlas()
    assert all(r.ok for r in reports)
    assert sum(r.verdict == "pass" for r in reports) == 12
    assert all(r.order_independent for r in reports if r.per_pair is not None)
    # targets land on the advertised cells
    by_name = {r.problem.name: r for r in reports}
    assert same_brackets(
        by_name["iso(2,1)->so(3,1)"].problem.target, make_ck_algebra(-1, -1)
    )


def test_atlas_rows_are_the_twelve_grid_edges():
    # ATLAS is the one table of the expansion arrows: its rows that should
    # pass expand each grid cell with a zero sign to both neighbours along
    # that axis, once each
    rows = []
    for name, initial, axis, omega, expected_failure in ATLAS:
        if expected_failure:
            continue
        cell = (0, 0) if initial == "ext-galilei" else BUILTIN_NAMES[initial]
        # the two axis-1 edges out of (0, 0) start from the extension
        assert (initial == "ext-galilei") == ((cell, axis) == ((0, 0), 1))
        target = (omega, cell[1]) if axis == 1 else (cell[0], omega)
        rows.append((cell, target, axis))
    assert len(rows) == len(set(rows)) == 12
    assert sorted(rows) == sorted(grid_edges())


@pytest.fixture(scope="module")
def atlas_by_bound():
    return {bound: run_atlas(bound) for bound in (None, 0, 1, 2, 3)}


def test_atlas_output_matches_the_benchmark_reference(atlas_by_bound):
    # byte for byte, as the benchmark gate compares it; any other bound
    # changes nothing but the reported bound
    want = json.loads(REFERENCE.read_text())["atlas"]
    default = [report.to_json_dict() for report in atlas_by_bound[None]]
    assert [data["arrow"] for data in default] == list(want)
    for data in default:
        assert json.dumps(data, indent=2) == json.dumps(want[data["arrow"]], indent=2)
    for bound in (0, 1, 2, 3):
        for base, report in zip(default, atlas_by_bound[bound]):
            data = report.to_json_dict()
            assert data["degree_bound"] == (bound if base["degree_bound"] else 0)
            data["degree_bound"] = base["degree_bound"]
            assert json.dumps(data) == json.dumps(base)


def test_atlas_remainders_equal_the_bound_3_span(atlas_by_bound):
    # the span grown to each bracket's degree gives the same normal form
    # as the uniform cofactor bound 3 of the earlier engine
    checked = 0
    for report in atlas_by_bound[None]:
        if report.remainders is None:
            continue
        problem = report.problem
        oracle = oracle_span_reducer(problem.initial, problem.relations, 3)
        for pair, remainder in report.remainders.items():
            diff = _bracket_diff(problem, report.primed, *pair)
            assert (remainder or UEAElement(problem.initial)) == oracle(diff)
            checked += remainder is not None
    assert checked > 0


def test_every_atlas_witness_rebuilds_its_bracket(atlas_by_bound):
    # bracket difference = remainder + sum coeff * (element - scalar) *
    # cofactor, each product normal-ordered by the oracle
    products = {}
    checked = 0
    for bound in (None, 3):
        for report in atlas_by_bound[bound]:
            assert "witnesses" not in report.to_json_dict()
            if report.remainders is None:
                continue
            problem = report.problem
            memo = products.setdefault(problem.initial.name, {})
            for pair, remainder in report.remainders.items():
                diff = _bracket_diff(problem, report.primed, *pair)
                witness = report.witnesses[pair]
                if remainder is None:
                    assert diff.is_zero and witness is None
                    continue
                assert oracle_reconstruct(
                    remainder, witness, problem.relations, memo
                ) == diff
                checked += 1
    assert checked > 0


def test_every_atlas_coefficient_is_an_int_or_a_fraction(atlas_by_bound):
    # no float and no bool ever reaches a coefficient, an integral value is
    # an int, any other value a Rational in lowest terms with denominator
    # above 1 (never a fractions.Fraction), and no term dict holds a zero
    # Scalar
    def scalars(report):
        elements = [report.J, *(report.primed or {}).values()]
        elements += [r for r in (report.remainders or {}).values() if r]
        for element in elements:
            yield from element.terms.values()
        for witness in (report.witnesses or {}).values():
            yield from (coeff for _, _, coeff in witness or ())
        if report.constraints is None:
            return
        ideal = report.constraints
        eqs = [*ideal.generators, *ideal.groebner]
        eqs += [eq for pair in report.per_pair.values() for eq in pair]
        for eq in eqs + [eq.normalized() for eq in eqs]:
            yield from eq.terms.values()

    checked = 0
    for bound in (None, 3):
        for report in atlas_by_bound[bound]:
            for s in scalars(report):
                assert not s.is_zero
                for coeff in (*s.num.terms.values(), *s.den.terms.values()):
                    assert type(coeff) is int or (
                        type(coeff) is Rational and coeff.denominator > 1
                        and gcd(coeff.numerator, coeff.denominator) == 1
                    )
                    checked += 1
    assert checked > 0


def test_report_json_is_deterministic_and_stringly():
    import json

    a = run_expansion(make_problem("poincare", 1)).to_json_dict()
    b = run_expansion(make_problem("poincare", 1)).to_json_dict()
    assert json.dumps(a) == json.dumps(b)
    assert a["verdict"] == "pass"
    assert a["constraints"]["raw"] == ["4*c1*a1^2 - w1"]
    assert a["decomposition"] == {"k": ["K1", "K2", "J"], "t": ["H", "P1", "P2"]}


def test_verify_with_numeric_values():
    # galilei -> poincare with c1 = 1, c2 = 0 solves the constraints over
    # the rationals: a2^2 = -w2/c1 = 1, a1 = -c2*a2/(2*c1) = 0
    problem = make_problem("galilei", 2, omega=-1)
    report = run_expansion(problem)
    good = verify_with_values(
        report, {"a1": 0, "a2": 1, "c1": 1, "c2": 0}
    )
    assert all(ok for _, ok, _ in good)
    bad = verify_with_values(
        report, {"a1": 1, "a2": 1, "c1": 1, "c2": 0}
    )
    assert not all(ok for _, ok, _ in bad)


def test_verify_with_values_reuses_the_remainders(monkeypatch):
    import ckexpand.expand

    report = run_expansion(make_problem("galilei", 2, omega=-1))
    builds, commutators = [], []
    reducer_init = ckexpand.expand.CentralReducer.__init__
    commutator = ckexpand.expand.uea_commutator

    def counted_init(self, *args):
        builds.append(1)
        reducer_init(self, *args)

    def counted_commutator(a, b):
        commutators.append(1)
        return commutator(a, b)

    monkeypatch.setattr(
        ckexpand.expand.CentralReducer, "__init__", counted_init
    )
    monkeypatch.setattr(ckexpand.expand, "uea_commutator", counted_commutator)
    outcomes = verify_with_values(report, {"a1": 0, "a2": 1, "c1": 1, "c2": 0})
    assert len(outcomes) == 15 and all(ok for _, ok, _ in outcomes)
    assert (len(builds), len(commutators)) == (0, 0)
    assert "remainders" not in report.to_json_dict()


def test_verify_with_values_on_a_closure_report():
    # the negative control takes the closure path and derives no
    # constraints, so its remainders are computed on demand
    report = run_expansion(
        make_problem("galilei", 1, 1, expected_failure=True)
    )
    assert report.constraints is None and report.remainders is None
    outcomes = verify_with_values(report, {"a1": 1, "a2": 1})
    assert len(outcomes) == 15
    assert outcomes[0] == ("[H,P1]", False, "-1 * K1")
    assert outcomes[4] == ("[H,J]", True, "0")
