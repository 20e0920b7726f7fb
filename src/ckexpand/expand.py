"""The Casimir-splitting expansion engine.

An expansion reverses a contraction: starting from an algebra g in which
one curvature coefficient w_a vanishes, new generators are built inside
the universal enveloping algebra of g so that they close the brackets of
the algebra g' with w_a restored.  The recipe:

  1. write each Casimir of g' as C'_l = C_l + w_a * J_l (the dependence
     on w_a is linear), which defines the elements J_l over g;
  2. form J = a1*J_1 + a2*J_2 with undetermined constants a1, a2;
  3. replace each generator X by X' = [J, X] when that commutator is
     nonzero, keeping X' = X otherwise;
  4. enforce the g' brackets on the primed generators; after reduction
     modulo the Casimir eigenvalue relations this yields polynomial
     constraint equations in a1, a2, collected as a relation ideal.

When the centralizer split g = t + k satisfies [k,k] in k and [k,t] in t,
the k'k' and k't' brackets survive the expansion unchanged (exactly, with
no reduction); the engine checks this shortcut as a theorem rather than
assuming it.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .groebner import (
    ParamPoly,
    groebner_basis,
    ideal_equals,
    reduce_mod_ideal,
)
from .liealg import (
    CATALOG,
    LieAlgebra,
    UnsupportedAlgebraError,
    builtin_algebra,
    identify,
    make_ck_algebra,
    with_central_generator,
)
from .poly import Scalar, add_term, as_scalar, grlex_key, split_symbols
from .uea import (
    CentralReducer,
    UEAElement,
    _Span,
    casimir,
    standard_relations,
    uea_commutator,
)

__all__ = [
    "ExpansionError",
    "InconsistentSystemError",
    "ExpansionProblem",
    "ExpansionReport",
    "make_problem",
    "split_casimirs",
    "build_J",
    "centralizer_split",
    "build_primed_generators",
    "derive_constraints",
    "verify_expansion",
    "run_expansion",
    "run_atlas",
    "verify_with_values",
    "ATLAS",
]

UNKNOWNS = ("a1", "a2")


class ExpansionError(ValueError):
    """The expansion request is malformed or degenerate."""


class InconsistentSystemError(ExpansionError):
    """A bracket demands a nonzero constant to vanish."""


class ExpansionProblem:
    def __init__(self, name, initial, target, axis, omega_symbol,
                 omega_value, relations, member, expected_failure=False):
        self.name = name
        self.initial = initial
        self.target = target
        self.axis = axis
        self.omega_symbol = omega_symbol
        self.omega_value = omega_value
        self.relations = relations
        self.member = member  # identify(initial), read once per problem
        self.expected_failure = expected_failure


def make_problem(initial, axis: int, omega="sym", name=None,
                 expected_failure=False) -> ExpansionProblem:
    """Set up an expansion of the given axis from a contracted algebra.

    ``initial`` is a LieAlgebra or a builtin name; ``omega`` is the target
    value of the expanded coefficient ("sym" keeps it symbolic).
    """
    if isinstance(initial, str):
        initial = builtin_algebra(initial)
    if axis not in (1, 2):
        raise ExpansionError(f"axis must be 1 or 2, got {axis!r}")
    omega_symbol = f"w{axis}"
    omega_value = (
        Scalar.symbol(omega_symbol) if omega == "sym" else as_scalar(omega)
    )
    if omega_value.is_zero:
        raise ExpansionError("nothing to expand: target coefficient is zero")
    member = identify(initial)
    w1, w2 = member.w1, member.w2
    if not (w1 if axis == 1 else w2).is_zero:
        raise ExpansionError(
            f"initial algebra must have w{axis} = 0 to expand that axis"
        )
    if axis == 2 and not member.m.is_zero:
        raise ExpansionError(
            "the central extension is an axis-1 (space-time) seed"
        )
    # the seed and the target value must leave the engine's own symbols
    # alone: the unknowns, the Casimir eigenvalues, the expanded coefficient
    reserved = {*UNKNOWNS, "c1", "c2", "xi", omega_symbol}
    uses = [
        (f"bracket [{initial.generators[i]},{initial.generators[j]}]", c)
        for (i, j), combo in sorted(initial.brackets.items())
        for c in combo.values()
    ]
    if omega != "sym":
        uses.append(("the target value", omega_value))
    for where, value in uses:
        for sym in value.variables():
            if sym in reserved:
                raise ExpansionError(f"{where} uses the reserved symbol {sym!r}")
    # identify checked every bracket of the initial algebra at these
    # (w1, w2), so it is the target's contraction along this axis, up to
    # the extension bracket m*Xi
    pair = (omega_value, w2) if axis == 1 else (w1, omega_value)
    target = make_ck_algebra(*pair)
    if member.central is not None:
        target = with_central_generator(target, member.central)
    relations = standard_relations(initial, member)
    if name is None:
        name = f"{initial.name}->w{axis}={omega_value}"
    return ExpansionProblem(
        name=name,
        initial=initial,
        target=target,
        axis=axis,
        omega_symbol=omega_symbol,
        omega_value=omega_value,
        relations=relations,
        member=member,
        expected_failure=expected_failure,
    )


# -- Casimir splitting ---------------------------------------------------------


class CasimirSplit(NamedTuple):
    index: int
    base: UEAElement
    jpiece: UEAElement


def _split_linear(elem: UEAElement, sym: str, onto: LieAlgebra):
    pieces = ({}, {})  # the terms free of sym, the terms linear in it
    for exps, coeff in elem.terms.items():
        for (k,), c in split_symbols(coeff, (sym,)).items():
            if k > 1:
                raise ExpansionError(
                    f"Casimir is not linear in {sym}: coefficient {coeff}"
                )
            pieces[k][exps] = c
    return UEAElement(onto, pieces[0]), UEAElement(onto, pieces[1])


def split_casimirs(problem: ExpansionProblem):
    """Split each target Casimir as C'_l = C_l + w_a * J_l over the initial
    algebra; both pieces are free of the expanded coefficient."""
    g = problem.initial
    sym = problem.omega_symbol
    # the coefficient-free part is the Casimir without the extension (the
    # target has none), so with m = 0; the target Casimirs keep the
    # expanded coefficient symbolic so the linear part can be read off
    # even for numeric targets
    plain = problem.member._replace(m=Scalar.zero())
    omega = Scalar.symbol(sym)
    target = (
        plain._replace(w1=omega) if problem.axis == 1
        else plain._replace(w2=omega)
    )
    splits = []
    for index in (1, 2):
        base, jpiece = _split_linear(casimir(g, index, target), sym, g)
        if not (base - casimir(g, index, plain)).is_zero:
            raise ExpansionError(
                f"coefficient-free part of C'{index} is not the initial Casimir"
            )
        splits.append(CasimirSplit(index=index, base=base, jpiece=jpiece))
    return tuple(splits)


def build_J(splits, alpha=UNKNOWNS) -> UEAElement:
    """J = a1*J_1 + a2*J_2, dropping vanishing pieces."""
    total = None
    for split, sym in zip(splits, alpha):
        if split.jpiece.is_zero:
            continue
        piece = split.jpiece.scale(Scalar.symbol(sym))
        total = piece if total is None else total + piece
    if total is None:
        raise ExpansionError("nothing to expand: both Casimir pieces vanish")
    return total


# -- centralizer decomposition -------------------------------------------------


class HypothesisReport(NamedTuple):
    k_labels: tuple
    t_labels: tuple
    k_closes: bool
    kt_in_t: bool
    violations: tuple = ()
    violations_central_only: bool = False

    @property
    def holds(self) -> bool:
        return self.k_closes and self.kt_in_t


def centralizer_split(g: LieAlgebra, unchanged) -> HypothesisReport:
    """Split generators into k (those commuting with J, given as the labels
    ``build_primed_generators`` left unchanged) and t; check the shortcut
    hypotheses [k,k] in k and [k,t] in t.

    Each violation is (X, Y, labels of the components of [X,Y] in k) for X
    in k and Y in t, ordered by X, then Y, in index order.
    """
    k_idx = tuple(i for i, lab in enumerate(g.generators) if lab in unchanged)
    t_idx = tuple(i for i in range(g.dim) if i not in k_idx)
    k = set(k_idx)
    k_closes = all(
        n in k
        for i, j in itertools.combinations(k_idx, 2)
        for n, _ in g.table[i][j]
    )
    violations = []
    for i in k_idx:
        for j in t_idx:
            bad = tuple(g.generators[n] for n, _ in g.table[i][j] if n in k)
            if bad:
                violations.append((g.generators[i], g.generators[j], bad))
    central_only = bool(violations) and all(
        g.is_central(g.index(lab)) for _, _, bad in violations for lab in bad
    )
    return HypothesisReport(
        k_labels=tuple(g.generators[i] for i in k_idx),
        t_labels=tuple(g.generators[i] for i in t_idx),
        k_closes=k_closes,
        kt_in_t=not violations,
        violations=tuple(violations),
        violations_central_only=central_only,
    )


def build_primed_generators(g: LieAlgebra, J: UEAElement):
    """X' = X when [J, X] = 0, else X' = [J, X]; also returns the labels
    left unchanged."""
    primed = {}
    unchanged = []
    for label in g.generators:
        x = UEAElement.generator(g, label)
        c = uea_commutator(J, x)
        if c.is_zero:
            primed[label] = x
            unchanged.append(label)
        else:
            primed[label] = c
    return primed, tuple(unchanged)


# -- constraint derivation and verification -------------------------------------


def _pair_name(g, i, j):
    return f"[{g.generators[i]},{g.generators[j]}]"


def _bracket_diff(problem, primed, i, j):
    """[X_i', X_j'] - sum_n c_n X_n' for the target's [X_i, X_j], summed
    into the commutator's own term dict."""
    g = problem.initial
    terms = uea_commutator(
        primed[g.generators[i]], primed[g.generators[j]]
    ).terms
    for n, c in problem.target.table[i][j]:
        neg = -c
        for exps, coeff in primed[g.generators[n]].terms.items():
            add_term(terms, exps, neg * coeff)
    return UEAElement(g, terms)


def _per_coefficient(fn):
    """fn, computed once for each structurally equal coefficient.

    Two coefficients are the same when their numerator and denominator
    Polys are; Scalar == is not used, because a Scalar is not canonical
    and equal values can print differently.
    """
    memo = {}

    def once(coeff: Scalar):
        key = (coeff.num, coeff.den)
        if key not in memo:
            memo[key] = fn(coeff)
        return memo[key]

    return once


def _equation(coeff: Scalar) -> ParamPoly:
    """coeff as a polynomial in the unknowns, normalized unless it is a
    constant (which keeps its value for the error message)."""
    pp = ParamPoly.from_scalar(coeff, UNKNOWNS)
    return pp.normalized() if pp.total_degree() > 0 else pp


def _remainder_equations(remainder: UEAElement, pair: str, equation):
    """The equations of one remainder, by ``equation``, a
    ``_per_coefficient(_equation)`` shared by the pairs of one arrow."""
    eqs = []
    for exps in sorted(remainder.terms, key=grlex_key, reverse=True):
        pp = equation(remainder.terms[exps])
        if pp.total_degree() == 0:
            raise InconsistentSystemError(
                f"bracket {pair} requires the nonzero constant "
                f"{pp.constant_part()} to vanish"
            )
        eqs.append(pp)
    return eqs


def default_degree_bound(problem: ExpansionProblem) -> int:
    """The bound a report records when none is given; no reduction reads it."""
    min_deg = min(rel.element.degree() for rel in problem.relations)
    return max(0, 3 - min_deg)


def _constraint_ideal(eq_lists):
    """Groebner basis of the equations, deduplicated up to a constant factor
    in the order given.  ``verify_expansion`` proves that every equation
    lies in it."""
    raw = []
    for eqs in eq_lists:
        for eq in eqs:
            if not any(eq.proportional_to(known) for known in raw):
                raw.append(eq)
    return groebner_basis(raw, UNKNOWNS)


def _pair_remainders(problem: ExpansionProblem, primed):
    """The central remainder and reduction witness of every pair's bracket
    difference, as two dicts keyed by index pair; None when the bracket
    holds exactly."""
    g = problem.initial
    reducer = CentralReducer(g, problem.relations)
    remainders, witnesses = {}, {}
    for i, j in itertools.combinations(range(g.dim), 2):
        diff = _bracket_diff(problem, primed, i, j)
        remainders[(i, j)], witnesses[(i, j)] = (
            (None, None) if diff.is_zero else reducer.reduce(diff)
        )
    return remainders, witnesses


def derive_constraints(problem: ExpansionProblem, primed):
    """Collect the polynomial equations in (a1, a2) forced by the target
    brackets, reduced modulo the Casimir eigenvalue relations.

    This is the one bracket pass of an arrow.  Returns the ideal, the
    equations per pair name, and the central remainder and reduction
    witness of every pair (None when the bracket holds exactly);
    ``verify_expansion`` reads the remainders.
    """
    g = problem.initial
    remainders, witnesses = _pair_remainders(problem, primed)
    equation = _per_coefficient(_equation)
    per_pair = {}
    for (i, j), remainder in remainders.items():
        pair = _pair_name(g, i, j)
        per_pair[pair] = (
            [] if remainder is None
            else _remainder_equations(remainder, pair, equation)
        )
    ideal = _constraint_ideal(per_pair.values())
    return ideal, per_pair, remainders, witnesses


class BracketVerdict(NamedTuple):
    pair: str
    klass: str  # "kk", "kt" or "tt"
    mode: str  # "exact" or "reduced"
    ok: bool
    residual: str = "0"


class ClosureReport(NamedTuple):
    closes: bool
    table: dict
    matches_cell: tuple = None


class ExpansionReport:
    """What ``run_expansion`` found, filled in stage by stage."""

    def __init__(self, problem):
        self.problem = problem
        self.splits = None
        self.J = None
        self.hypothesis = None
        self.primed = None
        self.constraints = None
        self.per_pair = None
        # central remainders and their witnesses (the triples of
        # CentralReducer.reduce) from derive_constraints; not written to JSON
        self.remainders = None
        self.witnesses = None
        self.order_independent = True
        self.brackets = []
        self.closure = None
        self.verdict = "fail"
        self.degree_bound = 0
        self.remarks = []

    @property
    def ok(self) -> bool:
        if self.problem.expected_failure:
            return self.verdict == "closes-but-not-ck"
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        g = self.problem.initial
        data = {
            "arrow": self.problem.name,
            "initial": g.name,
            "target": self.problem.target.name,
            "axis": self.problem.axis,
            "expanded_symbol": self.problem.omega_symbol,
            "omega_value": str(self.problem.omega_value),
            "verdict": self.verdict,
            "expected_failure": self.problem.expected_failure,
            "degree_bound": self.degree_bound,
            "remarks": list(self.remarks),
        }
        if self.splits:
            data["splits"] = {
                f"J{s.index}": str(s.jpiece) for s in self.splits
            }
        if self.J is not None:
            data["J"] = str(self.J)
        if self.hypothesis is not None:
            data["decomposition"] = {
                "k": list(self.hypothesis.k_labels),
                "t": list(self.hypothesis.t_labels),
            }
            data["hypothesis"] = {
                "k_closes": self.hypothesis.k_closes,
                "kt_in_t": self.hypothesis.kt_in_t,
                "holds": self.hypothesis.holds,
                "violations": [
                    [x, y, list(bad)] for x, y, bad in self.hypothesis.violations
                ],
                "violations_central_only": self.hypothesis.violations_central_only,
            }
        if self.primed is not None:
            data["primed"] = {lab: str(el) for lab, el in self.primed.items()}
        # the raw constraints and the per-pair equations share their
        # ParamPoly objects: print each object once
        texts = {}

        def text(p):
            if id(p) not in texts:
                texts[id(p)] = str(p)
            return texts[id(p)]

        if self.constraints is not None:
            data["constraints"] = {
                "raw": [text(p) for p in self.constraints.generators],
                "groebner": [text(p) for p in self.constraints.groebner],
                "unknowns": list(self.constraints.unknowns),
            }
        if self.per_pair is not None:
            data["per_pair_equations"] = {
                pair: [text(e) for e in eqs] for pair, eqs in self.per_pair.items()
            }
            data["order_independent"] = self.order_independent
        if self.brackets:
            data["brackets"] = [
                {
                    "pair": b.pair,
                    "class": b.klass,
                    "mode": b.mode,
                    "ok": b.ok,
                    "residual": b.residual,
                }
                for b in self.brackets
            ]
        if self.closure is not None:
            data["closure"] = {
                "closes": self.closure.closes,
                "table": dict(self.closure.table),
                "matches_cell": (
                    list(self.closure.matches_cell)
                    if self.closure.matches_cell
                    else None
                ),
            }
        return data


def verify_expansion(problem, hypothesis, constraints, remainders):
    """Check every bracket of the target against the primed generators.

    ``remainders`` are the central remainders from ``derive_constraints``;
    pairs are classed kk, kt or tt by ``hypothesis.k_labels``.  A bracket
    passes either exactly in the enveloping algebra or after central
    reduction followed by reduction of every coefficient modulo the
    constraint ideal.  When the shortcut hypotheses hold, the k'k' and
    k't' classes must pass exactly.

    This is the one proof that the constraint equations lie in the ideal:
    each raw generator is u*p for a nonzero parameter Scalar u and the
    polynomial p of a remainder coefficient, and a reduction picks each
    step by leading monomials alone, so NF(u*p) = u*NF(p) against any
    basis.  A basis that misses a generator leaves a residual: fail.
    """
    g = problem.initial
    k_set = set(hypothesis.k_labels)
    normal_form = _per_coefficient(
        lambda coeff: reduce_mod_ideal(
            ParamPoly.from_scalar(coeff, UNKNOWNS), constraints
        )
    )
    verdicts = []
    for (i, j), remainder in remainders.items():
        pair = _pair_name(g, i, j)
        in_k = (g.generators[i] in k_set) + (g.generators[j] in k_set)
        klass = {2: "kk", 1: "kt", 0: "tt"}[in_k]
        if remainder is None:
            verdicts.append(BracketVerdict(pair, klass, "exact", True))
            continue
        residuals = []
        for coeff in remainder.terms.values():
            nf = normal_form(coeff)
            if not nf.is_zero:
                residuals.append(str(nf))
        ok = not residuals
        if hypothesis.holds and klass != "tt":
            # shortcut classes must hold with no ideal help
            ok = False
            residuals.append("expected exact equality for class " + klass)
        verdicts.append(
            BracketVerdict(
                pair, klass, "reduced", ok,
                "0" if ok else "; ".join(residuals),
            )
        )
    return verdicts, all(v.ok for v in verdicts)


def analyze_closure(g: LieAlgebra, primed) -> ClosureReport:
    """Check that the primed set closes under commutators and identify the
    induced bracket table: it matches a catalog cell when its (w1, w2) is
    exactly that cell's signs and it carries no central extension."""
    labels = list(g.generators)
    elements = [primed[lab] for lab in labels]
    # echelonize the primed elements for exact membership tests
    span = _Span()
    for idx, el in enumerate(elements):
        span.add(el.terms, {idx: Scalar.one()})
    table = {}
    combos = {}
    closes = True
    for i, j in itertools.combinations(range(len(labels)), 2):
        c = uea_commutator(elements[i], elements[j])
        residual, combo = span.reduce(c.terms)
        if residual:
            closes = False
            table[f"[{labels[i]},{labels[j]}]"] = "not in the primed span"
            continue
        combos[(i, j)] = combo
        if combo:
            table[f"[{labels[i]},{labels[j]}]"] = " + ".join(
                f"({coeff})*{labels[n]}'" for n, coeff in sorted(combo.items())
            )
    matches = None
    if closes:
        try:
            member = identify(LieAlgebra(g.name, labels, combos))
        except UnsupportedAlgebraError:
            member = None
        if member is not None and member.m.is_zero:
            key = (member.w1, member.w2)
            matches = next((s for s in CATALOG if key == s), None)
    return ClosureReport(closes=closes, table=table, matches_cell=matches)


def run_expansion(problem: ExpansionProblem, degree_bound=None) -> ExpansionReport:
    """Full pipeline for one expansion arrow."""
    if degree_bound is not None and degree_bound < 0:
        raise ExpansionError(f"degree bound must be >= 0, got {degree_bound}")
    report = ExpansionReport(problem)
    report.splits = split_casimirs(problem)
    report.J = build_J(report.splits)
    g = problem.initial
    report.primed, unchanged = build_primed_generators(g, report.J)
    hyp = centralizer_split(g, unchanged)
    report.hypothesis = hyp
    if not hyp.holds and not hyp.violations_central_only:
        # the seed is too abelian for this axis: analyze what the primed
        # set closes instead of deriving constraints
        closure = analyze_closure(g, report.primed)
        report.closure = closure
        if closure.closes and closure.matches_cell is None:
            report.verdict = "closes-but-not-ck"
        else:
            report.verdict = "fail"
        report.remarks.append(
            "centralizer shortcut hypotheses fail: [k,t] leaks into k"
        )
        return report
    report.degree_bound = (
        default_degree_bound(problem) if degree_bound is None else degree_bound
    )
    (report.constraints, report.per_pair, report.remainders,
     report.witnesses) = derive_constraints(problem, report.primed)
    ideal = report.constraints
    # order-independence: the deduplicated equations in reversed order
    # must generate the same ideal.  When the two bases differ the verdict
    # is fail already, so no equation is reduced against the reverse one
    ideal_rev = groebner_basis(list(reversed(ideal.generators)), UNKNOWNS)
    report.order_independent = ideal_equals(ideal, ideal_rev)
    verdicts, all_ok = verify_expansion(
        problem, hyp, ideal, report.remainders)
    report.brackets = verdicts
    unit = any(b.total_degree() == 0 for b in ideal.groebner)
    ok = all_ok and report.order_independent and not unit
    report.verdict = "pass" if ok else "fail"
    if unit:  # every equation lies in <1>, so verify_expansion passes it
        report.remarks.append(
            "the constraint ideal is the unit ideal: no expansion exists")
    if problem.axis == 1:
        report.remarks.append(
            "sign constraint not enforced: real solutions for a1 require "
            "compatible signs of w1, w2 and the Casimir eigenvalue"
        )
    used = set()
    for eqs in report.per_pair.values():
        for eq in eqs:
            for coeff in eq.terms.values():
                used.update(coeff.variables())
    eigencount = sorted(
        rel.label for rel in problem.relations
        if not used.isdisjoint(rel.scalar.variables())
    )
    report.remarks.append(
        "Casimir eigenvalues entering the constraints: "
        + (", ".join(eigencount) if eigencount else "none")
    )
    return report


def verify_with_values(report: ExpansionReport, values: dict):
    """Numeric convenience check: substitute user-supplied values for the
    expansion constants (and Casimir eigenvalues) into every bracket
    residual and require them to vanish."""
    problem = report.problem
    g = problem.initial
    remainders = report.remainders
    if remainders is None:
        # a closure-path report derived no constraints
        remainders = _pair_remainders(problem, report.primed)[0]
    mapping = {k: as_scalar(v) for k, v in values.items()}
    outcomes = []
    for (i, j), remainder in remainders.items():
        pair = _pair_name(g, i, j)
        if remainder is None:
            outcomes.append((pair, True, "0"))
            continue
        residual = remainder.substitute(mapping)
        outcomes.append((pair, residual.is_zero, str(residual)))
    return outcomes


# -- the atlas -------------------------------------------------------------------

# (arrow name, initial builtin, axis, target omega value, expected failure)
ATLAS = (
    ("iso(3)->so(4)", "euclid3", 1, 1, False),
    ("iso(3)->so(3,1)", "euclid3", 1, -1, False),
    ("iso(2,1)->so(2,2)", "poincare", 1, 1, False),
    ("iso(2,1)->so(3,1)", "poincare", 1, -1, False),
    ("ext-galilei->nh-plus", "ext-galilei", 1, 1, False),
    ("ext-galilei->nh-minus", "ext-galilei", 1, -1, False),
    ("nh-plus->so(4)", "nh-plus", 2, 1, False),
    ("nh-plus->so(2,2)", "nh-plus", 2, -1, False),
    ("nh-minus->so(3,1)-hyperbolic", "nh-minus", 2, 1, False),
    ("nh-minus->so(3,1)-desitter", "nh-minus", 2, -1, False),
    ("galilei->iso(3)", "galilei", 2, 1, False),
    ("galilei->iso(2,1)", "galilei", 2, -1, False),
    ("galilei-unextended-w1", "galilei", 1, 1, True),
)


def run_atlas(degree_bound=None) -> list:
    """Run all twelve expansion arrows plus the deliberate negative case."""
    reports = []
    for name, initial, axis, omega, expected_failure in ATLAS:
        problem = make_problem(
            initial, axis, omega, name=name, expected_failure=expected_failure
        )
        reports.append(run_expansion(problem, degree_bound=degree_bound))
    return reports
