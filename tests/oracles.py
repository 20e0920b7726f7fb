"""Independent reference implementations, a call counter and a name-use
scan of the sources, used by several test modules."""

import argparse
import ast
import heapq
import itertools
import operator
import random
from fractions import Fraction
from pathlib import Path

from ckexpand.cli import (
    cmd_algebra,
    cmd_atlas,
    cmd_contract,
    cmd_expand,
    cmd_verify,
)
from ckexpand.groebner import ParamPoly
from ckexpand.liealg import BUILTIN_NAMES
from ckexpand.poly import (
    ONE, Poly, Scalar, _coeff, _constant, add_term, exact_div, grlex_key,
    split_symbols,
)
from ckexpand.uea import UEAElement, _Span, uea_mul


def count_calls(monkeypatch, module, name):
    """A list that grows by one item per call of module.name, which is
    replaced by a counting wrapper for the rest of the test."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def name_uses(path, names):
    """(enclosing definitions, name) for each use of one of names in the
    module at path; the definitions start with the module's name."""
    uses = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            where = f"{where}.{node.name}"
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name in names:
            uses.append((where, name))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(Path(path).read_text()), Path(path).stem)
    return uses


def same_brackets(g, h) -> bool:
    """Structural equality of two bracket tables under the fixed order."""
    return g.generators == h.generators and g.brackets == h.brackets


# the contraction that sends the coefficient w_axis to zero
CONTRACTION_KIND = {1: "space-time", 2: "speed-space"}


def grid_edges() -> list:
    """The 12 edges of the nine-cell grid as (cell, neighbour, axis): each
    cell whose sign on the axis is zero, paired with its two neighbours
    along that axis.  Contracting the neighbour along the axis gives the
    cell; expanding the cell gives the neighbour."""
    edges = []
    for cell in sorted(set(BUILTIN_NAMES.values())):
        for axis in (1, 2):
            if cell[axis - 1] == 0:
                for sign in (1, -1):
                    neighbour = (sign, cell[1]) if axis == 1 else (cell[0], sign)
                    edges.append((cell, neighbour, axis))
    return edges


def oracle_normalize(algebra, word, rng):
    """Normal-order a word by resolving a *randomly chosen* inversion at
    each step (the engine always picks the first one); by PBW both must
    land on the same normal form."""
    result = {}
    stack = [(tuple(word), Scalar.one())]
    while stack:
        w, c = stack.pop()
        inversions = [p for p in range(len(w) - 1) if w[p] > w[p + 1]]
        if not inversions:
            exps = [0] * algebra.dim
            for idx in w:
                exps[idx] += 1
            key = tuple(exps)
            acc = result.get(key, Scalar.zero()) + c
            if acc.is_zero:
                result.pop(key, None)
            else:
                result[key] = acc
            continue
        p = rng.choice(inversions)
        a, b = w[p], w[p + 1]
        stack.append((w[:p] + (b, a) + w[p + 2:], c))
        for n, bc in algebra.bracket(a, b).items():
            stack.append((w[:p] + (n,) + w[p + 2:], c * bc))
    return UEAElement(algebra, result)


def oracle_reconstruct(remainder, witness, relations, products=None):
    """remainder + sum coeff * (element - scalar) * cofactor over the
    (label, cofactor exponents, coeff) triples of a reduction witness, each
    product normal-ordered by ``oracle_normalize``.  ``products`` memoises
    the products by (label, cofactor) for one algebra across calls."""
    g = remainder.algebra
    rels = {rel.label: rel for rel in relations}
    products = {} if products is None else products
    rng = random.Random(20261018)
    total = remainder
    for label, exps, coeff in witness:
        if (label, exps) not in products:
            rel = rels[label]
            cofactor = [idx for idx, e in enumerate(exps) for _ in range(e)]
            product = oracle_normalize(g, cofactor, rng).scale(-rel.scalar)
            for mono, c in rel.element.terms.items():
                word = [idx for idx, e in enumerate(mono) for _ in range(e)]
                product = product + oracle_normalize(
                    g, word + cofactor, rng
                ).scale(c)
            products[(label, exps)] = product.terms
        total = total + UEAElement(g, products[(label, exps)]).scale(coeff)
    return total


def oracle_span_reducer(algebra, relations, bound):
    """The central reduction at a uniform cofactor bound: the echelon span
    of (element - scalar) * m for every relation and every PBW monomial m
    of degree <= ``bound``.  Returns a function from an element to its
    remainder, which is exact for inputs of degree <= bound + the smallest
    relation degree."""
    span = _Span()
    one = UEAElement.one(algebra)
    letters = [UEAElement.generator(algebra, lab) for lab in algebra.generators]
    for rel in relations:
        products = {(): rel.element - one.scale(rel.scalar)}
        for deg in range(bound + 1):
            for word in itertools.combinations_with_replacement(
                range(algebra.dim), deg
            ):
                if word:
                    products[word] = uea_mul(
                        products[word[:-1]], letters[word[-1]]
                    )
                span.add(products[word].terms, {(rel.label, word): Scalar.one()})
    return lambda x: UEAElement(algebra, span.reduce(x.terms)[0])


# -- polynomials over (symbol, exponent) tuples -------------------------------
#
# A tuple polynomial is {monomial: Fraction}, each monomial a tuple of
# (symbol, exponent) pairs sorted by symbol with positive exponents.  This
# code never reads the engine's own monomials: ``to_poly`` builds a Poly
# with Poly.symbol, Poly.const, ** and +, and ``tuple_terms`` reads one
# back through ``split_symbols``.


def to_poly(terms):
    """The engine Poly of a tuple polynomial."""
    total = Poly()
    for mono, coeff in terms.items():
        piece = Poly.const(coeff)
        for sym, e in mono:
            piece = piece * Poly.symbol(sym) ** e
        total = total + piece
    return total


def tuple_terms(p: Poly):
    """The tuple polynomial of an engine Poly."""
    names = p.variables()
    return {
        tuple((s, e) for s, e in zip(names, exps) if e):
            Fraction(c.value.numerator, c.value.denominator)
        for exps, c in split_symbols(Scalar(p), names).items()
    }


def tuple_mono_mul(a, b):
    """Product of two monomials, merging exponent dicts."""
    merged = dict(a)
    for sym, e in b:
        merged[sym] = merged.get(sym, 0) + e
    return tuple(sorted(merged.items()))


def tuple_mul(a, b):
    """Product of two tuple polynomials."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple_mono_mul(ma, mb)
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def tuple_content(monos):
    """The least exponent of each symbol that every monomial has."""
    exponents = [dict(m) for m in monos]
    if not exponents:
        return ()
    shared = set(exponents[0]).intersection(*exponents)
    return tuple(sorted((s, min(e[s] for e in exponents)) for s in shared))


def tuple_mono_div(mono, divisor):
    """mono / divisor, or None when divisor does not divide mono."""
    exps = dict(mono)
    for sym, e in divisor:
        exps[sym] = exps.get(sym, 0) - e
    if min(exps.values(), default=0) < 0:
        return None
    return tuple(sorted((s, e) for s, e in exps.items() if e))


def tuple_key(terms):
    """A graded-lex key by symbol name for the monomials of terms."""
    names = sorted({s for m in terms for s, _ in m})
    return lambda m: grlex_key(tuple(dict(m).get(s, 0) for s in names))


def tuple_div(a, b):
    """a/b by long division in graded-lex order by name, or None when b
    leaves a remainder."""
    key = tuple_key([*a, *b])
    lead = max(b, key=key)
    rem, quot = dict(a), {}
    while rem:
        mono = max(rem, key=key)
        q = tuple_mono_div(mono, lead)
        if q is None:
            return None
        qc = rem[mono] / b[lead]
        quot[q] = qc
        for m, c in b.items():
            k = tuple_mono_mul(m, q)
            rem[k] = rem.get(k, 0) - qc * c
            if not rem[k]:
                del rem[k]
    return quot


def tuple_str(terms):
    """The text of a tuple polynomial as Poly prints it: terms by
    descending graded-lex order by name, factors in name order."""
    parts = []
    for mono in sorted(terms, key=tuple_key(terms), reverse=True):
        coeff = terms[mono]
        factors = [str(abs(coeff))] if abs(coeff) != 1 or not mono else []
        factors += [s if e == 1 else f"{s}^{e}" for s, e in mono]
        sign = ("-" if coeff < 0 else "") if not parts else (
            "- " if coeff < 0 else "+ ")
        parts.append(sign + "*".join(factors))
    return " ".join(parts) or "0"


# -- the earlier cancellation rules of Scalar -------------------------------
#
# Every exact division is tried, whatever the number of terms.  Scalar
# skips the one-term cases, and its printed num and den must still match.


def _old_cancel(num, den):
    q = exact_div(num, den)
    if q is not None:
        return q, ONE
    q = exact_div(den, num)
    if q is not None:
        return ONE, q
    return num, den


def _settled(num, den):
    out = Scalar.__new__(Scalar)
    out._settle(num, den)
    return out


def oracle_scalar(num, den=ONE):
    """Scalar(num, den): monomial content out, then either side that
    exactly divides the other, then rational content and sign."""
    if num.is_zero or den.is_one:
        return Scalar(num)
    num, den = tuple_terms(num), tuple_terms(den)
    common = tuple_content([*num, *den])
    num, den = (to_poly({tuple_mono_div(m, common): c for m, c in p.items()})
                for p in (num, den))
    if not den.is_one:
        num, den = _old_cancel(num, den)
    return _settled(num, den)


def oracle_sum(x, y, negate=False):
    """x + y (x - y when negate) over the larger denominator when one
    denominator exactly divides the other."""
    p, q = x.value, y.value
    if p is not None and q is not None:
        return _constant(p - q if negate else p + q)
    a, b = x.num, -y.num if negate else y.num
    ad, bd = x.den, y.den
    if ad == bd:
        return oracle_scalar(a + b, ad)
    q = exact_div(bd, ad)
    if q is not None:
        return oracle_scalar(a * q + b, bd)
    q = exact_div(ad, bd)
    if q is not None:
        return oracle_scalar(a + b * q, ad)
    return oracle_scalar(a * bd + b * ad, ad * bd)


def oracle_mul(x, y):
    """x * y, each numerator first cancelled against the other side's
    denominator."""
    p, q = x.value, y.value
    if q is not None:
        return x._scaled(q) if p is None else _constant(p * q)
    if p is not None:
        return y._scaled(p)
    a, b, c, d = x.num, x.den, y.num, y.den
    if not d.is_one:
        a, d = _old_cancel(a, d)
    if not b.is_one:
        c, b = _old_cancel(c, b)
    return oracle_scalar(a * c, b * d)


def oracle_inverse(x):
    if x.value is not None:
        q = Fraction(x.value.denominator, x.value.numerator)
        return _constant(_coeff(q))
    return _settled(x.den, x.num)


def oracle_monic(p):
    """A ParamPoly scaled by the inverse of its leading coefficient."""
    if p.is_zero:
        return p
    inv = oracle_inverse(p.leading()[1])
    return p._like({e: oracle_mul(c, inv) for e, c in p.terms.items()})


def to_sympy(s: Scalar):
    """A Scalar as a sympy rational function (sympy is imported here)."""
    import sympy

    def poly(p):
        return sympy.Add(*(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(sympy.Symbol(sym) ** e for sym, e in mono))
            for mono, c in tuple_terms(p).items()
        ))

    return poly(s.num) / poly(s.den)


def to_sympy_field(field, s: Scalar):
    """A Scalar as an element of a sympy ``field()`` of rational functions
    over QQ.  The field keeps each element in lowest terms with a monic
    denominator, so equal values are equal elements and ``==`` is exact
    without a ``cancel``."""
    names = [str(x) for x in field.symbols]
    qq = field.domain

    def poly(p):
        return field(field.ring({
            tuple(dict(mono).get(name, 0) for name in names):
                qq(c.numerator, c.denominator)
            for mono, c in tuple_terms(p).items()
        }))

    return poly(s.num) / poly(s.den)


def oracle_reduce(p: ParamPoly, basis) -> ParamPoly:
    """The earlier groebner._reduce: the leading term found by grlex_key
    over plain exponent keys, and always divided by the leading
    coefficient."""
    divisors = [(*b.leading(), b.terms) for b in basis]
    work = dict(p.terms)
    remainder = {}
    while work:
        key = max(work, key=grlex_key)
        coeff = work.pop(key)
        for bkey, blc, bterms in divisors:
            if all(b <= k for b, k in zip(bkey, key)):
                break
        else:
            remainder[key] = coeff
            continue
        neg = -(coeff / blc)
        shift = tuple(k - bk for k, bk in zip(key, bkey))
        for exps, c in bterms.items():
            if exps == bkey:
                continue  # cancels the popped leading term exactly
            add_term(work, tuple(a + b for a, b in zip(exps, shift)), neg * c)
    return ParamPoly(p.unknowns, remainder)


def oracle_groebner_basis(gens, unknowns):
    """The earlier groebner_basis, over the parameter field: every element
    is made monic as it enters, the S-polynomial of two monic elements is
    a difference of shifts, and reductions are ``oracle_reduce``.  Returns
    the reduced basis as a list."""
    def monic(p):
        key, lc = p.leading()
        inv = lc.inverse()
        return p._like({e: Scalar.one() if e == key else c * inv
                        for e, c in p.terms.items()})

    polys = [ParamPoly.coerce(g, unknowns) for g in gens]
    polys = [p for p in polys if not p.is_zero]
    basis, leads, heap = [], [], []

    def add(p):
        j = len(basis)
        basis.append(monic(p))
        leads.append(basis[j].leading()[0])
        for i in range(j):
            lcm = tuple(map(max, leads[i], leads[j]))
            if sum(lcm) < sum(leads[i]) + sum(leads[j]):  # not coprime
                heapq.heappush(heap, (grlex_key(lcm), i, j))

    for p in polys:
        if basis:
            p = oracle_reduce(p, basis)
        if not p.is_zero:
            add(p)
    while heap:
        (_, lcm), i, j = heapq.heappop(heap)
        f, g = basis[i], basis[j]
        s = (f.shift(tuple(a - b for a, b in zip(lcm, leads[i])))
             - g.shift(tuple(a - b for a, b in zip(lcm, leads[j]))))
        s = oracle_reduce(s, basis)
        if not s.is_zero:
            add(s)
    basis = [
        b for i, b in enumerate(basis)
        if not any(all(map(operator.le, lead, leads[i]))
                   and (lead != leads[i] or k < i)
                   for k, lead in enumerate(leads) if k != i)
    ]
    for i in range(len(basis)):
        basis[i] = oracle_reduce(basis[i], basis[:i] + basis[i + 1:])
    return sorted(basis, key=lambda b: grlex_key(b.leading()[0]))


def oracle_proportional(p, q):
    """The earlier ParamPoly.proportional_to: equal leading monomials, and
    p scaled by q's leading coefficient equals q scaled by p's."""
    if p.is_zero or q.is_zero:
        return p.is_zero and q.is_zero
    key, lc = p.leading()
    okey, olc = q.leading()
    if key != okey:
        return False
    return (p.scale(olc) - q.scale(lc)).is_zero


_BUILTINS = sorted(BUILTIN_NAMES) + ["ext-galilei", "ck"]
_BOUND_HELP = "a value >= 0 to record; the reduction is exact at any value"


def argparse_oracle() -> argparse.ArgumentParser:
    """The argparse parser that ``ck`` used before its table-driven one,
    kept unchanged (apart from its name) as the reference for
    ``ckexpand.cli.parse_args``."""
    parser = argparse.ArgumentParser(
        prog="ck",
        description="exact expansions and contractions of kinematical algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_name(p):
        p.add_argument(
            "name",
            help=f"builtin algebra ({', '.join(_BUILTINS)}) or JSON file path",
        )

    p = sub.add_parser("algebra", help="show or dump an algebra")
    add_name(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("verify", help="Jacobi and Casimir centrality checks")
    add_name(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("contract", help="Inonu-Wigner contraction")
    add_name(p)
    p.add_argument(
        "--kind", required=True, choices=["space-time", "speed-space"]
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("expand", help="run one expansion")
    add_name(p)
    p.add_argument("--axis", required=True, type=int, choices=[1, 2])
    p.add_argument(
        "--omega",
        default="sym",
        help="target coefficient: 'sym', an integer or a rational (default sym)",
    )
    p.add_argument("--degree-bound", type=int, help=_BOUND_HELP)
    p.add_argument(
        "--expect-failure",
        action="store_true",
        help="treat 'closes-but-not-ck' as the desired outcome",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("atlas", help="run every expansion arrow")
    p.add_argument("--degree-bound", type=int, help=_BOUND_HELP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_atlas)

    return parser
