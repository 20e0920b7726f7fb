"""Polynomial relation ideals in a few designated unknowns.

Constraint equations produced by the expansion engine are polynomials in
the unknown expansion coefficients (a1, a2) whose coefficients live in
the fraction field of the remaining parameter symbols.  This module
represents such polynomials, computes reduced Groebner bases with
Buchberger's algorithm under a frozen graded-lex order (total degree
first, then lex with the earlier unknown more significant), and reduces
polynomials to normal form.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import NamedTuple

from .poly import (
    Poly, Scalar, TermSum, _coeff, add_term, as_scalar, grlex_key,
    split_symbols,
)

__all__ = [
    "ParamPoly",
    "RelationIdeal",
    "groebner_basis",
    "reduce_mod_ideal",
    "ideal_equals",
]

MAX_UNKNOWNS = 3


class ParamPoly(TermSum):
    """Polynomial in the unknowns with Scalar (parameter-field) coefficients."""

    __slots__ = ("unknowns",)

    def __init__(self, unknowns, terms=None):
        self.unknowns = tuple(unknowns)
        self.terms = terms if terms is not None else {}

    @classmethod
    def from_scalar(cls, s: Scalar, unknowns) -> "ParamPoly":
        return cls(unknowns, split_symbols(s, unknowns))

    @classmethod
    def coerce(cls, value, unknowns) -> "ParamPoly":
        if isinstance(value, ParamPoly):
            if tuple(value.unknowns) != tuple(unknowns):
                raise ValueError("unknown lists differ")
            return value
        return cls.from_scalar(as_scalar(value), unknowns)

    @property
    def labels(self):
        return self.unknowns

    def _like(self, terms):
        return ParamPoly(self.unknowns, terms)

    def _check(self, other):
        if self.unknowns != other.unknowns:
            raise ValueError("unknown lists differ")

    # -- queries ----------------------------------------------------------

    total_degree = TermSum.degree

    def leading(self):
        key = max(self.terms, key=grlex_key)
        return key, self.terms[key]

    def constant_part(self) -> Scalar:
        zero = (0,) * len(self.unknowns)
        return self.terms.get(zero, Scalar.zero())

    # -- arithmetic -------------------------------------------------------

    def shift(self, exps, coeff) -> "ParamPoly":
        """Multiply by coeff * (unknown monomial with exponents exps)."""
        coeff = as_scalar(coeff)
        if coeff.is_zero:
            return ParamPoly(self.unknowns)
        return ParamPoly(
            self.unknowns,
            {
                tuple(a + b for a, b in zip(k, exps)): v * coeff
                for k, v in self.terms.items()
            },
        )

    def monic(self) -> "ParamPoly":
        if self.is_zero:
            return self
        key, lc = self.leading()
        if lc.is_one:
            return self
        inv = lc.inverse()
        one = Scalar.one()
        return self._like({
            e: one if e == key else c * inv for e, c in self.terms.items()
        })

    def proportional_to(self, other) -> bool:
        """True when self = u * other for a nonzero parameter Scalar u.

        A nonzero multiple keeps every term, so different term supports
        answer False and equal term dicts answer True (u = 1) without
        arithmetic.  Only two different polynomials over one support are
        cross-scaled by their leading coefficients and subtracted.
        """
        other = ParamPoly.coerce(other, self.unknowns)
        if self.terms.keys() != other.terms.keys():
            return False
        if self.terms == other.terms:
            return True  # u = 1; two zeros land here too
        key, lc = self.leading()
        return (self.scale(other.terms[key]) - other.scale(lc)).is_zero

    def normalized(self) -> "ParamPoly":
        """Denominator-free form with content removed and positive lead.

        Used for displaying raw constraint equations: clears parameter
        denominators, strips common rational and monomial content from
        the coefficient polynomials, and fixes the sign of the leading
        coefficient.  Denominators are cleared one at a time, each by
        scaling with a denominator the current result still has, so a
        repeated one is cleared once.  A factor that two different
        denominators share stays behind as a common factor of the
        coefficients: removing it waits on a polynomial gcd (ROADMAP
        direction 4).
        """
        if self.is_zero:
            return self
        result = self
        dens = [c.den for c in self.terms.values() if not c.den.is_one]
        while dens:
            result = result.scale(Scalar(dens[0]))
            dens = [c.den for c in result.terms.values() if not c.den.is_one]
        polys = [c.num for c in result.terms.values()]
        # common rational content
        content = polys[0].content()
        for p in polys[1:]:
            content = _coeff(Fraction(
                math.gcd(content.numerator, p.content().numerator),
                math.lcm(content.denominator, p.content().denominator),
            ))
        # common monomial content
        common = dict(polys[0].mono_content())
        for p in polys[1:]:
            here = dict(p.mono_content())
            common = {s: min(e, here[s]) for s, e in common.items() if s in here}
        divisor = Scalar(Poly({tuple(sorted(common.items())): content}))
        result = result.scale(divisor.inverse())
        _, lc = result.leading()
        if lc.num.leading()[1] < 0:
            result = -result
        return result

    def __str__(self):
        parts = []
        for lead, cstr, mono in self._signed_terms("*"):
            if mono and cstr == "1":
                cstr = mono
            elif mono:
                wrap = " " in cstr or "/" in cstr
                cstr = f"({cstr})*{mono}" if wrap else f"{cstr}*{mono}"
            elif "-" in lead and " " in cstr:
                cstr = f"({cstr})"  # a negated sum
            parts.append(lead + cstr)
        return "".join(parts) or "0"

    def __repr__(self):
        return f"ParamPoly({self})"


def _divides(a, b) -> bool:
    """True when the monomial with exponents a divides the one with b."""
    return all(x <= y for x, y in zip(a, b))


def _reduce(p: ParamPoly, basis) -> ParamPoly:
    """Full normal form of p against a list of ParamPolys.

    Works on one mutable term dict: each step cancels the current leading
    term with the first basis element whose leading monomial divides it,
    or moves that term into the remainder.
    """
    divisors = [(*b.leading(), b.terms) for b in basis]
    work = dict(p.terms)
    remainder = {}
    while work:
        key = max(work, key=grlex_key)
        coeff = work.pop(key)
        for bkey, blc, bterms in divisors:
            if _divides(bkey, key):
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


def _spoly(f: ParamPoly, g: ParamPoly) -> ParamPoly:
    fk, fc = f.leading()
    gk, gc = g.leading()
    lcm = tuple(max(a, b) for a, b in zip(fk, gk))
    return f.shift(
        tuple(l - a for l, a in zip(lcm, fk)), fc.inverse()
    ) - g.shift(tuple(l - a for l, a in zip(lcm, gk)), gc.inverse())


class RelationIdeal(NamedTuple):
    """Generators plus the reduced Groebner basis they produce.

    The basis is the unique one of the ideal: monic, reduced and sorted by
    leading monomial, so that ideal_equals can compare it as a list.
    """

    unknowns: tuple
    generators: tuple = ()
    groebner: tuple = ()

    @property
    def is_trivial(self) -> bool:
        return not self.groebner


def groebner_basis(gens, unknowns) -> RelationIdeal:
    """Reduced Groebner basis under the frozen graded-lex order.

    Buchberger's algorithm with the product and chain criteria: the pending
    pair with the smallest lcm of leading monomials goes first (ties by
    index), a pair with coprime leading monomials is skipped, and so is a
    pair whose lcm a third leading monomial divides when that element's
    pairs with both are already treated.
    """
    unknowns = tuple(unknowns)
    if len(unknowns) > MAX_UNKNOWNS:
        raise ValueError(
            f"at most {MAX_UNKNOWNS} unknowns supported, got {len(unknowns)}"
        )
    polys = [ParamPoly.coerce(g, unknowns) for g in gens]
    polys = [p for p in polys if not p.is_zero]
    basis = []
    leads = []
    pending = set()
    heap = []

    def add(p):
        j = len(basis)
        basis.append(p.monic())
        leads.append(basis[j].leading()[0])
        for i in range(j):
            lcm = tuple(max(a, b) for a, b in zip(leads[i], leads[j]))
            heapq.heappush(heap, (grlex_key(lcm), i, j))
            pending.add((i, j))

    for p in polys:
        add(p)
    while heap:
        (_, lcm), i, j = heapq.heappop(heap)
        pending.discard((i, j))
        if all(not (a and b) for a, b in zip(leads[i], leads[j])):
            continue  # product criterion
        if any(
            k != i and k != j
            and _divides(lead, lcm)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, lead in enumerate(leads)
        ):
            continue  # chain criterion
        s = _reduce(_spoly(basis[i], basis[j]), basis)
        if not s.is_zero:
            add(s)
    # minimal basis: drop every element whose leading monomial another
    # element's divides (of equal leading monomials the first stays)
    basis = [
        b
        for i, b in enumerate(basis)
        if not any(
            _divides(lead, leads[i]) and (lead != leads[i] or k < i)
            for k, lead in enumerate(leads)
            if k != i
        )
    ]
    # the monic leading terms of a minimal basis stay put under tail
    # reduction, so one pass gives the unique reduced basis
    for i in range(len(basis)):
        basis[i] = _reduce(basis[i], basis[:i] + basis[i + 1 :])
    basis.sort(key=lambda b: grlex_key(b.leading()[0]))
    return RelationIdeal(unknowns=unknowns, generators=polys, groebner=basis)


def reduce_mod_ideal(p, ideal: RelationIdeal) -> ParamPoly:
    """Normal form of p against the ideal's Groebner basis."""
    q = ParamPoly.coerce(p, ideal.unknowns)
    if not ideal.groebner:
        return q
    return _reduce(q, ideal.groebner)


def ideal_equals(a: RelationIdeal, b: RelationIdeal) -> bool:
    """Ideal equality as equality of the reduced Groebner bases.

    The reduced, monic basis sorted by leading monomial is unique for an
    ideal, and Scalar coefficients compare as rational functions, so two
    ideals in the same unknowns are equal exactly when their bases are.
    """
    if tuple(a.unknowns) != tuple(b.unknowns):
        return False
    return list(a.groebner) == list(b.groebner)
