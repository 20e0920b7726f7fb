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
from operator import add, le, sub
from typing import NamedTuple

from .poly import (
    Poly, Scalar, TermSum, add_term, as_scalar, grlex_key, monomial_content,
    rational_content, split_symbols,
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

    def shift(self, exps) -> "ParamPoly":
        """Multiply by the unknown monomial with exponents exps."""
        return ParamPoly(
            self.unknowns,
            {
                tuple(a + b for a, b in zip(k, exps)): v
                for k, v in self.terms.items()
            },
        )

    def monic(self) -> "ParamPoly":
        if self.is_zero:
            return self
        key, lc = self.leading()
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
        nums = [c.num.terms for c in result.terms.values()]
        content = rational_content(q for t in nums for q in t.values())
        common = monomial_content(m for t in nums for m in t)
        divisor = Scalar(Poly({common: content}))
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


def _reduce(p: ParamPoly, basis) -> ParamPoly:
    """Full normal form of p against a list of ParamPolys.

    Works on one mutable term dict keyed by (total degree, exponents), so
    the leading term is the largest key.  Each step cancels it with the
    first basis element whose leading monomial divides it (tails are read
    once per call; a leading coefficient one is not divided by) or moves
    it into the remainder.
    """
    divisors = []
    for b in basis:
        bkey, blc = b.leading()
        tail = [(sum(e), e, c) for e, c in b.terms.items() if e != bkey]
        divisors.append((bkey, sum(bkey), blc, blc.is_one, tail))
    work = {(sum(e), e): c for e, c in p.terms.items()}
    remainder = {}
    while work:
        deg, exps = key = max(work)
        coeff = work.pop(key)
        for bkey, bdeg, blc, monic, tail in divisors:
            if all(map(le, bkey, exps)):
                break
        else:
            remainder[exps] = coeff
            continue
        neg = -coeff if monic else -(coeff / blc)
        shift = tuple(map(sub, exps, bkey))
        deg -= bdeg
        for tdeg, texps, c in tail:
            add_term(work, (tdeg + deg, tuple(map(add, texps, shift))), neg * c)
    return ParamPoly(p.unknowns, remainder)


def _spoly(f: ParamPoly, g: ParamPoly, fk, gk, lcm) -> ParamPoly:
    """S-polynomial of two monic ParamPolys (every basis element is) with
    leading monomials fk and gk, whose lcm the pair queue already holds."""
    return f.shift(tuple(map(sub, lcm, fk))) - g.shift(tuple(map(sub, lcm, gk)))


class RelationIdeal(NamedTuple):
    """Generators plus the reduced Groebner basis they produce.

    The basis is the unique one of the ideal: monic, reduced and sorted by
    leading monomial, so that ideal_equals can compare it as a list.
    """

    unknowns: tuple
    generators: tuple = ()
    groebner: tuple = ()


def groebner_basis(gens, unknowns) -> RelationIdeal:
    """Reduced Groebner basis under the frozen graded-lex order.

    Buchberger's algorithm with the product criterion.  Each input
    generator is first reduced against the basis built so far and dropped
    when it reduces to zero, so a generator that lies in the ideal of the
    earlier ones forms no S-pair.  A pair is formed once, with the lcm of
    its leading monomials, and never queued when they are coprime, that
    is when the lcm's degree is the sum of theirs.  The pending pair with
    the smallest lcm goes first (ties by index).  ``generators`` keeps
    every nonzero input.
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
    heap = []

    def add(p):
        j = len(basis)
        basis.append(p.monic())
        leads.append(basis[j].leading()[0])
        for i in range(j):
            lcm = tuple(map(max, leads[i], leads[j]))
            if sum(lcm) < sum(leads[i]) + sum(leads[j]):  # not coprime
                heapq.heappush(heap, (grlex_key(lcm), i, j))

    for p in polys:
        # p and its remainder generate the same ideal together with the
        # basis so far, and a zero remainder adds nothing
        if basis:
            p = _reduce(p, basis)
        if not p.is_zero:
            add(p)
    while heap:
        (_, lcm), i, j = heapq.heappop(heap)
        s = _reduce(_spoly(basis[i], basis[j], leads[i], leads[j], lcm), basis)
        if not s.is_zero:
            add(s)
    # minimal basis: drop every element whose leading monomial another
    # element's divides (of equal leading monomials the first stays)
    basis = [
        b
        for i, b in enumerate(basis)
        if not any(
            all(map(le, lead, leads[i])) and (lead != leads[i] or k < i)
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
    return _reduce(ParamPoly.coerce(p, ideal.unknowns), ideal.groebner)


def ideal_equals(a: RelationIdeal, b: RelationIdeal) -> bool:
    """Ideal equality as equality of the reduced Groebner bases.

    The reduced, monic basis sorted by leading monomial is unique for an
    ideal, and Scalar coefficients compare as rational functions, so two
    ideals in the same unknowns are equal exactly when their bases are.
    """
    if tuple(a.unknowns) != tuple(b.unknowns):
        return False
    return list(a.groebner) == list(b.groebner)
