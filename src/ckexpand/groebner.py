"""Polynomial relation ideals in a few designated unknowns.

Constraint equations produced by the expansion engine are polynomials in
the unknown expansion coefficients (a1, a2) whose coefficients live in
the fraction field of the remaining parameter symbols.  This module
represents such polynomials, computes reduced Groebner bases with
Buchberger's algorithm under a frozen graded-lex order (total degree
first, then lex with the earlier unknown more significant), and reduces
polynomials to normal form.

Buchberger's pair loop is fraction-free (Becker and Weispfenning,
*Groebner Bases*, 1993): its elements keep polynomial coefficients, each
with its content divided out, and only the reduced basis is divided by
its leading coefficients, once, so that a fraction is formed only where
it is printed.  The printed raw equations (``normalized``) go through its
content rule, ``_primitive``, too.  Reduction (``_reduce``) never divides,
so normal forms (``reduce_mod_ideal``) are taken modulo a monic basis.
"""

from __future__ import annotations

import heapq
from operator import add, le, sub
from typing import NamedTuple

from .poly import (
    Poly, Scalar, TermSum, _mono_div, _quotient, add_term, as_scalar,
    exact_div, grlex_key, monomial_content, rational_content, split_symbols,
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
        """Denominator-free form with content removed and positive lead,
        for printing raw constraint equations: the content rule of the
        Buchberger loop (``_primitive``), then the sign fixed."""
        if self.is_zero:
            return self
        result = _primitive(self)
        _, lc = result.leading()
        return -result if lc.num.leading()[1] < 0 else result

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


def _divisors(basis):
    """``_reduce``'s record of each element of basis: (leading exponents,
    degree, coefficient, whether it is one, tail of (degree, exps, c))."""
    records = []
    for b in basis:
        bkey, blc = b.leading()
        tail = [(sum(e), e, c) for e, c in b.terms.items() if e != bkey]
        records.append((bkey, sum(bkey), blc, blc.is_one, tail))
    return records


def _reduce(p: ParamPoly, divisors) -> ParamPoly:
    """A polynomial multiple of the full normal form of p against the
    ``_divisors`` of a basis; the normal form itself when it is monic.

    Works on one mutable term dict keyed by (total degree, exponents), so
    the leading term is the largest key.  Each step cancels it with the
    first basis element whose leading monomial divides it or moves it into
    the remainder.  A divisor whose leading coefficient is one only
    cancels; any other multiplies the work and the remainder by its
    leading coefficient.  No step divides, so no fraction is formed, and
    an input with denominators is reduced exactly; p itself comes back
    when no step was taken.
    """
    reduced = False
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
        reduced = True
        if not monic:
            work = {k: c * blc for k, c in work.items()}
            remainder = {e: c * blc for e, c in remainder.items()}
        neg = -coeff
        shift = tuple(map(sub, exps, bkey))
        deg -= bdeg
        for tdeg, texps, c in tail:
            add_term(work, (tdeg + deg, tuple(map(add, texps, shift))), neg * c)
    return ParamPoly(p.unknowns, remainder) if reduced else p


def _spoly(f: ParamPoly, g: ParamPoly, fk, gk, lcm) -> ParamPoly:
    """S-polynomial of two ParamPolys with polynomial coefficients and
    leading monomials fk and gk, whose lcm the pair queue already holds:
    each side is multiplied by the other side's leading coefficient, so
    no fraction is formed."""
    fshift, gshift = tuple(map(sub, lcm, fk)), tuple(map(sub, lcm, gk))
    glc, neg_flc = g.terms[gk], -f.terms[fk]
    terms = {tuple(map(add, e, fshift)): c * glc for e, c in f.terms.items()}
    for e, c in g.terms.items():
        add_term(terms, tuple(map(add, e, gshift)), c * neg_flc)
    return f._like(terms)


def _content(nums):
    """(monomial, rational) content shared by the Polys nums."""
    return (monomial_content(m for n in nums for m in n.terms),
            rational_content(q for n in nums for q in n.terms.values()))


def _over_content(n: Poly, common, content) -> Poly:
    """n divided by the monomial common times the rational content."""
    return Poly({_mono_div(m, common) if common else m: _quotient(c, content)
                 for m, c in n.terms.items()})


def _primitive(p: ParamPoly) -> ParamPoly:
    """p over polynomial coefficients, divided by their content.

    Denominators are cleared one at a time, each by one p still has, so a
    repeated one is cleared once.  Then the rational and the monomial
    content go, and then the primitive part of the first coefficient with
    the fewest terms that exactly divides every coefficient; any two such
    parts are equal up to sign, so the order of the terms does not
    matter.  A polynomial content that test misses, such as a factor two
    denominators share, stays: there is no polynomial gcd (ROADMAP
    direction 4).
    """
    dens = [c.den for c in p.terms.values() if not c.den.is_one]
    while dens:
        p = p.scale(Scalar(dens[0]))
        dens = [c.den for c in p.terms.values() if not c.den.is_one]
    nums = [c.num for c in p.terms.values()]
    common, content = _content(nums)
    trivial = content == 1 and not common
    if not trivial:
        nums = [_over_content(n, common, content) for n in nums]
    fewest = min(len(n.terms) for n in nums)
    if fewest < 2 and trivial:
        return p
    for small in [n for n in nums if len(n.terms) == fewest > 1]:
        # small is its content times divisor, so its quotient is known
        common, content = _content([small])
        divisor = _over_content(small, common, content)
        quotients = []
        for n in nums:
            q = Poly({common: content}) if n is small else exact_div(n, divisor)
            if q is None:
                break
            quotients.append(q)
        else:
            nums = quotients
            break
    return p._like({e: Scalar(n) for e, n in zip(p.terms, nums)})


def _monic(b: ParamPoly) -> ParamPoly:
    """b over its leading coefficient: one Scalar(c, lc) per coefficient."""
    key, lc = b.leading()
    if lc.is_one:
        return b
    one = Scalar.one()
    return b._like({e: one if e == key else Scalar(c.num, lc.num)
                    for e, c in b.terms.items()})


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

    The loop is fraction-free.  An input is reduced as given, with any
    denominators it has, S-polynomials and reductions multiply by leading
    coefficients instead of dividing by them, and every new element loses
    its denominators and its content (``_primitive``).  The minimal basis
    is tail-reduced the same way, and then each element is divided by its
    leading coefficient once, one ``Scalar(c, lc)`` per coefficient.
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
        basis.append(_primitive(p))
        leads.append(basis[j].leading()[0])
        for i in range(j):
            lcm = tuple(map(max, leads[i], leads[j]))
            if sum(lcm) < sum(leads[i]) + sum(leads[j]):  # not coprime
                heapq.heappush(heap, (grlex_key(lcm), i, j))

    for p in polys:
        # p and its remainder generate the same ideal together with the
        # basis so far, and a zero remainder adds nothing
        if basis:
            p = _reduce(p, _divisors(basis))
        if not p.is_zero:
            add(p)
    while heap:
        (_, lcm), i, j = heapq.heappop(heap)
        s = _spoly(basis[i], basis[j], leads[i], leads[j], lcm)
        s = _reduce(s, _divisors(basis))
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
    # the leading terms of a minimal basis stay put under tail reduction,
    # so one pass and one division by each leading coefficient give the
    # unique reduced basis
    for i, b in enumerate(basis):
        r = _reduce(b, _divisors(basis[:i] + basis[i + 1 :]))
        basis[i] = r if r is b else _primitive(r)
    basis = sorted(map(_monic, basis), key=lambda b: grlex_key(b.leading()[0]))
    return RelationIdeal(unknowns=unknowns, generators=polys, groebner=basis)


def reduce_mod_ideal(p, ideal: RelationIdeal) -> ParamPoly:
    """Normal form of p against the ideal's Groebner basis, which must be
    monic, as ``groebner_basis`` makes it: ``_reduce`` never divides."""
    divisors = _divisors(ideal.groebner)
    for b, (_, _, _, monic, _) in zip(ideal.groebner, divisors):
        if not monic:
            raise ValueError(f"basis element {b} is not monic")
    return _reduce(ParamPoly.coerce(p, ideal.unknowns), divisors)


def ideal_equals(a: RelationIdeal, b: RelationIdeal) -> bool:
    """Ideal equality as equality of the reduced Groebner bases.

    The reduced, monic basis sorted by leading monomial is unique for an
    ideal, and Scalar coefficients compare as rational functions, so two
    ideals in the same unknowns are equal exactly when their bases are.
    """
    if tuple(a.unknowns) != tuple(b.unknowns):
        return False
    return list(a.groebner) == list(b.groebner)
