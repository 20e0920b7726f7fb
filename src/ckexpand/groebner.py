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

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .poly import Poly, Scalar, as_scalar

__all__ = [
    "ParamPoly",
    "RelationIdeal",
    "groebner_basis",
    "reduce_mod_ideal",
    "ideal_equals",
]

MAX_UNKNOWNS = 3


def _order_key(exps):
    return (sum(exps), exps)


class ParamPoly:
    """Polynomial in the unknowns with Scalar (parameter-field) coefficients."""

    __slots__ = ("unknowns", "terms")

    def __init__(self, unknowns, terms=None):
        self.unknowns = tuple(unknowns)
        self.terms = terms if terms is not None else {}

    @classmethod
    def zero(cls, unknowns) -> "ParamPoly":
        return cls(unknowns)

    @classmethod
    def from_poly(cls, p: Poly, unknowns) -> "ParamPoly":
        unknowns = tuple(unknowns)
        index = {u: i for i, u in enumerate(unknowns)}
        terms: dict = {}
        for mono, coeff in p.terms.items():
            exps = [0] * len(unknowns)
            rest = []
            for sym, e in mono:
                if sym in index:
                    exps[index[sym]] = e
                else:
                    rest.append((sym, e))
            key = tuple(exps)
            part = Scalar(Poly({tuple(rest): coeff}))
            acc = terms.get(key)
            terms[key] = part if acc is None else acc + part
        return cls(unknowns, {k: v for k, v in terms.items() if not v.is_zero})

    @classmethod
    def from_scalar(cls, s: Scalar, unknowns) -> "ParamPoly":
        unknowns = tuple(unknowns)
        for u in unknowns:
            if s.den.degree_in(u):
                raise ValueError(f"denominator contains the unknown {u!r}")
        body = cls.from_poly(s.num, unknowns)
        return body.scale(Scalar(Poly.const(1), s.den))

    @classmethod
    def coerce(cls, value, unknowns) -> "ParamPoly":
        if isinstance(value, ParamPoly):
            if tuple(value.unknowns) != tuple(unknowns):
                raise ValueError("unknown lists differ")
            return value
        if isinstance(value, Poly):
            return cls.from_poly(value, unknowns)
        return cls.from_scalar(as_scalar(value), unknowns)

    # -- queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading(self):
        key = max(self.terms, key=_order_key)
        return key, self.terms[key]

    def constant_part(self) -> Scalar:
        zero = (0,) * len(self.unknowns)
        return self.terms.get(zero, Scalar.zero())

    # -- arithmetic -------------------------------------------------------

    def _combine(self, other, sign) -> "ParamPoly":
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            val = terms.get(key, Scalar.zero()) + sign * coeff
            if val.is_zero:
                terms.pop(key, None)
            else:
                terms[key] = val
        return ParamPoly(self.unknowns, terms)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return ParamPoly(
            self.unknowns, {k: -v for k, v in self.terms.items()}
        )

    def scale(self, coeff) -> "ParamPoly":
        coeff = as_scalar(coeff)
        if coeff.is_zero:
            return ParamPoly(self.unknowns)
        return ParamPoly(
            self.unknowns, {k: v * coeff for k, v in self.terms.items()}
        )

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

    def __mul__(self, other):
        out = ParamPoly(self.unknowns)
        for exps, coeff in other.terms.items():
            out = out + self.shift(exps, coeff)
        return out

    def monic(self) -> "ParamPoly":
        if self.is_zero:
            return self
        _, lc = self.leading()
        return self.scale(lc.inverse())

    def __eq__(self, other):
        if not isinstance(other, ParamPoly):
            return NotImplemented
        if self.unknowns != other.unknowns:
            return False
        return (self - other).is_zero

    __hash__ = None

    def proportional_to(self, other) -> bool:
        """True when self = u * other for a nonzero parameter Scalar u."""
        other = ParamPoly.coerce(other, self.unknowns)
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        key, lc = self.leading()
        okey, olc = other.leading()
        if key != okey:
            return False
        return (self.scale(olc) - other.scale(lc)).is_zero

    def normalized(self) -> "ParamPoly":
        """Denominator-free form with content removed and positive lead.

        Used for displaying raw constraint equations: clears parameter
        denominators, strips common rational and monomial content from
        the coefficient polynomials, and fixes the sign of the leading
        coefficient.
        """
        if self.is_zero:
            return self
        result = self
        # clear parameter denominators
        for coeff in list(result.terms.values()):
            if not coeff.den.is_one:
                result = result.scale(Scalar(coeff.den))
        polys = [c.num for c in result.terms.values()]
        # common rational content
        content = polys[0].content()
        for p in polys[1:]:
            content = Fraction(
                math.gcd(content.numerator, p.content().numerator),
                math.lcm(content.denominator, p.content().denominator),
            )
        # common monomial content
        common = dict(polys[0].mono_content())
        for p in polys[1:]:
            here = dict(p.mono_content())
            common = {s: min(e, here[s]) for s, e in common.items() if s in here}
        divisor = Scalar(Poly({tuple(sorted(common.items())): content}))
        result = result.scale(divisor.inverse())
        _, lc = result.leading()
        if lc.num.leading()[1] < 0:
            result = result.scale(Scalar.const(-1))
        return result

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=_order_key, reverse=True):
            coeff = self.terms[exps]
            mono = "*".join(
                sym if e == 1 else f"{sym}^{e}"
                for sym, e in zip(self.unknowns, exps)
                if e
            )
            cstr = str(coeff)
            negative = cstr.startswith("-")
            if negative and " " not in cstr and "/" not in cstr:
                cstr = cstr[1:]
                sign = "-"
            elif negative:
                cstr = str(-coeff)
                sign = "-"
            else:
                sign = "+"
            if mono:
                body = mono if cstr == "1" else f"{_wrap(cstr)}*{mono}"
            else:
                body = cstr
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"ParamPoly({self})"


def _wrap(text: str) -> str:
    return f"({text})" if (" " in text or "/" in text) else text


def _reduce(p: ParamPoly, basis) -> ParamPoly:
    """Full normal form of p against a list of ParamPolys."""
    remainder = ParamPoly(p.unknowns)
    work = p
    while not work.is_zero:
        key, coeff = work.leading()
        hit = None
        for b in basis:
            bkey, _ = b.leading()
            if all(k >= bk for k, bk in zip(key, bkey)):
                hit = (b, bkey)
                break
        if hit is None:
            remainder = remainder + ParamPoly(p.unknowns, {key: coeff})
            work = work - ParamPoly(p.unknowns, {key: coeff})
        else:
            b, bkey = hit
            _, blc = b.leading()
            shift = tuple(k - bk for k, bk in zip(key, bkey))
            work = work - b.shift(shift, coeff / blc)
    return remainder


def _spoly(f: ParamPoly, g: ParamPoly) -> ParamPoly:
    fk, fc = f.leading()
    gk, gc = g.leading()
    lcm = tuple(max(a, b) for a, b in zip(fk, gk))
    return f.shift(
        tuple(l - a for l, a in zip(lcm, fk)), fc.inverse()
    ) - g.shift(tuple(l - a for l, a in zip(lcm, gk)), gc.inverse())


@dataclass
class RelationIdeal:
    """Generators plus the reduced Groebner basis they produce."""

    unknowns: tuple
    generators: list = field(default_factory=list)
    groebner: list = field(default_factory=list)

    @property
    def is_trivial(self) -> bool:
        return not self.groebner


def groebner_basis(gens, unknowns) -> RelationIdeal:
    """Reduced Groebner basis under the frozen graded-lex order."""
    unknowns = tuple(unknowns)
    if len(unknowns) > MAX_UNKNOWNS:
        raise ValueError(
            f"at most {MAX_UNKNOWNS} unknowns supported, got {len(unknowns)}"
        )
    polys = [ParamPoly.coerce(g, unknowns) for g in gens]
    polys = [p for p in polys if not p.is_zero]
    basis = [p.monic() for p in polys]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        s = _reduce(_spoly(basis[i], basis[j]), basis)
        if not s.is_zero:
            basis.append(s.monic())
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    # inter-reduce to the unique reduced basis
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = basis[:i] + basis[i + 1 :]
            others = [b for b in others if not b.is_zero]
            r = _reduce(basis[i], others)
            if not (r - basis[i]).is_zero:
                changed = True
            basis[i] = r.monic() if not r.is_zero else r
        basis = [b for b in basis if not b.is_zero]
    basis.sort(key=lambda b: _order_key(b.leading()[0]))
    return RelationIdeal(unknowns=unknowns, generators=polys, groebner=basis)


def reduce_mod_ideal(p, ideal: RelationIdeal) -> ParamPoly:
    """Normal form of p against the ideal's Groebner basis."""
    q = ParamPoly.coerce(p, ideal.unknowns)
    if not ideal.groebner:
        return q
    return _reduce(q, ideal.groebner)


def ideal_equals(a: RelationIdeal, b: RelationIdeal) -> bool:
    """Ideal equality via mutual reduction of the Groebner bases."""
    if tuple(a.unknowns) != tuple(b.unknowns):
        return False
    return all(reduce_mod_ideal(g, b).is_zero for g in a.groebner) and all(
        reduce_mod_ideal(g, a).is_zero for g in b.groebner
    )
