"""Exact coefficient arithmetic.

Multivariate polynomials over arbitrary-precision rationals and fractions
of such polynomials.  These are the coefficient domain for everything
else: bracket tables, enveloping-algebra elements and constraint ideals.

Monomials are packed ints (``kernel``): the total degree in the lowest
field, then one field per symbol at the slot ``_slot`` gives a name when
it is first seen.  That table holds names only, and its order never
shows: ``_exponents`` unpacks a monomial in name order, the one order of
``Poly.leading``, the printed terms and ``variables()``.  Coefficients
are ``int`` when integral, else ``Rational``, a slotted p/q whose every
operation gives an ``int`` when integral.  Almost every coefficient the
engine meets is an integer, and ``int`` arithmetic is many times cheaper
than any fraction's.  A number from outside becomes a coefficient in
``_coeff`` alone, behind ``Poly.const``, ``Poly.scale``, ``Scalar.const``
and ``as_scalar``; floats are refused there.  Past it no code makes or
compares a ``fractions.Fraction``: its arithmetic goes through the
``numbers`` ABCs and properties at three to five times the cost, and
importing it loads ``decimal`` on every cold start.  ``Poly``'s +, - and
* take only Polys.  Polynomial values are immutable after
construction and canonical, so equality is structural.
Fractions (``Scalar``) are normalized by monomial and rational content
(``monomial_content`` and ``rational_content``, the one content rule),
with full cancellation applied only when one side exactly divides the
other: there is no polynomial gcd, so the form is not canonical and
equality is defined by cross-multiplication.  A Scalar whose value is a
polynomial holds the shared ``ONE`` as its denominator, and only such a
Scalar does; a constant carries its rational ``value``.  ``_build`` is
the one constructor of a Scalar in that form, and ``_settle`` the one
rule that brings another pair into it.  ``den is ONE`` picks the path:
a sum or product of two polynomials is one ``terms_add`` or ``terms_mul``
of the numerators, constant arithmetic skips the polynomials, and only a
real denominator takes the fraction rules.  A product with the shared
``ONE`` is the other factor, so a fraction's products and sums with
polynomials multiply only numerators and share its denominator.
To keep shared factors from swelling, a sum goes over the larger
denominator when one divides the other, and a product first cancels each
numerator against the other denominator where one divides the other.
``exact_div`` is the one polynomial long division, and the one test of
whether one side divides the other; a pair that needs both directions
calls it twice.  Scalar arithmetic tries it only when both polynomials
have two or more terms: once the monomial content is out, a one-term side
divides nothing or is a constant, which the rational content takes out.
Every real denominator has content 1 and a positive leading coefficient,
and by Gauss's lemma so has a product of them, also with a shared
monomial divided out; so a sum or product whose denominator no division
replaced skips that content and sign pass (``_over``).

The rest of the engine keeps sparse sums with ``Scalar`` coefficients in
plain dicts: enveloping-algebra elements and span rows keyed by exponent
vectors, bracket combinations keyed by generator index, constraint
polynomials keyed by exponents in the unknowns.  Such a term dict never
holds a zero coefficient, and ``add_term`` is the one place that keeps
it so.  Exponent vectors are ordered by ``grlex_key``: total degree
first, then lexicographically.  ``split_symbols`` is the one way to
split a Scalar into such a dict of monomials over chosen symbols.
``TermSum`` is the one arithmetic and sign-printing core of the two
term-dict classes, enveloping-algebra elements and constraint
polynomials.
"""

from __future__ import annotations

import re
from functools import total_ordering
from math import gcd, lcm

from .kernel import BITS, CARRY, terms_add, terms_mul, terms_neg, terms_scale

__all__ = [
    "Poly",
    "Rational",
    "SYMBOL",
    "Scalar",
    "ScalarDivisionError",
    "TermSum",
    "add_term",
    "as_scalar",
    "exact_div",
    "grlex_key",
    "monomial_content",
    "parse_scalar",
    "rational_content",
    "split_symbols",
]


class ScalarDivisionError(ZeroDivisionError):
    """Division by a zero polynomial fraction."""


_FIELD = CARRY - 1  # the exponent bits of a field
_SLOTS = {}  # symbol name -> bit offset of its field, in order first seen
_NAMED = []  # (name, offset) of each slot, sorted by name
_GUARDS = CARRY  # the guard bit of every field in use


def _slot(name):
    """The bit offset of name's field; a new name takes the next one."""
    global _GUARDS
    shift = _SLOTS.get(name)
    if shift is None:
        shift = _SLOTS[name] = BITS * (len(_SLOTS) + 1)
        _NAMED.append((name, shift))
        _NAMED.sort()
        _GUARDS |= CARRY << shift
    return shift


def _exponents(mono):
    """mono unpacked as (total degree, exponent of each symbol in name
    order): such keys compare in graded-lex order by symbol name."""
    return (mono & _FIELD, *[mono >> s & _FIELD for _, s in _NAMED])


def _pairs(mono):
    """The (symbol, exponent) pairs of mono, in name order."""
    return [(sym, e) for (sym, _), e in zip(_NAMED, _exponents(mono)[1:]) if e]


def grlex_key(exps):
    """Graded-lex sort key of an exponent vector: total degree, then lex."""
    return (sum(exps), exps)


@total_ordering
class Rational:
    """p/q in lowest terms with q > 1: a coefficient that is not an int.

    The constructor takes such a pair as it is; ``_ratio`` reduces any
    pair.  +, - and * take an int or a Rational on either side and give
    an int when the result is integral; the engine divides with
    ``_quotient``.  A Rational is never zero, equals only an equal
    Rational (it is never integral, so never an int) and is ordered
    against ints and Rationals.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator, self.denominator = numerator, denominator

    def __add__(self, other):
        if not isinstance(other, (int, Rational)):
            return NotImplemented
        m, e = other.numerator, other.denominator
        n, d = self.numerator, self.denominator
        g = gcd(d, e)
        return _ratio(n * (e // g) + m * (d // g), d // g * e)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, (int, Rational)):
            return NotImplemented
        m, e = other.numerator, other.denominator
        n, d = self.numerator, self.denominator
        g1, g2 = gcd(n, e), gcd(m, d)
        n, d = (n // g1) * (m // g2), (d // g2) * (e // g1)
        return n if d == 1 else Rational(n, d)

    __rmul__ = __mul__

    def __neg__(self):
        return Rational(-self.numerator, self.denominator)

    def __abs__(self):
        return Rational(abs(self.numerator), self.denominator)

    def __eq__(self, other):
        if type(other) is not Rational:
            return NotImplemented  # never integral, so never an int
        return (self.numerator == other.numerator
                and self.denominator == other.denominator)

    def __lt__(self, other):
        # an int or a Rational only, as for ==: ordering against a
        # Fraction that == refuses would make <= disagree with < or ==
        if not isinstance(other, (int, Rational)):
            return NotImplemented
        return (self.numerator * other.denominator
                < other.numerator * self.denominator)

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    def __str__(self):
        return f"{self.numerator}/{self.denominator}"

    def __repr__(self):
        return f"Rational({self.numerator}, {self.denominator})"


def _ratio(n: int, d: int):
    """n/d: an int when d divides n, else a Rational."""
    if not d:
        raise ZeroDivisionError(f"division of {n} by zero")
    g = gcd(n, d) if d > 0 else -gcd(n, d)
    return n // g if d == g else Rational(n // g, d // g)


def _quotient(a, b):
    """a/b for ints or Rationals a and b."""
    return _ratio(a.numerator * b.denominator, a.denominator * b.numerator)


def _coeff(q):
    """q as an exact coefficient: an int when integral, else a Rational.

    An int or a Rational is kept, and anything with int ``numerator`` and
    ``denominator`` (a bool, a ``fractions.Fraction``) reduced.  Text n or
    n/d is read here, any other text and ``Decimal`` as ``Fraction`` reads
    them, imported only for them.  Floats are refused.
    """
    if type(q) is int or type(q) is Rational:
        return q
    n, d = getattr(q, "numerator", None), getattr(q, "denominator", None)
    if type(n) is int and type(d) is int:
        return _ratio(n, d)
    if isinstance(q, float):
        raise TypeError(f"inexact coefficient {q!r}: use an int or a Fraction")
    if isinstance(q, str):
        num, slash, den = q.partition("/")
        digits = num[1:] if num[:1] in ("+", "-") else num
        if digits.isdecimal() and (den.isdecimal() or not slash):
            return _ratio(int(num), int(den or 1))
    from fractions import Fraction

    q = Fraction(q)
    return _ratio(q.numerator, q.denominator)


def rational_content(coeffs):
    """Positive rational content of coeffs: the gcd of the numerators over
    the lcm of the denominators; 1 when there are none."""
    num = 0
    den = 1
    for coeff in coeffs:
        num = gcd(num, coeff.numerator)
        den = lcm(den, coeff.denominator)
    return _ratio(num, den) if num else 1


def monomial_content(monos):
    """Largest monomial dividing every monomial of monos; 0 when none.
    Only a monomial that the running content does not divide cuts it
    down: the guard bits mark the fields where the content is not the
    smaller, those are taken from the monomial, and the sum of the
    exponents so chosen is the new degree field."""
    it = iter(monos)
    common = next(it, 0)
    for mono in it:
        if not common:
            break
        if (mono - common) & _GUARDS:
            ge = ((common | _GUARDS) - mono) & _GUARDS
            low = ge - (ge >> (BITS - 1))
            common = (mono & low | common & ~low) >> BITS
            degree, rest = 0, common
            while rest:
                degree += rest & _FIELD
                rest >>= BITS
            common = common << BITS | degree
    return common


_ONE_TERMS = {0: 1}


class Poly:
    """A multivariate polynomial with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms is assumed canonical: no zero coefficients, int or Rational
        # values (see _coeff)
        self.terms = terms if terms is not None else {}

    @classmethod
    def const(cls, value) -> "Poly":
        q = _coeff(value)
        return cls({0: q} if q else {})

    @classmethod
    def symbol(cls, name: str) -> "Poly":
        return cls({(1 << _slot(name)) + 1: 1})

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        return self.terms == _ONE_TERMS

    def variables(self):
        seen = 0
        for mono in self.terms:
            seen |= mono
        return tuple([sym for sym, s in _NAMED if seen >> s & _FIELD])

    def content(self):
        """Positive rational content (gcd of all coefficients)."""
        return rational_content(self.terms.values())

    def leading(self):
        """(monomial, coefficient) of the graded-lex leading term."""
        mono = max(self.terms, key=_exponents)
        return mono, self.terms[mono]

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(terms_add(self.terms, other.terms))

    def __neg__(self):
        return Poly(terms_neg(self.terms))

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(terms_add(self.terms, terms_neg(other.terms)))

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if self is ONE or other is ONE:  # a Poly is immutable
            return other if self is ONE else self
        return Poly(terms_mul(self.terms, other.terms))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result, base = ONE, self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, q) -> "Poly":
        return Poly(terms_scale(self.terms, _coeff(q)))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def substitute(self, mapping) -> "Scalar":
        """Replace symbols by values, each read by ``as_scalar``."""
        total = Scalar.zero()
        for mono, coeff in self.terms.items():
            piece = Scalar.const(coeff)
            for sym, exp in _pairs(mono):
                if sym in mapping:
                    val = as_scalar(mapping[sym])
                else:
                    val = Scalar.symbol(sym)
                for _ in range(exp):
                    piece = piece * val
            total = total + piece
        return total

    # -- printing ---------------------------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _exponents(kv[0]),
                      reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self._sorted_terms():
            factors = []
            if abs(coeff) != 1 or not mono:
                factors.append(str(abs(coeff)))
            for sym, exp in _pairs(mono):
                factors.append(sym if exp == 1 else f"{sym}^{exp}")
            body = "*".join(factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


ZERO = Poly()
ONE = Poly.const(1)


def _mono_div(mono, content):
    return mono - content


def exact_div(a: Poly, b: Poly):
    """Exact quotient a/b as a Poly, or None when b does not divide a.

    The one polynomial long division, in the plain int order of packed
    monomials: lex by slot, an admissible order, under which an exact
    quotient is the one of any other.  Each step divides the largest
    remaining term by the leading term of b.  A quotient monomial with a
    guard bit set means that b does not divide a, and it is also what ends
    the loop: the largest remainder monomial only goes down.  There is no
    monomial fast path: a monomial divisor just leaves no tail.
    """
    if b.is_zero:
        raise ScalarDivisionError("division by the zero polynomial")
    if a.is_zero:
        return ZERO
    lead = max(b.terms)
    bc = b.terms[lead]
    tail = [(m, c) for m, c in b.terms.items() if m != lead]
    exact = type(bc) is int
    rem = dict(a.terms)
    quot = {}
    while rem:
        mono = max(rem)
        c = rem.pop(mono)
        q = mono - lead
        if q & _GUARDS:
            return None
        if exact and type(c) is int and not c % bc:
            qc = c // bc
        else:
            qc = _quotient(c, bc)
        quot[q] = qc
        for m, tc in tail:
            k = m + q
            x = rem.get(k, 0) - qc * tc
            if x:
                rem[k] = x
            else:
                rem.pop(k, None)
    return Poly(quot)


def _cancel(num: Poly, den: Poly):
    """(num, den) with whichever side exactly divides the other divided
    out: num by den first, then den by num.

    Only a pair of two polynomials of two or more terms is tried: the
    callers have removed the common monomial content (or leave it to
    ``_unshared`` later), after which a one-term side either divides
    nothing or is a constant, and ``_settle`` divides out a constant.
    """
    if len(num.terms) < 2 or len(den.terms) < 2:
        return num, den
    q = exact_div(num, den)
    if q is not None:
        return q, ONE
    q = exact_div(den, num)
    if q is not None:
        return ONE, q
    return num, den


def _value(terms):
    """The rational value of a constant polynomial's terms, else None."""
    if len(terms) == 1:
        return terms.get(0)
    return None if terms else 0


def _build(num: Poly, den: Poly, value) -> "Scalar":
    """The Scalar num/den of a pair already in the normal form that
    Scalar describes; the caller passes the value of a constant."""
    out = Scalar.__new__(Scalar)
    out.num = num
    out.den = den
    out.value = value
    return out


def _unshared(num: Poly, den: Poly):
    """num and den with the monomial content they share divided out."""
    common = monomial_content([*num.terms, *den.terms])
    if not common:
        return num, den
    return tuple(Poly({m - common: c for m, c in p.terms.items()})
                 for p in (num, den))


def _over(num: Poly, den: Poly) -> "Scalar":
    """The Scalar num/den, for a den that is a product of one or more
    Scalar denominators.

    Such a den has content 1 and a positive leading coefficient: by Gauss's
    lemma a product of primitive integer polynomials is primitive, and
    lt(f*g) = lt(f)*lt(g).  Dividing out a shared monomial keeps both, so
    unless ``_cancel`` replaces den by a quotient, the content and sign
    pass of ``_settle`` would change nothing and is skipped.
    """
    if not num.terms:
        return _constant(0)
    num, den = _unshared(num, den)
    num, cut = _cancel(num, den)
    if cut is not den:
        return Scalar(num, cut)
    if den.is_one:
        return _build(num, ONE, _value(num.terms))
    return _build(num, den, None)


def _constant(q) -> "Scalar":
    """The Scalar of the int or Rational q."""
    return _build(Poly({0: q}) if q else ZERO, ONE, q)


class Scalar:
    """A fraction of two polynomials; the universal coefficient domain.

    ``value`` is the rational value of a constant, an int when integral
    and else a Rational, and None for any other Scalar, so constant
    arithmetic never reaches the polynomials.  ``den`` is the shared
    ``ONE`` exactly when the value is a polynomial.
    """

    __slots__ = ("num", "den", "value")

    def __init__(self, num: Poly, den: Poly = ONE):
        if den.is_zero:
            raise ScalarDivisionError("zero denominator")
        if not num.terms:
            den = ONE
        elif not den.is_one:
            num, den = _cancel(*_unshared(num, den))
        self._settle(num, den)

    def _settle(self, num: Poly, den: Poly):
        # denominator content 1 with positive leading coefficient; a
        # denominator 1 leaves a polynomial
        if not den.is_one:
            c = den.content()
            terms = den.terms
            lead = (next(iter(terms.values())) if len(terms) == 1
                    else den.leading()[1])
            if lead < 0:
                c = -c
            if c != 1:
                c = _quotient(1, c)
                num = num.scale(c)
                den = den.scale(c)
        self.num = num
        self.den = ONE if den.is_one else den
        self.value = _value(num.terms) if den.is_one else None

    @classmethod
    def zero(cls) -> "Scalar":
        return _constant(0)

    @classmethod
    def one(cls) -> "Scalar":
        return _constant(1)

    @classmethod
    def const(cls, value) -> "Scalar":
        return _constant(_coeff(value))

    @classmethod
    def symbol(cls, name: str) -> "Scalar":
        return cls(Poly.symbol(name))

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def is_one(self) -> bool:
        return self.value == 1

    def _sum(self, other, negate):
        if not isinstance(other, Scalar):
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        p, q = self.value, other.value
        if p is not None and q is not None:
            return _constant(p - q if negate else p + q)
        ad, bd = self.den, other.den
        if ad is ONE and bd is ONE:
            b = other.num.terms
            terms = terms_add(self.num.terms, terms_neg(b) if negate else b)
            return _build(Poly(terms), ONE, _value(terms))
        a, b = self.num, -other.num if negate else other.num
        if ad == bd:
            return _over(a + b, ad)
        # over the larger denominator when one divides the other; a
        # one-term denominator is a monomial that _over takes out of the
        # cross product again
        if len(ad.terms) > 1 and len(bd.terms) > 1:
            q = exact_div(bd, ad)
            if q is not None:
                return _over(a * q + b, bd)
            q = exact_div(ad, bd)
            if q is not None:
                return _over(a + b * q, ad)
        return _over(a * bd + b * ad, ad * bd)

    def __add__(self, other):
        return self._sum(other, False)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, True)

    def __neg__(self):
        # negation keeps a normalized (num, den) normalized
        q = self.value
        return _build(-self.num, self.den, None if q is None else -q)

    def _scaled(self, q):
        # a nonzero constant changes neither the monomial content nor
        # whether one side divides the other, and the denominator already
        # has content 1 and a positive leading coefficient: only the
        # numerator moves
        if q == 1:
            return self
        if q == -1:
            return -self
        if not q:
            return _constant(0)
        return _build(Poly(terms_scale(self.num.terms, q)), self.den, None)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            other = _operand(other)
            if other is NotImplemented:
                return NotImplemented
        p, q = self.value, other.value
        if q is not None:
            return self._scaled(q) if p is None else _constant(p * q)
        if p is not None:
            return other._scaled(p)
        a, b, c, d = self.num, self.den, other.num, other.den
        if b is not ONE or d is not ONE:
            # cancel each numerator against the other side's denominator
            # first; _cancel gives ONE for a denominator it divides away
            a, d = _cancel(a, d)
            c, b = _cancel(c, b)
        if b is ONE and d is ONE:
            terms = terms_mul(a.terms, c.terms)
            return _build(Poly(terms), ONE, _value(terms))
        if b in (self.den, ONE) and d in (other.den, ONE):
            return _over(a * c, b * d)
        # a denominator that a numerator divided is now their quotient,
        # which may have any content and sign
        return Scalar(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return (self ** (-n)).inverse()
        return _over(self.num**n, self.den**n)

    def inverse(self) -> "Scalar":
        """1/self: the normalized pair swapped, with content and sign fixed."""
        if self.is_zero:
            raise ScalarDivisionError("division by zero")
        if self.value is not None:
            return _constant(_quotient(1, self.value))
        out = Scalar.__new__(Scalar)
        out._settle(self.den, self.num)
        return out

    def __eq__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        # cross-multiplying, structural as Poly is canonical; ONE * p is p
        return self.num * other.den == other.num * self.den

    # equality is by cross-multiplication, which the normalized
    # representation does not make unique, so Scalars are unhashable
    __hash__ = None

    def substitute(self, mapping) -> "Scalar":
        return self.num.substitute(mapping) / self.den.substitute(mapping)

    def variables(self):
        return tuple(
            sorted(set(self.num.variables()) | set(self.den.variables()))
        )

    def __str__(self):
        if self.den.is_one:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"Scalar({self})"


def add_term(terms, key, coeff):
    """Add the Scalar coeff into terms[key]; a zero sum deletes the key."""
    acc = terms.get(key)
    if acc is not None:
        coeff = acc + coeff
    if coeff.is_zero:
        terms.pop(key, None)
    else:
        terms[key] = coeff


class TermSum:
    """A sparse sum {exponent vector: Scalar} over named symbols.

    A subclass names its symbols in ``labels`` and supplies ``_like(terms)``,
    a sum over the same symbols, and ``_check(other)``, which raises when
    ``other`` may not be combined with it.
    """

    __slots__ = ("terms",)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """The largest total degree of a term; -1 for zero."""
        if not self.terms:
            return -1
        return max(sum(exps) for exps in self.terms)

    def _sum(self, other, negate):
        # one dict copy: a difference does not build -other first
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            add_term(terms, exps, -coeff if negate else coeff)
        return self._like(terms)

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()})

    def scale(self, coeff):
        coeff = as_scalar(coeff)
        if coeff.is_zero:
            return self._like({})
        return self._like({e: c * coeff for e, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.labels == other.labels and self.terms == other.terms

    __hash__ = None

    def _signed_terms(self, sep):
        """(lead, coefficient text, monomial text) from the leading term down.

        lead is "" or "-" on the first term and " + " or " - " after it.  A
        bare negative coefficient loses its "-"; any other negative one is
        printed as str(-coeff).  Monomials join their factors with sep.
        """
        order = sorted(self.terms, key=grlex_key, reverse=True)
        for n, exps in enumerate(order):
            coeff = self.terms[exps]
            cstr = str(coeff)
            negative = cstr.startswith("-")
            if negative:
                bare = " " not in cstr and "/" not in cstr
                cstr = cstr[1:] if bare else str(-coeff)
            if n:
                lead = " - " if negative else " + "
            else:
                lead = "-" if negative else ""
            mono = sep.join(
                lab if e == 1 else f"{lab}^{e}"
                for lab, e in zip(self.labels, exps)
                if e
            )
            yield lead, cstr, mono


def split_symbols(value: Scalar, symbols) -> dict:
    """Split a Scalar into monomials over ``symbols``.

    Returns {exponents: coefficient}: each exponent tuple follows the order
    of ``symbols``, and its coefficient is the Scalar, free of them, that
    its numerator terms leave over the denominator of value.  A symbol in
    the denominator raises ValueError.
    """
    index = {s: _slot(s) for s in symbols}
    for sym in value.den.variables():
        if sym in index:
            raise ValueError(f"{sym!r} appears in a denominator: {value}")
    groups: dict = {}
    for mono, coeff in value.num.terms.items():
        exps = tuple([mono >> s & _FIELD for s in index.values()])
        mono -= sum([(e << s) + e for e, s in zip(exps, index.values())])
        groups.setdefault(exps, {})[mono] = coeff
    den = value.den
    return {
        exps: _build(Poly(terms), ONE, _value(terms)) if den is ONE
        else _over(Poly(terms), den)
        for exps, terms in groups.items()
    }


def as_scalar(value):
    """Coerce a Scalar, a Poly, an expression string or a number (read by
    ``_coeff``) to Scalar; refuse any other value, naming it, without
    importing ``fractions``."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, Poly):
        return Scalar(value)
    if isinstance(value, str):
        return parse_scalar(value)
    if hasattr(value, "numerator") or hasattr(value, "as_integer_ratio"):
        return Scalar.const(value)
    raise TypeError(f"cannot use {value!r} as a coefficient")


def _operand(value):
    """as_scalar(value) for a Scalar operator, NotImplemented where it
    refuses, so that Python tries the other operand's method."""
    try:
        return as_scalar(value)
    except TypeError:
        return NotImplemented


# -- expression parsing ----------------------------------------------------

# a symbol of the expression grammar: generator labels and parameters too
SYMBOL = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(
    rf"\s*(?:(?P<int>\d+)|(?P<sym>{SYMBOL.pattern})|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].lstrip()
            if rest:
                raise ValueError(
                    f"bad character {rest[0]!r} at position "
                    f"{len(text) - len(rest) + 1} of expression {text!r}")
            break
        pos = m.end()
        if m.lastgroup == "int":
            tokens.append(("int", int(m.group("int"))))
        elif m.lastgroup == "sym":
            tokens.append(("sym", m.group("sym")))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        self.pos += 1
        return tok

    def expr(self) -> Scalar:
        value = self.term()
        while True:
            tok = self.peek()
            if tok == ("op", "+"):
                self.take()
                value = value + self.term()
            elif tok == ("op", "-"):
                self.take()
                value = value - self.term()
            else:
                return value

    def term(self) -> Scalar:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok == ("op", "*"):
                self.take()
                value = value * self.factor()
            elif tok == ("op", "/"):
                self.take()
                value = value / self.factor()
            elif tok is not None and (tok[0] == "sym" or tok == ("op", "(")):
                # juxtaposition multiplies: "2 H P1" is 2*H*P1
                value = value * self.factor()
            else:
                return value

    def factor(self) -> Scalar:
        tok = self.peek()
        if tok == ("op", "-"):
            self.take()
            return -self.factor()
        value = self.primary()
        if self.peek() == ("op", "^"):
            self.take()
            kind, n = self.take()
            neg = False
            if (kind, n) == ("op", "-"):
                neg = True
                kind, n = self.take()
            if kind != "int":
                raise ValueError("exponent must be an integer")
            return value ** (-n if neg else n)
        return value

    def primary(self) -> Scalar:
        kind, value = self.take()
        if kind == "int":
            return Scalar.const(value)
        if kind == "sym":
            return Scalar.symbol(value)
        if (kind, value) == ("op", "("):
            inner = self.expr()
            if self.take() != ("op", ")"):
                raise ValueError("missing closing parenthesis")
            return inner
        raise ValueError(f"unexpected token {value!r}")


def parse_scalar(text: str) -> Scalar:
    """Parse an expression in +, -, *, /, ^, integers and symbols."""
    parser = _Parser(_tokenize(text))
    value = parser.expr()
    if parser.peek() is not None:
        raise ValueError(f"trailing input in expression: {text!r}")
    return value
