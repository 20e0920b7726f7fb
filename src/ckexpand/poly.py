"""Exact coefficient arithmetic.

Multivariate polynomials over arbitrary-precision rationals and fractions
of such polynomials.  These are the coefficient domain for everything
else: bracket tables, enveloping-algebra elements and constraint ideals.

Monomials are sparse tuples of ``(symbol, exponent)`` pairs sorted by
symbol; coefficients are ``int`` when integral, else
``fractions.Fraction``.  Almost every coefficient the engine meets is an
integer, and ``int`` arithmetic is many times cheaper than ``Fraction``
arithmetic; ``Fraction(2) == 2`` and the two hash equally, so either form
of an integral value compares and prints the same.  Floats are refused.
Polynomial values are immutable after construction and canonical, so
equality is structural.
Fractions (``Scalar``) are normalized by monomial and rational content,
with full cancellation applied only when one side exactly divides the
other: there is no polynomial gcd, so the form is not canonical and
equality is defined by cross-multiplication.  A Scalar whose value is a
polynomial holds the shared ``ONE`` as its denominator, and only such a
Scalar does, so ``den is ONE`` picks the path: a sum or product of two
polynomials is one ``terms_add`` or ``terms_mul`` of the numerators,
already normal, and only a real denominator takes the fraction rules.
To keep shared factors from swelling, a sum goes over the larger
denominator when one divides the other, and a product first cancels each
numerator against the other denominator where one divides the other.
Such a division is tried only when both polynomials have two or more
terms: once the monomial content is out, a one-term side divides nothing
or is a constant, which the rational content takes out.  A constant
carries its rational ``value``, so constant arithmetic skips the
polynomials.

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

import math
import re
from fractions import Fraction
from operator import add, gt, sub

from .kernel import terms_add, terms_mul, terms_neg, terms_scale

__all__ = [
    "Poly",
    "Scalar",
    "ScalarDivisionError",
    "TermSum",
    "add_term",
    "as_scalar",
    "exact_div",
    "grlex_key",
    "parse_scalar",
    "split_symbols",
]


class ScalarDivisionError(ZeroDivisionError):
    """Division by a zero polynomial fraction."""


def _dense(mono, frame_index):
    vec = [0] * len(frame_index)
    for sym, exp in mono:
        vec[frame_index[sym]] = exp
    return tuple(vec)


def _graded(mono, index):
    """mono as (total degree, exponents in the frame of index), with index
    counting from 1: such keys compare in graded-lex order and add under
    multiplication."""
    key = [0] * (len(index) + 1)
    for sym, exp in mono:
        key[index[sym]] = exp
        key[0] += exp
    return tuple(key)


def grlex_key(exps):
    """Graded-lex sort key of an exponent vector: total degree, then lex."""
    return (sum(exps), exps)


def _coeff(q):
    """q as an exact coefficient: an int when integral, else a Fraction."""
    if type(q) is int:
        return q
    if type(q) is not Fraction:
        if isinstance(q, float):
            raise TypeError(
                f"inexact coefficient {q!r}: use an int or a Fraction"
            )
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


_ONE_TERMS = {(): 1}


class Poly:
    """A multivariate polynomial with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms is assumed canonical: no zero coefficients, int or Fraction
        # values (see _coeff)
        self.terms = terms if terms is not None else {}

    @classmethod
    def const(cls, value) -> "Poly":
        q = _coeff(value)
        return cls({(): q} if q else {})

    @classmethod
    def symbol(cls, name: str) -> "Poly":
        return cls({((name, 1),): 1})

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        return self.terms == _ONE_TERMS

    def variables(self):
        seen = set()
        for mono in self.terms:
            for s, _ in mono:
                seen.add(s)
        return tuple(sorted(seen))

    def content(self):
        """Positive rational content (gcd of all coefficients)."""
        if not self.terms:
            return 1
        num = 0
        den = 1
        for coeff in self.terms.values():
            num = math.gcd(num, coeff.numerator)
            den = math.lcm(den, coeff.denominator)
        return _coeff(Fraction(num, den))

    def mono_content(self):
        """Largest monomial dividing every term."""
        it = iter(self.terms)
        try:
            common = dict(next(it))
        except StopIteration:
            return ()
        for mono in it:
            if not common:
                break
            here = dict(mono)
            common = {
                s: min(e, here[s]) for s, e in common.items() if s in here
            }
        return tuple(sorted(common.items()))

    def leading(self):
        """(monomial, coefficient) of the graded-lex leading term."""
        if len(self.terms) == 1:
            return next(iter(self.terms.items()))
        frame = self.variables()
        idx = {s: i for i, s in enumerate(frame)}
        mono = max(self.terms, key=lambda m: grlex_key(_dense(m, idx)))
        return mono, self.terms[mono]

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly(terms_add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Poly(terms_neg(self.terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly(terms_add(self.terms, terms_neg(other.terms)))

    def __rsub__(self, other):
        return -(self - other)

    # Poly is tested first: isinstance against Fraction, an ABC, is slow
    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly(terms_mul(self.terms, other.terms))
        if isinstance(other, (int, Fraction)):
            return Poly(terms_scale(self.terms, _coeff(other)))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, q) -> "Poly":
        return Poly(terms_scale(self.terms, _coeff(q)))

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Poly.const(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def substitute(self, mapping) -> "Scalar":
        """Replace symbols by values (Scalar/Poly/Fraction/int)."""
        total = Scalar.zero()
        for mono, coeff in self.terms.items():
            piece = Scalar.const(coeff)
            for sym, exp in mono:
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
        frame = self.variables()
        idx = {s: i for i, s in enumerate(frame)}
        return sorted(
            self.terms.items(),
            key=lambda kv: grlex_key(_dense(kv[0], idx)),
            reverse=True,
        )

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self._sorted_terms():
            factors = []
            if abs(coeff) != 1 or not mono:
                factors.append(str(abs(coeff)))
            for sym, exp in mono:
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
    if not content:
        return mono
    cut = dict(content)
    out = []
    for s, e in mono:
        e -= cut.get(s, 0)
        if e:
            out.append((s, e))
    return tuple(out)


def exact_div(a: Poly, b: Poly):
    """Exact quotient a/b as a Poly, or None when b does not divide a.

    The lowest and the highest exponent of each symbol, and the lowest and
    the highest total degree, add under multiplication, so a divisor whose
    ranges do not fit inside a's is refused before any division.  The long
    division runs on ``_graded`` keys in one frame, and each quotient term
    must stay inside the ranges left for the quotient.
    """
    if b.is_zero:
        raise ScalarDivisionError("division by the zero polynomial")
    if a.is_zero:
        return ZERO
    bt = b.terms
    if len(bt) == 1:
        ((bm, bc),) = bt.items()
        for m in a.terms:
            here = dict(m)
            if any(here.get(s, 0) < e for s, e in bm):
                return None
        quot = Poly({_mono_div(m, bm): c for m, c in a.terms.items()})
        return quot if bc == 1 else quot.scale(Fraction(1) / bc)
    if len(a.terms) == 1:
        return None  # the divisors of a monomial are monomials
    frame = a.variables()
    index = {s: i for i, s in enumerate(frame, 1)}
    try:
        bkeys = [_graded(m, index) for m in bt]
    except KeyError:
        return None  # b has a symbol that a lacks
    akeys = [_graded(m, index) for m in a.terms]
    lo = list(map(sub, map(min, zip(*akeys)), map(min, zip(*bkeys))))
    hi = list(map(sub, map(max, zip(*akeys)), map(max, zip(*bkeys))))
    if min(lo) < 0 or any(map(gt, lo, hi)):
        return None
    rem = dict(zip(akeys, a.terms.values()))
    divisor = sorted(zip(bkeys, bt.values()), reverse=True)
    bkey, bc = divisor[0]
    tail = divisor[1:]
    exact = type(bc) is int
    quot = {}
    while rem:
        key = max(rem)
        c = rem.pop(key)
        qkey = tuple(map(sub, key, bkey))
        if any(map(gt, lo, qkey)) or any(map(gt, qkey, hi)):
            return None
        if exact and type(c) is int and not c % bc:
            qc = c // bc
        else:
            qc = _coeff(Fraction(c) / bc)
        quot[tuple([(s, e) for s, e in zip(frame, qkey[1:]) if e])] = qc
        for tkey, tc in tail:
            k = tuple(map(add, tkey, qkey))
            x = rem.get(k, 0) - qc * tc
            if x:
                rem[k] = x
            else:
                rem.pop(k, None)
    return Poly(quot)


def _cancel(num: Poly, den: Poly):
    """(num, den) with whichever side exactly divides the other divided out.

    Only a pair of two polynomials of two or more terms is tried: the
    callers have removed the common monomial content (or leave it to
    ``Scalar.__init__``), after which a one-term side either divides
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
        return terms.get(())
    return None if terms else 0


def _polynomial(terms) -> "Scalar":
    """The Scalar of a polynomial's canonical terms, built without
    normalising: a polynomial is already normal."""
    out = Scalar.__new__(Scalar)
    out.num = Poly(terms)
    out.den = ONE
    out.value = _value(terms)
    return out


def _constant(q) -> "Scalar":
    """The Scalar of the int or Fraction q, built without normalising."""
    out = Scalar.__new__(Scalar)
    if type(q) is not int:
        q = _coeff(q)
    out.num = Poly({(): q}) if q else ZERO
    out.den = ONE
    out.value = q
    return out


class Scalar:
    """A fraction of two polynomials; the universal coefficient domain.

    ``value`` is the rational value (int or Fraction) of a constant, else
    None, so constant arithmetic never reaches the polynomials.  ``den``
    is the shared ``ONE`` exactly when the value is a polynomial.
    """

    __slots__ = ("num", "den", "value")

    def __init__(self, num: Poly, den: Poly = ONE):
        if den.is_zero:
            raise ScalarDivisionError("zero denominator")
        terms = num.terms
        if not terms or den.is_one:
            # a polynomial is already normalized
            self.num = num
            self.den = ONE
            self.value = _value(terms)
            return
        # cancel common monomial content
        nc = dict(num.mono_content())
        common = tuple(
            sorted(
                (s, min(e, nc[s]))
                for s, e in den.mono_content()
                if s in nc
            )
        )
        if common:
            num = Poly(
                {_mono_div(m, common): c for m, c in num.terms.items()}
            )
            den = Poly(
                {_mono_div(m, common): c for m, c in den.terms.items()}
            )
        num, den = _cancel(num, den)
        self._settle(num, den)

    def _settle(self, num: Poly, den: Poly):
        # denominator content 1 with positive leading coefficient
        if not den.is_one:
            c = den.content()
            if den.leading()[1] < 0:
                c = -c
            if c != 1:
                num = num.scale(Fraction(1) / c)
                den = den.scale(Fraction(1) / c)
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
        return _constant(value)

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
            other = as_scalar(other)
            if other is NotImplemented:
                return NotImplemented
        p, q = self.value, other.value
        if p is not None and q is not None:
            return _constant(p - q if negate else p + q)
        ad, bd = self.den, other.den
        if ad is ONE and bd is ONE:
            b = other.num.terms
            return _polynomial(
                terms_add(self.num.terms, terms_neg(b) if negate else b)
            )
        a, b = self.num, -other.num if negate else other.num
        if ad == bd:
            return Scalar(a + b, ad)
        # over the larger denominator when one divides the other; a
        # one-term denominator is a monomial that Scalar.__init__ takes out
        # of the cross product again
        if len(ad.terms) > 1 and len(bd.terms) > 1:
            q = exact_div(bd, ad)
            if q is not None:
                return Scalar(a * q + b, bd)
            q = exact_div(ad, bd)
            if q is not None:
                return Scalar(a + b * q, ad)
        return Scalar(a * bd + b * ad, ad * bd)

    def __add__(self, other):
        return self._sum(other, False)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, True)

    def __rsub__(self, other):
        return -(self - other)

    def __neg__(self):
        # negation keeps a normalized (num, den) normalized
        out = Scalar.__new__(Scalar)
        out.num = -self.num
        out.den = self.den
        out.value = None if self.value is None else -self.value
        return out

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
        out = Scalar.__new__(Scalar)
        out.num = Poly(terms_scale(self.num.terms, q))
        out.den = self.den
        out.value = None
        return out

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            other = as_scalar(other)
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
            return _polynomial(terms_mul(a.terms, c.terms))
        return Scalar(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return as_scalar(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return (self ** (-n)).inverse()
        return Scalar(self.num**n, self.den**n)

    def inverse(self) -> "Scalar":
        """1/self: the normalized pair swapped, with content and sign fixed."""
        if self.is_zero:
            raise ScalarDivisionError("division by zero")
        if self.value is not None:
            q = self.value
            return _constant(Fraction(q.denominator, q.numerator))
        out = Scalar.__new__(Scalar)
        out._settle(self.den, self.num)
        return out

    def __eq__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den is ONE and other.den is ONE:
            return self.num == other.num
        # cross-multiplication: canonical Poly makes this structural
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
    index = {s: i for i, s in enumerate(symbols)}
    for sym in value.den.variables():
        if sym in index:
            raise ValueError(f"{sym!r} appears in a denominator: {value}")
    groups: dict = {}
    for mono, coeff in value.num.terms.items():
        exps = [0] * len(index)
        rest = []
        for sym, e in mono:
            i = index.get(sym)
            if i is None:
                rest.append((sym, e))
            else:
                exps[i] = e
        groups.setdefault(tuple(exps), {})[tuple(rest)] = coeff
    return {
        exps: Scalar(Poly(terms), value.den) for exps, terms in groups.items()
    }


def as_scalar(value):
    """Coerce ints, Fractions, Polys or symbol strings to Scalar."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, Poly):
        return Scalar(value)
    if isinstance(value, (int, Fraction)):
        return Scalar.const(value)
    if isinstance(value, str):
        return parse_scalar(value)
    return NotImplemented


# -- expression parsing ----------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<sym>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"bad character in expression: {text[pos:]!r}")
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
