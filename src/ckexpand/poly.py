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
other; canonical equality is defined by cross-multiplication.

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


def grlex_key(exps):
    """Graded-lex sort key of an exponent vector: total degree, then lex."""
    return (sum(exps), exps)


def _coeff(q):
    """q as an exact coefficient: an int when integral, else a Fraction."""
    if type(q) is int:
        return q
    if isinstance(q, float):
        raise TypeError(f"inexact coefficient {q!r}: use an int or a Fraction")
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

    def as_fraction(self):
        """The constant value if this polynomial is constant, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        return None

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


def exact_div(a: Poly, b: Poly):
    """Exact quotient a/b as a Poly, or None when b does not divide a."""
    if b.is_zero:
        raise ScalarDivisionError("division by the zero polynomial")
    if a.is_zero:
        return ZERO
    frame = tuple(sorted(set(a.variables()) | set(b.variables())))
    idx = {s: i for i, s in enumerate(frame)}
    bm, bc = b.leading()
    bvec = _dense(bm, idx)
    rem = dict(a.terms)
    quot = {}
    while rem:
        mono = max(rem, key=lambda m: grlex_key(_dense(m, idx)))
        mvec = _dense(mono, idx)
        qvec = [me - be for me, be in zip(mvec, bvec)]
        if any(e < 0 for e in qvec):
            return None
        qmono = tuple(
            (frame[i], e) for i, e in enumerate(qvec) if e
        )
        qcoeff = _coeff(Fraction(rem[mono], bc))
        quot[qmono] = qcoeff
        rem = terms_add(rem, terms_neg(terms_mul(b.terms, {qmono: qcoeff})))
    return Poly(quot)


def _mono_div(mono, content):
    if not content:
        return mono
    sub = dict(content)
    out = []
    for s, e in mono:
        e -= sub.get(s, 0)
        if e:
            out.append((s, e))
    return tuple(out)


class Scalar:
    """A fraction of two polynomials; the universal coefficient domain."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = ONE):
        if den.is_zero:
            raise ScalarDivisionError("zero denominator")
        if num.is_zero:
            self.num = ZERO
            self.den = ONE
            return
        if den.is_one:
            # a polynomial is already normalized
            self.num = num
            self.den = ONE
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
        # full cancellation when one side exactly divides the other
        if not den.is_one:
            q = exact_div(num, den)
            if q is not None:
                num, den = q, ONE
            else:
                q = exact_div(den, num)
                if q is not None:
                    num, den = ONE, q
        # denominator content 1 with positive leading coefficient
        c = den.content()
        if den.leading()[1] < 0:
            c = -c
        if c != 1:
            num = num.scale(Fraction(1) / c)
            den = den.scale(Fraction(1) / c)
        self.num = num
        self.den = den

    @classmethod
    def zero(cls) -> "Scalar":
        return cls(ZERO)

    @classmethod
    def one(cls) -> "Scalar":
        return cls(ONE)

    @classmethod
    def const(cls, value) -> "Scalar":
        return cls(Poly.const(value))

    @classmethod
    def symbol(cls, name: str) -> "Scalar":
        return cls(Poly.symbol(name))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        return self.num == self.den

    def __add__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return Scalar(self.num + other.num, self.den)
        return Scalar(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        # negation keeps a normalized (num, den) normalized
        out = Scalar.__new__(Scalar)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return Scalar(self.num - other.num, self.den)
        return Scalar(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __rsub__(self, other):
        return -(self - other)

    def _constant(self):
        """The rational value of a nonzero constant, else None."""
        terms = self.num.terms
        if len(terms) == 1 and () in terms and self.den.is_one:
            return terms[()]
        return None

    def _scaled(self, q):
        # a nonzero constant changes neither the monomial content nor
        # whether one side divides the other, and the denominator already
        # has content 1 and a positive leading coefficient: only the
        # numerator moves
        if q == 1:
            return self
        if q == -1:
            return -self
        out = Scalar.__new__(Scalar)
        out.num = Poly(terms_scale(self.num.terms, q))
        out.den = self.den
        return out

    def __mul__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        q = other._constant()
        if q is not None:
            return self._scaled(q)
        q = self._constant()
        if q is not None:
            return other._scaled(q)
        if self.den.is_one and other.den.is_one:
            return Scalar(self.num * other.num)
        return Scalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ScalarDivisionError("division by zero scalar")
        q = other._constant()
        if q is not None:
            return self._scaled(Fraction(1, q))
        return Scalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return as_scalar(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return Scalar.one() / (self ** (-n))
        return Scalar(self.num**n, self.den**n)

    def inverse(self) -> "Scalar":
        if self.is_zero:
            raise ScalarDivisionError("inverse of zero")
        return Scalar(self.den, self.num)

    def __eq__(self, other):
        other = as_scalar(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.is_one and other.den.is_one:
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
