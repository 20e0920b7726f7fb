"""Universal-enveloping-algebra arithmetic.

Elements are finite Scalar-weighted sums of PBW monomials over a Lie
algebra's generators in the fixed global order.  Products are computed
by rewriting words: each adjacent out-of-order pair X_a X_b (a > b) is
replaced by X_b X_a + [X_a, X_b], which strictly lowers (degree,
inversion count) and therefore terminates in the PBW normal form.
Commutators follow the derivation rule instead of forming ab - ba.

Also provides the quadratic Casimir elements of the kinematical family,
centrality testing, and exact reduction modulo relations that equate a
central element with a scalar eigenvalue (the algebraic stand-in for
fixing an irreducible representation), at any degree with no bound.  A
relation c*Z = s on a central generator Z is applied by substituting
Z = s/c; the other relations are spanned.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .liealg import LieAlgebra, identify
from .poly import (
    Scalar, TermSum, add_term, as_scalar, grlex_key, parse_scalar,
    split_symbols,
)

__all__ = [
    "UEAElement",
    "CentralRelation",
    "CentralReducer",
    "MixedAlgebraError",
    "pbw_normalize",
    "uea_mul",
    "uea_commutator",
    "casimir",
    "is_central",
    "standard_relations",
    "parse_element",
]


class MixedAlgebraError(ValueError):
    """Operands belong to different algebras."""


class UEAElement(TermSum):
    """A normal-ordered element of the universal enveloping algebra."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: LieAlgebra, terms=None):
        self.algebra = algebra
        self.terms = terms if terms is not None else {}

    @classmethod
    def one(cls, algebra) -> "UEAElement":
        return cls(algebra, {(0,) * algebra.dim: Scalar.one()})

    @classmethod
    def generator(cls, algebra, label: str) -> "UEAElement":
        exps = [0] * algebra.dim
        exps[algebra.index(label)] = 1
        return cls(algebra, {tuple(exps): Scalar.one()})

    @classmethod
    def monomial(cls, algebra, powers: dict, coeff=1) -> "UEAElement":
        """Element coeff * prod(label**power); factors must be normal-ordered
        anyway since a PBW monomial is given by its exponents."""
        exps = [0] * algebra.dim
        for label, power in powers.items():
            exps[algebra.index(label)] = power
        coeff = as_scalar(coeff)
        if coeff.is_zero:
            return cls(algebra)
        return cls(algebra, {tuple(exps): coeff})

    @property
    def labels(self):
        return self.algebra.generators

    def _like(self, terms):
        return UEAElement(self.algebra, terms)

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise MixedAlgebraError(
                f"elements of {self.algebra.name!r} and {other.algebra.name!r}"
            )

    # -- arithmetic -----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, UEAElement):
            return uea_mul(self, other)
        return self.scale(other)

    __rmul__ = TermSum.scale

    def substitute(self, mapping) -> "UEAElement":
        terms = {}
        for exps, coeff in self.terms.items():
            val = coeff.substitute(mapping)
            if not val.is_zero:
                terms[exps] = val
        return UEAElement(self.algebra, terms)

    # -- textual format ---------------------------------------------------------

    def __str__(self):
        parts = []
        for lead, cstr, mono in self._signed_terms(" "):
            if " " in cstr:
                cstr = f"({cstr})"
            parts.append(f"{lead}{cstr} * {mono or '1'}")
        return "".join(parts) or "0"

    def __repr__(self):
        return f"UEAElement({self.algebra.name}: {self})"


def _rewrite(algebra: LieAlgebra, stack, result) -> None:
    """Normal-order every (word, Scalar) on ``stack`` into the term dict
    ``result``, swapping the first out-of-order pair of each word."""
    table = algebra.table
    while stack:
        w, c = stack.pop()
        pos = -1
        for p in range(len(w) - 1):
            if w[p] > w[p + 1]:
                pos = p
                break
        if pos < 0:
            exps = [0] * algebra.dim
            for idx in w:
                exps[idx] += 1
            add_term(result, tuple(exps), c)
            continue
        a, b = w[pos], w[pos + 1]
        stack.append((w[:pos] + (b, a) + w[pos + 2 :], c))
        for n, bc in table[a][b]:
            stack.append((w[:pos] + (n,) + w[pos + 2 :], c * bc))


def pbw_normalize(algebra: LieAlgebra, word, coeff=1) -> UEAElement:
    """Normal-order a word of generator indices with a Scalar weight."""
    result: dict = {}
    _rewrite(algebra, [(tuple(word), as_scalar(coeff))], result)
    return UEAElement(algebra, result)


@functools.lru_cache(maxsize=4096)
def _word_of(exps):
    word = []
    for idx, e in enumerate(exps):
        word.extend([idx] * e)
    return tuple(word)


def uea_mul(a: UEAElement, b: UEAElement) -> UEAElement:
    a._check(b)
    total: dict = {}
    b_words = [(_word_of(eb), cb) for eb, cb in b.terms.items()]
    for ea, ca in a.terms.items():
        wa = _word_of(ea)
        for wb, cb in b_words:
            piece = pbw_normalize(a.algebra, wa + wb, ca * cb)
            for exps, coeff in piece.terms.items():
                add_term(total, exps, coeff)
    return UEAElement(a.algebra, total)


def uea_commutator(a: UEAElement, b: UEAElement) -> UEAElement:
    """[a, b] by the derivation rule: for words x_1..x_p and y_1..y_q,

        [x_1..x_p, y_1..y_q] = sum over k, l of
            x_1..x_(k-1) y_1..y_(l-1) [x_k, y_l] y_(l+1)..y_q x_(k+1)..x_p,

    so only words of length p + q - 1 are normal-ordered, one per nonzero
    letter bracket, and the top degrees of ab and ba never appear."""
    a._check(b)
    table = a.algebra.table
    stack = []
    b_words = [(_word_of(eb), cb) for eb, cb in b.terms.items()]
    for ea, ca in a.terms.items():
        wa = _word_of(ea)
        for wb, cb in b_words:
            c = ca * cb
            for k, x in enumerate(wa):
                head, tail = wa[:k], wa[k + 1 :]
                for l, y in enumerate(wb):
                    for n, bc in table[x][y]:
                        word = head + wb[:l] + (n,) + wb[l + 1 :] + tail
                        stack.append((word, c * bc))
    result: dict = {}
    _rewrite(a.algebra, stack, result)
    return UEAElement(a.algebra, result)


# -- Casimir elements ----------------------------------------------------------


def casimir(g: LieAlgebra, index: int, member=None) -> UEAElement:
    """The quadratic invariants of the kinematical family.

    The parameters (w1, w2, m) are those ``identify`` reads off g, unless
    ``member`` gives others for the same generators.  With a central
    extension the product m*Xi takes over the role of w2*H: the
    invariants gain 2m*Xi*H and m*Xi*J (the unextended expressions are
    not central once the extension is switched on).
    """
    w1, w2, m, central = identify(g) if member is None else member
    if index == 1:
        parts = [
            UEAElement.monomial(g, {"H": 2}, w2),
            UEAElement.monomial(g, {"P1": 2}),
            UEAElement.monomial(g, {"P2": 2}),
            UEAElement.monomial(g, {"K1": 2}, w1),
            UEAElement.monomial(g, {"K2": 2}, w1),
            UEAElement.monomial(g, {"J": 2}, w1 * w2),
        ]
        if not m.is_zero:
            parts.append(UEAElement.monomial(g, {"H": 1, central: 1}, 2 * m))
    elif index == 2:
        parts = [
            UEAElement.monomial(g, {"H": 1, "J": 1}, w2),
            UEAElement.monomial(g, {"P1": 1, "K2": 1}, -1),
            UEAElement.monomial(g, {"P2": 1, "K1": 1}),
        ]
        if not m.is_zero:
            parts.append(UEAElement.monomial(g, {"J": 1, central: 1}, m))
    else:
        raise ValueError("Casimir index must be 1 or 2")
    total = UEAElement(g)
    for part in parts:
        total = total + part
    return total


def is_central(x: UEAElement):
    """(True, None) or (False, (offending label, residual))."""
    g = x.algebra
    for label in g.generators:
        residual = uea_commutator(x, UEAElement.generator(g, label))
        if not residual.is_zero:
            return False, (label, residual)
    return True, None


# -- central relations and reduction -------------------------------------------


class CentralRelation(NamedTuple):
    """A verified-central element identified with a scalar eigenvalue."""

    label: str
    element: UEAElement
    scalar: Scalar


def standard_relations(g: LieAlgebra, member=None) -> list:
    """Casimir eigenvalue relations (plus m*Xi for the central extension);
    ``member`` is g's ``identify`` result when the caller has it."""
    member = identify(g) if member is None else member
    relations = [
        CentralRelation("C1", casimir(g, 1, member), Scalar.symbol("c1")),
        CentralRelation("C2", casimir(g, 2, member), Scalar.symbol("c2")),
    ]
    if not member.m.is_zero:
        relations.append(
            CentralRelation(
                "mXi",
                UEAElement.monomial(g, {member.central: 1}, member.m),
                member.m * Scalar.symbol("xi"),
            )
        )
    return relations


class _Span:
    """Exact row-echelon span of UEA term vectors with combination tracking.

    Every row's key is its largest term under ``grlex_key``, and no two rows
    share one.  ``reduce`` is the one elimination loop, and ``add`` keeps
    what it leaves of a new row, so a row holds no key of an earlier row.
    That is enough for ``reduce`` to return the unique normal form modulo
    the span.
    """

    def __init__(self):
        self.rows: dict = {}  # leading exps -> (terms, rep)

    def reduce(self, terms):
        """Subtract multiples of rows from a copy of ``terms`` until no term
        is a row key, the largest first.  Returns the residual and the tag
        combination subtracted."""
        terms = dict(terms)
        combo: dict = {}
        while hits := [m for m in terms if m in self.rows]:
            m = max(hits, key=grlex_key)
            row_terms, rep = self.rows[m]
            factor = terms[m] / row_terms[m]
            neg = -factor
            for exps, coeff in row_terms.items():
                add_term(terms, exps, neg * coeff)
            for tag, c in rep.items():
                add_term(combo, tag, factor * c)
        return terms, combo

    def add(self, terms, rep):
        """Add ``terms``, which equal the tag combination ``rep`` (a dict
        {tag: Scalar}), unless the span already holds them."""
        residual, combo = self.reduce(terms)
        if not residual:
            return
        rep = dict(rep)
        for t, c in combo.items():
            add_term(rep, t, -c)
        lead = max(residual, key=grlex_key)
        self.rows[lead] = (residual, rep)


def _central_letter(element: UEAElement):
    """The index of Z when element is one term c*Z and Z is a central
    generator; otherwise None."""
    if len(element.terms) != 1:
        return None
    [exps] = element.terms
    if sum(exps) != 1:
        return None
    z = exps.index(1)
    return z if element.algebra.is_central(z) else None


class CentralReducer:
    """Exact reduction modulo the ideal of the relations r_i = element_i -
    scalar_i, reusable across inputs.

    A relation c*Z = s whose element is one term, with Z a generator whose
    row of the bracket table is empty, is applied by substitution Z -> v =
    s/c.  A term coeff * Z^k M becomes coeff * v^k M, and the witness gains
    (label, Z^j M, coeff * v^(k-1-j) / c) for each j < k, because Z^k - v^k
    = (Z - v) * sum_j v^(k-1-j) Z^j and Z - v = (c*Z - s)/c.  Every other
    relation is spanned.  ``reduce(x)`` substitutes x, grows the span of
    the substituted products r_i * m (m a PBW monomial in the letters that
    are not substituted) to the total degree of the result, and reduces it
    against the span.  Each product is the product of m without its last
    letter, times that letter.  ``bound`` is the largest cofactor degree in
    the span, -1 before the first reduction.

    Premise: the r_i are central, and their top-degree parts t_i form a
    regular sequence in S(g) over Q(params).  Then the products r_i * m of
    degree <= D, over all relations and all monomials m, span the ideal's
    whole slice of degree <= D.  Let y = sum r_i a_i have degree below D =
    max deg(r_i a_i).  Then sum t_i top(a_i) = 0, a combination of Koszul
    syzygies t_j e_i - t_i e_j.  These lift exactly, as r_i r_j = r_j r_i,
    and subtracting the lifts lowers D.  For the family, t(C2) has rank >= 4
    and t(C1) has rank >= 2 over a field where -1 is not a square; with a
    central extension the sequence with t = c*Z stays regular when the
    Casimir tops with Z set to 0 are coprime.

    The remainders are those that spanning Z's relation as well gives.  Z
    is central, so setting Z = v is an algebra map, and every monomial Z M
    leads the ideal element (Z - v) M.  An ideal element whose leading term
    is free of Z keeps it under the substitution, because the terms that
    hold Z drop in degree.  So the substituted spanned rows, which the map
    makes of every r_i * m, span the slice's Z-free part with the same
    leading terms, and the normal form of x is that of x with Z = v.
    """

    def __init__(self, algebra: LieAlgebra, relations):
        self.algebra = algebra
        self.relations = list(relations)
        self.bound = -1
        self.span = _Span()
        self._degree = -1
        one = UEAElement.one(algebra)
        # substituted letter -> (label, v, [v^k], [v^k / c]); the power
        # lists grow with the largest exponent met
        self._subs = {}
        # the spanned relations, and per relation r * m for each cofactor m
        # of the last degree built
        self._spanned, self._level = [], []
        for rel in self.relations:
            if rel.element.algebra is not algebra:
                raise MixedAlgebraError("relation element from another algebra")
            z = _central_letter(rel.element)
            if z is not None and z not in self._subs:
                [c] = rel.element.terms.values()
                v = rel.scalar / c
                self._subs[z] = (rel.label, v, [Scalar.one()], [c.inverse()])
            else:
                self._spanned.append(rel)
                self._level.append({(): rel.element - one.scale(rel.scalar)})
        self._free = [i for i in range(algebra.dim) if i not in self._subs]

    def _substitute(self, terms):
        """``terms`` with each substituted letter set to its value, and the
        witness entries {(label, exps): coeff} of the difference."""
        entries: dict = {}
        for z, (label, v, powers, scaled) in self._subs.items():
            top = max((exps[z] for exps in terms), default=0)
            while len(powers) <= top:
                powers.append(powers[-1] * v)
                scaled.append(scaled[-1] * v)
            out: dict = {}
            for exps, coeff in terms.items():
                k = exps[z]
                if k:
                    for j in range(k):
                        cofactor = exps[:z] + (j,) + exps[z + 1 :]
                        add_term(
                            entries, (label, cofactor), coeff * scaled[k - 1 - j]
                        )
                    exps = exps[:z] + (0,) + exps[z + 1 :]
                    coeff = coeff * powers[k]
                add_term(out, exps, coeff)
            terms = out
        return terms, entries

    def _grow(self, total: int) -> None:
        g, dim = self.algebra, self.algebra.dim
        letters = [UEAElement.generator(g, label) for label in g.generators]
        one = Scalar.one()
        for degree in range(self._degree + 1, total + 1):
            for k, rel in enumerate(self._spanned):
                deg = degree - rel.element.degree()
                if deg < 0:
                    continue
                if deg:
                    prev = self._level[k]
                    self._level[k] = {
                        word: uea_mul(prev[word[:-1]], letters[word[-1]])
                        for word in itertools.combinations_with_replacement(
                            self._free, deg
                        )
                    }
                for word, product in self._level[k].items():
                    exps = [0] * dim
                    for idx in word:
                        exps[idx] += 1
                    # the row is r * m less the substitution's entries
                    terms, entries = self._substitute(product.terms)
                    rep = {(rel.label, tuple(exps)): one}
                    for tag, coeff in entries.items():
                        add_term(rep, tag, -coeff)
                    self.span.add(terms, rep)
                self.bound = max(self.bound, deg)
            self._degree = degree

    def reduce(self, x: UEAElement):
        """Remainder of x modulo the relation ideal, with a witness: the
        (relation label, cofactor exponents, coefficient) triples such that
        x = remainder + sum coeff * (element - scalar) * cofactor."""
        terms, entries = self._substitute(x.terms)
        self._grow(UEAElement(self.algebra, terms).degree())
        residual, combo = self.span.reduce(terms)
        for tag, coeff in entries.items():
            add_term(combo, tag, coeff)
        remainder = UEAElement(self.algebra, residual)
        witness = sorted(
            ((label, exps, coeff) for (label, exps), coeff in combo.items()),
            key=lambda item: (item[0], grlex_key(item[1])),
        )
        return remainder, witness


# -- parsing the textual element format ----------------------------------------


def parse_element(algebra: LieAlgebra, text: str) -> UEAElement:
    """Parse text as a polynomial in the generator labels: each monomial
    names the PBW monomial with its exponents ("2 * H^2 P1 - w1 * J")."""
    return UEAElement(
        algebra, split_symbols(parse_scalar(text), algebra.generators)
    )
