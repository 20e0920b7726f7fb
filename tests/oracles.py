"""Independent reference implementations used by several test modules."""

import itertools
import random
from fractions import Fraction

from ckexpand.poly import ONE, Poly, Scalar, _constant, _mono_div, exact_div
from ckexpand.uea import UEAElement, _Span, uea_mul


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
                span.add(products[word].terms, (rel.label, word))
    return lambda x: UEAElement(algebra, span.reduce(x.terms)[0])


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
    nc = dict(num.mono_content())
    common = tuple(sorted(
        (s, min(e, nc[s])) for s, e in den.mono_content() if s in nc
    ))
    num = Poly({_mono_div(m, common): c for m, c in num.terms.items()})
    den = Poly({_mono_div(m, common): c for m, c in den.terms.items()})
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
        return _constant(Fraction(x.value.denominator, x.value.numerator))
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
            for mono, c in p.terms.items()
        ))

    return poly(s.num) / poly(s.den)


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
