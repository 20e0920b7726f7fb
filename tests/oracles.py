"""Independent reference implementations used by several test modules."""

import itertools
import random

from ckexpand.poly import Scalar
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
