"""Independent reference implementations used by several test modules."""

from ckexpand.poly import Scalar
from ckexpand.uea import UEAElement


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
