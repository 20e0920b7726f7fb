"""Term arithmetic: the dict-of-monomials operations under ``Poly``.

A multivariate polynomial is a dict mapping monomials to nonzero
coefficients: ``int`` when integral, else ``poly.Rational`` (most
coefficients are integers, and ``int`` arithmetic is much cheaper; the
two mix exactly).  A monomial is a tuple of ``(symbol, exponent)`` pairs,
sorted by symbol name, with all exponents positive; the empty tuple is
the unit monomial.  ``Rational`` returns an ``int`` from every operation
whose result is integral, so a sum like 1/2 + 1/2 is an ``int`` with no
pass here.  A ``fractions.Fraction`` would stay a ``Fraction`` and need
such a pass after every operation, so none reaches these functions:
``poly._coeff`` converts one at the boundary.
"""

# recorded by the benchmark as ckexpand.KERNEL_IMPLEMENTATION
IMPLEMENTATION = "python"


def mono_mul(a, b):
    """Product of two monomials (merge of sorted (symbol, exponent) runs)."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        sa, ea = a[i]
        sb, eb = b[j]
        if sa == sb:
            out.append((sa, ea + eb))
            i += 1
            j += 1
        elif sa < sb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def terms_add(ta, tb):
    out = dict(ta)
    for mono, coeff in tb.items():
        acc = out.get(mono)
        if acc is None:
            out[mono] = coeff
        else:
            acc = acc + coeff
            if acc:
                out[mono] = acc
            else:
                del out[mono]
    return out


def terms_neg(ta):
    return {mono: -coeff for mono, coeff in ta.items()}


def terms_scale(ta, q):
    if not q:
        return {}
    return {mono: coeff * q for mono, coeff in ta.items()}


def terms_mul(ta, tb):
    if len(ta) > len(tb):
        ta, tb = tb, ta
    out = {}
    for ma, ca in ta.items():
        for mb, cb in tb.items():
            mono = mono_mul(ma, mb)
            prod = ca * cb
            acc = out.get(mono)
            if acc is None:
                out[mono] = prod
            else:
                acc = acc + prod
                if acc:
                    out[mono] = acc
                else:
                    del out[mono]
    return out
