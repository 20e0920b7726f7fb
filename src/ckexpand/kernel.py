"""Term arithmetic: the dict-of-monomials operations under ``Poly``.

A multivariate polynomial is a dict mapping monomials to nonzero
coefficients: ``int`` when integral, else ``poly.Rational`` (most
coefficients are integers, and ``int`` arithmetic is much cheaper; the
two mix exactly).  A monomial is one non-negative ``int`` of ``BITS``-bit
fields: the total degree in the lowest field, then one field per symbol
at the slot ``poly`` gives it; 0 is the unit monomial.  The top bit of
each field is a guard that a monomial keeps clear, so a product is one
int addition, which no field can carry out of, and a product whose
degree sets the degree field's guard (``CARRY``) raises
``ExponentOverflowError``.  ``Rational`` returns an ``int`` from every
operation whose result is integral, so a sum like 1/2 + 1/2 is an
``int`` with no pass here.  A ``fractions.Fraction`` would stay a
``Fraction`` and need such a pass after every operation, so none reaches
these functions: ``poly._coeff`` converts one at the boundary.
"""

# recorded by the benchmark as ckexpand.KERNEL_IMPLEMENTATION
IMPLEMENTATION = "python"

BITS = 16
CARRY = 1 << (BITS - 1)


class ExponentOverflowError(OverflowError, ValueError):
    """A monomial of total degree 2**(BITS - 1) or more: a value out of
    range, so callers that refuse bad input refuse it too."""


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
            mono = ma + mb
            if mono & CARRY:
                raise ExponentOverflowError(f"total degree over {CARRY - 1}")
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
