"""The printer of `Expr` as it was before it read monomials from their
packed fields, kept as a test-only reference: every monomial decoded by
`_mono_pairs` and every factor formatted again.  The printer in `expr.py`
must give the same text for every expression (tests/test_printer.py)."""

from fractions import Fraction

from tflkit.expr import _mono_pairs, _p_leading


def old_str(e):
    """str(e) as the old printer gives it."""
    lc = e.den[_p_leading(e.den)]
    if not e.num:
        return "0"
    if e.is_polynomial():
        return old_poly_str(e, e.num, lc)
    return f"({old_poly_str(e, e.num, lc)})/({old_poly_str(e, e.den, lc)})"


def old_poly_str(e, poly, lc):
    parts = []
    for m in sorted(poly, reverse=True):
        c = poly[m]
        factors = []
        for atom, k in _mono_pairs(m):
            s = e._atom_str(atom)
            factors.append(s if k == 1 else f"{s}^{k}")
        body = "*".join(factors)
        coeff = Fraction(abs(c), lc) if lc != 1 else abs(c)
        if not body:
            text = str(coeff)
        elif coeff == 1:
            text = body
        else:
            text = f"{coeff}*{body}"
        parts.append((c < 0, text))
    out = []
    for i, (neg, text) in enumerate(parts):
        if i == 0:
            out.append(f"-{text}" if neg else text)
        else:
            out.append(f" - {text}" if neg else f" + {text}")
    return "".join(out)
