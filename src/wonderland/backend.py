"""Exact kernels for row reduction, matrix products and sparse polynomials.

Row reduction and matrix products are integer kernels.  ``rref_rows`` takes
sparse integer rows ``{column: int}`` and returns one primitive integer row
per pivot; it visits only nonzero entries.  ``mat_mul`` multiplies integer
matrices given as lists of rows.  ``linalg`` scales its ``Fraction`` rows to
integers on the way in and forms ``Fraction``s on the way out.

The polynomial kernels work on rationals as reduced ``(num, den)`` int pairs
with ``den > 0``, which avoids the per-operation overhead of
``fractions.Fraction`` in their inner loops; ``poly`` converts its
coefficients to pairs at the call.
"""

from math import gcd
from operator import mul

# the kernel implementation's name, recorded with benchmark results
BACKEND = "pure"

ZERO = (0, 1)
ONE = (1, 1)


def q_add(a, b):
    an, ad = a
    bn, bd = b
    if an == 0:
        return b
    if bn == 0:
        return a
    # gcd of denominators keeps the intermediate products small
    g = gcd(ad, bd)
    if g == 1:
        n = an * bd + bn * ad
        d = ad * bd
        g2 = gcd(n, d)
        return (n // g2, d // g2) if n else ZERO
    ad_g = ad // g
    bd_g = bd // g
    n = an * bd_g + bn * ad_g
    if n == 0:
        return ZERO
    g2 = gcd(n, g)
    return (n // g2, ad_g * (bd // g2))


def q_mul(a, b):
    an, ad = a
    bn, bd = b
    if an == 0 or bn == 0:
        return ZERO
    g1 = gcd(an, bd)
    g2 = gcd(bn, ad)
    return ((an // g1) * (bn // g2), (ad // g2) * (bd // g1))


def _divided(row):
    """The integer row ``{column: int}`` divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def _eliminate(r, p, c):
    """The primitive integer row ``a r - b p`` whose column ``c`` is zero.

    ``r`` and ``p`` are ``{column: int}`` rows, both nonzero at ``c``; only
    the nonzeros of the two rows are visited.
    """
    g = gcd(p[c], r[c])
    a = p[c] // g
    b = r[c] // g
    out = {k: a * v for k, v in r.items()} if a != 1 else dict(r)
    for k, v in p.items():
        x = out.get(k, 0) - b * v
        if x:
            out[k] = x
        else:
            out.pop(k, None)
    return _divided(out) if out else out


def rref_rows(rows):
    """Reduced row echelon form over the rationals, exact, on integer rows.

    ``rows`` are sparse integer rows ``{column: int}`` holding only nonzero
    entries; a row may be scaled by any nonzero rational without changing
    the result.  Returns ``(rows, pivots)``: one primitive integer row per
    pivot column, in pivot order, with a positive pivot and zero at every
    other pivot column.  Dividing each row by its pivot gives the rank
    nonzero rows of the RREF, which is unique, so the output does not
    depend on the elimination order.  Rows of the output may be rows of the
    input; no caller mutates either.

    Elimination is fraction-free as in Bareiss (1968), with rows kept
    primitive instead of divided by the last pivot.  Rows are inserted
    sparsest first: a row is reduced by the pivot row of its leading column
    until it is zero or leads in a new column.  Back substitution, last
    pivot first, then clears the other pivot columns.
    """
    lead = {}
    for r in sorted(filter(None, rows), key=len):
        r = _divided(r)
        while r:
            c = min(r)
            p = lead.get(c)
            if p is None:
                lead[c] = r
                break
            r = _eliminate(r, p, c)
    pivots = sorted(lead)
    # rows led further right are already free of every other pivot column,
    # so one reduction per pivot column clears each row
    for c in reversed(pivots):
        r = lead[c]
        for k in [k for k in r if k != c and k in lead]:
            r = _eliminate(r, lead[k], k)
        lead[c] = r
    out = []
    for c in pivots:
        r = lead[c]
        out.append(r if r[c] > 0 else {k: -v for k, v in r.items()})
    return out, pivots


def mat_mul(a, b):
    """Product of two integer matrices given as lists of rows."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def poly_mul(ta, tb):
    """Product of sparse term maps ``{exponent tuple: (num, den)}``."""
    if not ta or not tb:
        return {}
    out = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            c = q_mul(ca, cb)
            e = tuple(x + y for x, y in zip(ea, eb))
            acc = out.get(e)
            if acc is None:
                out[e] = c
            else:
                s = q_add(acc, c)
                if s[0] == 0:
                    del out[e]
                else:
                    out[e] = s
    return out


def poly_eval(terms, point):
    """Evaluate a sparse term map at a rational point (tuple of pairs)."""
    if not terms:
        return ZERO
    nv = len(point)
    # cache powers per variable; exponents repeat heavily across terms
    pows = [{0: ONE, 1: point[i]} for i in range(nv)]
    acc = ZERO
    for e, c in terms.items():
        v = c
        for i in range(nv):
            ei = e[i]
            if ei:
                cache = pows[i]
                p = cache.get(ei)
                if p is None:
                    p = cache[1]
                    base = p
                    for _ in range(ei - 1):
                        p = q_mul(p, base)
                    cache[ei] = p
                v = q_mul(v, p)
                if v[0] == 0:
                    break
        acc = q_add(acc, v)
    return acc
