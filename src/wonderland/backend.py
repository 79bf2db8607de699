"""Exact integer kernels for row reduction, matrix products and sparse
polynomials.

Row reduction and matrix products are integer kernels.  ``rref_rows`` takes
sparse integer rows ``{column: int}`` and returns one primitive integer row
per pivot; it visits only nonzero entries.  ``mat_mul`` multiplies integer
matrices given as lists of rows.  ``linalg`` scales its ``Fraction`` rows to
integers on the way in and forms ``Fraction``s on the way out.

The polynomial kernels are integer kernels too.  ``poly_mul`` convolves two
sparse integer term maps ``{exponent tuple: int}``, and ``poly_eval`` gives
the integer values of a table of monomials at a point scaled to integers
over one denominator.  ``poly.MultiPoly`` keeps its coefficients as integers
over one denominator, so it hands both kernels its integers as they are.
"""

from math import gcd
from operator import add, mul

# the kernel implementation's name, recorded with benchmark results
BACKEND = "pure"


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
    """Product of sparse integer term maps ``{exponent tuple: int}``, as a
    term map of its nonzero coefficients.  The benchmark tracer counts this
    kernel by name, as ``kernels.poly_mul``."""
    out = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_eval(table, top, ints, q):
    """The integer values of the monomials ``table`` at the point ``ints / q``.

    Each monomial m is ``(factors, top - deg m)`` with ``factors`` its
    ``(variable, exponent)`` pairs; its value is n^m q^(top - deg m), that
    is q^top z^m, so one integer per monomial and no division.  Powers are
    cached per variable, since exponents repeat across monomials.  Returns
    the values and q^top.  The benchmark tracer counts this kernel by name,
    as ``kernels.poly_eval``."""
    pows = [[1, x] for x in ints]
    qpow = [1]
    for _ in range(top):
        qpow.append(qpow[-1] * q)
    values = []
    for factors, rest in table:
        x = qpow[rest]
        for v, k in factors:
            pv = pows[v]
            while len(pv) <= k:
                pv.append(pv[-1] * pv[1])
            x *= pv[k]
        values.append(x)
    return values, qpow[-1]
