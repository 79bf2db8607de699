"""Exact rational kernels for row reduction, matrix products and sparse
polynomials.

Rationals are reduced ``(num, den)`` int pairs with ``den > 0``, which avoids
the per-operation overhead of ``fractions.Fraction`` in the inner loops;
``linalg`` and ``poly`` convert their ``Fraction`` entries to pairs at the
call.  ``rref_rows`` takes and returns dense rows but eliminates over the
nonzero entries only, on integer rows; its output is the unique RREF.
"""

from math import gcd

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


def _primitive(row):
    """The nonzero entries of a pair row as ``{column: int}``: the row scaled
    by the lcm of its denominators and divided by the gcd of the result, or
    None for a zero row."""
    nz = [(j, x) for j, x in enumerate(row) if x[0]]
    if not nz:
        return None
    den = 1
    for _, (_, d) in nz:
        if d != 1:
            den = den // gcd(den, d) * d
    out = {j: n * (den // d) for j, (n, d) in nz}
    g = gcd(*out.values())
    if g > 1:
        out = {j: v // g for j, v in out.items()}
    return out


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
    if out:
        g = gcd(*out.values())
        if g > 1:
            out = {k: v // g for k, v in out.items()}
    return out


def rref_rows(rows):
    """Reduced row echelon form over the rationals, exact.

    ``rows`` is a list of rows of (num, den) pairs.  Returns
    ``(new_rows, rank, pivot_columns)``: the rank nonzero rows of the RREF in
    pivot order, each pivot 1 with zeros above and below, then ``nr - rank``
    zero rows.  The RREF of a row space is unique, so the output does not
    depend on the elimination order.

    Elimination visits only nonzero entries.  Each row becomes a primitive
    integer row ``{column: int}``, so the sweep is fraction-free as in
    Bareiss (1968), with rows kept primitive instead of divided by the last
    pivot; no rational is formed until the end.  Rows are inserted sparsest
    first: a row is reduced by the pivot row of its leading column until it
    is zero or leads in a new column.  Back substitution, last pivot first,
    then clears the other pivot columns, and each row is divided by its
    pivot.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    sparse = [r for r in map(_primitive, rows) if r]
    sparse.sort(key=len)
    lead = {}
    for r in sparse:
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
        pc = r[c]
        dense = [ZERO] * nc
        for k, v in r.items():
            g = gcd(v, pc)
            n, d = v // g, pc // g
            dense[k] = (-n, -d) if d < 0 else (n, d)
        out.append(dense)
    out.extend([ZERO] * nc for _ in range(nr - len(pivots)))
    return out, len(pivots), pivots


def mat_mul(a, b):
    """Exact product of two pair-matrices (lists of rows of pairs)."""
    nr = len(a)
    inner = len(b)
    nc = len(b[0]) if inner else 0
    out = []
    for i in range(nr):
        ai = a[i]
        row = []
        for j in range(nc):
            acc = ZERO
            for k in range(inner):
                x = ai[k]
                if x[0] != 0:
                    y = b[k][j]
                    if y[0] != 0:
                        acc = q_add(acc, q_mul(x, y))
            row.append(acc)
        out.append(row)
    return out


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
