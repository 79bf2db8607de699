"""Checks of the program's outputs that share no code with the program.

Everything here is plain ``int``/``Fraction`` arithmetic written for the
benchmark, or SymPy's sparse polynomial rings.  Nothing imports
``wonderland``; callers pass the program's outputs in as plain data
(JSON reports, exponent dictionaries, coordinate rows).
"""

import json
from fractions import Fraction
from itertools import product


class OracleError(AssertionError):
    """A program output disagrees with the independent computation."""


def require(cond, message):
    if not cond:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# counting monomials in free generators
# ---------------------------------------------------------------------------


def m2_invariant_dimension(d):
    """dim C[M_2]^{SL_2} in degree d: monomials tr^i det^j with i + 2j = d."""
    return sum(1 for i in range(d + 1) for j in range(d + 1) if i + 2 * j == d)


# multidegrees of trA, trB, trAB, detA, detB
_M2X2_GENERATORS = ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2))


def m2x2_invariant_dimension(p, q):
    """dim C[M_2 x M_2]^{SL_2} in bidegree (p, q): monomials in the five
    free generators trA, trB, trAB, detA, detB of that bidegree."""
    count = 0
    bounds = [range(max(p, q) + 1)] * len(_M2X2_GENERATORS)
    for exps in product(*bounds):
        dp = sum(e * g[0] for e, g in zip(exps, _M2X2_GENERATORS))
        dq = sum(e * g[1] for e, g in zip(exps, _M2X2_GENERATORS))
        if (dp, dq) == (p, q):
            count += 1
    return count


def weight12_hilbert(max_degree):
    """Coefficients of 1 / ((1 - t)(1 - t^2)) up to t^max_degree."""
    return [d // 2 + 1 for d in range(max_degree + 1)]


# ---------------------------------------------------------------------------
# small exact matrices as lists of Fractions
# ---------------------------------------------------------------------------


def mat_mul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def trace(a):
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def rank(rows):
    """Rank by plain Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def sl_unipotent_product(entries, n):
    """lower(entries) * upper(entries) * diag(t_1, .., t_{n-1}, 1/prod t):
    a determinant-one n x n matrix from n(n-1) + (n-1) rationals (the
    diagonal ones nonzero)."""
    it = iter(entries)
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = next(it)
            upper[j][i] = next(it)
    diag = [[Fraction(0)] * n for _ in range(n)]
    prod = Fraction(1)
    for k in range(n - 1):
        t = next(it)
        require(t != 0, "diagonal factor must be nonzero")
        diag[k][k] = t
        prod *= t
    diag[n - 1][n - 1] = 1 / prod
    return mat_mul(mat_mul(lower, upper), diag)


# ---------------------------------------------------------------------------
# run-all report checks
# ---------------------------------------------------------------------------

NEGATIVE_CONTROL = "tangency/negative-control"


def expected_check_counts(samples):
    """Checks per name implied by an ``all`` config, from the experiment
    definitions: jacobi samples on each of the 4 charts, one action-map
    identity after the action samples, one negative control after the
    tangency samples, 1 and 3 bracket pairs per glue sample on the one- and
    two-factor overlaps, an interior x boundary saturation grid plus its
    summary, two rank-one checks and eight F2 checks."""
    quarter = max(2, samples // 4)
    counts = {"jacobi/chart%d" % k: samples for k in range(4)}
    counts.update(
        {
            "poisson-action": samples,
            "action-map-identities": 1,
            "diagonal-action": samples,
            "pi-multiplicativity": samples,
            "tangency/det0": samples,
            NEGATIVE_CONTROL: 1,
            "glue/tr-det": max(2, samples // 2),
            "glue/trAB-detAdetB": 3 * samples,
            "saturation-separation": quarter * quarter,
            "saturation/boundary-pairs": 1,
            "rank1/torus-quotient": 1,
            "rank1/bracket-table-zero": 1,
            "f2/trace-fixture": 1,
            "f2/quotient-table-zero": 1,
            "product-bracket": 1,
            "projection-poisson": 1,
            "f2/closure": 3,
            "f2/word-identity": 1,
        }
    )
    return counts


def check_run_all_report(text, seed, samples, degree):
    """Verify one ``run --experiment all`` report; returns the number of
    degenerate negative controls (0 or 1)."""
    rep = json.loads(text)
    require(rep["config"]["seed"] == seed, "report records another seed")
    require(rep["config"]["samples"] == samples, "report records another sample count")
    checks = rep["checks"]
    want = expected_check_counts(samples)
    got = {}
    degenerate = 0
    for c in checks:
        name = c["name"]
        got[name] = got.get(name, 0) + 1
        require("skipped" not in c["sample"], "skipped check %r" % name)
        if name == NEGATIVE_CONTROL:
            # the control passes when the contraction is nonzero; a zero
            # contraction at a degenerate sample is recorded, not gated
            require(c["pass"] == (c["residual"] != "0"), "negative control inconsistent")
            degenerate += 0 if c["pass"] else 1
            continue
        require(c["pass"], "check %r failed" % name)
        require(c["residual"] == "0", "check %r has nonzero residual" % name)
    require(got == want, "check counts %r differ from the config's %r" % (got, want))
    summary = rep["summary"]
    require(summary["pass"] + summary["fail"] == len(checks), "summary does not add up")
    require(summary["fail"] == degenerate, "summary fail count is off")

    by_name = {c["name"]: c for c in checks}
    # F2 trace fixture with plain integers: A = [[1,1],[0,1]], B = [[1,0],[1,1]]
    a = [[1, 1], [0, 1]]
    b = [[1, 0], [1, 1]]
    ab = [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    fixture = [str(a[0][0] + a[1][1]), str(b[0][0] + b[1][1]), str(ab[0][0] + ab[1][1])]
    f2 = by_name["f2/trace-fixture"]
    require(f2["sample"]["expected"] == fixture, "F2 fixture expectation differs")
    require(f2["pass"] and f2["residual"] == "0", "F2 fixture failed")
    # rank-one graded dimensions against the weight-(1,2) Hilbert series
    r1 = by_name["rank1/torus-quotient"]["details"]
    max_degree = degree + 2
    hilbert = weight12_hilbert(max_degree)
    require(r1["invariant_dims"] == hilbert, "rank-one dimensions %r" % r1["invariant_dims"])
    require(r1["weighted_ring_dims"] == hilbert, "rank-one weighted dimensions differ")
    return degenerate


# ---------------------------------------------------------------------------
# invariance under conjugation, with SymPy
# ---------------------------------------------------------------------------


class ConjugationOracle:
    """Substitutes A -> g A g^{-1} (factorwise) into polynomials in the
    entries of 2x2 matrices and compares with the original, in SymPy's
    sparse rational polynomial ring."""

    def __init__(self, variables, g):
        from sympy import QQ
        from sympy.polys.rings import ring

        self.variables = tuple(variables)
        self.ring, *gens = ring(",".join(self.variables), QQ)
        self.QQ = QQ
        sym = dict(zip(self.variables, gens))
        g = [[QQ(x.numerator, x.denominator) for x in row] for row in g]
        gi = inverse2_qq(g)
        images = []
        for f in range(len(self.variables) // 4):
            a, b, c, d = (sym[v] for v in self.variables[4 * f : 4 * f + 4])
            m = [[a, b], [c, d]]
            gm = [[g[i][0] * m[0][j] + g[i][1] * m[1][j] for j in range(2)] for i in range(2)]
            conj = [[gm[i][0] * gi[0][j] + gm[i][1] * gi[1][j] for j in range(2)] for i in range(2)]
            images.extend([conj[0][0], conj[0][1], conj[1][0], conj[1][1]])
        self.images = images
        self.gens = gens

    def to_ring(self, terms):
        out = self.ring.zero
        for exps, c in terms.items():
            mono = self.ring.one
            for gen, e in zip(self.gens, exps):
                if e:
                    mono *= gen**e
            out += self.QQ(c.numerator, c.denominator) * mono
        return out

    def is_invariant(self, terms):
        p = self.to_ring(terms)
        pows = [{0: self.ring.one} for _ in self.images]
        moved = self.ring.zero
        for exps, c in terms.items():
            term = self.ring(self.QQ(c.numerator, c.denominator))
            for k, e in enumerate(exps):
                if e:
                    cache = pows[k]
                    if e not in cache:
                        cache[e] = self.images[k] ** e
                    term *= cache[e]
            moved += term
        return moved == p


def inverse2_qq(g):
    d = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    return [[g[1][1] / d, -g[0][1] / d], [-g[1][0] / d, g[0][0] / d]]


def fricke_holds(a, b):
    """tr(ABAB) = tr(AB)^2 - 2 for determinant-one A, B (plain Fractions)."""
    ab = mat_mul(a, b)
    return trace(mat_mul(ab, ab)) == trace(ab) ** 2 - 2


# ---------------------------------------------------------------------------
# Lagrangian subspaces of the double of sl_n
# ---------------------------------------------------------------------------


def sl_matrix(n, coords):
    """The traceless matrix with the given coordinates in the elementary
    basis E_ij (i < j), H_k = E_kk - E_(k+1)(k+1), E_ij (i > j)."""
    pos = [(i, j) for i in range(n) for j in range(i + 1, n)]
    neg = [(j, i) for (i, j) in pos]
    m = [[Fraction(0)] * n for _ in range(n)]
    it = iter(coords)
    for (i, j) in pos:
        m[i][j] = Fraction(next(it))
    for k in range(n - 1):
        h = Fraction(next(it))
        m[k][k] += h
        m[k + 1][k + 1] -= h
    for (i, j) in neg:
        m[i][j] = Fraction(next(it))
    return m


def check_lagrangian(rows, n):
    """A row span in the double sl_n (+) sl_n is half-dimensional and
    isotropic for tr(x1 y1) - tr(x2 y2) (a multiple of the split Killing
    form)."""
    dim = n * n - 1
    require(len(rows) == dim and all(len(r) == 2 * dim for r in rows), "subspace shape")
    require(rank(rows) == dim, "subspace is not half-dimensional")
    mats = [(sl_matrix(n, r[:dim]), sl_matrix(n, r[dim:])) for r in rows]
    for i in range(dim):
        for j in range(i, dim):
            (x1, x2), (y1, y2) = mats[i], mats[j]
            val = trace(mat_mul(x1, y1)) - trace(mat_mul(x2, y2))
            require(val == 0, "subspace is not isotropic at rows %d, %d" % (i, j))
