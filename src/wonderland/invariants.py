"""Polynomial invariants as infinitesimal-action kernels.

A connected group leaves a polynomial invariant iff every Lie algebra
derivation annihilates it, so graded invariant spaces are exact kernels of
stacked derivation matrices on monomial bases.  No averaging operator, no
floating point: everything is a rational rref.

A degree-zero ``ProjectiveInvariant`` evaluates through one compiled
``poly.RationalFn``, and its chart gradients are covectors (integers over
one denominator) that go to ``Bivector.bracket_eval`` as they are.

Importing this module loads ``backend``, ``linalg`` and ``poly`` only;
what reads charts or brackets imports ``geometry`` or ``poisson`` when
called, and the actions import ``lie``.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm, prod

from wonderland.linalg import ZERO, Matrix, row_span_contains
from wonderland.poly import MonomialTable, MultiPoly, RationalFn, grlex_key


class LinearAction:
    """Infinitesimal action of a Lie algebra on an affine coordinate space.

    ``rho_mats[i]`` is the matrix of the i-th basis element acting on the
    space itself; the induced derivation on coordinate functions is
    D_x(z_a) = -sum_b rho(x)[a][b] z_b, extended by Leibniz.  The matrices
    must satisfy rho([x,y]) = [rho(x), rho(y)] exactly, which is checked.
    ``groups`` lists the variable indices of each grading factor.
    """

    def __init__(self, alg, variables, rho_mats, groups):
        self.alg = alg
        self.variables = tuple(variables)
        self.rho_mats = list(rho_mats)
        n = len(self.variables)
        if any(m.rows != n or m.cols != n for m in self.rho_mats):
            raise ValueError("action matrix size does not match variable count")
        if len(self.rho_mats) != alg.dim:
            raise ValueError("need one action matrix per basis element")
        self.groups = [list(g) for g in groups]
        self._check_representation()

    def _check_representation(self):
        """R_i R_j - R_j R_i = d sum_k c_ij^k R_k for every pair i < j, on
        the sparse integer rows R_i = d rho_mats[i], d their common
        denominator."""
        d = lcm(*(x.denominator for m in self.rho_mats for row in m.data for x in row))
        R = [
            [{b: x.numerator * (d // x.denominator) for b, x in enumerate(r) if x} for r in m.data]
            for m in self.rho_mats
        ]
        for i, j in combinations(range(self.alg.dim), 2):
            for a in range(len(self.variables)):
                diff = {}
                for x, y, s in ((R[i], R[j], 1), (R[j], R[i], -1)):
                    for b, c in x[a].items():
                        for col, v in y[b].items():
                            diff[col] = diff.get(col, 0) + s * c * v
                for k, c in self.alg._nonzero[i][j]:
                    for col, v in R[k][a].items():
                        diff[col] = diff.get(col, 0) - d * c * v
                if any(diff.values()):
                    raise ValueError(
                        "action matrices do not represent the bracket at (%d,%d)" % (i, j)
                    )

    def derivation_rows(self, monos):
        """The derivations D_i stacked on the span of the monomials ``monos``.

        Row (i, m) has at column j the coefficient of monos[m] in
        D_i(monos[j]), read off by exponent arithmetic from
        D_i(z^e) = -sum_{a,b} e_a rho_i[a][b] z^(e - 1_a + 1_b).  Zero rows
        and repeated rows are dropped, which leaves the kernel unchanged; a
        system with no nonzero row keeps one zero row so that the column count
        survives.  All zero entries are the shared ``linalg.ZERO``.  Rows are
        yielded one at a time, for ``Matrix`` to consume with no second copy.
        """
        index = {e: m for m, e in enumerate(monos)}
        rows = {}
        for rho in self.rho_mats:
            lin = [[(b, -c) for b, c in enumerate(row) if c] for row in rho.data]
            block = [{} for _ in monos]
            for j, e in enumerate(monos):
                for a, k in enumerate(e):
                    if not k:
                        continue
                    for b, c in lin[a]:
                        img = list(e)
                        img[a] -= 1
                        img[b] += 1
                        entries = block[index[tuple(img)]]
                        entries[j] = entries.get(j, 0) + k * c
            for entries in block:
                # columns were filled in increasing order
                key = tuple((j, c) for j, c in entries.items() if c)
                if key:
                    rows[key] = None
        for key in rows or [()]:
            row = [ZERO] * len(monos)
            for j, c in key:
                row[j] = c
            yield row


def compositions(total, k):
    """All k-tuples of nonnegative integers with the given sum,
    lexicographically largest first (deterministic order)."""
    if k == 0:
        return [()] if total == 0 else []
    if k == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in compositions(total - first, k - 1):
            out.append((first,) + rest)
    return out


def monomial_basis(action, degree):
    """Exponent tuples of the given multidegree, a tuple with one degree
    per grading group, in canonical order."""
    n = len(action.variables)
    if len(degree) != len(action.groups):
        raise ValueError("multidegree length does not match grading groups")
    if any(d < 0 for d in degree):
        raise ValueError("degree must be nonnegative, got %r" % (degree,))
    per_group = [compositions(d, len(g)) for d, g in zip(degree, action.groups)]
    exps = [[0] * n]
    for g, combos in zip(action.groups, per_group):
        new = []
        for base in exps:
            for combo in combos:
                e = list(base)
                for idx, k in zip(g, combo):
                    e[idx] = k
                new.append(e)
        exps = new
    return sorted(map(tuple, exps), key=grlex_key, reverse=True)


class InvariantSpace:
    """Echelonized basis of the invariants of one multidegree."""

    def __init__(self, degree, basis):
        self.degree = degree
        self.basis = list(basis)

    @property
    def dimension(self):
        return len(self.basis)

    def contains(self, p):
        """Exact membership in the span."""
        if not self.basis:
            return p.is_zero()
        monos = list({e for q in self.basis for e in q.ints} | set(p.ints))
        # each row is its polynomial times its denominator, which spans the same
        return row_span_contains(
            [[q.ints.get(e, 0) for e in monos] for q in self.basis],
            [p.ints.get(e, 0) for e in monos],
        )

    def to_json(self):
        return {
            "degree": list(self.degree),
            "dimension": self.dimension,
            "basis": [p.to_json() for p in self.basis],
        }


def invariants_of_degree(action, degree):
    """Exact kernel of the stacked derivations on the monomial basis of
    the multidegree ``degree``, a tuple; the basis polynomials share the
    basis's exponent tuples as keys of their nonzero terms."""
    monos = monomial_basis(action, degree)
    if not monos:
        return InvariantSpace(degree, [])
    kernel = Matrix(action.derivation_rows(monos)).kernel_basis()
    basis = [
        MultiPoly(action.variables, {monos[m]: x for m, x in enumerate(v) if x is not ZERO})
        for v in kernel
    ]
    return InvariantSpace(degree, basis)


# ---------------------------------------------------------------------------
# concrete actions for the PGL2 examples
# ---------------------------------------------------------------------------


def m2_variables(factors):
    if factors == 1:
        return ("a", "b", "c", "d")
    out = []
    for l in range(1, factors + 1):
        out.extend(("a%d" % l, "b%d" % l, "c%d" % l, "d%d" % l))
    return tuple(out)


def _conj_rho_4x4(x):
    """The matrix of A -> xA - Ax on flat (a, b, c, d) coordinates."""
    out = Matrix.zero(4, 4)
    for col in range(4):
        A = Matrix.zero(2, 2)
        A.data[col // 2][col % 2] = Fraction(1)
        img = x * A - A * x
        flat = [img.data[0][0], img.data[0][1], img.data[1][0], img.data[1][1]]
        for row in range(4):
            out.data[row][col] = flat[row]
    return out


def conjugation_action(sl2, factors):
    """Simultaneous conjugation on ``factors`` copies of M_2."""
    from wonderland.lie import sl_basis_matrix

    variables = m2_variables(factors)
    rho = []
    for i in range(3):
        x = sl_basis_matrix(2, i)
        blk = _conj_rho_4x4(x)
        big = Matrix.zero(4 * factors, 4 * factors)
        for l in range(factors):
            for r in range(4):
                for c in range(4):
                    big.data[4 * l + r][4 * l + c] = blk.data[r][c]
        rho.append(big)
    groups = [list(range(4 * l, 4 * l + 4)) for l in range(factors)]
    return LinearAction(sl2, variables, rho, groups)


def mixed_factor_action(sl2, kinds):
    """Diagonal action on a mixed product of factors.

    ``kinds`` is a list of 'm2' (conjugation on a matrix factor), 'line'
    (left multiplication on a projective-line factor), or 'line_dual' (the
    inverse-transpose line action).  One grading group per factor.
    """
    from wonderland.lie import sl_basis_matrix

    sizes = {"m2": 4, "line": 2, "line_dual": 2}
    names = []
    groups = []
    for l, kind in enumerate(kinds, start=1):
        start = len(names)
        if kind == "m2":
            names.extend(("a%d" % l, "b%d" % l, "c%d" % l, "d%d" % l))
        else:
            names.extend(("u%d" % l, "v%d" % l))
        groups.append(list(range(start, start + sizes[kind])))
    rho = []
    total = len(names)
    for i in range(3):
        x = sl_basis_matrix(2, i)
        big = Matrix.zero(total, total)
        pos = 0
        for kind in kinds:
            if kind == "m2":
                blk = _conj_rho_4x4(x)
            elif kind == "line":
                blk = x
            else:
                blk = -(x.transpose())
            sz = sizes[kind]
            for r in range(sz):
                for c in range(sz):
                    big.data[pos + r][pos + c] = blk.data[r][c]
            pos += sz
        rho.append(big)
    return LinearAction(sl2, names, rho, groups)


# ---------------------------------------------------------------------------
# trace polynomials and generators
# ---------------------------------------------------------------------------


def factor_matrix(variables, factor):
    """The 2x2 matrix of coordinate functions of one factor."""
    base = 4 * (factor - 1)
    g = [MultiPoly.var(variables, variables[base + k]) for k in range(4)]
    return [[g[0], g[1]], [g[2], g[3]]]


def _poly_matmul(x, y):
    return [
        [x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)]
        for i in range(2)
    ]


def trace_of_word(variables, word):
    """tr of a product of factor matrices, e.g. word (1, 2) gives tr(AB)."""
    mats = [factor_matrix(variables, f) for f in word]
    prod = mats[0]
    for m in mats[1:]:
        prod = _poly_matmul(prod, m)
    return prod[0][0] + prod[1][1]


def det_of_factor(variables, factor):
    m = factor_matrix(variables, factor)
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def trace_coordinates(factors):
    """The PGL2 trace coordinates of ``factors`` matrix factors (Procesi,
    Adv. Math. 19, 1976) as (name, polynomial, multidegree): tr of each
    factor, tr of each product of two, then det of each factor.  One factor
    gives tr, det; two give trA, trB, trAB, detA, detB."""
    v = m2_variables(factors)
    ls = range(1, factors + 1)
    letter = {1: ""} if factors == 1 else {l: chr(ord("A") + l - 1) for l in ls}

    def degree(word):
        return tuple(word.count(l) for l in ls)

    traces = [(l,) for l in ls] + list(combinations(ls, 2))
    return [
        ("tr" + "".join(letter[l] for l in w), trace_of_word(v, w), degree(w)) for w in traces
    ] + [("det" + letter[l], det_of_factor(v, l), degree((l, l))) for l in ls]


def traces_over_dets(coords):
    """Each trace coordinate t of ``coords`` beside the product of the dets
    of the factors t involves, both as (name, polynomial, multidegree);
    t^2 over that product is a degree-zero invariant."""
    dets = [c for c in coords if c[0].startswith("det")]
    out = []
    for name, t, deg in coords:
        if name.startswith("tr"):
            names, polys, degs = zip(*(dets[l] for l, k in enumerate(deg) if k))
            d = prod(polys[1:], start=polys[0])
            out.append(((name, t, deg), ("".join(names), d, tuple(map(sum, zip(*degs))))))
    return out


def trace_generators(sl2, r):
    """The generating invariants for one or two matrix factors, as (name,
    polynomial).

    r = 1: trace and determinant; r = 2: the three traces (tr A, tr B,
    tr AB).  Each polynomial is re-verified invariant through the kernel
    spaces before being returned.
    """
    if r not in (1, 2):
        raise ValueError("generators are provided for r in {1, 2} only")
    action = conjugation_action(sl2, r)
    gens = [c for c in trace_coordinates(r) if r == 1 or c[0].startswith("tr")]
    for name, p, deg in gens:
        if not invariants_of_degree(action, deg).contains(p):
            raise AssertionError("generator %s failed the invariance kernel" % name)
    return [(name, p) for name, p, _ in gens]


# ---------------------------------------------------------------------------
# expressing invariants in generators
# ---------------------------------------------------------------------------


NO_EXPRESSION = None

# sample points beyond one per monomial in the fit, and held out to verify it
EXTRA_SAMPLES = 6


def express_in_generators(f, gens, bound, sampler, symbolic=True):
    """Match the polynomial ``f`` against monomials of total degree <= bound
    in the (name, polynomial) generators ``gens``.

    ``f`` and the generators are evaluated through one compiled
    ``MonomialTable`` at points supplied by ``sampler`` (a callable
    returning points of their variables); an exact linear solve either
    yields coefficients or NO-EXPRESSION.  The coefficients are verified by
    comparing their expansion with ``f`` symbolically, or, with ``symbolic``
    False, on ``EXTRA_SAMPLES`` held-out samples.
    """
    if bound < 0:
        raise ValueError("degree bound must be >= 0, got %d" % bound)
    gen_polys = [g for _, g in gens]
    monos = []
    for total in range(bound + 1):
        monos.extend(compositions(total, len(gen_polys)))
    table = MonomialTable([gen_polys + [f]])

    def values(pt):
        """The generators' values and f's at the point."""
        ((ints, den),) = table.values(pt)
        return [Fraction(n, den) for n in ints]

    def monomial(gvals, e, c=Fraction(1)):
        """c times the monomial with exponents e in the generators' values."""
        return prod((gv**k for gv, k in zip(gvals, e) if k), start=c)

    def attempt(n_samples):
        rows, rhs = [], []
        for _ in range(n_samples):
            *gvals, want = values(sampler())
            rows.append([monomial(gvals, e) for e in monos])
            rhs.append(want)
        m = Matrix(rows)
        sol = m.solve(rhs)
        return m, sol

    n = len(monos) + EXTRA_SAMPLES
    m, sol = attempt(n)
    if sol is not None and m.rank() < len(monos):
        m, sol = attempt(2 * n)
        if sol is not None and m.rank() < len(monos):
            raise ValueError(
                "insufficient independent sample points for %d monomials" % len(monos)
            )
    if sol is None:
        return NO_EXPRESSION
    coeffs = {e: c for e, c in zip(monos, sol) if c != 0}
    if symbolic:
        expansion = expression_poly(coeffs, gen_polys, f.variables)
        if expansion != f:
            return NO_EXPRESSION
    else:
        for _ in range(EXTRA_SAMPLES):
            *gvals, want = values(sampler())
            if sum((monomial(gvals, e, c) for e, c in coeffs.items()), Fraction(0)) != want:
                return NO_EXPRESSION
    return coeffs


def expression_poly(coeffs, gen_polys, variables):
    out = MultiPoly.zero(variables)
    for e, c in coeffs.items():
        term = MultiPoly.const(variables, c)
        for g, k in zip(gen_polys, e):
            if k:
                term = term * g**k
        out = out + term
    return out


# ---------------------------------------------------------------------------
# degree-zero projective invariants and bracket closure
# ---------------------------------------------------------------------------


class ProjectiveInvariant:
    """A degree-0 multihomogeneous rational function on a product of
    projective matrix factors; well-defined on points, restrictable to any
    chart of the product.  Invariance is the caller's contract (the same
    container also carries the non-invariant controls in the tests)."""

    def __init__(self, name, num, den, factors):
        self.name = name
        self.num = num
        self.den = den
        self.factors = factors
        for l in range(1, factors + 1):
            dn = _factor_degree(num, l)
            dd = _factor_degree(den, l)
            if dn is None or dd is None or dn != dd:
                raise ValueError(
                    "%s is not degree-0 homogeneous in factor %d" % (name, l)
                )
        self.fn = RationalFn(num, den)

    def _at(self, method, points, *args):
        """``method`` of ``fn`` at the points' integer vectors; a vanishing
        denominator names this invariant."""
        try:
            return method([x for p in points for x in p.vec], *args)
        except ZeroDivisionError:
            raise ZeroDivisionError("%s undefined at sample" % self.name) from None

    def value_at(self, points):
        return self._at(self.fn.eval, points)

    def _check_factor_count(self, count):
        if count != self.factors:
            raise ValueError(
                "%s lives on %d factors, chart has %d" % (self.name, self.factors, count)
            )

    def restrict(self, pc):
        """RationalFn in the coordinates of a ``ProductChart`` of factor
        charts."""
        self._check_factor_count(len(pc.factors))
        polys = [q for l in range(len(pc.factors)) for q in pc.ambient_polys(l)]
        images = dict(zip(self.num.variables, polys))
        return RationalFn(self.num.subs(images), self.den.subs(images))

    def chart_grad_at(self, charts, points):
        """Gradient of num/den in the coordinates of per-factor ProjCharts
        at the points, as a covector equal to
        ``restrict(charts).grad_at(coords)``.

        A ProjChart's coordinates are the entries at ``chart.positions`` of
        the representative whose normalizing entry is 1, so by the chain
        rule the chart gradient is the ambient gradient of F = num/den at
        the chart-normalized representative, read at the chart positions.
        F has degree 0 in each factor, so its partials along factor l have
        degree -1 there: at vec / c_l, c_l = vec_l[norm_index], they are c_l
        times their value at the integer vec.  So ``fn.grad_at`` at vec
        gives it, each chart position of factor l scaled by c_l."""
        self._check_factor_count(len(charts))
        entries = []
        for l, (chart, p) in enumerate(zip(charts, points)):
            c = p.vec[chart.norm_index]
            if c == 0:
                from wonderland.geometry import ChartDomainError
                raise ChartDomainError("point lies outside chart %d" % chart.norm_index)
            entries.extend((4 * l + k, c) for k in chart.positions)
        return self._at(self.fn.grad_at, points, entries)


def _factor_degree(p, factor):
    if p.is_zero():
        return 0
    base = 4 * (factor - 1)
    degs = {sum(e[base : base + 4]) for e in p.ints}
    return degs.pop() if len(degs) == 1 else None


def pgl2_surrogates(factors):
    """The standard degree-0 invariants: each trace coordinate squared over
    the dets of the factors it involves, and for two factors the triple
    product trA trB trAB over both dets."""
    pairs = traces_over_dets(trace_coordinates(factors))
    out = [
        ProjectiveInvariant("%s2_over_%s" % (n, dn), t**2, d, factors)
        for (n, t, _), (dn, d, _) in pairs[:factors]
    ]
    if factors == 2:
        trA, trB, trAB = (t for (_, t, _), _ in pairs)
        dets = pairs[2][1][1]
        out.append(ProjectiveInvariant("trAB2_over_dets", trAB**2, dets, 2))
        out.append(ProjectiveInvariant("triple_over_dets", trA * trB * trAB, dets, 2))
    return out


def mixed_bracket_value(model, splitting, points, f, g):
    """{f, g} at a tuple of points, through the mixed product structure.

    The bivector value is assembled pointwise in the canonical charts at
    the points and paired with the exact chart gradients of the functions
    at the points.  The result is a value of the bracket function at the
    point tuple, which does not depend on the charts.
    """
    from wonderland.poisson import mixed_value_in_charts

    charts = [model.chart_at(p) for p in points]
    L = mixed_value_in_charts(model, splitting, points, charts)
    return L.bracket_eval(f.chart_grad_at(charts, points), g.chart_grad_at(charts, points))


def conjugated(model, points, conj):
    """The points moved by the conjugating element c: c . m."""
    from wonderland.geometry import GroupPair

    pair = GroupPair(conj, conj)
    return [model.act(pair, p) for p in points]


def closure_residual(f, g, points, before, after, name="bracket-closure"):
    """The closure residual {f,g}(m) - {f,g}(c . m) at the points m, from
    the two bracket values."""
    from wonderland.poisson import residual_from_values

    return residual_from_values(
        name,
        {"points": [repr(p) for p in points], "f": f.name, "g": g.name},
        [before - after],
        details={"value": str(before)},
    )


def invariant_bracket_closure(model, splitting, f, g, points, conj, name):
    """{f,g}(c . m) = {f,g}(m) for a conjugating element c: the pointwise
    content of invariants forming a Poisson subalgebra."""
    before = mixed_bracket_value(model, splitting, points, f, g)
    after = mixed_bracket_value(model, splitting, conjugated(model, points, conj), f, g)
    return closure_residual(f, g, points, before, after, name)
