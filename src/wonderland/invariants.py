"""Polynomial invariants as infinitesimal-action kernels.

A connected group leaves a polynomial invariant iff every Lie algebra
derivation annihilates it, so graded invariant spaces are exact kernels of
stacked derivation matrices on monomial bases.  No averaging operator, no
floating point: everything is a rational rref.
"""

from fractions import Fraction

from wonderland.geometry import ChartDomainError, ProductChart
from wonderland.linalg import ZERO, Matrix, row_span_contains
from wonderland.poisson import mixed_value_in_charts, residual_from_values
from wonderland.poly import MonomialTable, MultiPoly, RationalFn, grlex_key

Q = Fraction


class LinearAction:
    """Infinitesimal action of a Lie algebra on an affine coordinate space.

    ``rho_mats[i]`` is the matrix of the i-th basis element acting on the
    space itself; the induced derivation on coordinate functions is
    D_x(z_a) = -sum_b rho(x)[a][b] z_b, extended by Leibniz.  The matrices
    must satisfy rho([x,y]) = [rho(x), rho(y)] exactly, which is checked.
    """

    def __init__(self, alg, variables, rho_mats, groups=None):
        self.alg = alg
        self.variables = tuple(variables)
        self.rho_mats = list(rho_mats)
        n = len(self.variables)
        if any(m.rows != n or m.cols != n for m in self.rho_mats):
            raise ValueError("action matrix size does not match variable count")
        if len(self.rho_mats) != alg.dim:
            raise ValueError("need one action matrix per basis element")
        if groups is None:
            groups = [list(range(n))]
        self.groups = [list(g) for g in groups]
        self._check_representation()

    def _check_representation(self):
        for i in range(self.alg.dim):
            for j in range(i + 1, self.alg.dim):
                comm = self.rho_mats[i] * self.rho_mats[j] - self.rho_mats[j] * self.rho_mats[i]
                want = Matrix.zero(len(self.variables), len(self.variables))
                for k, c in self.alg._nonzero[i][j]:
                    want = want + self.rho_mats[k] * c
                if comm != want:
                    raise ValueError(
                        "action matrices do not represent the bracket at (%d,%d)" % (i, j)
                    )

    def derive_linear(self, i, var_index):
        rho = self.rho_mats[i]
        terms = {}
        n = len(self.variables)
        for b in range(n):
            c = rho.data[var_index][b]
            if c != 0:
                e = [0] * n
                e[b] = 1
                terms[tuple(e)] = -c
        return MultiPoly(self.variables, terms)

    def derive_poly(self, i, p):
        """D_i extended to polynomials as a derivation:
        D_i(p) = sum_a (dp/dz_a) D_i(z_a)."""
        out = MultiPoly.zero(self.variables)
        for a, v in enumerate(self.variables):
            lin = self.derive_linear(i, a)
            if not lin.is_zero():
                out = out + p.diff(v) * lin
        return out

    def derivation_rows(self, monos):
        """The derivations D_i stacked on the span of the monomials ``monos``.

        Row (i, m) has at column j the coefficient of monos[m] in
        D_i(monos[j]), read off by exponent arithmetic from
        D_i(z^e) = -sum_{a,b} e_a rho_i[a][b] z^(e - 1_a + 1_b).  Zero rows
        and repeated rows are dropped, which leaves the kernel unchanged; a
        system with no nonzero row keeps one zero row so that the column count
        survives.  All zero entries are the shared ``linalg.ZERO``.
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
        dense = []
        for key in rows or [()]:
            row = [ZERO] * len(monos)
            for j, c in key:
                row[j] = c
            dense.append(row)
        return dense

    def is_invariant(self, p):
        return all(self.derive_poly(i, p).is_zero() for i in range(self.alg.dim))


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
    """Exponent tuples of the given (multi)degree in canonical order."""
    n = len(action.variables)
    if isinstance(degree, int):
        if len(action.groups) != 1:
            raise ValueError("multidegree required for a multigraded action")
        degree = (degree,)
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
    exps = [tuple(e) for e in exps]
    exps.sort(key=grlex_key, reverse=True)
    return exps


class InvariantSpace:
    """Echelonized basis of the invariants of one (multi)degree."""

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
            "degree": list(self.degree) if isinstance(self.degree, tuple) else self.degree,
            "dimension": self.dimension,
            "basis": [p.to_json() for p in self.basis],
        }


def invariants_of_degree(action, degree):
    """Exact kernel of the stacked derivations on the monomial basis."""
    if isinstance(degree, int):
        if len(action.groups) != 1:
            raise ValueError("multidegree required for a multigraded action")
        degree = (degree,)
    monos = monomial_basis(action, degree)
    if not monos:
        return InvariantSpace(degree, [])
    kernel = Matrix(action.derivation_rows(monos)).kernel_basis()
    basis = [
        MultiPoly(action.variables, {monos[m]: v[m] for m in range(len(monos))})
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
        A.data[col // 2][col % 2] = Q(1)
        img = x * A - A * x
        flat = [img.data[0][0], img.data[0][1], img.data[1][0], img.data[1][1]]
        for row in range(4):
            out.data[row][col] = flat[row]
    return out


def conjugation_action(sl2, factors=1):
    """Simultaneous conjugation on ``factors`` copies of M_2."""
    from wonderland.lie import sl_matrix_of

    variables = m2_variables(factors)
    rho = []
    for i in range(3):
        x = sl_matrix_of(2, sl2._basis_vec(i))
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
    from wonderland.lie import sl_matrix_of

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
        x = sl_matrix_of(2, sl2._basis_vec(i))
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


def trace_generators(sl2, r):
    """The generating invariants for one or two matrix factors.

    r = 1: trace and determinant; r = 2: the three traces (tr A, tr B,
    tr AB).  Each polynomial is re-verified invariant through the kernel
    spaces before being returned.
    """
    if r not in (1, 2):
        raise ValueError("generators are provided for r in {1, 2} only")
    action = conjugation_action(sl2, r)
    v = action.variables
    if r == 1:
        gens = [("tr", trace_of_word(v, (1,))), ("det", det_of_factor(v, 1))]
        degrees = [(1,), (2,)]
    else:
        gens = [
            ("trA", trace_of_word(v, (1,))),
            ("trB", trace_of_word(v, (2,))),
            ("trAB", trace_of_word(v, (1, 2))),
        ]
        degrees = [(1, 0), (0, 1), (1, 1)]
    for (name, p), deg in zip(gens, degrees):
        space = invariants_of_degree(action, deg)
        if not space.contains(p):
            raise AssertionError("generator %s failed the invariance kernel" % name)
    return gens


# ---------------------------------------------------------------------------
# expressing invariants in generators
# ---------------------------------------------------------------------------


NO_EXPRESSION = None

# sample points beyond one per monomial in the fit, and held out to verify it
EXTRA_SAMPLES = 6


def express_in_generators(f, gens, bound, sampler, symbolic=None):
    """Match ``f`` against monomials in ``gens`` of total degree <= bound.

    ``f`` and ``gens`` are evaluated at points supplied by ``sampler`` (a
    callable returning domain points); an exact linear solve either yields
    coefficients, verified on ``EXTRA_SAMPLES`` held-out samples, or
    NO-EXPRESSION.
    When ``symbolic`` is True (polynomial inputs over one domain), the
    expansion is additionally compared against ``f`` symbolically.
    """
    if bound < 0:
        raise ValueError("degree bound must be >= 0, got %d" % bound)
    gen_polys = [g for _, g in gens] if gens and isinstance(gens[0], tuple) else list(gens)
    if symbolic is None:
        symbolic = all(isinstance(g, MultiPoly) for g in gen_polys) and isinstance(
            f, MultiPoly
        )
    monos = []
    for total in range(bound + 1):
        monos.extend(compositions(total, len(gen_polys)))

    def eval_at(p, pt):
        return p.eval(pt) if hasattr(p, "eval") else p(pt)

    def attempt(n_samples):
        pts = [sampler() for _ in range(n_samples)]
        rows, rhs = [], []
        for pt in pts:
            gvals = [eval_at(g, pt) for g in gen_polys]
            row = []
            for e in monos:
                prod = Q(1)
                for gv, k in zip(gvals, e):
                    if k:
                        prod *= gv**k
                row.append(prod)
            rows.append(row)
            rhs.append(eval_at(f, pt))
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
            pt = sampler()
            gvals = [eval_at(g, pt) for g in gen_polys]
            want = eval_at(f, pt)
            got = Q(0)
            for e, c in coeffs.items():
                prod = c
                for gv, k in zip(gvals, e):
                    if k:
                        prod *= gv**k
                got += prod
            if got != want:
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
        self._table = None
        v = num.variables
        for l in range(1, factors + 1):
            dn = _factor_degree(num, l)
            dd = _factor_degree(den, l)
            if dn is None or dd is None or dn != dd:
                raise ValueError(
                    "%s is not degree-0 homogeneous in factor %d" % (name, l)
                )

    def _values(self, points):
        """[N, D, dN..., dD...]: num, den and their ambient partials at the
        points' primitive integer vectors, over one denominator, from one
        ``MonomialTable`` compiled at the first call."""
        if self._table is None:
            self._table = MonomialTable([[self.num, self.den] + self.num.grad() + self.den.grad()])
        ((values, _),) = self._table.values([x for p in points for x in p.vec])
        if values[1] == 0:
            raise ZeroDivisionError("%s undefined at sample" % self.name)
        return values

    def value_at(self, points):
        num, den = self._values(points)[:2]
        return Fraction(num, den)

    def _check_factor_count(self, count):
        if count != self.factors:
            raise ValueError(
                "%s lives on %d factors, chart has %d" % (self.name, self.factors, count)
            )

    def restrict(self, charts):
        """RationalFn in the coordinates of a product of factor charts."""
        pc = charts if isinstance(charts, ProductChart) else ProductChart(charts)
        self._check_factor_count(pc_len(pc))
        images = {}
        amb_vars = self.num.variables
        for l in range(pc_len(pc)):
            polys = pc.ambient_polys(l)
            for k in range(4):
                images[amb_vars[4 * l + k]] = polys[k]
        return RationalFn(self.num.subs(images), self.den.subs(images))

    def chart_grad_at(self, charts, points):
        """Gradient of num/den in the coordinates of per-factor ProjCharts
        at the points, equal to ``restrict(charts).grad_at(coords)``.

        A ProjChart's coordinates are the entries at ``chart.positions`` of
        the representative whose normalizing entry is 1, so by the chain
        rule the chart gradient is the ambient gradient of F = num/den at
        the chart-normalized representative, read at the chart positions.
        F has degree 0 in each factor, so its partials along factor l have
        degree -1 there: at vec / c_l, c_l = vec_l[norm_index], they are c_l
        times their value at the primitive integer vec.  With N, D, dN_i
        and dD_i the integers of ``_values`` at vec, entry i of factor l is
        c_l (dN_i D - N dD_i) / D^2, one ``Fraction`` per entry."""
        self._check_factor_count(len(charts))
        entries = []
        for l, (chart, p) in enumerate(zip(charts, points)):
            c = p.vec[chart.norm_index]
            if c == 0:
                raise ChartDomainError("point lies outside chart %d" % chart.norm_index)
            entries.extend((4 * l + k, c) for k in chart.positions)
        num, den, *partials = self._values(points)
        n = len(partials) // 2
        return [Fraction(c * (partials[i] * den - num * partials[n + i]), den * den) for i, c in entries]


def pc_len(pc):
    return len(pc.factors)


def _factor_degree(p, factor):
    if p.is_zero():
        return 0
    base = 4 * (factor - 1)
    degs = {sum(e[base : base + 4]) for e in p.ints}
    return degs.pop() if len(degs) == 1 else None


def pgl2_surrogates(factors):
    """The standard degree-0 invariants: squared traces over determinants
    (and the triple product for two factors)."""
    v = m2_variables(factors)
    out = []
    if factors == 1:
        out.append(
            ProjectiveInvariant(
                "tr2_over_det", trace_of_word(v, (1,)) ** 2, det_of_factor(v, 1), 1
            )
        )
        return out
    dets = det_of_factor(v, 1) * det_of_factor(v, 2)
    out.append(
        ProjectiveInvariant(
            "trA2_over_detA", trace_of_word(v, (1,)) ** 2, det_of_factor(v, 1), 2
        )
    )
    out.append(
        ProjectiveInvariant(
            "trB2_over_detB", trace_of_word(v, (2,)) ** 2, det_of_factor(v, 2), 2
        )
    )
    out.append(
        ProjectiveInvariant("trAB2_over_dets", trace_of_word(v, (1, 2)) ** 2, dets, 2)
    )
    out.append(
        ProjectiveInvariant(
            "triple_over_dets",
            trace_of_word(v, (1,)) * trace_of_word(v, (2,)) * trace_of_word(v, (1, 2)),
            dets,
            2,
        )
    )
    return out


def mixed_bracket_value(model, splitting, points, f, g, charts=None):
    """{f, g} at a tuple of points, through the mixed product structure.

    The bivector value is assembled pointwise in charts at the points
    (canonical ones unless given) and paired with the exact chart gradients
    of the functions at the points.  The result is a value of the bracket
    function at the point tuple, independent of the charts.
    """
    if charts is None:
        charts = [model.chart_at(p) for p in points]
    L = mixed_value_in_charts(model, splitting, points, charts)
    return L.bracket_eval(f.chart_grad_at(charts, points), g.chart_grad_at(charts, points))


def invariant_bracket_closure(model, splitting, f, g, points, conj, name="bracket-closure"):
    """{f,g}(c . m) = {f,g}(m) for a conjugating element c: the pointwise
    content of invariants forming a Poisson subalgebra."""
    from wonderland.geometry import GroupPair

    before = mixed_bracket_value(model, splitting, points, f, g)
    pair = GroupPair(conj, conj)
    moved = [model.act(pair, p) for p in points]
    after = mixed_bracket_value(model, splitting, moved, f, g)
    return residual_from_values(
        name,
        {"points": [repr(p) for p in points], "f": f.name, "g": g.name},
        [before - after],
        details={"value": str(before)},
    )
