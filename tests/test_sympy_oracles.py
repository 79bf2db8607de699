"""Matrices, polynomials and chart projections against SymPy, which shares
no code with them.

``Matrix.det`` and ``Matrix.solve`` are checked against ``sympy.Matrix``;
the ``MultiPoly`` product, substitution, derivative and evaluation against
``sympy.Poly`` and ``expand``.  The product and the evaluation run through
the ``poly_mul`` and ``poly_eval`` integer kernels, so these are the checks
of those kernels that are independent of the package's own arithmetic.  The
tangent projections of both chart kinds, and the polynomial vector field
of a double element on a Grassmannian chart, are checked by letting SymPy
differentiate the chart coordinates of the moved point at t = 0.
"""

from fractions import Fraction as Q
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wonderland.geometry import (
    GrassChart,
    GrassmannModel,
    GroupPair,
    Pgl2Model,
    ProjChart,
    ProjMatrixPoint,
    infinitesimal_field,
    integer_adjoint,
)
from wonderland.lie import build_sl, double_algebra, standard_splitting
from wonderland.linalg import Matrix
from wonderland.poisson import splitting_bivector_field
from wonderland.poly import MultiPoly

sympy = pytest.importorskip("sympy")
from sympy import QQ  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

NAMES = ("x", "y", "z")
SYMBOLS = sympy.symbols(NAMES)
TARGET = ("u", "v")
TARGET_SYMBOLS = sympy.symbols(TARGET)

rationals = st.builds(Q, st.integers(-20, 20), st.integers(1, 9))
# one entry in three is zero, so singular and rank-deficient systems occur
entries = st.one_of(st.just(Q(0)), rationals)


def polys(variables):
    exps = st.tuples(*[st.integers(0, 3)] * len(variables))
    return st.dictionaries(exps, rationals, max_size=6).map(
        lambda terms: MultiPoly(variables, terms)
    )


def to_sympy(q):
    return sympy.Rational(q.numerator, q.denominator)


def from_sympy(r):
    r = sympy.Rational(r)
    return Q(int(r.p), int(r.q))


def expr(p, symbols=SYMBOLS):
    return sum(
        (to_sympy(c) * sympy.Mul(*[s**k for s, k in zip(symbols, e)]) for e, c in p.terms.items()),
        sympy.Integer(0),
    )


def terms_of(e, symbols=SYMBOLS):
    """The exponent -> Fraction map of a SymPy expression, expanded."""
    poly = sympy.Poly(sympy.expand(e), *symbols, domain="QQ")
    return {tuple(k): from_sympy(c) for k, c in poly.as_dict().items()}


@settings(max_examples=60, deadline=None)
@given(polys(NAMES), polys(NAMES))
def test_mul_matches_sympy(p, q):
    assert (p * q).terms == terms_of(expr(p) * expr(q))
    # the cross terms of (p + q)(p - q) cancel inside the product
    assert ((p + q) * (p - q)).terms == terms_of(expr(p) ** 2 - expr(q) ** 2)


@settings(max_examples=40, deadline=None)
@given(polys(NAMES), st.lists(polys(TARGET), min_size=3, max_size=3))
def test_subs_matches_sympy(p, images):
    got = p.subs(dict(zip(NAMES, images)))
    want = expr(p).subs(
        {s: expr(img, TARGET_SYMBOLS) for s, img in zip(SYMBOLS, images)},
        simultaneous=True,
    )
    assert got.variables == TARGET
    assert got.terms == terms_of(want, TARGET_SYMBOLS)


@settings(max_examples=60, deadline=None)
@given(polys(NAMES))
def test_diff_matches_sympy(p):
    for name, s in zip(NAMES, SYMBOLS):
        assert p.diff(name).terms == terms_of(sympy.diff(expr(p), s))


@settings(max_examples=60, deadline=None)
@given(polys(NAMES), st.lists(rationals, min_size=3, max_size=3))
def test_eval_matches_sympy(p, point):
    want = expr(p).subs({s: to_sympy(x) for s, x in zip(SYMBOLS, point)})
    assert p.eval(point) == from_sympy(want)


@st.composite
def square(draw):
    n = draw(st.integers(1, 5))
    return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(square())
def test_det_matches_sympy(rows):
    want = sympy.Matrix([[to_sympy(x) for x in r] for r in rows]).det()
    assert Matrix(rows).det() == from_sympy(want)


@st.composite
def system(draw):
    nr = draw(st.integers(1, 5))
    nc = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    return rows, draw(st.lists(entries, min_size=nr, max_size=nr))


@settings(max_examples=60, deadline=None)
@given(system())
def test_solve_matches_sympy(data):
    """``solve`` returns the solution with every free variable zero, which is
    SymPy's parametric solution at zero parameters; both report an
    inconsistent system."""
    rows, rhs = data
    a = sympy.Matrix([[to_sympy(x) for x in r] for r in rows])
    b = sympy.Matrix([to_sympy(x) for x in rhs])
    got = Matrix(rows).solve(rhs)
    try:
        sol, params = a.gauss_jordan_solve(b)
    except ValueError:
        assert got is None
        return
    want = sol.subs({t: 0 for t in params})
    assert got == [from_sympy(x) for x in want]


def as_fractions(projected):
    """The (coords, den) of ``tangent_project_general`` as Fraction lists."""
    coords, den = projected
    return [[Q(x, den) for x in leg] for leg in coords]


T = sympy.Symbol("t")
nonzero = rationals.filter(lambda x: x != 0)


def derivative_at_zero(e):
    return from_sympy(sympy.diff(e, T).subs(T, 0))


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([(0, 1, 2), (0, 2, 4), (1, 3, 5), (3, 4, 5), (0, 4, 5)]),
    st.lists(st.lists(rationals, min_size=6, max_size=6), min_size=3, max_size=3),
    st.lists(st.lists(rationals, min_size=6, max_size=6), min_size=3, max_size=3),
)
def test_grass_tangent_project_general_matches_sympy(pivots, rep, vel):
    """The chart coordinates of span(R + tV) are the free columns of
    (pivot block)^-1 (R + tV); R need not be normalized."""
    block = sympy.Matrix([[to_sympy(rep[i][p]) for p in pivots] for i in range(3)])
    assume(block.det() != 0)
    chart = GrassChart(pivots, 6)
    moved = sympy.Matrix(
        3, 6, lambda i, j: to_sympy(rep[i][j]) + T * to_sympy(vel[i][j])
    )
    normal = moved.extract([0, 1, 2], list(pivots)).inv() * moved
    want = [derivative_at_zero(normal[i, j]) for i in range(3) for j in chart.free]
    assert as_fractions(chart.tangent_project_general(rep, [vel])) == [want]
    assert chart.tangent_project(rep, vel) == want


# entries of representatives and legs: zeros, rationals and plain ints
mixed_entries = st.one_of(st.just(Q(0)), rationals, st.integers(-9, 9))


def grass_batch_case(n, pivot_sets):
    """A chart of Gr(n, 2n), a representative (its pivot block need not be
    I) and up to four legs at it, some of them zero."""
    cols = 2 * n
    rows = st.lists(st.lists(mixed_entries, min_size=cols, max_size=cols), min_size=n, max_size=n)
    zero_leg = st.just([[0] * cols for _ in range(n)])
    return st.tuples(
        pivot_sets,
        rows,
        st.lists(st.one_of(zero_leg, rows), min_size=1, max_size=4),
    )


def check_grass_batch(n, case):
    """Each leg's projection is the t-derivative at 0 of the free columns of
    B(t)^-1 (R + tV), B(t) the pivot block of R + tV: by the product rule
    B^-1 V - B^-1 V_piv B^-1 R, with SymPy's inverse of R's pivot block."""
    pivots, rep, legs = case
    pivots = tuple(sorted(pivots))
    r = sympy.Matrix([[to_sympy(Q(x)) for x in row] for row in rep])
    block = r.extract(list(range(n)), list(pivots))
    assume(block.det() != 0)
    binv = block.inv()
    chart = GrassChart(pivots, 2 * n)
    want = []
    for leg in legs:
        v = sympy.Matrix([[to_sympy(Q(x)) for x in row] for row in leg])
        d = binv * v - binv * v.extract(list(range(n)), list(pivots)) * binv * r
        want.append([from_sympy(d[i, j]) for i in range(n) for j in chart.free])
    got = as_fractions(chart.tangent_project_general(rep, legs))
    assert got == want
    assert [chart.tangent_project(rep, leg) for leg in legs] == want


@settings(max_examples=30, deadline=None)
@given(grass_batch_case(3, st.sampled_from([(0, 1, 2), (0, 2, 4), (1, 3, 5), (3, 4, 5), (0, 4, 5)])))
def test_grass_batch_projection_matches_sympy(case):
    check_grass_batch(3, case)


@settings(max_examples=4, deadline=None)
@given(grass_batch_case(8, st.lists(st.integers(0, 15), min_size=8, max_size=8, unique=True)))
def test_grass_batch_projection_matches_sympy_sl3_shape(case):
    """The 8 x 16 representatives of Gr(8, 16), the sl3 double's shape."""
    check_grass_batch(8, case)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 3),
    st.lists(mixed_entries, min_size=4, max_size=4),
    st.lists(
        st.one_of(st.just([0] * 4), st.lists(mixed_entries, min_size=4, max_size=4)),
        min_size=1,
        max_size=4,
    ),
)
def test_proj_batch_projection_matches_sympy(k, rep, vecs):
    """Several tangents at one representative of P(M2), whose normalizing
    entry need not be 1: each is d/dt (R_p + t v_p) / (R_k + t v_k) at 0."""
    assume(rep[k] != 0)
    chart = ProjChart(k)
    want = []
    for vec in vecs:
        moved = [to_sympy(Q(r)) + T * to_sympy(Q(v)) for r, v in zip(rep, vec)]
        want.append([derivative_at_zero(moved[p] / moved[k]) for p in chart.positions])
    assert as_fractions(chart.tangent_project_general(rep, vecs)) == want


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 3),
    st.lists(rationals, min_size=3, max_size=3),
    nonzero,
    st.lists(rationals, min_size=4, max_size=4),
)
def test_proj_tangent_project_matches_sympy(k, z, scale, vec):
    """At a scaled representative R the chart coordinates of [R + tv] are
    (R_p + t v_p) / (R_k + t v_k), for p != k."""
    chart = ProjChart(k)
    rep = [scale * x for x in chart.rep_at(z)]
    moved = [to_sympy(r) + T * to_sympy(v) for r, v in zip(rep, vec)]
    want = [derivative_at_zero(moved[p] / moved[k]) for p in chart.positions]
    assert chart.tangent_project(rep, vec) == want


SL2 = build_sl(2)
DOUBLE, FORM = double_algebra(SL2)
GRASS = GrassmannModel(SL2, DOUBLE, FORM)


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from([(0, 1, 2), (0, 2, 4), (1, 3, 5), (3, 4, 5), (0, 4, 5)]),
    st.lists(rationals, min_size=9, max_size=9),
    st.lists(rationals, min_size=6, max_size=6),
)
def test_grassmann_infinitesimal_field_matches_sympy(pivots, z, elem):
    """At chart coordinates z, with R = rep_rows_at(z) and D = ad(elem), the
    field is the t-derivative at 0 of the free columns of
    (pivot block)^-1 R(I + t D^T): the chart coordinates of the flowed span."""
    chart = GrassChart(pivots, 6)
    rep = sympy.Matrix([[to_sympy(x) for x in row] for row in chart.rep_rows_at(z)])
    ad = sympy.Matrix([[to_sympy(x) for x in row] for row in DOUBLE.ad(elem).data])
    moved = rep * (sympy.eye(6) + T * ad.T)
    normal = moved.extract([0, 1, 2], list(pivots)).inv() * moved
    want = [derivative_at_zero(normal[i, j]) for i in range(3) for j in chart.free]
    assert [f.eval(z) for f in infinitesimal_field(GRASS, chart, elem)] == want


# -- orbit legs of the action residual --------------------------------------
#
# pi_G at (g, h) has right legs (a g, b h) and left legs (g a, h b) for a
# double element x = (a, b); the orbit map (u, v) -> (u, v).p moves along
# them.  Here SymPy differentiates the action itself at (g + tU, h + tV),
# with sl2 coordinates (e, h, f) read as the matrix [[h, e], [f, -h]].


def sl2_matrix(a, b, c):
    """The SL2 matrix [[a, b], [c, (1 + bc)/a]]."""
    return [[a, b], [c, (1 + b * c) / a]]


sl2_pairs = st.tuples(*[st.tuples(nonzero, rationals, rationals)] * 2)
sides = st.sampled_from(["right", "left"])


def sym_matrix(rows):
    return sympy.Matrix([[to_sympy(Q(x)) for x in row] for row in rows])


def sl2_sym(coords):
    e, h, f = (to_sympy(Q(x)) for x in coords)
    return sympy.Matrix([[h, e], [f, -h]])


def sl2_coords_sym(m):
    return [m[0, 1], m[0, 0], m[1, 0]]


def inverse(m):
    """The inverse of a 2x2 SymPy matrix in t, as adjugate over determinant."""
    return m.adjugate() / m.det()


def orbit_case(pair, elem, side):
    """The model's pair, and the SymPy curves g + tU, h + tV along the
    right or left leg of ``elem``."""
    gh = [sl2_matrix(*p) for p in pair]
    g, h = (sym_matrix(m) for m in gh)
    a, b = sl2_sym(elem[:3]), sl2_sym(elem[3:])
    U, V = (a * g, b * h) if side == "right" else (g * a, h * b)
    return GroupPair(*gh), g + T * U, h + T * V


@settings(max_examples=30, deadline=None)
@given(sl2_pairs, st.lists(mixed_entries, min_size=4, max_size=4), st.lists(rationals, min_size=6, max_size=6), sides)
def test_p_m2_orbit_legs_match_sympy(pair, flat, elem, side):
    """d/dt (g + tU) A (h + tV)^-1 at t = 0 is the flow tangent, at the
    pushed representative g A h^-1, of x for a right leg and of
    Ad_(g,h) x for a left leg.  ``push`` and ``adjoint`` each multiply by
    the declared integer scale s, so the model's tangent is s (right) or
    s^2 (left) times the derivative."""
    model = Pgl2Model(SL2)
    gp, gt, ht = orbit_case(pair, elem, side)
    moved = gt * sympy.Matrix(2, 2, [to_sympy(Q(x)) for x in flat]) * inverse(ht)
    want = [derivative_at_zero(moved[i, j]) for i in range(2) for j in range(2)]
    push, adjoint, s = model.differentials(gp)
    x, k = (elem, s) if side == "right" else (adjoint(elem), s * s)
    assert model.flow_tangent(x, push(flat)) == [k * w for w in want]


@settings(max_examples=10, deadline=None)
@given(
    sl2_pairs,
    st.lists(st.lists(mixed_entries, min_size=6, max_size=6), min_size=3, max_size=3),
    st.lists(rationals, min_size=6, max_size=6),
    sides,
)
def test_grassmann_orbit_legs_match_sympy(pair, rows, elem, side):
    """A span row (r1, r2) moves to (g r1 g^-1, h r2 h^-1); at (g + tU,
    h + tV) its t-derivative at 0 is the flow tangent, at the pushed rows,
    of x for a right leg and of Ad_(g,h) x for a left leg, times the
    declared scale d of ``push`` (right) or d^2 (left)."""
    gp, gt, ht = orbit_case(pair, elem, side)
    gi, hi = inverse(gt), inverse(ht)

    def moved(r):
        halves = sl2_coords_sym(gt * sl2_sym(r[:3]) * gi) + sl2_coords_sym(ht * sl2_sym(r[3:]) * hi)
        return [derivative_at_zero(x) for x in halves]

    push, adjoint, d = GRASS.differentials(gp)
    x, k = (elem, d) if side == "right" else (adjoint(elem), d * d)
    assert GRASS.flow_tangent(x, push(rows)) == [[k * v for v in moved(r)] for r in rows]


# -- the integer adjoint of SL3 --------------------------------------------
#
# The sl3 basis is written out here in SymPy, and a conjugate's coordinates
# are found by solving the linear system, not by reading entries.


def sl3_basis_sym():
    """E01, E02, E12, E00 - E11, E11 - E22, E10, E20, E21."""

    def unit(i, j):
        return sympy.Matrix(3, 3, lambda a, b: int((a, b) == (i, j)))

    positive = [unit(0, 1), unit(0, 2), unit(1, 2)]
    cartan = [unit(0, 0) - unit(1, 1), unit(1, 1) - unit(2, 2)]
    negative = [unit(1, 0), unit(2, 0), unit(2, 1)]
    return positive + cartan + negative


def sl3_coords_sym(m):
    basis = sl3_basis_sym()
    system = sympy.Matrix([[b[k] for b in basis] for k in range(9)])
    sol, params = system.gauss_jordan_solve(m.reshape(9, 1))
    assert not params
    return list(sol)


@settings(max_examples=15, deadline=None)
@given(st.lists(rationals, min_size=6, max_size=6), st.lists(nonzero, min_size=2, max_size=2))
def test_sl3_integer_adjoint_matches_sympy(triangular, diag):
    """Row j of ``integer_adjoint(3, g)`` over its scale is the coordinate
    vector of g b_j g^-1, g = L U D with L, U unit triangular."""
    a, b, c, x, y, z = (to_sympy(q) for q in triangular)
    lower = sympy.Matrix([[1, 0, 0], [a, 1, 0], [b, c, 1]])
    upper = sympy.Matrix([[1, x, y], [0, 1, z], [0, 0, 1]])
    d1, d2 = (to_sympy(q) for q in diag)
    g = lower * upper * sympy.diag(d1, d2, 1 / (d1 * d2))
    rows, s = integer_adjoint(3, Matrix([[from_sympy(g[i, j]) for j in range(3)] for i in range(3)]))
    ginv = g.inv()
    want = [[from_sympy(v) for v in sl3_coords_sym(g * bj * ginv)] for bj in sl3_basis_sym()]
    assert [[Q(v, s) for v in row] for row in rows] == want


# -- the Gr(3,6) Jacobiator on the orbit closure ------------------------------


def ring_jacobiators(fld):
    """The coordinate-triple Jacobiators sum_b L[i][b] d_b L[j][k] + cyclic,
    i < j < k, computed in a SymPy polynomial ring from the field's entries."""
    R, *zs = ring(",".join(fld.chart.variables), QQ)
    L = [
        [R({e: QQ(c.numerator, c.denominator) for e, c in p.terms.items()}) for p in row]
        for row in fld.entries
    ]
    dim = len(L)
    dL = [[[L[i][j].diff(z) for j in range(dim)] for i in range(dim)] for z in zs]
    return [
        sum(
            (L[i][b] * dL[b][j][k] + L[j][b] * dL[b][k][i] + L[k][b] * dL[b][i][j] for b in range(dim)),
            R.zero,
        )
        for i, j, k in combinations(range(dim), 3)
    ]


def substituted_numerators(jacs, nums, den):
    """den^D J(nums / den) for each J, D the largest degree of the J's."""
    top = max(sum(e) for J in jacs for e in J.keys())
    S = den.ring
    cache = {}

    def mono(e):
        if e not in cache:
            v = next((v for v, k in enumerate(e) if k), None)
            if v is None:
                cache[e] = S.one
            else:
                rest = list(e)
                rest[v] -= 1
                cache[e] = mono(tuple(rest)) * nums[v]
        return cache[e]

    return [sum((mono(e) * c * den ** (top - sum(e)) for e, c in J.items()), S.zero) for J in jacs]


@pytest.mark.parametrize("where", ["diagonal", "boundary"])
def test_grassmann_jacobiator_vanishes_on_the_orbit(where):
    """The orbit of the diagonal is the set of graphs [I | Ad_k^T], k in GL2.
    With k = [[a, b], [c, 1]], dense in PGL2, the rows delta [I | Ad_k^T] =
    [delta I | Q] are polynomial in (a, b, c), delta = a - bc, and a
    chart's coordinates there are adj(P) F / det P, P and F the pivot and
    free columns.  Substituted into each of the 84 Jacobiators, with det P
    cleared, they give the zero polynomial: the
    splitting field is Poisson on the chart's part of the orbit closure.
    Covered: the chart at the diagonal and the chart at the boundary point
    [E11].  The Jacobiators are not zero polynomials on the chart (70 of 84
    are nonzero), and the same substitution shifted by the diagonal's free
    block I leaves nonzero numerators."""
    model = Pgl2Model(SL2)
    point = GRASS.diagonal_point() if where == "diagonal" else model.lagrangian_of(ProjMatrixPoint([1, 0, 0, 0]))
    chart = GRASS.chart_at(point)
    assert (chart.pivots == (0, 1, 2)) == (where == "diagonal")
    jacs = ring_jacobiators(splitting_bivector_field(GRASS, chart, standard_splitting(SL2)))
    assert len(jacs) == 84 and sum(1 for J in jacs if J) == 70

    S = ring("a,b,c", QQ)[0]
    a, b, c = S.symbols
    k, adj = sympy.Matrix([[a, b], [c, 1]]), sympy.Matrix([[1, -b], [-c, a]])
    delta = a - b * c
    basis = [[[0, 1], [0, 0]], [[1, 0], [0, -1]], [[0, 0], [1, 0]]]
    Qrows = [sl2_coords_sym(k * sympy.Matrix(m) * adj) for m in basis]
    rows = sympy.Matrix([[delta if j == i else 0 for j in range(3)] + Qrows[i] for i in range(3)])
    P = rows.extract([0, 1, 2], list(chart.pivots))
    F = rows.extract([0, 1, 2], chart.free)
    det = P.det()
    det_p = S(sympy.expand(det))
    adj_f = P.adjugate() * F

    def numerators(coords):
        nums = [S(sympy.expand(coords[i, m])) for i in range(3) for m in range(3)]
        return substituted_numerators(jacs, nums, det_p)

    assert all(x == 0 for x in numerators(adj_f))
    assert any(x != 0 for x in numerators(adj_f + det * sympy.eye(3)))
