"""The compactification models: points, charts, actions, boundary."""

import sys
from fractions import Fraction as Q
from functools import lru_cache
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from wonderland.geometry import (
    ChartDomainError,
    GrassChart,
    GrassmannModel,
    GroupPair,
    LagrangianPoint,
    Pgl2Model,
    ProjChart,
    ProjLinePoint,
    ProjMatrixPoint,
    infinitesimal_field,
    integer_adjoint,
    segre,
)
from wonderland.lie import build_sl, double_algebra, is_lagrangian, sl_basis_matrix
from wonderland.linalg import Matrix, echelon_rows, integer_vector
from wonderland.poly import MultiPoly, RationalFn
from wonderland.sampling import RationalStream

from references import (
    ad,
    apply_to,
    basis_vectors,
    bounded,
    covectors,
    elem_matrices,
    grass_point_at,
    grass_rep_rows_at,
    proj_point_at,
    proj_rep_at,
    sl_coords,
)


def as_fractions(projected):
    """The (coords, den) of ``tangent_project_general`` as Fraction lists."""
    coords, den = projected
    return [[Q(x, den) for x in leg] for leg in coords]


@pytest.fixture(scope="module")
def ctx():
    sl2 = build_sl(2)
    double, form = double_algebra(sl2)
    return {
        "sl2": sl2,
        "double": double,
        "form": form,
        "model": Pgl2Model(sl2),
        "gr": GrassmannModel(sl2, double, form),
    }


class TestProjPoints:
    def test_canonical_rep(self):
        p = ProjMatrixPoint([Q(-1, 2), Q(0), Q(0), Q(-3, 2)])
        assert p.vec == (1, 0, 0, 3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjMatrixPoint([0, 0, 0, 0])

    def test_boundary_detect(self):
        assert not ProjMatrixPoint([1, 0, 0, 1]).is_boundary()
        assert ProjMatrixPoint([1, 0, 0, 0]).is_boundary()

    def test_boundary_of_rank_one_product(self):
        st = RationalStream(21)
        for _ in range(5):
            assert ProjMatrixPoint(st.rank_one2()).is_boundary()

    def test_json_round_trip(self):
        p = ProjMatrixPoint([1, 2, 3, 4])
        assert ProjMatrixPoint([Q(x) for x in p.to_json()["entries"]]) == p


class TestDiagonalPoint:
    def test_shape(self, ctx):
        d = ctx["gr"].diagonal_point()
        assert d.mat == Matrix(
            [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]]
        )

    def test_isotropic(self, ctx):
        d = ctx["gr"].diagonal_point()
        ok, cert = is_lagrangian(ctx["double"], ctx["form"], covectors(d.mat.data))
        assert ok, cert


class TestAction:
    def test_identity_pair_fixes(self, ctx):
        st = RationalStream(31)
        p = ctx["gr"].act(GroupPair(st.sl2(), st.sl2()), ctx["gr"].diagonal_point())
        assert ctx["gr"].act(GroupPair(Matrix.identity(2), Matrix.identity(2)), p) == p

    def test_diagonal_pair_stabilizes_diagonal(self, ctx):
        st = RationalStream(32)
        g = st.sl2()
        d = ctx["gr"].diagonal_point()
        assert ctx["gr"].act(GroupPair(g, g), d) == d

    def test_g_e_gives_graph_of_ad_inverse(self, ctx):
        g = Matrix([[2, 0], [0, Q(1, 2)]])
        moved = ctx["gr"].act(GroupPair(g, Matrix.identity(2)), ctx["gr"].diagonal_point())
        rows = []
        for i in range(3):
            x = sl_basis_matrix(2, i)
            rows.append(sl_coords(2, x) + sl_coords(2, g.inverse() * x * g))
        assert moved == LagrangianPoint(rows)


class TestCorrespondence:
    def test_identity_gives_diagonal(self, ctx):
        L = ctx["model"].lagrangian_of(ProjMatrixPoint([1, 0, 0, 1]))
        assert L == ctx["gr"].diagonal_point()

    def test_boundary_point_meets_diagonal_in_dim_1(self, ctx):
        L = ctx["model"].lagrangian_of(
            ProjMatrixPoint([1, 0, 0, 0]), ctx["double"], ctx["form"]
        )
        d = ctx["gr"].diagonal_point()
        stacked = Matrix([L.mat.row(i) for i in range(3)] + [d.mat.row(i) for i in range(3)])
        assert 3 + 3 - stacked.rank() == 1

    def test_invertible_gives_conjugation_graph(self, ctx):
        st = RationalStream(41)
        A = st.invertible2()
        L = ctx["model"].lagrangian_of(ProjMatrixPoint(A), ctx["double"], ctx["form"])
        rows = []
        Ainv = A.inverse()
        for i in range(3):
            x = sl_basis_matrix(2, i)
            rows.append(sl_coords(2, x) + sl_coords(2, Ainv * x * A))
        assert L == LagrangianPoint(rows)

    def test_lagrangian_at_seeded_interior_and_boundary(self, ctx):
        st = RationalStream(43)
        for _ in range(6):
            p = ProjMatrixPoint(st.nonzero_vector(4))
            ctx["model"].lagrangian_of(p, ctx["double"], ctx["form"])
        for _ in range(6):
            p = ProjMatrixPoint(st.rank_one2())
            ctx["model"].lagrangian_of(p, ctx["double"], ctx["form"])

    def test_equivariance(self, ctx):
        """L((g,h).[A]) = (g,h).L([A]) exactly."""
        st = RationalStream(47)
        for _ in range(4):
            pair = GroupPair(st.sl2(), st.sl2())
            p = ProjMatrixPoint(st.nonzero_vector(4))
            lhs = ctx["model"].lagrangian_of(ctx["model"].act(pair, p))
            rhs = ctx["gr"].act(pair, ctx["model"].lagrangian_of(p))
            assert lhs == rhs

    def test_boundary_invariant_under_action(self, ctx):
        st = RationalStream(53)
        for _ in range(5):
            pair = GroupPair(st.sl2(), st.sl2())
            p = ProjMatrixPoint(st.rank_one2())
            assert ctx["model"].act(pair, p).is_boundary()


class TestOrbitDimension:
    def test_open_orbit(self, ctx):
        assert ctx["gr"].orbit_dimension(ctx["gr"].diagonal_point()) == 3

    def test_boundary_orbit(self, ctx):
        L = ctx["model"].lagrangian_of(ProjMatrixPoint([1, 0, 0, 0]))
        assert ctx["gr"].orbit_dimension(L) == 2

    def test_orbit_count_sweep(self, ctx):
        """Representative sweep sees exactly the two orbit dimensions."""
        st = RationalStream(59)
        dims = set()
        for _ in range(6):
            p = ProjMatrixPoint(st.nonzero_vector(4))
            if p.is_boundary():
                continue
            dims.add(ctx["gr"].orbit_dimension(ctx["model"].lagrangian_of(p)))
        for _ in range(6):
            p = ProjMatrixPoint(st.rank_one2())
            dims.add(ctx["gr"].orbit_dimension(ctx["model"].lagrangian_of(p)))
        assert dims == {3, 2}

    def test_sl3_open_orbit_dimension(self):
        """The generic model at the diagonal of the sl3 double: the open
        orbit has the full group dimension."""
        from wonderland.lie import build_sl, double_algebra

        sl3 = build_sl(3)
        double, form = double_algebra(sl3)
        gr = GrassmannModel(sl3, double, form)
        d = gr.diagonal_point()
        assert gr.orbit_dimension(d) == 8

    def test_orbit_dimension_semicontinuous_on_fixed_samples(self, ctx):
        """Special boundary points (a vanishing line coordinate, and the
        corner where the two line factors meet) never exceed the generic
        boundary orbit dimension."""
        generic = ctx["gr"].orbit_dimension(
            ctx["model"].lagrangian_of(ProjMatrixPoint([1, 2, 3, 6]))
        )
        fixed = [
            ProjMatrixPoint([1, 0, 0, 0]),   # left and right lines at [1:0]
            ProjMatrixPoint([0, 0, 0, 1]),   # the distinguished corner
            ProjMatrixPoint([0, 1, 0, 0]),
            ProjMatrixPoint([1, 1, 1, 1]),
        ]
        for p in fixed:
            assert p.is_boundary()
            d = ctx["gr"].orbit_dimension(ctx["model"].lagrangian_of(p))
            assert d <= generic == 2


class TestSegre:
    def test_e11(self, ctx):
        u, v = ctx["model"].segre_factor(ProjMatrixPoint([1, 0, 0, 0]))
        assert u == ProjLinePoint([1, 0]) and v == ProjLinePoint([1, 0])

    def test_distinguished_corner(self, ctx):
        u, v = ctx["model"].segre_factor(ProjMatrixPoint([0, 0, 0, 1]))
        assert u == ProjLinePoint([0, 1]) and v == ProjLinePoint([0, 1])

    def test_round_trip_random(self, ctx):
        st = RationalStream(61)
        for _ in range(8):
            p = ProjMatrixPoint(st.rank_one2())
            u, v = ctx["model"].segre_factor(p)
            assert segre(u, v) == p

    def test_interior_rejected(self, ctx):
        with pytest.raises(ValueError):
            ctx["model"].segre_factor(ProjMatrixPoint([1, 0, 0, 1]))


class TestCharts:
    def test_chart_at_identity(self, ctx):
        I = ProjMatrixPoint([1, 0, 0, 1])
        ch = ctx["model"].chart_at(I)
        assert ch.norm_index == 0
        assert ch.variables == ("b", "c", "d")
        assert ch.coords_of(I) == [Q(0), Q(0), Q(1)]
        assert proj_point_at(ch, ch.coords_of(I)) == I

    def test_grass_chart_at_diagonal(self, ctx):
        d = ctx["gr"].diagonal_point()
        ch = ctx["gr"].chart_at(d)
        assert ch.pivots == (0, 1, 2)
        assert ch.dim == 9
        assert ch.coords_of(d) == [Q(int(i == j)) for i in range(3) for j in range(3)]
        assert grass_point_at(ch, ch.coords_of(d)) == d

    def test_chart_domain_error(self, ctx):
        ch = ProjChart(0)
        with pytest.raises(ChartDomainError):
            ch.coords_of(ProjMatrixPoint([0, 1, 0, 0]))

    def test_chart_transition_is_rational(self, ctx):
        """Compose chart 0 coordinates with chart 3 coordinates on overlap."""
        ch0, ch3 = ProjChart(0), ProjChart(3)
        st = RationalStream(67)
        for _ in range(5):
            z = st.vector(3)
            p = proj_point_at(ch0, z)
            if p.vec[3] == 0:
                continue
            w = ch3.coords_of(p)
            # transition formula: ambient of chart0 divided by its d-entry
            amb = ch0.ambient_polys()
            den = amb[3]
            assert den.eval(z) != 0
            for target_pos, wi in zip(ch3.positions, w):
                fn = RationalFn(amb[target_pos], den)
                assert fn.eval(z) == wi

    def test_tangent_projection_scale_invariant(self, ctx):
        ch = ProjChart(0)
        st = RationalStream(71)
        rep = [Q(2), st.take(), st.take(), st.take()]
        vec = st.vector(4)
        a = ch.tangent_project(rep, vec)
        c = Q(3, 7)
        b = ch.tangent_project([c * x for x in rep], [c * x for x in vec])
        assert a == b


class TestInfinitesimalField:
    def test_zero_element_zero_field(self, ctx):
        ch = ProjChart(0)
        fld = infinitesimal_field(ctx["model"], ch, [Q(0)] * 6)
        assert all(f.is_zero() for f in fld)

    def test_linearity_in_element(self, ctx):
        ch = ProjChart(1)
        st = RationalStream(73)
        u, v = st.vector(6), st.vector(6)
        fu = infinitesimal_field(ctx["model"], ch, u)
        fv = infinitesimal_field(ctx["model"], ch, v)
        fuv = infinitesimal_field(ctx["model"], ch, [a + b for a, b in zip(u, v)])
        for p, q, r in zip(fu, fv, fuv):
            assert p + q == r

    def test_diagonal_vanishes_at_identity_center(self, ctx):
        I = ProjMatrixPoint([1, 0, 0, 1])
        ch = ctx["model"].chart_at(I)
        st = RationalStream(79)
        x = st.vector(3)
        fld = infinitesimal_field(ctx["model"], ch, x + x)
        assert [f.eval(ch.coords_of(I)) for f in fld] == [Q(0)] * 3

    def test_elem_flats_are_the_flat_element_matrices(self, ctx):
        """The flat 2x2 entries read straight from the six coordinates are
        those of the matrices built from the sl2 basis."""
        from wonderland.geometry import flat_from_mat2

        st = RationalStream(81)
        model = ctx["model"]
        for elem in [st.vector(6) for _ in range(4)] + [[1, 0, 0, 0, 2, 0], [0] * 6]:
            want = [flat_from_mat2(m) for m in elem_matrices(elem)]
            assert list(model.elem_flats(elem)) == want

    def test_flow_consistency_first_order(self, ctx):
        """Oracle: differentiate the exact curve [(1+ta) A (1-tb)] in t as a
        rational function and compare with the field value."""
        st = RationalStream(83)
        ch = ProjChart(0)
        model = ctx["model"]
        for _ in range(4):
            z = st.vector(3)
            elem = st.vector(6)
            a, b = elem_matrices(elem)
            A = proj_rep_at(ch, z)
            Am = Matrix([[A[0], A[1]], [A[2], A[3]]])
            tvars = ("t",)
            t = MultiPoly.var(tvars, "t")
            one = MultiPoly.const(tvars, 1)

            def tmat(m):
                return [[one * m.data[i][j] for j in range(2)] for i in range(2)]

            def tmul(x, y):
                return [
                    [
                        x[i][0] * y[0][j] + x[i][1] * y[1][j]
                        for j in range(2)
                    ]
                    for i in range(2)
                ]

            ga = [[one + t * a.data[0][0], t * a.data[0][1]],
                  [t * a.data[1][0], one + t * a.data[1][1]]]
            gb = [[one - t * b.data[0][0], -t * b.data[0][1]],
                  [-t * b.data[1][0], one - t * b.data[1][1]]]
            curve = tmul(tmul(ga, tmat(Am)), gb)
            flat = [curve[0][0], curve[0][1], curve[1][0], curve[1][1]]
            den = flat[0]
            fld = infinitesimal_field(model, ch, elem)
            for pos, f in zip(ch.positions, fld):
                frac = RationalFn(flat[pos], den)
                deriv_at_0 = frac.diff("t").eval([Q(0)])
                assert deriv_at_0 == f.eval(z)

    def test_grassmann_field_matches_pointwise_projection(self, ctx):
        gr = ctx["gr"]
        d = gr.diagonal_point()
        ch = gr.chart_at(d)
        st = RationalStream(89)
        elem = st.vector(6)
        fld = infinitesimal_field(gr, ch, elem)
        z = bounded(st, 3).vector(9)
        base = grass_rep_rows_at(ch, z)
        ad_x = ad(ctx["double"], elem)
        vel = [apply_to(ad_x, r) for r in base]
        want = ch.tangent_project(base, vel)
        assert [f.eval(z) for f in fld] == want
        mixed = (Matrix([[2, 1, 0], [0, 1, -1], [1, 0, 3]]) * Matrix(base)).data
        assert ch.tangent_project(mixed, [apply_to(ad_x, r) for r in mixed]) == want


@lru_cache(maxsize=None)
def _grass_model(n):
    alg = build_sl(n)
    double, form = double_algebra(alg)
    return GrassmannModel(alg, double, form)


POLY_VARS = ("s", "t")


def _sparse_fractions(size):
    entry = hst.fractions(min_value=-6, max_value=6, max_denominator=7)
    return hst.lists(hst.one_of(hst.just(Q(0)), entry), min_size=size, max_size=size)


def _poly_row(size):
    """Rows of affine polynomials c0 + c1 s + c2 t, some of them zero."""
    entry = hst.builds(
        lambda c: MultiPoly(POLY_VARS, {(0, 0): c[0], (1, 0): c[1], (0, 1): c[2]}),
        _sparse_fractions(3),
    )
    return hst.lists(entry, min_size=size, max_size=size)


def _flow_case(n, row):
    dim = _grass_model(n).double.dim
    return hst.tuples(
        hst.just(n), _sparse_fractions(dim), hst.lists(row(dim), min_size=1, max_size=3)
    )


class TestGrassmannFlowTangent:
    """``flow_tangent`` brackets each row with the element; the oracle is the
    dense matrix of ad_x applied to the row."""

    @staticmethod
    def _check(case):
        n, elem, rows = case
        gr = _grass_model(n)
        ad_x = ad(gr.double, elem)
        got = gr.flow_tangent(elem, rows)
        assert got == [apply_to(ad_x, list(r)) for r in rows]

    @settings(max_examples=40, deadline=None)
    @given(hst.sampled_from([2, 3]).flatmap(lambda n: _flow_case(n, _sparse_fractions)))
    def test_rational_rows_match_dense_ad(self, case):
        self._check(case)

    @settings(max_examples=15, deadline=None)
    @given(hst.sampled_from([2, 3]).flatmap(lambda n: _flow_case(n, _poly_row)))
    def test_polynomial_rows_match_dense_ad(self, case):
        self._check(case)

    def test_chart_rows_at_the_diagonal(self, ctx):
        """The parametrized rows of the diagonal chart, which the Jacobi
        field is built from, for every basis element of the double."""
        gr = ctx["gr"]
        chart = gr.chart_at(gr.diagonal_point())
        rows = chart.ambient_polys()
        for elem in basis_vectors(gr.double):
            got = gr.flow_tangent(elem, rows)
            want = [apply_to(ad(gr.double, elem), r) for r in rows]
            assert got == want


_scale_rationals = hst.builds(Q, hst.integers(-12, 12), hst.integers(1, 7))
_nonzero_scales = _scale_rationals.filter(lambda x: x != 0)


def _grass_scale_case(n):
    """A Gr(n, 2n) chart with some pivot set, a representative whose pivot
    block is invertible, two legs, a scale c and a diagonal D."""
    cols = 2 * n
    rows = hst.lists(hst.lists(_scale_rationals, min_size=cols, max_size=cols), min_size=n, max_size=n)
    return hst.tuples(
        hst.lists(hst.integers(0, cols - 1), min_size=n, max_size=n, unique=True),
        rows,
        hst.lists(rows, min_size=1, max_size=2),
        _nonzero_scales,
        hst.lists(_nonzero_scales, min_size=n, max_size=n),
    )


class TestProjectionScaleInvariance:
    """``tangent_project_general`` is projective: scaling the representative
    and every leg by the same nonzero c, and on the Grassmannian each row of
    both by the same nonzero d_i, leaves every projection unchanged.  The
    integer legs and representatives of the Poisson residuals rely on it."""

    @settings(max_examples=60, deadline=None)
    @given(
        hst.integers(0, 3),
        hst.lists(_scale_rationals, min_size=4, max_size=4),
        hst.lists(hst.lists(_scale_rationals, min_size=4, max_size=4), min_size=1, max_size=3),
        _nonzero_scales,
    )
    def test_proj_chart(self, k, rep, vecs, c):
        assume(rep[k] != 0)
        chart = ProjChart(k)
        scaled = chart.tangent_project_general([c * x for x in rep], [[c * x for x in v] for v in vecs])
        assert as_fractions(scaled) == as_fractions(chart.tangent_project_general(rep, vecs))

    @settings(max_examples=40, deadline=None)
    @given(hst.sampled_from([2, 3]).flatmap(_grass_scale_case))
    def test_grass_chart(self, case):
        pivots, rep, legs, c, diag = case
        n = len(rep)
        pivots = tuple(sorted(pivots))
        assume(Matrix([[row[p] for p in pivots] for row in rep]).det() != 0)
        chart = GrassChart(pivots, 2 * n)
        want = as_fractions(chart.tangent_project_general(rep, legs))

        def times(scales, rows):
            return [[s * x for x in row] for s, row in zip(scales, rows)]

        for scales in ([c] * n, diag):
            got = chart.tangent_project_general(times(scales, rep), [times(scales, v) for v in legs])
            assert as_fractions(got) == want


_entries = hst.builds(Q, hst.integers(-9, 9), hst.integers(1, 6))


@hst.composite
def sl_elements(draw, n):
    """A rational SL_n element L U D, L and U unit triangular and D
    diagonal with reciprocal last entry, multiplied as ``Matrix``."""
    lower = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    upper = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = draw(_entries)
            upper[j][i] = draw(_entries)
    diag = draw(hst.lists(_entries.filter(bool), min_size=n - 1, max_size=n - 1))
    diag.append(1 / prod(diag, start=Q(1)))
    d = [[diag[i] if i == j else Q(0) for j in range(n)] for i in range(n)]
    return Matrix(lower) * Matrix(upper) * Matrix(d)


class TestIntegerAction:
    """The pair action in integers: ``integer_adjoint`` against the
    ``Fraction`` conjugation read by ``sl_coords``, the primitive rows a
    ``LagrangianPoint`` keeps, and chart coordinates of points whose own
    pivots differ from the chart's."""

    @settings(max_examples=30, deadline=None)
    @given(hst.sampled_from([2, 3, 4]).flatmap(lambda n: hst.tuples(hst.just(n), sl_elements(n))))
    def test_integer_adjoint_is_conjugation(self, case):
        n, g = case
        assert g.det() == 1
        rows, s = integer_adjoint(n, g)
        ginv = g.inverse()
        want = [sl_coords(n, g * sl_basis_matrix(n, i) * ginv) for i in range(n * n - 1)]
        assert [[Q(x, s) for x in row] for row in rows] == want
        assert s > 0 and gcd(s, *(x for row in rows for x in row)) == 1

    @settings(max_examples=40, deadline=None)
    @given(hst.lists(hst.lists(_entries, min_size=6, max_size=6), min_size=3, max_size=3))
    def test_point_rows_are_scaled_echelon_rows(self, rows):
        assume(Matrix(rows).rank() == 3)
        p = LagrangianPoint(rows)
        assert p.rows == [integer_vector(row)[0] for row in p.mat.data]
        assert all(row[c] > 0 for row, c in zip(p.rows, p.pivots))
        assert LagrangianPoint(p.rows) == p and LagrangianPoint(p.rows).rows == p.rows

    def test_dependent_rows_rejected(self):
        with pytest.raises(ValueError, match="not independent"):
            LagrangianPoint([[1, 2, 0, 0], [2, 4, 0, 0]])

    def test_coords_of_point_with_other_pivots(self):
        """The span has RREF pivots (0, 1, 2) and minor 1 on (0, 1, 3), so
        it lies in the chart on (0, 1, 3)."""
        p = LagrangianPoint([[1, 0, 0, 1, 2, 3], [0, 1, 0, 4, 5, 7], [0, 0, 1, 1, 1, 2]])
        assert p.pivots == (0, 1, 2)
        chart = GrassChart((0, 1, 3), 6)
        assert grass_point_at(chart, chart.coords_of(p)) == p

    def test_coords_of_zero_minor(self):
        p = LagrangianPoint([[1, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 2], [0, 0, 1, 0, 3, 1]])
        with pytest.raises(ChartDomainError):
            GrassChart((0, 1, 3), 6).coords_of(p)

    @settings(max_examples=20, deadline=None)
    @given(hst.lists(hst.lists(_entries, min_size=6, max_size=6), min_size=3, max_size=3))
    def test_coords_of_round_trips_on_every_chart(self, rows):
        assume(Matrix(rows).rank() == 3)
        p = LagrangianPoint(rows)
        for pivots in combinations(range(6), 3):
            chart = GrassChart(pivots, 6)
            if Matrix([[row[c] for c in pivots] for row in rows]).det() == 0:
                with pytest.raises(ChartDomainError):
                    chart.coords_of(p)
            else:
                assert grass_point_at(chart, chart.coords_of(p)) == p


def calls_during(code, fn):
    """How many times the function with ``code`` is entered while fn runs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is code:
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


FRACTION_NEW = Q.__new__.__code__
MATRIX_INIT = Matrix.__init__.__code__


class TestCoordinateFreeShape:
    """A chart is its normalizing index or pivot set, so ``chart_at`` makes
    no ``Fraction``; a point of the Grassmannian is its primitive echelon
    rows, so building one makes no ``Matrix`` and its reduction no
    ``Fraction``."""

    def test_chart_at_makes_no_fraction(self, ctx):
        model, gr = ctx["model"], ctx["gr"]
        p = ProjMatrixPoint([3, -5, 2, 7])
        boundary = model.lagrangian_of(ProjMatrixPoint([1, 0, 0, 0]))
        d = gr.diagonal_point()
        assert calls_during(FRACTION_NEW, lambda: model.chart_at(p)) == 0
        assert calls_during(FRACTION_NEW, lambda: gr.chart_at(d)) == 0
        assert calls_during(FRACTION_NEW, lambda: gr.chart_at(boundary)) == 0

    def test_point_construction_makes_no_matrix(self):
        rows = [[2, 0, 1, 4, 0, 6], [1, 1, 0, 0, 3, 0], [0, 5, 0, 1, 1, 1]]
        scaled = [[Q(x, 3) for x in row] for row in rows]
        for given_rows in (rows, scaled):
            assert calls_during(MATRIX_INIT, lambda: LagrangianPoint(given_rows)) == 0
            assert calls_during(FRACTION_NEW, lambda: echelon_rows(given_rows)) == 0
        assert LagrangianPoint(rows) == LagrangianPoint(scaled)

    @settings(max_examples=40, deadline=None)
    @given(
        hst.lists(hst.lists(_entries, min_size=6, max_size=6), min_size=3, max_size=3),
        hst.lists(hst.lists(_entries, min_size=3, max_size=3), min_size=3, max_size=3),
        hst.lists(hst.lists(_entries, min_size=6, max_size=6), min_size=3, max_size=3),
        hst.booleans(),
    )
    def test_equality_on_rows_is_equality_of_spans(self, rows, mix, fresh, same):
        """Equal ``rows`` exactly when equal ``mat`` and equal row spans:
        the other point spans ``mix`` times the rows, or fresh rows."""
        other = (Matrix(mix) * Matrix(rows)).data if same else fresh
        assume(Matrix(rows).rank() == 3 and Matrix(other).rank() == 3)
        p, q = LagrangianPoint(rows), LagrangianPoint(other)
        same_span = Matrix(rows + other).rank() == 3
        assert (p == q) == (p.mat == q.mat) == same_span
        assert same_span or not same
        if same_span:
            assert hash(p) == hash(q)
