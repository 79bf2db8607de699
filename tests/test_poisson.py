"""The bivector engine: field constructions and exact identity residuals."""

from contextlib import contextmanager
from fractions import Fraction as Q
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from wonderland.geometry import (
    GroupPair,
    Pgl2Model,
    ProductChart,
    ProjChart,
    ProjMatrixPoint,
    GrassmannModel,
)
from wonderland.lie import _dualize, build_sl, double_algebra, standard_splitting
from wonderland.linalg import Bivector, Matrix, integer_vector
from wonderland.poisson import (
    BivectorField,
    _collected,
    action_map_identities,
    pair_group_field,
    diagonal_action_residual,
    splitting_bivector_field,
    function_jacobiators,
    jacobi_sweep,
    mixed_product_field,
    mixed_wedges,
    multiplicativity_residual,
    pi_wedges,
    poisson_action_residual,
    project_wedges,
    projected_bivector,
    tangency_check,
)
from wonderland.poly import MultiPoly, RationalFn
from wonderland.sampling import RationalStream

from references import basis_vectors, bounded, proj_rep_at, rational

IDENTITY_PAIR = GroupPair(Matrix.identity(2), Matrix.identity(2))

# frozen regression fixture: the mixed two-factor field on the chart a=1,
# evaluated at ((1,2,3),(1/2,-1,2)); first full computation, kept thereafter
MIXED_FIXTURE_POINT = [Q(1), Q(2), Q(3), Q(1, 2), Q(-1), Q(2)]
MIXED_FIXTURE_VALUE = [
    ["0", "-3/2", "-3", "7/16", "3/8", "3/8"],
    ["3/2", "0", "6", "1/8", "-3/4", "3/4"],
    ["3", "-6", "0", "9/4", "-3/2", "9/2"],
    ["-7/16", "-1/8", "-9/4", "0", "1", "-3/4"],
    ["-3/8", "3/4", "3/2", "-1", "0", "-3/2"],
    ["-3/8", "-3/4", "-9/2", "3/4", "3/2", "0"],
]


@pytest.fixture(scope="module")
def ctx():
    sl2 = build_sl(2)
    double, form = double_algebra(sl2)
    model = Pgl2Model(sl2)
    split = standard_splitting(sl2)
    ch0 = ProjChart(0)
    return {
        "sl2": sl2,
        "double": double,
        "form": form,
        "model": model,
        "split": split,
        "ch0": ch0,
        "field0": splitting_bivector_field(model, ch0, split),
        "gr": GrassmannModel(sl2, double, form),
    }


def _non_poisson_field(stream, chart=None):
    """A bivector with random polynomial entries, not Poisson, on the given
    chart (default chart 0); entries i < j are drawn in lexicographic
    order."""
    ch = ProjChart(0) if chart is None else chart
    names = ch.variables

    def rnd():
        terms = {}
        for _ in range(3):
            e = tuple(abs(stream.take().numerator) % 3 for _ in names)
            terms[e] = terms.get(e, Q(0)) + stream.take()
        return MultiPoly(names, terms)

    ent = [[MultiPoly.zero(names)] * len(names) for _ in names]
    for i, j in combinations(range(len(names)), 2):
        ent[i][j] = rnd()
        ent[j][i] = -ent[i][j]
    return BivectorField(ch, ent)


def _symbolic_jacobiators(fld):
    """{z_i,{z_j,z_k}} + cyclic for every coordinate triple i < j < k, as
    polynomials on the chart."""
    z = MultiPoly.gens(fld.chart.variables)
    br = fld.bracket_poly
    return [
        br(z[i], br(z[j], z[k])) + br(z[j], br(z[k], z[i])) + br(z[k], br(z[i], z[j]))
        for i, j, k in combinations(range(fld.dim), 3)
    ]


@pytest.fixture(scope="module")
def compiled_fields(ctx):
    """Fields whose compiled integer evaluation is compared entry by entry
    with ``MultiPoly.eval``: the Gr(3,6) splitting field on the diagonal
    chart (whose Jacobiator is nonzero off the orbit), the mixed two-factor
    field on P(M2), and non-Poisson control fields on chart 0 and on the
    Gr(3,6) chart."""
    gr_chart = ctx["gr"].chart_at(ctx["gr"].diagonal_point())
    st = RationalStream(223)
    return [
        splitting_bivector_field(ctx["gr"], gr_chart, ctx["split"]),
        mixed_product_field(ctx["model"], ctx["split"], [ctx["ch0"]] * 2),
        _non_poisson_field(st),
        _non_poisson_field(st, gr_chart),
    ]


class TestCompiledField:
    coordinate = hst.one_of(
        hst.just(0),
        hst.integers(-9, 9),
        hst.builds(Q, hst.integers(-40, 40), hst.integers(1, 12)),
    )

    @settings(max_examples=25, deadline=None)
    @given(hst.data())
    def test_integer_values_match_entrywise_eval(self, compiled_fields, data):
        """Entry by entry, L / dl and dL / dd of ``integer_values`` and the
        entries of ``value_at`` are the values of each entry polynomial and
        of its derivatives, evaluated one by one with ``MultiPoly.eval``, at
        points with zero, ``int`` and ``Fraction`` coordinates; the Gr(3,6)
        field has zero entries and zero derivatives, which must come out
        as 0."""
        for fld in compiled_fields:
            z = data.draw(hst.lists(self.coordinate, min_size=fld.dim, max_size=fld.dim))
            want = [[p.eval(z) for p in row] for row in fld.entries]
            (L, dl), (dL, dd) = fld.integer_values(z)
            assert [[Q(x, dl) for x in row] for row in L] == want
            assert fld.value_at(z).entries == want
            want = [
                [[p.diff(v).eval(z) for p in row] for row in fld.entries]
                for v in fld.chart.variables
            ]
            assert [[[Q(x, dd) for x in row] for row in dc] for dc in dL] == want


class TestSplittingField:
    def test_vanishes_at_identity(self, ctx):
        I = ProjMatrixPoint([1, 0, 0, 1])
        z = ctx["ch0"].coords_of(I)
        assert ctx["field0"].value_at(z).is_zero()

    def test_entries_antisymmetric(self, ctx):
        f = ctx["field0"]
        for i in range(3):
            for j in range(3):
                assert (f.entries[i][j] + f.entries[j][i]).is_zero()

    def test_basis_independence(self, ctx):
        """Re-mixed dual pair gives the identical polynomial field."""
        st = RationalStream(91)
        while True:
            mix = bounded(st, 3).matrix(3, 3)
            if mix.det() != 0:
                break
        s = ctx["split"]
        xs = rational(s.x_basis)
        new_x = []
        for i in range(3):
            v = [Q(0)] * 6
            for k in range(3):
                for m in range(6):
                    v[m] += mix.data[i][k] * xs[k][m]
            new_x.append(v)
        remixed = _dualize(s.double, s.form, new_x, rational(s.y_basis))
        f2 = splitting_bivector_field(ctx["model"], ctx["ch0"], remixed)
        for i in range(3):
            for j in range(3):
                assert f2.entries[i][j] == ctx["field0"].entries[i][j]

    def test_polynomial_equals_pointwise(self, ctx):
        st = RationalStream(93)
        ch = ctx["ch0"]
        for _ in range(4):
            z = st.vector(3)
            rep = proj_rep_at(ch, z)
            pt = projected_bivector(
                [ch], [rep], mixed_wedges(ctx["model"], ctx["split"], [rep])
            )
            assert ctx["field0"].value_at(z).entries == pt.entries


class TestJacobi:
    def test_jacobi_sweep_all_charts(self, ctx):
        st = RationalStream(42)
        for k in range(4):
            ch = ProjChart(k)
            fld = splitting_bivector_field(ctx["model"], ch, ctx["split"])
            for _ in range(5):
                z = st.vector(3)
                for triple, val in jacobi_sweep(fld, z):
                    assert val == 0, (k, z, triple)

    def test_jacobiator_repeated_arguments(self, ctx):
        """The Jacobiator is alternating: a repeated argument gives 0, also
        on a field that is not Poisson."""
        x, y, z = MultiPoly.gens(ctx["ch0"].variables)
        pt = [Q(1), Q(2), Q(-1)]
        df = RationalFn(x * y + z).grad_at(pt)
        dg = RationalFn(x * x - y * z).grad_at(pt)
        control = _non_poisson_field(RationalStream(181))
        for fld in (ctx["field0"], control):
            assert function_jacobiators(fld, pt, [df, df, df]) == [0]
            assert function_jacobiators(fld, pt, [df, dg, df]) == [0]

    def test_jacobiator_random_polynomials(self, ctx):
        """Derivation property: vanishing on coordinates extends to all
        polynomial triples; checked directly on random cubics."""
        st = RationalStream(97)
        names = ctx["ch0"].variables
        for _ in range(3):
            polys = []
            for _ in range(4):
                terms = {}
                for _ in range(4):
                    e = tuple(abs(st.take().numerator) % 3 for _ in range(3))
                    terms[e] = terms.get(e, Q(0)) + st.take()
                polys.append(MultiPoly(names, terms))
            pt = st.vector(3)
            grads = [RationalFn(p).grad_at(pt) for p in polys]
            assert function_jacobiators(ctx["field0"], pt, grads) == [0] * 4

    def test_function_jacobiators_match_sympy_on_control_fields(self, ctx):
        """SymPy computes {f,{g,h}} + {g,{h,f}} + {h,{f,g}} straight from
        the entries of fields that are NOT Poisson, on chart 0 and on a
        two-factor product chart, for the coordinate functions, random
        cubics and (on chart 0) one rational function.  Every triple must
        agree with the contraction of the coordinate sweep, in
        ``combinations`` order.

        SymPy's rational function field builds each inner bracket {g, h}
        and differentiates it; the outer bracket needs only its gradient at
        the point."""
        sympy = pytest.importorskip("sympy")
        QQ = sympy.QQ
        st = RationalStream(181)
        nonzero = total = 0
        for chart in (None, ProductChart([ProjChart(0), ProjChart(3)])):
            control = _non_poisson_field(st, chart)
            _, *xs = sympy.field(",".join(control.chart.variables), QQ)
            dim = control.dim
            zero = xs[0] * 0

            def poly(terms):
                out = zero
                for e, c in terms:
                    term = xs[0] ** 0 * QQ(c.numerator, c.denominator)
                    for x, k in zip(xs, e):
                        term = term * x**k
                    out = out + term
                return out

            def cubic():
                exps = [tuple(abs(st.take().numerator) % 2 for _ in xs) for _ in range(4)]
                return poly((e, st.take()) for e in exps)

            L = [[poly(p.terms.items()) for p in row] for row in control.entries]
            funcs = list(xs) + [cubic(), cubic()]
            if chart is None:
                funcs.append(cubic() / (1 + xs[0] ** 2 + xs[-1] ** 2))
            pt = st.vector(dim)
            at = [QQ(c.numerator, c.denominator) for c in pt]

            def value(e):
                v = e.numer(*at) / e.denom(*at)
                return Q(int(v.numerator), int(v.denominator))

            def grad(e):
                return [value(e.diff(x)) for x in xs]

            grads = [grad(f) for f in funcs]
            L_at = [[value(e) for e in row] for row in L]
            inner = {}
            for i, j in combinations(range(len(funcs)), 2):
                bracket = zero
                for a, b in product(range(dim), repeat=2):
                    if L[a][b] != 0:
                        bracket += L[a][b] * funcs[i].diff(xs[a]) * funcs[j].diff(xs[b])
                inner[i, j] = grad(bracket)
                inner[j, i] = [-x for x in inner[i, j]]

            def outer(f, g, h):
                dB = inner[g, h]
                return sum(L_at[a][b] * grads[f][a] * dB[b] for a, b in product(range(dim), repeat=2))

            got = function_jacobiators(control, pt, [integer_vector(g) for g in grads])
            triples = list(combinations(range(len(funcs)), 3))
            assert len(got) == len(triples)
            for (f, g, h), val in zip(triples, got):
                assert val == outer(f, g, h) + outer(g, h, f) + outer(h, f, g), (f, g, h)
                nonzero += val != 0
                total += 1
        assert total == 20 + 56
        assert nonzero > total // 2

    def test_chart_jacobiator_is_zero_polynomial(self, ctx):
        """On every chart of P(M2) the Jacobiator of the coordinates is the
        zero polynomial, which proves the identity on the whole chart; the
        same construction is nonzero on a field that is not Poisson."""
        for k in range(4):
            fld = splitting_bivector_field(ctx["model"], ProjChart(k), ctx["split"])
            for triple in _symbolic_jacobiators(fld):
                assert triple.is_zero(), k
        control = _non_poisson_field(RationalStream(181))
        assert not all(j.is_zero() for j in _symbolic_jacobiators(control))

    def test_mixed_and_pair_group_jacobiators_are_zero_polynomials(self, ctx):
        """On every pair and triple of P(M2) charts the mixed field's
        coordinate Jacobiators are zero polynomials, and so are the
        pair-group field's on every pair: a proof on each whole chart."""
        model, split = ctx["model"], ctx["split"]
        for n in (2, 3):
            for ks in product(range(4), repeat=n):
                fld = mixed_product_field(model, split, [ProjChart(k) for k in ks])
                assert all(j.is_zero() for j in _symbolic_jacobiators(fld)), ks
        for ks in product(range(4), repeat=2):
            pc = ProductChart([ProjChart(k) for k in ks])
            fld = pair_group_field(model, pc, split)
            assert all(j.is_zero() for j in _symbolic_jacobiators(fld)), ks

    def test_flipped_cross_sign_jacobiators_are_nonzero(self, ctx, monkeypatch):
        """Control for the proof above: with the cross-term sign flipped,
        18 of the 20 two-factor Jacobiators are nonzero polynomials."""
        import wonderland.poisson as poisson

        monkeypatch.setattr(poisson, "MIXED_CROSS_SIGN", -poisson.MIXED_CROSS_SIGN)
        fld = mixed_product_field(ctx["model"], ctx["split"], [ctx["ch0"]] * 2)
        jacs = _symbolic_jacobiators(fld)
        assert len(jacs) == 20
        assert sum(not j.is_zero() for j in jacs) == 18

    def test_constant_symplectic_field(self, ctx):
        ch = ProjChart(0)
        names = ch.variables
        one = MultiPoly.const(names, 1)
        zero = MultiPoly.zero(names)
        f = BivectorField(ch, [[zero, one, zero], [-one, zero, zero], [zero, zero, zero]])
        st = RationalStream(99)
        for _ in range(3):
            assert all(v == 0 for _, v in jacobi_sweep(f, st.vector(3)))

    def test_grassmann_jacobi_on_boundary_chart(self, ctx):
        """The subspace model has charts beyond the big cell; the identity
        holds on the chart at a boundary correspondence point, at points of
        its orbit."""
        gr = ctx["gr"]
        L0 = ctx["model"].lagrangian_of(ProjMatrixPoint([1, 0, 0, 0]))
        assert L0.pivots != (0, 1, 2)
        chart = gr.chart_at(L0)
        fld = splitting_bivector_field(gr, chart, ctx["split"])
        st = RationalStream(101)
        checked = 0
        while checked < 2:
            pair = GroupPair(st.sl2(), st.sl2())
            L = gr.act(pair, L0)
            if L.pivots != chart.pivots:
                continue
            z = chart.coords_of(L)
            assert all(v == 0 for _, v in jacobi_sweep(fld, z))
            checked += 1

    def test_grassmann_jacobi_at_lagrangian_points(self, ctx):
        gr = ctx["gr"]
        dpt = gr.diagonal_point()
        ch = gr.chart_at(dpt)
        fld = splitting_bivector_field(gr, ch, ctx["split"])
        assert fld.value_at([Q(0)] * 9).is_zero()
        st = RationalStream(103)
        checked = 0
        while checked < 3:
            pair = GroupPair(st.sl2(), st.sl2())
            L = gr.act(pair, dpt)
            if L.pivots != ch.pivots:
                continue
            z = ch.coords_of(L)
            for triple, val in jacobi_sweep(fld, z):
                assert val == 0, (triple, val)
            checked += 1


class TestPiField:
    def test_vanishes_at_identity(self, ctx):
        fI = [Q(1), Q(0), Q(0), Q(1)]
        val = projected_bivector(
            [ProjChart(0), ProjChart(0)],
            [fI, fI],
            pi_wedges(ctx["model"], ctx["split"], fI, fI),
        )
        assert val.is_zero()

    def test_polynomial_equals_pointwise(self, ctx):
        pc = ProductChart([ProjChart(0), ProjChart(0)])
        fld = pair_group_field(ctx["model"], pc, ctx["split"])
        st = RationalStream(107)
        from wonderland.geometry import flat_from_mat2

        for _ in range(3):
            g, h = st.sl2(), st.sl2()
            fg, fh = flat_from_mat2(g), flat_from_mat2(h)
            if fg[0] == 0 or fh[0] == 0:
                continue
            zg = [x / fg[0] for x in fg[1:]]
            zh = [x / fh[0] for x in fh[1:]]
            want = projected_bivector(
                [ProjChart(0), ProjChart(0)], [fg, fh], pi_wedges(ctx["model"], ctx["split"], fg, fh)
            )
            assert fld.value_at(zg + zh).entries == want.entries

    def test_multiplicativity_random_pairs(self, ctx):
        st = RationalStream(109)
        for _ in range(5):
            p1 = GroupPair(st.sl2(), st.sl2())
            p2 = GroupPair(st.sl2(), st.sl2())
            assert multiplicativity_residual(ctx["model"], ctx["split"], p1, p2).passed

    def test_pi_field_jacobi(self, ctx):
        """The pair-group bivector is itself Poisson."""
        pc = ProductChart([ProjChart(0), ProjChart(0)])
        fld = pair_group_field(ctx["model"], pc, ctx["split"])
        st = RationalStream(111)
        for _ in range(2):
            z = st.vector(6)
            for triple, val in jacobi_sweep(fld, z):
                assert val == 0, triple


class TestActionIdentity:
    def test_identity_pair_trivial(self, ctx):
        st = RationalStream(113)
        p = ProjMatrixPoint(st.nonzero_vector(4))
        res = poisson_action_residual(ctx["model"], ctx["split"], IDENTITY_PAIR, p)
        assert res.passed

    def test_random_pairs_interior_and_boundary(self, ctx):
        st = RationalStream(127)
        for _ in range(4):
            pair = GroupPair(st.sl2(), st.sl2())
            p = ProjMatrixPoint(st.nonzero_vector(4))
            assert poisson_action_residual(ctx["model"], ctx["split"], pair, p).passed
            b = ProjMatrixPoint(st.rank_one2())
            assert poisson_action_residual(ctx["model"], ctx["split"], pair, b).passed

    def test_action_map_identities(self, ctx):
        st = RationalStream(131)
        pair = GroupPair(st.sl2(), st.sl2())
        p = ProjMatrixPoint(st.nonzero_vector(4))
        args = [(st.sl2(), st.sl2()) for _ in range(3)]
        assert action_map_identities(ctx["model"], pair, p, args).passed

    def test_grassmann_model_action_identity(self, ctx):
        """The same identity holds in the subspace model, at orbit points
        and at boundary correspondence points."""
        st = RationalStream(133)
        gr = ctx["gr"]
        for k in range(4):
            pair = GroupPair(st.sl2(), st.sl2())
            if k % 2 == 0:
                src = gr.act(GroupPair(st.sl2(), st.sl2()), gr.diagonal_point())
            else:
                src = ctx["model"].lagrangian_of(ProjMatrixPoint(st.rank_one2()))
            res = poisson_action_residual(gr, ctx["split"], pair, src)
            assert res.passed, res.residual

    def test_sl3_action_identity_full_rank(self):
        """Generic rank two: the identity in Gr(8,16) for the sl3 double
        with the standard splitting, exactly."""
        from wonderland.lie import build_sl, double_algebra, standard_splitting

        sl3 = build_sl(3)
        double, form = double_algebra(sl3)
        gr = GrassmannModel(sl3, double, form)
        split = standard_splitting(sl3)
        st = RationalStream(2025)
        b3 = bounded(st, 3)
        src = gr.act(GroupPair(b3.sl(3), b3.sl(3)), gr.diagonal_point())
        pair = GroupPair(b3.sl(3), b3.sl(3))
        res = poisson_action_residual(gr, split, pair, src)
        assert res.passed, res.residual

    def test_grassmann_general_tangent_projection(self, ctx):
        """Scaling-row-mixing a representative does not change the
        projected tangent."""
        gr = ctx["gr"]
        st = RationalStream(135)
        src = gr.act(GroupPair(st.sl2(), st.sl2()), gr.diagonal_point())
        chart = gr.chart_at(src)
        rows = src.mat.data
        vel = gr.flow_tangent(st.vector(6), rows)
        direct = chart.tangent_project(rows, vel)
        while True:
            mix = bounded(st, 2).matrix(3, 3)
            if mix.det() != 0:
                break
        mixed_rows = (mix * src.mat).data
        mixed_vel = (mix * Matrix(vel)).data
        (coords,), den = chart.tangent_project_general(mixed_rows, [mixed_vel])
        assert [Q(x, den) for x in coords] == direct


@hst.composite
def wedge_sides(draw):
    """(dim, lhs, rhs): two signed sides (wedges, D2) with integer legs
    drawn from a small pool, so legs repeat as objects, come back rescaled
    by +-k and include a zero leg; coefficients are ``int`` or
    ``Fraction``."""
    dim = draw(hst.integers(1, 8))
    entry = hst.integers(-6, 6)
    pool = draw(hst.lists(hst.lists(entry, min_size=dim, max_size=dim), min_size=1, max_size=4))
    pool.append([0] * dim)
    coef = hst.one_of(hst.integers(-5, 5), hst.fractions(-5, 5, max_denominator=12))

    def leg():
        base = draw(hst.sampled_from(pool))
        k = draw(hst.sampled_from([1, 1, -1, 2, -3]))
        return base if k == 1 else [k * x for x in base]

    def side():
        wedges = [(draw(coef), leg(), leg()) for _ in range(draw(hst.integers(0, 6)))]
        return wedges, draw(hst.integers(1, 60))

    return dim, side(), side()


def raw_residual(dim, lhs, rhs):
    """``from_wedges`` of the whole signed list, each coefficient over its
    side's D2."""
    (lw, ld), (rw, rd) = lhs, rhs
    return Bivector.from_wedges(
        dim, [(Q(c) / ld, u, w) for c, u, w in lw] + [(-Q(c) / rd, u, w) for c, u, w in rw]
    )


def rescaled(side, draw):
    """The same bivector written another way: every leg times a nonzero k
    (a new list), the coefficient over k_u k_w and the side's D2 times m,
    the wedges shuffled."""
    wedges, d2 = side
    m = draw(hst.integers(1, 5))
    out = []
    for c, u, w in wedges:
        ku, kw = (draw(hst.sampled_from([1, -1, 2, -3])) for _ in range(2))
        out.append((Q(c) * m / (ku * kw), [ku * x for x in u], [kw * x for x in w]))
    return draw(hst.permutations(out)), d2 * m


@contextmanager
def expanded_sizes():
    """Record the length of every wedge list ``Bivector.from_wedges`` gets
    inside the block."""
    sizes = []
    real = Bivector.__dict__["from_wedges"]

    def recorded(cls, dim, wedges):
        sizes.append(len(wedges))
        return real.__func__(cls, dim, wedges)

    Bivector.from_wedges = classmethod(recorded)
    try:
        yield sizes
    finally:
        Bivector.from_wedges = real


class TestCollectedResidual:
    """``_collected`` is ``from_wedges`` of the signed list, entry for
    entry, and sides that agree cancel before anything is expanded."""

    @settings(max_examples=150, deadline=None)
    @given(wedge_sides())
    def test_equals_the_expanded_sum(self, case):
        dim, lhs, rhs = case
        assert _collected(dim, lhs, rhs).entries == raw_residual(dim, lhs, rhs).entries

    @settings(max_examples=150, deadline=None)
    @given(wedge_sides(), hst.data())
    def test_side_minus_side_is_zero_and_one_change_shows(self, case, data):
        dim, lhs, _ = case
        rhs = rescaled(lhs, data.draw)
        with expanded_sizes() as sizes:
            assert _collected(dim, lhs, rhs).is_zero()
        assert sizes == [0]
        wedges, d2 = rhs
        if wedges:
            j = data.draw(hst.integers(0, len(wedges) - 1))
            c, u, w = wedges[j]
            c += data.draw(hst.sampled_from([1, -2, Q(1, 3)]))
            changed = (wedges[:j] + [(c, u, w)] + wedges[j + 1 :], d2)
            assert _collected(dim, lhs, changed).entries == raw_residual(dim, lhs, changed).entries

    def test_action_and_multiplicativity_expand_nothing(self, ctx):
        """On both models the action residual's sides, and the
        multiplicativity residual's, cancel wedge by wedge: ``from_wedges``
        gets an empty list.  The diagonal action on two factors, whose
        orbit legs span both factors, collects none of its 24 wedges."""
        st = RationalStream(139)
        model, gr, split = ctx["model"], ctx["gr"], ctx["split"]
        pair = GroupPair(st.sl2(), st.sl2())
        src = gr.act(GroupPair(st.sl2(), st.sl2()), gr.diagonal_point())
        g = st.sl2()
        points = [ProjMatrixPoint(st.invertible2()) for _ in range(2)]
        with expanded_sizes() as sizes:
            checks = [
                poisson_action_residual(model, split, pair, ProjMatrixPoint(st.nonzero_vector(4))),
                poisson_action_residual(model, split, pair, ProjMatrixPoint(st.rank_one2())),
                poisson_action_residual(gr, split, pair, src),
                multiplicativity_residual(model, split, pair, GroupPair(st.sl2(), st.sl2())),
                diagonal_action_residual(model, split, GroupPair(g, g), points),
            ]
        assert all(c.passed for c in checks)
        assert sizes == [0, 0, 0, 0, 24]


class TestPointwiseWork:
    """Counted by wrapping methods: each flow tangent of a wedge list is
    computed once, and legs absent from a factor are never projected."""

    @staticmethod
    def _record(monkeypatch, cls, name):
        calls = []
        orig = getattr(cls, name)

        def counted(self, *args):
            calls.append(args)
            return orig(self, *args)

        monkeypatch.setattr(cls, name, counted)
        return calls

    def test_bivector_values_build_no_matrix(self, ctx, monkeypatch):
        """The wedge sum and the compiled field hand their integer rows to
        ``Bivector`` as they are: with ``Matrix.__init__`` raising around
        just those calls, ``from_wedges`` and ``value_at`` still return,
        and the same values as before the patch."""
        st = RationalStream(181)
        model, ch = ctx["model"], ctx["ch0"]
        reps = [model.rep(ProjMatrixPoint(st.invertible2())) for _ in range(2)]
        charts = [model.chart_at(ProjMatrixPoint(r)) for r in reps]
        wedges, _ = project_wedges(charts, reps, mixed_wedges(model, ctx["split"], reps))
        z = st.vector(ch.dim)
        want_sum = Bivector.from_wedges(6, wedges)
        want_value = ctx["field0"].value_at(z)

        def refuse(self, data):
            raise AssertionError("Matrix built")

        monkeypatch.setattr(Matrix, "__init__", refuse)
        got_sum = Bivector.from_wedges(6, wedges)
        got_value = ctx["field0"].value_at(z)
        monkeypatch.undo()
        assert got_sum == want_sum and not got_sum.is_zero()
        assert got_value == want_value and not got_value.is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mixed_wedges_one_flow_tangent_per_element_and_factor(self, ctx, monkeypatch, n):
        st = RationalStream(173)
        reps = [list(ProjMatrixPoint(st.nonzero_vector(4)).vec) for _ in range(n)]
        calls = self._record(monkeypatch, Pgl2Model, "flow_tangent")
        wedges = mixed_wedges(ctx["model"], ctx["split"], reps)
        half = len(ctx["split"].integer_pairs)
        assert len(calls) == 2 * half * n
        assert len(wedges) == half * (n + n * (n - 1) // 2)

    def test_pair_group_zero_components_are_never_pushed(self, ctx, monkeypatch):
        """Two of the standard splitting's y-elements, multiples of (0, f)
        and (e, 0), have a zero component: every pi_wedges call marks
        exactly those 4 components None, and multiplicativity_residual
        multiplies no zero leg."""
        import wonderland.poisson as poisson

        wedge_lists = []
        orig_pi = poisson.pi_wedges

        def counted_pi(*args):
            wedge_lists.append(orig_pi(*args))
            return wedge_lists[-1]

        products = []
        orig_mul = poisson.flat_mul2

        def counted_mul(x, y):
            products.append((x, y))
            return orig_mul(x, y)

        monkeypatch.setattr(poisson, "pi_wedges", counted_pi)
        monkeypatch.setattr(poisson, "flat_mul2", counted_mul)
        st = RationalStream(199)
        p1 = GroupPair(st.sl2(), st.sl2())
        p2 = GroupPair(st.sl2(), st.sl2())
        assert multiplicativity_residual(ctx["model"], ctx["split"], p1, p2).passed
        assert len(wedge_lists) == 3
        for wedges in wedge_lists:
            assert sum(v is None for _, u, w in wedges for v in u + w) == 4
        assert products
        assert [xy for xy in products if not (any(xy[0]) and any(xy[1]))] == []

    def test_p_m2_flow_builds_no_element_matrix(self, ctx, monkeypatch):
        """``flow_tangent``, ``pi_wedges`` and the action residuals' orbit
        legs read the flat entries of a double element from its six
        coordinates: the wedge lists build with ``Matrix.__init__``
        raising, and ``run all`` makes no sl2 matrix beyond the three basis
        matrices of its model."""
        import wonderland.geometry as geometry
        from wonderland.reports import ExperimentConfig, run_experiment

        def refuse(self, data):
            raise AssertionError("Matrix built")

        st = RationalStream(211)
        reps = [list(ProjMatrixPoint(st.nonzero_vector(4)).vec) for _ in range(2)]
        monkeypatch.setattr(Matrix, "__init__", refuse)
        assert len(mixed_wedges(ctx["model"], ctx["split"], reps)) == 9
        assert len(pi_wedges(ctx["model"], ctx["split"], *reps)) == 6
        monkeypatch.undo()
        calls = self._record_function(monkeypatch, geometry, "sl_basis_matrix")
        assert run_experiment(ExperimentConfig("all", samples=2, seed=301)).failed == 0
        assert len(calls) == 3

    @staticmethod
    def _record_function(monkeypatch, module, name):
        calls = []
        orig = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return orig(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_grassmann_action_residual_inverts_once_per_representative(self, ctx, monkeypatch):
        """One Gr(3,6) action residual projects two batches: the field at
        the image, and at the pushed source representative the pushed field
        (6 legs) together with the group bivector's orbit legs (12 flow
        tangents).  Each batch inverts the pivot block once; the other two
        inverses build Ad_g and Ad_h by ``integer_adjoint``, once per group
        element for ``act`` and ``differentials`` together."""
        import wonderland.geometry as geometry
        from wonderland.geometry import GrassChart

        gr = ctx["gr"]
        st = RationalStream(5)
        src = gr.act(GroupPair(st.sl2(), st.sl2()), gr.diagonal_point())
        pair = GroupPair(st.sl2(), st.sl2())
        batches = self._record(monkeypatch, GrassChart, "tangent_project_general")
        inverses = self._record_function(monkeypatch, geometry, "integer_inverse")
        adjoints = self._record_function(monkeypatch, geometry, "integer_adjoint")
        assert poisson_action_residual(gr, ctx["split"], pair, src).passed
        assert [len(legs) for _, legs in batches] == [6, 18]
        assert len(inverses) == 4
        assert adjoints == [(2, pair.g), (2, pair.h)]

    @pytest.mark.parametrize("n", [2, 3])
    def test_grassmann_action_residual_makes_no_fraction_matrix_product(self, ctx, monkeypatch, n):
        """The Gr(3,6) and Gr(8,16) action residuals run from group element
        to projection in integers: with ``Matrix.__mul__`` and
        ``Matrix.inverse`` made to raise, both still pass."""
        if n == 2:
            gr, split = ctx["gr"], ctx["split"]
        else:
            sl3 = build_sl(3)
            gr, split = GrassmannModel(sl3, *double_algebra(sl3)), standard_splitting(sl3)
        st = RationalStream(2025)
        g1, h1, g2, h2 = (bounded(st, 3).sl(n) for _ in range(4))

        def refuse(*args):
            raise AssertionError("a Fraction matrix product or inverse was made")

        monkeypatch.setattr(Matrix, "__mul__", refuse)
        monkeypatch.setattr(Matrix, "inverse", refuse)
        src = gr.act(GroupPair(g1, h1), gr.diagonal_point())
        assert poisson_action_residual(gr, split, GroupPair(g2, h2), src).passed

    def test_run_all_multiplies_integer_flats(self, monkeypatch):
        """Every flat product of ``run all`` runs on ``int`` entries, or on
        ``MultiPoly`` entries for the symbolic fields: the splitting's
        pairs, the group pairs and the representatives are scaled to
        integers once, and no ``Fraction`` reaches ``flat_mul2``."""
        import wonderland.geometry as geometry
        import wonderland.poisson as poisson
        from wonderland.reports import ExperimentConfig, run_experiment

        types = []
        orig = geometry.flat_mul2

        def recorded(x, y):
            types.append({type(v) for v in list(x) + list(y)})
            return orig(x, y)

        monkeypatch.setattr(geometry, "flat_mul2", recorded)
        monkeypatch.setattr(poisson, "flat_mul2", recorded)
        assert run_experiment(ExperimentConfig("all", samples=2, seed=301)).failed == 0
        assert {int} in types
        assert [t for t in types if not t <= {int, MultiPoly}] == []

    def test_grassmann_brackets_integer_rows(self, ctx, monkeypatch):
        """In one Gr(3,6) action residual every element and row that
        ``flow_tangent`` brackets is ``int``: the splitting's pairs, the
        echelon rows and the pair block are scaled to integers once."""
        from wonderland.lie import LieAlgebra

        gr = ctx["gr"]
        st = RationalStream(5)
        src = gr.act(GroupPair(st.sl2(), st.sl2()), gr.diagonal_point())
        pair = GroupPair(st.sl2(), st.sl2())
        calls = self._record(monkeypatch, LieAlgebra, "bracket")
        assert poisson_action_residual(gr, ctx["split"], pair, src).passed
        assert calls
        assert {type(v) for x, y in calls for v in x + y} == {int}

    def test_run_all_projects_no_zero_leg(self, monkeypatch):
        from wonderland.reports import ExperimentConfig, run_experiment

        calls = self._record(monkeypatch, ProjChart, "tangent_project_general")
        report = run_experiment(ExperimentConfig("all", samples=2, seed=301))
        assert report.failed == 0
        assert calls
        legs = [vec for _, vecs in calls for vec in vecs]
        assert [vec for vec in legs if all(x == 0 for x in vec)] == []


class TestFieldDerivativeWork:
    """Checked by wrapping ``MultiPoly`` methods: a field differentiates
    each entry once, and field evaluation calls no ``MultiPoly.eval``."""

    @staticmethod
    def _grassmann_jacobi_diffs(monkeypatch, samples):
        from wonderland.reports import ExperimentConfig, run_experiment

        calls = []
        orig = MultiPoly.diff

        def counted(self, name):
            calls.append(name)
            return orig(self, name)

        monkeypatch.setattr(MultiPoly, "diff", counted)
        cfg = ExperimentConfig("jacobi", model="sl2-grassmann", samples=samples, seed=17)
        assert run_experiment(cfg).failed == 0
        return len(calls)

    def test_grassmann_jacobi_diff_count_does_not_grow_with_samples(self, monkeypatch):
        one = self._grassmann_jacobi_diffs(monkeypatch, 1)
        three = self._grassmann_jacobi_diffs(monkeypatch, 3)
        # one derivative per (coordinate, entry) of the Gr(3,6) chart field
        assert one == three == 9**3

    @pytest.mark.parametrize("model_key", ["model", "gr"])
    def test_zero_polynomials_are_never_evaluated(self, ctx, monkeypatch, model_key):
        """Field evaluation reads the compiled integer table only: with
        ``MultiPoly.eval`` raising, ``value_at``, ``jacobi_sweep`` and
        ``function_jacobiators`` still run, and the zero entries come out
        as 0."""
        model = ctx[model_key]
        if model_key == "gr":
            chart = model.chart_at(model.diagonal_point())
        else:
            chart = ctx["ch0"]
        fld = splitting_bivector_field(model, chart, ctx["split"])
        st = RationalStream(211)
        z = st.vector(fld.dim)
        grads = [integer_vector(st.vector(fld.dim)) for _ in range(4)]

        def refuse(self, point):
            raise AssertionError("MultiPoly.eval called")

        monkeypatch.setattr(MultiPoly, "eval", refuse)
        L = fld.value_at(z).entries
        zeros = sum(e.is_zero() for row in fld.entries for e in row)
        assert zeros and sum(x == 0 for row in L for x in row) >= zeros
        assert len(jacobi_sweep(fld, z)) == len(list(combinations(range(fld.dim), 3)))
        assert len(function_jacobiators(fld, z, grads)) == 4


class TestMixedField:
    def test_n1_equals_base_polynomials(self, ctx):
        m1 = mixed_product_field(ctx["model"], ctx["split"], [ctx["ch0"]] * 1)
        for i in range(3):
            for j in range(3):
                assert m1.entries[i][j].terms == ctx["field0"].entries[i][j].terms

    def test_cross_block_oracle(self, ctx):
        """Term-by-term reconstruction of the cross block at a random point."""
        st = RationalStream(137)
        m2 = mixed_product_field(ctx["model"], ctx["split"], [ctx["ch0"]] * 2)
        z = st.vector(6)
        val = m2.value_at(z)
        ch = ctx["ch0"]
        repA, repB = proj_rep_at(ch, z[:3]), proj_rep_at(ch, z[3:])
        model, s = ctx["model"], ctx["split"]
        xs, ys = rational(s.x_basis), rational(s.y_basis)
        for a in range(3):
            for b in range(3):
                want = Q(0)
                for i in range(3):
                    Yj = ch.tangent_project(repA, model.flow_tangent(ys[i], repA))
                    Xk = ch.tangent_project(repB, model.flow_tangent(xs[i], repB))
                    want += -Yj[a] * Xk[b]
                assert val.entries[a][3 + b] == want

    def test_value_at_identity_pair_fixture(self, ctx):
        """Frozen: at ([I],[I]) every block vanishes (the x-fields die at I)."""
        m2 = mixed_product_field(ctx["model"], ctx["split"], [ctx["ch0"]] * 2)
        zI = ctx["ch0"].coords_of(ProjMatrixPoint([1, 0, 0, 1]))
        assert m2.value_at(zI + zI).is_zero()

    def test_generic_point_regression_fixture(self, ctx):
        m2 = mixed_product_field(ctx["model"], ctx["split"], [ctx["ch0"]] * 2)
        val = m2.value_at(MIXED_FIXTURE_POINT)
        got = [[str(x) for x in row] for row in val.entries]
        assert got == MIXED_FIXTURE_VALUE

    def test_mixed_jacobi(self, ctx):
        m2 = mixed_product_field(ctx["model"], ctx["split"], [ctx["ch0"]] * 2)
        st = RationalStream(139)
        z = st.vector(6)
        for triple, val in jacobi_sweep(m2, z):
            assert val == 0, triple


class TestDiagonalAction:
    def test_identity_trivial(self, ctx):
        st = RationalStream(149)
        pts = (ProjMatrixPoint(st.nonzero_vector(4)), ProjMatrixPoint(st.nonzero_vector(4)))
        res = diagonal_action_residual(ctx["model"], ctx["split"], IDENTITY_PAIR, pts)
        assert res.passed

    def test_n1_matches_action_residual(self, ctx):
        st = RationalStream(151)
        g = st.sl2()
        p = ProjMatrixPoint(st.nonzero_vector(4))
        r1 = diagonal_action_residual(ctx["model"], ctx["split"], GroupPair(g, g), (p,))
        r2 = poisson_action_residual(ctx["model"], ctx["split"], GroupPair(g, g), p)
        assert r1.passed and r2.passed

    def test_random_samples_exact(self, ctx):
        st = RationalStream(157)
        for _ in range(3):
            g = st.sl2()
            pts = (
                ProjMatrixPoint(st.nonzero_vector(4)),
                ProjMatrixPoint(st.nonzero_vector(4)),
            )
            res = diagonal_action_residual(ctx["model"], ctx["split"], GroupPair(g, g), pts)
            assert res.passed
            assert res.details["conjugation_action"]

    def test_general_pair_action_also_poisson(self, ctx):
        st = RationalStream(163)
        pair = GroupPair(st.sl2(), st.sl2())
        pts = (
            ProjMatrixPoint(st.nonzero_vector(4)),
            ProjMatrixPoint(st.nonzero_vector(4)),
        )
        assert diagonal_action_residual(ctx["model"], ctx["split"], pair, pts).passed

    def test_three_factors(self, ctx):
        """The cross terms couple every factor pair on a triple product."""
        st = RationalStream(165)
        g = st.sl2()
        pts = tuple(ProjMatrixPoint(st.nonzero_vector(4)) for _ in range(3))
        res = diagonal_action_residual(ctx["model"], ctx["split"], GroupPair(g, g), pts)
        assert res.passed

    def test_boundary_tuple(self, ctx):
        """The identity extends to tuples with boundary factors, where the
        conjugation action degenerates to the induced line actions."""
        st = RationalStream(169)
        for _ in range(3):
            g = st.sl2()
            pts = (
                ProjMatrixPoint(st.rank_one2()),
                ProjMatrixPoint(st.nonzero_vector(4)),
            )
            res = diagonal_action_residual(ctx["model"], ctx["split"], GroupPair(g, g), pts)
            assert res.passed

    def test_mixed_field_on_three_factor_chart_jacobi(self, ctx):
        m3 = mixed_product_field(ctx["model"], ctx["split"], [ctx["ch0"]] * 3)
        st = RationalStream(171)
        z = st.vector(9)
        for triple, val in jacobi_sweep(m3, z):
            assert val == 0, triple

    def test_wrong_cross_sign_fails(self, ctx, monkeypatch):
        """Negative control: the opposite cross-term sign breaks the identity."""
        import wonderland.poisson as poisson

        st = RationalStream(167)
        g = st.sl2()
        pts = (
            ProjMatrixPoint(st.nonzero_vector(4)),
            ProjMatrixPoint(st.nonzero_vector(4)),
        )
        monkeypatch.setattr(poisson, "MIXED_CROSS_SIGN", 1)
        res = diagonal_action_residual(ctx["model"], ctx["split"], GroupPair(g, g), pts)
        assert not res.passed
        # the first four nonzero entries, as a report prints them
        assert res.residual == (
            "[(0, 3, '484275229011/9535143619058'), "
            "(0, 4, '3187889168967/33373002666703'), "
            "(0, 5, '-1719955767825/33373002666703'), "
            "(1, 3, '-367687513637/4767571809529')]"
        )


class TestOppositeSplitting:
    """The machinery accepts any validated splitting, not just the standard
    one: the opposite complement (negative roots in the first summand) gives
    a different field that satisfies all the same exact identities."""

    @pytest.fixture()
    def opposite(self, ctx):
        from wonderland.lie import splitting_from_l2

        z3 = [Q(0)] * 3
        e, h, f = basis_vectors(ctx["sl2"])
        l2 = [
            list(f) + z3,                      # (f, 0)
            list(h) + [-x for x in h],         # (h, -h)
            z3 + list(e),                      # (0, e)
        ]
        return splitting_from_l2(ctx["sl2"], l2)

    def test_field_differs_from_standard(self, ctx, opposite):
        f_std = ctx["field0"]
        f_opp = splitting_bivector_field(ctx["model"], ctx["ch0"], opposite)
        assert any(
            f_std.entries[i][j] != f_opp.entries[i][j]
            for i in range(3)
            for j in range(3)
        )

    def test_jacobi_still_exact(self, ctx, opposite):
        f_opp = splitting_bivector_field(ctx["model"], ctx["ch0"], opposite)
        st = RationalStream(191)
        for _ in range(4):
            assert all(v == 0 for _, v in jacobi_sweep(f_opp, st.vector(3)))

    def test_action_identity_still_exact(self, ctx, opposite):
        st = RationalStream(193)
        for _ in range(3):
            pair = GroupPair(st.sl2(), st.sl2())
            p = ProjMatrixPoint(st.nonzero_vector(4))
            assert poisson_action_residual(ctx["model"], opposite, pair, p).passed

    def test_diagonal_action_still_exact(self, ctx, opposite):
        st = RationalStream(197)
        g = st.sl2()
        pts = (
            ProjMatrixPoint(st.nonzero_vector(4)),
            ProjMatrixPoint(st.nonzero_vector(4)),
        )
        assert diagonal_action_residual(ctx["model"], opposite, GroupPair(g, g), pts).passed

    def test_non_complement_rejected(self, ctx):
        """A Lagrangian subalgebra meeting the diagonal is not a splitting."""
        from wonderland.lie import splitting_from_l2

        z3 = [Q(0)] * 3
        e, h, f = basis_vectors(ctx["sl2"])
        bad = [
            list(e) + z3,
            list(h) + [-x for x in h],
            z3 + list(e),
        ]
        with pytest.raises(ValueError):
            splitting_from_l2(ctx["sl2"], bad)


class TestTangency:
    def test_divisor_tangent_at_boundary(self, ctx):
        ch = ctx["ch0"]
        div = ch.det_poly()
        st = RationalStream(173)
        done = 0
        while done < 5:
            p = ProjMatrixPoint(st.rank_one2())
            if p.vec[0] == 0:
                continue
            res = tangency_check(ctx["field0"], [div], ch.coords_of(p), "tangency")
            assert res.passed
            done += 1

    def test_empty_defining_set_vacuous(self, ctx):
        st = RationalStream(179)
        res = tangency_check(ctx["field0"], [], st.vector(3), "tangency")
        assert res.passed

    def test_hyperplane_negative_control(self, ctx):
        ch = ctx["ch0"]
        hyper = MultiPoly.var(ch.variables, "b") - 1
        st = RationalStream(181)
        z = [Q(1), st.take(), st.take()]
        res = tangency_check(ctx["field0"], [hyper], z, "tangency")
        assert not res.passed

    def test_off_subvariety_rejected(self, ctx):
        ch = ctx["ch0"]
        div = ch.det_poly()
        with pytest.raises(ValueError):
            tangency_check(ctx["field0"], [div], [Q(0), Q(0), Q(1)], "tangency")
