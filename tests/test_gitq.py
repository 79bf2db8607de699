"""GIT quotient layer: rings, charts, product bracket, gluing, saturation."""

from fractions import Fraction as Q

import pytest

from wonderland.geometry import GroupPair, Pgl2Model, ProjMatrixPoint
from wonderland.gitq import (
    AffineChartQuotient,
    GradedInvariantRing,
    cover_report,
    divisor_saturation,
    glue_consistency,
    product_bracket_residual,
    projection_poisson_residual,
    quotient_bracket_table,
    quotient_jacobi_residual,
    semistable_charts,
)
from wonderland.invariants import (
    ProjectiveInvariant,
    det_of_factor,
    m2_variables,
    pgl2_surrogates,
    trace_of_word,
)
from wonderland.lie import build_sl, standard_splitting
from wonderland.linalg import Matrix
from wonderland.poly import MultiPoly
from wonderland.sampling import RationalStream


@pytest.fixture(scope="module")
def ctx():
    sl2 = build_sl(2)
    return {
        "sl2": sl2,
        "model": Pgl2Model(sl2),
        "split": standard_splitting(sl2),
        "ring1": GradedInvariantRing(sl2, 1, 4),
        "ring2": GradedInvariantRing(sl2, 2, 2),
    }


class TestGradedRing:
    def test_rank1_dimensions(self, ctx):
        # the ring on generators of weights 1 and 2: dims 1,1,2,2,3 in deg 0..4
        assert ctx["ring1"].dimensions() == {
            (0,): 1,
            (1,): 1,
            (2,): 2,
            (3,): 2,
            (4,): 3,
        }

    def test_rank2_low_degrees(self, ctx):
        dims = ctx["ring2"].dimensions()
        assert dims[(0, 0)] == 1
        assert dims[(1, 0)] == dims[(0, 1)] == 1
        assert dims[(1, 1)] == 2
        assert dims[(2, 0)] == dims[(0, 2)] == 2

    def test_rank2_every_bidegree_up_to_bound(self, ctx):
        """Oracle: the ring of M2 x M2 is free on trA, trB, trAB, detA, detB
        of bidegrees (1,0), (0,1), (1,1), (2,0), (0,2), so each dimension is
        a count of monomials in them."""
        ring = GradedInvariantRing(ctx["sl2"], 2, 3)
        want = {}
        for p in range(4):
            for q in range(4):
                # trAB^c detA^d detB^e fixes trA = p - c - 2d, trB = q - c - 2e
                want[(p, q)] = sum(
                    1
                    for c in range(min(p, q) + 1)
                    for d in range((p - c) // 2 + 1)
                    for e in range((q - c) // 2 + 1)
                )
        assert want[(3, 3)] == 10
        assert ring.dimensions() == want
        assert ring.to_json()["degree_bound"] == 3

    def test_json_shape(self, ctx):
        obj = ctx["ring1"].to_json()
        assert obj["degree_bound"] == 4
        assert [g["name"] for g in obj["generators"]] == ["tr", "det"]

    def test_negative_degree_bound_rejected(self, ctx):
        for factors in (1, 2):
            with pytest.raises(ValueError):
                GradedInvariantRing(ctx["sl2"], factors, -1)

    def test_unsupported_factors(self, ctx):
        with pytest.raises(ValueError):
            GradedInvariantRing(ctx["sl2"], 3, 4)


class TestSemistableCharts:
    def test_membership(self, ctx):
        charts = semistable_charts(ctx["ring1"])
        I = ProjMatrixPoint([1, 0, 0, 1])
        E11 = ProjMatrixPoint([1, 0, 0, 0])
        det_chart = [c for c in charts if c.name == "det"][0]
        tr_chart = [c for c in charts if c.name == "tr"][0]
        assert det_chart.contains((I,)) and not det_chart.contains((E11,))
        assert tr_chart.contains((E11,))

    def test_nilpotent_direction_unstable(self, ctx):
        charts = semistable_charts(ctx["ring1"])
        nil = ProjMatrixPoint([0, 1, 0, 0])
        rows = cover_report(charts, [(nil,)])
        assert rows[0]["semistable"] is False

    def test_invertible_always_semistable(self, ctx):
        charts = semistable_charts(ctx["ring1"])
        st = RationalStream(301)
        for _ in range(6):
            p = ProjMatrixPoint(st.invertible2())
            assert any(c.contains((p,)) for c in charts)

    def test_fraction_degree_validation(self, ctx):
        charts = semistable_charts(ctx["ring1"])
        det_chart = [c for c in charts if c.name == "det"][0]
        v = m2_variables(1)
        tr = trace_of_word(v, (1,))
        frac = ProjectiveInvariant("tr2_over_det", tr**2, det_chart.poly, 1)
        assert frac.value_at((ProjMatrixPoint([1, 0, 0, 1]),)) == 4
        with pytest.raises(ValueError):
            ProjectiveInvariant("bad", tr, det_chart.poly, 1)

    def test_fraction_with_higher_power(self, ctx):
        charts = semistable_charts(ctx["ring1"])
        det_chart = [c for c in charts if c.name == "det"][0]
        v = m2_variables(1)
        tr = trace_of_word(v, (1,))
        frac = ProjectiveInvariant("tr4_over_det2", tr**4, det_chart.poly**2, 1)
        assert frac.value_at((ProjMatrixPoint([1, 0, 0, 1]),)) == 16

    def test_nilpotent_beside_a_matrix_fixing_its_kernel_is_unstable(self, ctx):
        """diag(t, 1/t) has weight 2 on [E12] and 0 on [I], so ([E12], [I])
        is unstable for O(1, 1), although trB = 2 there."""
        E12, I = ProjMatrixPoint([0, 1, 0, 0]), ProjMatrixPoint([1, 0, 0, 1])
        charts = semistable_charts(ctx["ring2"])
        assert cover_report(charts, [(E12, I), (I, E12)]) == [
            {"point": [repr(E12), repr(I)], "charts": [], "semistable": False},
            {"point": [repr(I), repr(E12)], "charts": [], "semistable": False},
        ]
        assert cover_report(charts, [(I, I)])[0]["semistable"]

    def test_chart_invariants_have_diagonal_degree_in_the_ring(self, ctx):
        for ring, names in (
            (ctx["ring1"], ["tr", "det"]),
            (ctx["ring2"], ["trA*trB", "trAB", "detA*detB", "trA^2*detB", "trB^2*detA"]),
        ):
            charts = semistable_charts(ring)
            assert [c.name for c in charts] == names
            for c in charts:
                assert len(set(c.degree)) == 1
                assert ring.spaces[c.degree].contains(c.poly), c.name

    @staticmethod
    def _hilbert_mumford_unstable(mats):
        """Route A, by the Hilbert-Mumford criterion for O(1, ..., 1)
        (Mumford, Fogarty and Kirwan, GIT, Thm 2.1): in a basis (v, w),
        diag(t, 1/t) has weight +2 on a nonzero A with A v = 0 and A^2 = 0,
        0 on one with A v in <v> otherwise, and -2 on the rest; the tuple is
        unstable exactly when the weights sum to more than 0 for some v.
        Only the kernel of a nonzero nilpotent factor can give that."""

        def nilpotent(m):
            return m[0][0] + m[1][1] == 0 and m[0][0] * m[1][1] == m[0][1] * m[1][0]

        def weight(m, v):
            mv = [m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1]]
            if mv[0] * v[1] != mv[1] * v[0]:
                return -2
            return 2 if nilpotent(m) and mv == [0, 0] else 0

        kernels = [
            [-m[0][1], m[0][0]] if any(m[0]) else [-m[1][1], m[1][0]]
            for m in mats
            if nilpotent(m) and any(map(any, m))
        ]
        return any(sum(weight(m, v) for m in mats) > 0 for v in kernels)

    @staticmethod
    def _stratified_tuples(seed, r, count):
        """Tuples that run through every choice of kind per factor, the
        whole tuple conjugated by one invertible matrix so that factors
        share invariant lines: nilpotent, upper triangular, the two
        diagonal rank-one shapes, traceless diagonal, antidiagonal (with
        those, each of the five charts is the only one holding some tuple),
        generic, rank-one and scalar."""
        st = RationalStream(seed)

        def traceless_diagonal():
            a = st.take_nonzero()
            return [[a, 0], [0, -a]]

        kinds = [
            lambda: [[0, st.take_nonzero()], [0, 0]],
            lambda: [[st.take(), st.take()], [0, st.take()]],
            lambda: [[st.take_nonzero(), 0], [0, 0]],
            lambda: [[0, 0], [0, st.take_nonzero()]],
            traceless_diagonal,
            lambda: [[0, st.take()], [st.take(), 0]],
            lambda: [[st.take(), st.take()], [st.take(), st.take()]],
            lambda: st.rank_one2().data,
            lambda: [[1, 0], [0, 1]],
        ]
        out = []
        for k in range(count):
            g = st.invertible2()
            ginv = g.inverse()
            mats = []
            for l in range(r):
                m = kinds[k // len(kinds) ** l % len(kinds)]()
                if any(map(any, m)):
                    mats.append((g * Matrix(m) * ginv).data)
            if len(mats) == r:
                out.append(mats)
        return out

    @pytest.mark.parametrize("r", [1, 2])
    def test_cover_agrees_with_hilbert_mumford(self, ctx, r):
        """Route A, which uses no invariant, against ``cover_report``."""
        charts = semistable_charts(ctx["ring%d" % r])
        tuples = self._stratified_tuples(389 + r, r, 405)
        points = [tuple(ProjMatrixPoint(Matrix(m)) for m in ms) for ms in tuples]
        rows = cover_report(charts, points)
        verdicts = [not self._hilbert_mumford_unstable(ms) for ms in tuples]
        assert [row["semistable"] for row in rows] == verdicts
        assert len(tuples) > 200 and 30 < verdicts.count(False) < len(tuples) - 30


class TestProductBracket:
    def test_constant_group_side(self, ctx):
        """With phi constant the product bracket reduces to the X bracket."""
        st = RationalStream(307)
        pair = GroupPair(st.sl2(), st.sl2())
        pts = (ProjMatrixPoint(st.invertible2()), ProjMatrixPoint(st.invertible2()))
        v = m2_variables(2)
        one = ProjectiveInvariant(
            "one", MultiPoly.const(v, 1), MultiPoly.const(v, 1), 2
        )
        surr = pgl2_surrogates(2)
        res = product_bracket_residual(
            ctx["model"], ctx["split"], pair, pts, one, surr[0], one, surr[2]
        )
        assert res.passed

    def test_decomposable_functions(self, ctx):
        st = RationalStream(311)
        pair = GroupPair(st.sl2(), st.sl2())
        pts = (ProjMatrixPoint(st.invertible2()), ProjMatrixPoint(st.invertible2()))
        v = m2_variables(2)
        phi1 = ProjectiveInvariant(
            "phi1", trace_of_word(v, (1,)) ** 2, det_of_factor(v, 1), 2
        )
        phi2 = ProjectiveInvariant(
            "phi2",
            trace_of_word(v, (1, 2)) ** 2,
            det_of_factor(v, 1) * det_of_factor(v, 2),
            2,
        )
        surr = pgl2_surrogates(2)
        res = product_bracket_residual(
            ctx["model"], ctx["split"], pair, pts, phi1, surr[0], phi2, surr[2]
        )
        assert res.passed

    def test_projection_is_poisson(self, ctx):
        st = RationalStream(313)
        surr = pgl2_surrogates(2)
        v = m2_variables(2)
        noninv = ProjectiveInvariant(
            "x", MultiPoly.var(v, "a1") ** 2, det_of_factor(v, 1), 2
        )
        for _ in range(3):
            pair = GroupPair(st.sl2(), st.sl2())
            pts = (
                ProjMatrixPoint(st.invertible2()),
                ProjMatrixPoint(st.invertible2()),
            )
            assert projection_poisson_residual(
                ctx["model"], ctx["split"], pair, pts, surr[0], noninv
            ).passed


class TestQuotientTable:
    def test_rank1_table_identically_zero(self, ctx):
        st = RationalStream(317)
        surr = pgl2_surrogates(1)
        pts = [(ProjMatrixPoint(st.invertible2()),) for _ in range(3)]
        conjs = [st.sl2() for _ in range(3)]
        table, failures = quotient_bracket_table(ctx["model"], ctx["split"], surr, pts, conjs)
        assert failures == []
        for row in table:
            assert all(x == "0" for line in row["entries"] for x in line)

    def test_f2_table_frozen_zero(self, ctx):
        """Frozen finding: the induced bracket on the trace surrogates of the
        two-factor quotient vanishes identically for the standard splitting."""
        st = RationalStream(331)
        surr = pgl2_surrogates(2)[:3]
        pts = [
            (ProjMatrixPoint(st.invertible2()), ProjMatrixPoint(st.invertible2()))
            for _ in range(2)
        ]
        conjs = [st.sl2() for _ in range(2)]
        table, failures = quotient_bracket_table(ctx["model"], ctx["split"], surr, pts, conjs)
        assert failures == []
        for row in table:
            assert all(x == "0" for line in row["entries"] for x in line)

    def test_quotient_jacobi(self, ctx):
        st = RationalStream(337)
        surr = pgl2_surrogates(2)
        pts = (ProjMatrixPoint(st.invertible2()), ProjMatrixPoint(st.invertible2()))
        assert quotient_jacobi_residual(ctx["model"], ctx["split"], surr[:3], pts).passed

    def test_quotient_jacobi_sees_flipped_cross_sign(self, ctx, monkeypatch):
        """Negative control for the check above: on the surrogates the
        induced bracket vanishes, so a broken mixed field goes unseen there;
        the non-invariant degree-0 ratios b1/a1, c2/d2, b1/d1, a2/b2 see it.
        With ``MIXED_CROSS_SIGN`` flipped their Jacobiator is nonzero; with
        the true sign it is zero, and the surrogates pass either way."""
        import wonderland.poisson as poisson

        st = RationalStream(337)
        pts = (ProjMatrixPoint(st.invertible2()), ProjMatrixPoint(st.invertible2()))
        v = m2_variables(2)
        ratios = [
            ProjectiveInvariant(
                "%s/%s" % (a, b), MultiPoly.var(v, a), MultiPoly.var(v, b), 2
            )
            for a, b in (("b1", "a1"), ("c2", "d2"), ("b1", "d1"), ("a2", "b2"))
        ]
        surr = pgl2_surrogates(2)[:3]
        model, split = ctx["model"], ctx["split"]
        assert quotient_jacobi_residual(model, split, ratios, pts).passed
        monkeypatch.setattr(poisson, "MIXED_CROSS_SIGN", -poisson.MIXED_CROSS_SIGN)
        broken = quotient_jacobi_residual(model, split, ratios, pts)
        assert not broken.passed
        assert broken.to_json()["residual"] == "8299/303750"
        assert quotient_jacobi_residual(model, split, surr, pts).passed


class TestGlue:
    def _samples(self, count, seed=341):
        st = RationalStream(seed)
        out = []
        while len(out) < count:
            a, b = st.invertible2(), st.invertible2()
            pa, pb = ProjMatrixPoint(a), ProjMatrixPoint(b)
            if 0 in (pa.vec[0], pa.vec[3], pb.vec[0], pb.vec[3]):
                continue
            tr_ab = (a * b).data[0][0] + (a * b).data[1][1]
            if tr_ab == 0:
                continue
            out.append((pa, pb))
        return out

    def test_routes_agree(self, ctx):
        v2 = m2_variables(2)
        chart_f = AffineChartQuotient("trAB", trace_of_word(v2, (1, 2)), (1, 1), 2, (0, 0))
        chart_g = AffineChartQuotient(
            "detAdetB", det_of_factor(v2, 1) * det_of_factor(v2, 2), (2, 2), 2, (3, 3)
        )
        surr = pgl2_surrogates(2)
        res = glue_consistency(
            ctx["model"], ctx["split"], chart_f, chart_g,
            [surr[0], surr[2], surr[3]], self._samples(4),
        )
        assert res and all(r.passed for r in res)

    def test_one_wedge_list_per_sample(self, ctx, monkeypatch):
        """Both route charts project the same wedge list: one glue sample
        on two factors computes 2 flow tangents per dual pair on each of
        the two factors."""
        calls = []
        orig = Pgl2Model.flow_tangent

        def counted(self, *args):
            calls.append(args)
            return orig(self, *args)

        monkeypatch.setattr(Pgl2Model, "flow_tangent", counted)
        v2 = m2_variables(2)
        chart_f = AffineChartQuotient("trAB", trace_of_word(v2, (1, 2)), (1, 1), 2, (0, 0))
        chart_g = AffineChartQuotient(
            "detAdetB", det_of_factor(v2, 1) * det_of_factor(v2, 2), (2, 2), 2, (3, 3)
        )
        surr = pgl2_surrogates(2)
        res = glue_consistency(
            ctx["model"], ctx["split"], chart_f, chart_g,
            [surr[0], surr[2], surr[3]], self._samples(1),
        )
        assert res and all(r.passed for r in res)
        assert len(calls) == 2 * len(ctx["split"].integer_pairs) * 2

    def test_outside_route_charts_skipped(self, ctx):
        """A sample in both quotient charts whose a1 entry is zero lies
        outside the trAB route chart a1 = 1: it is reported as skipped."""
        v2 = m2_variables(2)
        chart_f = AffineChartQuotient("trAB", trace_of_word(v2, (1, 2)), (1, 1), 2, (0, 0))
        chart_g = AffineChartQuotient(
            "detAdetB", det_of_factor(v2, 1) * det_of_factor(v2, 2), (2, 2), 2, (3, 3)
        )
        surr = pgl2_surrogates(2)
        pts = (ProjMatrixPoint([0, 1, 1, 1]), ProjMatrixPoint([1, 0, 0, 1]))
        (res,) = glue_consistency(
            ctx["model"], ctx["split"], chart_f, chart_g, [surr[0], surr[2]], [pts]
        )
        assert res.sample["skipped"] == "outside route charts"

    def test_identical_charts_trivial(self, ctx):
        v2 = m2_variables(2)
        chart = AffineChartQuotient("trAB", trace_of_word(v2, (1, 2)), (1, 1), 2, (0, 0))
        surr = pgl2_surrogates(2)
        res = glue_consistency(
            ctx["model"], ctx["split"], chart, chart, [surr[0], surr[2]], self._samples(2)
        )
        assert all(r.passed for r in res)

    def test_noninvariant_functions_also_glue(self, ctx):
        """Chart covariance of the bracket itself, independent of invariance."""
        v2 = m2_variables(2)
        chart_f = AffineChartQuotient("trAB", trace_of_word(v2, (1, 2)), (1, 1), 2, (0, 0))
        chart_g = AffineChartQuotient(
            "detAdetB", det_of_factor(v2, 1) * det_of_factor(v2, 2), (2, 2), 2, (3, 3)
        )
        f1 = ProjectiveInvariant(
            "n1", MultiPoly.var(v2, "a1") * MultiPoly.var(v2, "d1"), det_of_factor(v2, 1), 2
        )
        f2 = ProjectiveInvariant(
            "n2",
            MultiPoly.var(v2, "b1") * MultiPoly.var(v2, "c2") * MultiPoly.var(v2, "a1") * MultiPoly.var(v2, "d2"),
            det_of_factor(v2, 1) * det_of_factor(v2, 2),
            2,
        )
        res = glue_consistency(
            ctx["model"], ctx["split"], chart_f, chart_g, [f1, f2], self._samples(3, 349)
        )
        values = [r for r in res if "value" in r.details]
        assert all(r.passed for r in res)
        assert any(r.details.get("value") not in (None, "0") for r in values)


class TestSaturation:
    def test_interior_boundary_always_separated(self, ctx):
        st = RationalStream(353)
        interior = [(ProjMatrixPoint(st.invertible2()),) for _ in range(3)]
        boundary = [(ProjMatrixPoint(st.rank_one2()),) for _ in range(3)]
        checks, _ = divisor_saturation(ctx["ring1"], interior, boundary)
        assert checks and all(c.passed for c in checks)

    def test_conjugate_interior_points_not_separated(self, ctx):
        """tr^2 / det, the one-factor saturation pair, takes one value on a
        conjugacy class."""
        st = RationalStream(359)
        A = st.invertible2()
        g = st.sl2()
        conj = g * A * g.inverse()
        (check,), _ = divisor_saturation(
            ctx["ring1"], [(ProjMatrixPoint(A),)], [(ProjMatrixPoint(conj),)]
        )
        assert not check.passed
        assert check.details == {"reason": "no separating pair found"}

    def test_boundary_pairs_reported_not_asserted(self, ctx):
        st = RationalStream(367)
        boundary = [(ProjMatrixPoint(st.rank_one2()),) for _ in range(3)]
        _, reports = divisor_saturation(ctx["ring1"], [], boundary)
        assert len(reports) == 3
        for r in reports:
            assert "separated" in r

    def test_two_factor_separation(self, ctx):
        """Tuples with one boundary factor separate from interior tuples."""
        st = RationalStream(373)
        interior = [
            (ProjMatrixPoint(st.invertible2()), ProjMatrixPoint(st.invertible2()))
            for _ in range(2)
        ]
        boundary = [
            (ProjMatrixPoint(st.rank_one2()), ProjMatrixPoint(st.invertible2()))
            for _ in range(2)
        ]
        checks, _ = divisor_saturation(ctx["ring2"], interior, boundary)
        assert checks and all(c.passed for c in checks)

    def test_fixture_e11_vs_identity(self, ctx):
        (check,), _ = divisor_saturation(
            ctx["ring1"], [(ProjMatrixPoint([1, 0, 0, 1]),)], [(ProjMatrixPoint([1, 0, 0, 0]),)]
        )
        assert check.passed
        assert check.details == {
            "pair": ("tr2", "det"),
            "values_a": ("4", "1"),
            "values_b": ("1", "0"),
        }


class TestQuotientWork:
    """Counted by wrapping functions: the quotient layer evaluates each
    bivector, gradient and polynomial once per sample."""

    def test_bracket_table_evaluates_once_per_sample(self, monkeypatch):
        """In the seed-42 run-all report the tables of rank1 (one
        invariant, 3 samples) and f2-demo (three invariants, 3 samples)
        build one mixed bivector per sample, plus one at the conjugated
        points where there is a pair to close, and one gradient per
        invariant at each: 3 + 2 * 3 bivectors and 3 + 2 * 3 * 3 gradients.

        ``gitq`` and ``invariants`` import ``mixed_value_in_charts`` from
        ``poisson`` when they call it, so patching it there counts every
        call."""
        import wonderland.poisson as poisson
        import wonderland.reports as reports

        inside = []
        counts = {"bivectors": 0, "gradients": 0}
        real_table = reports.quotient_bracket_table
        real_mixed = poisson.mixed_value_in_charts
        real_grad = ProjectiveInvariant.chart_grad_at

        def table(*args):
            inside.append(True)
            try:
                return real_table(*args)
            finally:
                inside.pop()

        def mixed(*args):
            counts["bivectors"] += bool(inside)
            return real_mixed(*args)

        def grad(self, *args):
            counts["gradients"] += bool(inside)
            return real_grad(self, *args)

        monkeypatch.setattr(reports, "quotient_bracket_table", table)
        monkeypatch.setattr(poisson, "mixed_value_in_charts", mixed)
        monkeypatch.setattr(ProjectiveInvariant, "chart_grad_at", grad)
        reports.run_experiment(reports.ExperimentConfig("all", samples=20, seed=42))
        assert counts == {"bivectors": 9, "gradients": 21}

    def test_chart_membership_evaluates_only_its_invariant(self, monkeypatch):
        """In the seed-42 run-all report each ``AffineChartQuotient.contains``
        call evaluates its chart invariant's monomials once and nothing
        else, no partial derivative: 60 calls, on invariants of 2 or 4
        monomials."""
        from wonderland import backend, reports

        inside = []
        sizes = []
        real_contains = AffineChartQuotient.contains
        real_eval = backend.poly_eval

        def contains(self, points):
            inside.append(self)
            try:
                return real_contains(self, points)
            finally:
                inside.pop()

        def poly_eval(table, *args):
            if inside:
                sizes.append((len(inside[-1].poly.ints), len(table)))
            return real_eval(table, *args)

        monkeypatch.setattr(AffineChartQuotient, "contains", contains)
        monkeypatch.setattr(backend, "poly_eval", poly_eval)
        reports.run_experiment(reports.ExperimentConfig("all", samples=20, seed=42))
        assert len(sizes) == 60
        assert all(want == got for want, got in sizes)
        assert {want for want, _ in sizes} == {2, 4}

    @staticmethod
    def _count_evals(monkeypatch):
        calls = []
        real = MultiPoly.eval

        def counted(self, point):
            calls.append(point)
            return real(self, point)

        monkeypatch.setattr(MultiPoly, "eval", counted)
        return calls

    def test_run_all_makes_no_polynomial_eval(self, monkeypatch):
        """The seed-42 run-all report reads every polynomial through a table
        compiled once for it (the quotient charts' invariants in
        ``glue_consistency`` through their ``RationalFn``), never through
        ``MultiPoly.eval``, which compiles a table per call."""
        from wonderland import reports

        calls = self._count_evals(monkeypatch)
        reports.run_experiment(reports.ExperimentConfig("all", samples=20, seed=42))
        assert calls == []

    def test_saturation_makes_no_polynomial_eval(self, ctx, monkeypatch):
        """The separating pairs are evaluated through one compiled table,
        not by ``MultiPoly.eval``, which compiles a table per call."""
        st = RationalStream(353)
        interior = [(ProjMatrixPoint(st.invertible2()),) for _ in range(3)]
        boundary = [(ProjMatrixPoint(st.rank_one2()),) for _ in range(3)]
        calls = self._count_evals(monkeypatch)
        checks, reports = divisor_saturation(ctx["ring1"], interior, boundary)
        assert calls == []
        assert checks and all(c.passed for c in checks) and len(reports) == 3
