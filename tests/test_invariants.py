"""Invariant kernels, generators, expressions, bracket closure."""

import gc
import tracemalloc
from fractions import Fraction as Q
from itertools import product
from math import gcd

import pytest

from wonderland import invariants
from wonderland.geometry import GroupPair, Pgl2Model, ProjMatrixPoint
from wonderland.invariants import (
    LinearAction,
    ProjectiveInvariant,
    conjugation_action,
    compositions,
    det_of_factor,
    express_in_generators,
    expression_poly,
    invariant_bracket_closure,
    invariants_of_degree,
    m2_variables,
    mixed_bracket_value,
    mixed_factor_action,
    monomial_basis,
    pgl2_surrogates,
    trace_generators,
    trace_of_word,
)
from wonderland.lie import build_sl, sl_basis_matrix, standard_splitting
from wonderland.linalg import Matrix
from wonderland.poly import MultiPoly, RationalFn
from wonderland.sampling import RationalStream

from references import derive_poly, is_invariant


@pytest.fixture(scope="module")
def ctx():
    sl2 = build_sl(2)
    return {
        "sl2": sl2,
        "model": Pgl2Model(sl2),
        "split": standard_splitting(sl2),
    }


def sl2_weight_multiplicities(n_copies):
    """Oracle: weight multiplicities of the n-fold tensor power of the
    two-dimensional representation; the trivial multiplicity is m0 - m2."""
    weights = {0: 1}
    for _ in range(n_copies):
        new = {}
        for w, m in weights.items():
            for dw in (1, -1):
                new[w + dw] = new.get(w + dw, 0) + m
        weights = new
    return weights.get(0, 0) - weights.get(2, 0)


def cayley_sylvester_dimension(degree):
    """Oracle sharing no code with the engine: the dimension of the
    conjugation invariants on M_2^r in a multidegree.  The Cartan element h
    acts as diag(0, 2, -2, 0) on the entries (a, b, c, d) of each factor,
    and e maps weight 0 onto weight 2, so the dimension is the number of
    weight-0 monomials minus the number of weight-2 monomials.  A monomial
    of degree d in one factor with i b's and j c's has weight 2 (i - j), and
    there are d - i - j + 1 of them."""
    counts = {0: 1}
    for d in degree:
        new = {}
        for i in range(d + 1):
            for j in range(d - i + 1):
                for w, m in counts.items():
                    key = w + 2 * (i - j)
                    new[key] = new.get(key, 0) + m * (d - i - j + 1)
        counts = new
    return counts.get(0, 0) - counts.get(2, 0)


class TestActions:
    def test_representation_property_enforced(self, ctx):
        sl2 = ctx["sl2"]
        bad = [Matrix.identity(2) for _ in range(3)]
        with pytest.raises(ValueError):
            LinearAction(sl2, ("u", "v"), bad, [[0, 1]])

    def test_conjugation_action_builds(self, ctx):
        act = conjugation_action(ctx["sl2"], 2)
        assert len(act.groups) == 2
        assert act.variables == m2_variables(2)

    def test_derivation_is_leibniz(self, ctx):
        act = conjugation_action(ctx["sl2"], 1)
        st = RationalStream(201)
        v = act.variables
        for i in range(3):
            p = MultiPoly(v, {(1, 0, 1, 0): st.take(), (0, 2, 0, 0): st.take()})
            q = MultiPoly(v, {(0, 0, 0, 1): st.take(), (1, 1, 0, 0): st.take()})
            lhs = derive_poly(act, i, p * q)
            rhs = derive_poly(act, i, p) * q + p * derive_poly(act, i, q)
            assert lhs == rhs

    @staticmethod
    def _rebased(act):
        """The matrices P rho P^-1 of the one-factor conjugation action, for
        a change of basis P with entries over 3 and 7."""
        P = Matrix(
            [[Q(1, 3), Q(2, 7), 0, 1], [0, Q(5, 7), Q(-1, 3), 0], [1, 0, Q(4, 7), 0], [0, 1, 0, Q(2, 3)]]
        )
        return [P * m * P.inverse() for m in act.rho_mats]

    def test_representation_survives_rational_change_of_basis(self, ctx):
        sl2 = ctx["sl2"]
        rho = self._rebased(conjugation_action(sl2, 1))
        assert any(x.denominator % 21 == 0 for m in rho for row in m.data for x in row)
        LinearAction(sl2, m2_variables(1), rho, [[0, 1, 2, 3]])

    def test_representation_check_sees_one_entry_moved_by_a_seventh(self, ctx):
        sl2 = ctx["sl2"]
        rho = self._rebased(conjugation_action(sl2, 1))
        rho[0].data[1][2] += Q(1, 7)
        with pytest.raises(ValueError, match="represent the bracket"):
            LinearAction(sl2, m2_variables(1), rho, [[0, 1, 2, 3]])

    def test_representation_check_rejects_twice_rho(self, ctx):
        """[2x, 2y] = 4[x, y], not 2[x, y]."""
        sl2 = ctx["sl2"]
        act = conjugation_action(sl2, 1)
        with pytest.raises(ValueError, match="represent the bracket"):
            LinearAction(sl2, act.variables, [m * 2 for m in act.rho_mats], act.groups)

    @staticmethod
    def _reference_rho(sl2, kinds):
        """Block-diagonal matrices of each sl2 basis element on factors of
        the given kinds, from ``Matrix`` products: on 'm2' column (p, q) is
        the flattened x E_pq - E_pq x, on 'line' x, on 'line_dual' -x^T."""
        out = []
        for i in range(3):
            x = sl_basis_matrix(2, i)
            blocks = []
            for kind in kinds:
                if kind == "m2":
                    cols = []
                    for p, q in product(range(2), repeat=2):
                        E = Matrix([[int((r, s) == (p, q)) for s in range(2)] for r in range(2)])
                        img = x * E - E * x
                        cols.append([img[r, s] for r, s in product(range(2), repeat=2)])
                    blocks.append(Matrix(cols).transpose())
                else:
                    blocks.append(x if kind == "line" else -x.transpose())
            n = sum(b.rows for b in blocks)
            big = [[0] * n for _ in range(n)]
            pos = 0
            for b in blocks:
                for r in range(b.rows):
                    big[pos + r][pos : pos + b.cols] = b.data[r]
                pos += b.rows
            out.append(Matrix(big))
        return out

    @pytest.mark.parametrize("r", [1, 2])
    def test_conjugation_matrices_match_matrix_products(self, ctx, r):
        sl2 = ctx["sl2"]
        assert conjugation_action(sl2, r).rho_mats == self._reference_rho(sl2, ["m2"] * r)

    def test_mixed_factor_matrices_match_matrix_products(self, ctx):
        sl2 = ctx["sl2"]
        kinds = ("m2", "line", "line_dual")
        assert mixed_factor_action(sl2, kinds).rho_mats == self._reference_rho(sl2, kinds)


class TestInvariantSpaces:
    def test_degree_one_is_trace(self, ctx):
        act = conjugation_action(ctx["sl2"], 1)
        sp = invariants_of_degree(act, (1,))
        assert sp.dimension == 1
        assert str(sp.basis[0]) == "a + d"

    def test_degree_two(self, ctx):
        act = conjugation_action(ctx["sl2"], 1)
        sp = invariants_of_degree(act, (2,))
        v = act.variables
        assert sp.dimension == 2
        assert sp.contains(trace_of_word(v, (1,)) ** 2)
        assert sp.contains(det_of_factor(v, 1))

    def test_pair_multidegree_11(self, ctx):
        act = conjugation_action(ctx["sl2"], 2)
        sp = invariants_of_degree(act, (1, 1))
        v = act.variables
        assert sp.dimension == 2
        assert sp.contains(trace_of_word(v, (1,)) * trace_of_word(v, (2,)))
        assert sp.contains(trace_of_word(v, (1, 2)))

    def test_basis_annihilated_by_every_derivation(self, ctx):
        """Independent of the kernel route: apply each derivation directly."""
        for factors, deg in ((1, (2,)), (2, (1, 1))):
            act = conjugation_action(ctx["sl2"], factors)
            sp = invariants_of_degree(act, deg)
            for p in sp.basis:
                for i in range(3):
                    assert derive_poly(act, i, p).is_zero()

    def test_basis_echelonized_leading_coefficients(self, ctx):
        act = conjugation_action(ctx["sl2"], 1)
        sp = invariants_of_degree(act, (2,))
        for p in sp.basis:
            assert p.sorted_items()[0][1] == 1 or any(
                c == 1 for _, c in p.sorted_items()
            )

    def test_products_of_invariants_are_invariant(self, ctx):
        act = conjugation_action(ctx["sl2"], 1)
        v = act.variables
        tr, det = trace_of_word(v, (1,)), det_of_factor(v, 1)
        sp3 = invariants_of_degree(act, (3,))
        assert sp3.contains(tr * det)
        assert sp3.contains(tr**3)

    def test_four_lines_cross_ratio_pencil(self, ctx):
        sp = invariants_of_degree(
            mixed_factor_action(ctx["sl2"], ["line"] * 4), (1, 1, 1, 1)
        )
        assert sp.dimension == 2 == sl2_weight_multiplicities(4)

    def test_odd_symmetric_power_has_no_invariants(self, ctx):
        for d in (1, 3):
            sp = invariants_of_degree(mixed_factor_action(ctx["sl2"], ["line"]), (d,))
            assert sp.dimension == 0

    def test_zero_factors_constants_only(self, ctx):
        act = conjugation_action(ctx["sl2"], 1)
        sp = invariants_of_degree(act, (0,))
        assert sp.dimension == 1
        assert sp.basis[0].terms == {(0, 0, 0, 0): 1}

    def test_dual_line_matches_line_dimensions(self, ctx):
        a = invariants_of_degree(mixed_factor_action(ctx["sl2"], ["line", "line"]), (1, 1))
        b = invariants_of_degree(
            mixed_factor_action(ctx["sl2"], ["line", "line_dual"]), (1, 1)
        )
        assert a.dimension == b.dimension == 1


class TestCayleySylvester:
    """``invariants_of_degree`` on one, two and three M_2 factors has the
    Cayley-Sylvester dimension in every multidegree of a grid."""

    @pytest.mark.parametrize(
        "factors, bound",
        [(1, 6), (2, 3), (3, 2)],
        ids=["r1-up-to-6", "r2-up-to-3-3", "r3-up-to-2-2-2"],
    )
    def test_dimension_is_weight_zero_minus_weight_two(self, ctx, factors, bound):
        act = conjugation_action(ctx["sl2"], factors)
        for degree in product(range(bound + 1), repeat=factors):
            got = invariants_of_degree(act, degree).dimension
            assert got == cayley_sylvester_dimension(degree), degree


def kernel_from_derive_poly(action, degree):
    """The invariant space from dense derivation matrices built one monomial
    at a time through the reference ``derive_poly``, independent of
    ``derivation_rows``."""
    monos = monomial_basis(action, degree)
    rows = []
    for i in range(action.alg.dim):
        images = [derive_poly(action, i, MultiPoly(action.variables, {e: Q(1)})) for e in monos]
        rows += [[img.terms.get(m, Q(0)) for img in images] for m in monos]
    kernel = Matrix(rows).kernel_basis()
    return [MultiPoly(action.variables, dict(zip(monos, v))) for v in kernel]


class TestDerivationRows:
    CASES = (
        [("m2", (d,)) for d in range(1, 5)]
        + [("m2x2", (i, j)) for i in range(3) for j in range(3)]
        + [("mixed", d) for d in ((1, 1, 1), (2, 1, 1), (0, 2, 2), (2, 2, 0), (1, 2, 2))]
    )

    @pytest.fixture(scope="class")
    def actions(self, ctx):
        sl2 = ctx["sl2"]
        return {
            "m2": conjugation_action(sl2, 1),
            "m2x2": conjugation_action(sl2, 2),
            "mixed": mixed_factor_action(sl2, ["m2", "line", "line_dual"]),
        }

    @pytest.mark.parametrize("kind,degree", CASES)
    def test_same_space_as_derive_poly_kernel(self, actions, kind, degree):
        act = actions[kind]
        sp = invariants_of_degree(act, degree)
        assert sp.degree == degree
        assert sp.basis == kernel_from_derive_poly(act, degree)
        for p in sp.basis:
            assert is_invariant(act, p)

    def test_rows_are_nonzero_and_distinct(self, actions):
        act = actions["m2x2"]
        rows = list(act.derivation_rows(monomial_basis(act, (3, 3))))
        assert len(rows) == 1116
        assert len({tuple(r) for r in rows}) == len(rows)
        assert all(any(r) for r in rows)

    def test_degree_zero_keeps_its_column(self, actions):
        act = actions["m2"]
        assert list(act.derivation_rows([(0, 0, 0, 0)])) == [[Q(0)]]


class TestPeakMemory:
    """``invariants_of_degree`` holds one dense copy of the derivation
    system, and its basis polynomials key their terms by the tuples of the
    monomial basis instead of copies of them."""

    @pytest.mark.parametrize("degree,limit_mb", [((3, 3), 5), ((4, 4), 45)], ids=["3,3", "4,4"])
    def test_traced_peak(self, ctx, degree, limit_mb):
        act = conjugation_action(ctx["sl2"], 2)
        gc.collect()
        tracemalloc.start()
        try:
            invariants_of_degree(act, degree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 10**6

    def test_basis_keys_are_the_monomial_tuples(self, ctx, monkeypatch):
        act = conjugation_action(ctx["sl2"], 2)
        made = []

        def recorded(action, degree):
            made.append(monomial_basis(action, degree))
            return made[-1]

        monkeypatch.setattr(invariants, "monomial_basis", recorded)
        sp = invariants_of_degree(act, (3, 3))
        (monos,) = made
        ids = {id(e) for e in monos}
        keys = [e for p in sp.basis for e in p.ints]
        assert keys and all(id(e) in ids for e in keys)


class TestGenerators:
    def test_rank1_generators(self, ctx):
        gens = trace_generators(ctx["sl2"], 1)
        assert [n for n, _ in gens] == ["tr", "det"]

    def test_rank2_generators_and_values(self, ctx):
        gens = dict(trace_generators(ctx["sl2"], 2))
        I8 = [Q(1), Q(0), Q(0), Q(1)] * 2
        assert [gens[k].eval(I8) for k in ("trA", "trB", "trAB")] == [2, 2, 2]
        # A = diag(t, 1/t), B = [[0,1],[-1,0]]
        t = Q(5, 3)
        pt = [t, 0, 0, 1 / t, 0, 1, -1, 0]
        assert gens["trA"].eval(pt) == t + 1 / t
        assert gens["trB"].eval(pt) == 0
        assert gens["trAB"].eval(pt) == 0

    def test_rank3_unsupported(self, ctx):
        with pytest.raises(ValueError):
            trace_generators(ctx["sl2"], 3)

    def test_rank1_generators_independent(self, ctx):
        """Jacobian of (tr, det) has rank 2 at a generic point."""
        v = m2_variables(1)
        tr, det = trace_of_word(v, (1,)), det_of_factor(v, 1)
        pt = [Q(2), Q(3), Q(5), Q(7)]
        # each row is its gradient's integers, a positive multiple of it
        jac = Matrix([RationalFn(p).grad_at(pt)[0] for p in (tr, det)])
        assert jac.rank() == 2


class TestExpress:
    def test_tr_squared_minus_2det(self, ctx):
        gens = trace_generators(ctx["sl2"], 1)
        v = m2_variables(1)
        f = trace_of_word(v, (1, 1))
        st = RationalStream(17)
        coeffs = express_in_generators(f, gens, 2, lambda: st.vector(4))
        assert coeffs == {(2, 0): Q(1), (0, 1): Q(-2)}
        assert expression_poly(coeffs, [g for _, g in gens], v) == f

    def test_det_in_terms_of_itself(self, ctx):
        v = m2_variables(1)
        det = det_of_factor(v, 1)
        st = RationalStream(18)
        coeffs = express_in_generators(det, [("det", det)], 1, lambda: st.vector(4))
        assert coeffs == {(1,): Q(1)}

    def test_trabab_on_sl2_frozen(self, ctx):
        """Frozen fixture: tr(ABAB) = tr(AB)^2 - 2 on determinant-one pairs."""
        gens = trace_generators(ctx["sl2"], 2)
        v = m2_variables(2)
        f = trace_of_word(v, (1, 2, 1, 2))
        st = RationalStream(19)

        def sampler():
            a, b = st.sl2(), st.sl2()
            return [x for m in (a, b) for row in m.data for x in row]

        coeffs = express_in_generators(f, gens, 2, sampler, symbolic=False)
        assert coeffs == {(0, 0, 0): Q(-2), (0, 0, 2): Q(1)}

    def test_no_expression_reported(self, ctx):
        # b is not a polynomial in tr and det
        v = m2_variables(1)
        f = MultiPoly.var(v, "b")
        gens = trace_generators(ctx["sl2"], 1)
        st = RationalStream(20)
        assert express_in_generators(f, gens, 2, lambda: st.vector(4)) is None

    def test_compositions_order_deterministic(self):
        assert compositions(2, 2) == [(2, 0), (1, 1), (0, 2)]


class TestProjectiveInvariants:
    def test_degree_zero_enforced(self, ctx):
        v = m2_variables(1)
        with pytest.raises(ValueError):
            ProjectiveInvariant("bad", trace_of_word(v, (1,)), det_of_factor(v, 1), 1)

    def test_scale_invariance_of_values(self, ctx):
        surr = pgl2_surrogates(1)[0]
        p = ProjMatrixPoint([2, 1, 1, 3])
        q = ProjMatrixPoint([Q(2, 7), Q(1, 7), Q(1, 7), Q(3, 7)])
        assert p == q
        assert surr.value_at((p,)) == surr.value_at((q,))

    def test_conjugation_invariance_of_values(self, ctx):
        st = RationalStream(211)
        surr = pgl2_surrogates(2)
        for _ in range(3):
            pts = (
                ProjMatrixPoint(st.invertible2()),
                ProjMatrixPoint(st.invertible2()),
            )
            g = st.sl2()
            pair = GroupPair(g, g)
            moved = tuple(ctx["model"].act(pair, p) for p in pts)
            for s in surr:
                assert s.value_at(pts) == s.value_at(moved)

    def test_restriction_matches_value(self, ctx):
        from wonderland.geometry import ProductChart

        st = RationalStream(223)
        surr = pgl2_surrogates(2)[2]
        pts = (ProjMatrixPoint(st.invertible2()), ProjMatrixPoint(st.invertible2()))
        charts = [ctx["model"].chart_at(p) for p in pts]
        pc = ProductChart(charts)
        restricted = surr.restrict(pc)
        assert restricted.eval(pc.coords_of(pts)) == surr.value_at(pts)


class TestBracketClosure:
    def test_same_function_trivially_closed(self, ctx):
        st = RationalStream(227)
        surr = pgl2_surrogates(2)
        pts = (ProjMatrixPoint(st.invertible2()), ProjMatrixPoint(st.invertible2()))
        assert (
            mixed_bracket_value(ctx["model"], ctx["split"], pts, surr[0], surr[0]) == 0
        )

    def test_closure_on_surrogate_pairs(self, ctx):
        st = RationalStream(229)
        surr = pgl2_surrogates(2)
        for _ in range(2):
            pts = (
                ProjMatrixPoint(st.invertible2()),
                ProjMatrixPoint(st.invertible2()),
            )
            c = st.sl2()
            for i in range(3):
                for j in range(i + 1, 3):
                    res = invariant_bracket_closure(
                        ctx["model"], ctx["split"], surr[i], surr[j], pts, c, "bracket-closure"
                    )
                    assert res.passed

    def test_invariant_brackets_vanish_but_bivector_does_not(self, ctx):
        """For this splitting the induced bracket on the invariants is zero;
        that this is not an artifact is witnessed by a nonzero bracket
        against a non-invariant function at the same points."""
        st = RationalStream(233)
        surr = pgl2_surrogates(2)
        v = m2_variables(2)
        noninv = ProjectiveInvariant(
            "a2d2_over_detB",
            MultiPoly.var(v, "a2") * MultiPoly.var(v, "d2"),
            det_of_factor(v, 2),
            2,
        )
        found_nonzero = False
        for _ in range(4):
            pts = (
                ProjMatrixPoint(st.invertible2()),
                ProjMatrixPoint(st.invertible2()),
            )
            for i in range(4):
                for j in range(i + 1, 4):
                    assert (
                        mixed_bracket_value(ctx["model"], ctx["split"], pts, surr[i], surr[j])
                        == 0
                    )
            if mixed_bracket_value(ctx["model"], ctx["split"], pts, surr[0], noninv) != 0:
                found_nonzero = True
        assert found_nonzero


def is_covector(c):
    """True iff c is a covector in lowest terms: integers over den > 0."""
    ints, den = c
    return den > 0 and all(type(x) is int for x in ints) and gcd(den, *ints) == 1


class TestPointwiseGradients:
    """The chain-rule gradients behind mixed_bracket_value against the
    symbolic path: restrict to the product chart, then differentiate."""

    @staticmethod
    def noninvariant():
        v = m2_variables(2)
        return ProjectiveInvariant(
            "a2d2_over_detB",
            MultiPoly.var(v, "a2") * MultiPoly.var(v, "d2"),
            det_of_factor(v, 2),
            2,
        )

    @staticmethod
    def bracket_in_charts(ctx, pts, charts, f, g):
        """{f, g} at the points as ``mixed_bracket_value`` computes it, in
        the given charts instead of the canonical ones."""
        from wonderland.poisson import mixed_value_in_charts

        L = mixed_value_in_charts(ctx["model"], ctx["split"], pts, charts)
        return L.bracket_eval(f.chart_grad_at(charts, pts), g.chart_grad_at(charts, pts))

    @staticmethod
    def symbolic_bracket(ctx, pts, charts, f, g):
        from wonderland.geometry import ProductChart
        from wonderland.poisson import mixed_wedges, projected_bivector

        reps = [list(p.vec) for p in pts]
        L = projected_bivector(charts, reps, mixed_wedges(ctx["model"], ctx["split"], reps))
        pc = ProductChart(charts)
        z = pc.coords_of(pts)
        return L.bracket_eval(f.restrict(pc).grad_at(z), g.restrict(pc).grad_at(z))

    def check_against_symbolic(self, ctx, pts, charts):
        from wonderland.geometry import ProductChart

        funcs = pgl2_surrogates(2) + [self.noninvariant()]
        pc = ProductChart(charts)
        z = pc.coords_of(pts)
        for f in funcs:
            want = f.restrict(pc).grad_at(z)
            assert f.chart_grad_at(charts, pts) == want and is_covector(want), f.name
        canonical = [c.norm_index for c in charts] == [p.chart_index() for p in pts]
        for i, f in enumerate(funcs):
            for g in funcs[i + 1 :]:
                got = self.bracket_in_charts(ctx, pts, charts, f, g)
                assert got == self.symbolic_bracket(ctx, pts, charts, f, g), (f.name, g.name)
                if canonical:
                    assert mixed_bracket_value(ctx["model"], ctx["split"], pts, f, g) == got

    def test_canonical_charts_at_nonzero_coordinates(self, ctx):
        st = RationalStream(239)
        for _ in range(3):
            pts = (ProjMatrixPoint(st.invertible2()), ProjMatrixPoint(st.invertible2()))
            charts = [ctx["model"].chart_at(p) for p in pts]
            assert all(any(c.coords_of(p)) for c, p in zip(charts, pts))
            self.check_against_symbolic(ctx, pts, charts)

    def test_fixed_route_charts(self, ctx):
        from wonderland.geometry import ProjChart

        st = RationalStream(241)
        done = 0
        while done < 2:
            pts = (ProjMatrixPoint(st.invertible2()), ProjMatrixPoint(st.invertible2()))
            if 0 in (pts[0].vec[0], pts[0].vec[3], pts[1].vec[0], pts[1].vec[3]):
                continue
            for k in (0, 3):
                self.check_against_symbolic(ctx, pts, [ProjChart(k), ProjChart(k)])
            done += 1

    def test_off_route_point_raises_chart_domain_error(self, ctx):
        from wonderland.geometry import ChartDomainError, ProjChart

        surr = pgl2_surrogates(2)
        pts = (ProjMatrixPoint([0, 1, 1, 1]), ProjMatrixPoint([1, 2, 3, 5]))
        charts = [ProjChart(0), ProjChart(0)]
        with pytest.raises(ChartDomainError):
            surr[0].chart_grad_at(charts, pts)
        with pytest.raises(ChartDomainError):
            self.bracket_in_charts(ctx, pts, charts, surr[0], surr[2])

    def test_vanishing_denominator_raises_zero_division(self, ctx):
        surr = pgl2_surrogates(2)
        # det A = 0: trA^2 / detA is undefined here
        pts = (ProjMatrixPoint([1, 2, 2, 4]), ProjMatrixPoint([1, 2, 3, 5]))
        with pytest.raises(ZeroDivisionError):
            mixed_bracket_value(ctx["model"], ctx["split"], pts, surr[0], surr[1])

    def test_factor_count_mismatch_raises(self, ctx):
        one = pgl2_surrogates(1)[0]
        two = pgl2_surrogates(2)[0]
        pts = (ProjMatrixPoint([1, 2, 3, 5]), ProjMatrixPoint([2, 1, 1, 1]))
        with pytest.raises(ValueError):
            mixed_bracket_value(ctx["model"], ctx["split"], pts, one, two)


class TestIntegerChartGradients:
    """``chart_grad_at`` evaluates at the points' integer representatives
    and rescales by degree-0 homogeneity; the symbolic restriction is the
    oracle, on every chart index and with a negative normalizing entry."""

    class Rep:
        """A representative that need not be primitive or sign-normalized:
        ``chart_grad_at`` and ``coords_of`` read only ``vec``."""

        def __init__(self, vec):
            self.vec = tuple(vec)

    @staticmethod
    def control_third():
        """Not invariant, with a 1/3 coefficient, mixing the two factors."""
        v = m2_variables(2)
        a1, b1, c1, d1, a2, b2, c2, d2 = MultiPoly.gens(v)
        return ProjectiveInvariant(
            "control_third", a1 * c2 * d2 * Q(1, 3) + b1 * a2 * a2, d1 * det_of_factor(v, 2), 2
        )

    def test_negative_normalizing_entry_on_every_index(self):
        from wonderland.geometry import ProductChart, ProjChart

        st = RationalStream(307)
        funcs = pgl2_surrogates(2) + [self.control_third()]
        checked = 0
        while checked < 8:
            pts = [ProjMatrixPoint(st.invertible2()) for _ in range(2)]
            if any(0 in p.vec for p in pts):
                continue
            for k in range(4):
                charts = [ProjChart(k), ProjChart(3 - k)]
                # scale each representative so its normalizing entry is < 0
                reps = [
                    self.Rep([x * (-3 if p.vec[c.norm_index] > 0 else 2) for x in p.vec])
                    for p, c in zip(pts, charts)
                ]
                assert all(r.vec[c.norm_index] < 0 for r, c in zip(reps, charts))
                pc = ProductChart(charts)
                z = pc.coords_of(reps)
                for f in funcs:
                    want = f.restrict(pc).grad_at(z)
                    assert is_covector(want), (f.name, k)
                    assert f.chart_grad_at(charts, reps) == want, (f.name, k)
                    assert f.chart_grad_at(charts, pts) == want, (f.name, k)
                    assert f.value_at(reps) == f.value_at(pts) == f.restrict(pc).eval(z)
            checked += 1

    def test_runs_without_multipoly_eval(self, ctx, monkeypatch, fraction_count):
        """Gradients and values come from the compiled integer table.  A
        chart gradient makes no ``Fraction``, and its bracket and a value
        make one each, the result."""
        from wonderland.geometry import ProjChart
        from wonderland.poisson import mixed_value_in_charts

        def refuse(self, point):
            raise AssertionError("MultiPoly.eval called")

        monkeypatch.setattr(MultiPoly, "eval", refuse)
        pts = (ProjMatrixPoint([3, -1, 2, 5]), ProjMatrixPoint([1, 4, -2, 7]))
        charts = [ProjChart(0), ProjChart(3)]
        L = mixed_value_in_charts(ctx["model"], ctx["split"], pts, charts)
        for f in pgl2_surrogates(2) + [self.control_third()]:
            start = fraction_count[0]
            grad = f.chart_grad_at(charts, pts)
            assert fraction_count[0] == start and len(grad[0]) == 6
            L.bracket_eval(grad, grad)
            assert fraction_count[0] == start + 1
            f.value_at(pts)
            assert fraction_count[0] == start + 2
