"""Words, relators, traces, strata, parabolic invariants, the rank-1 model."""

from fractions import Fraction as Q

import pytest

from wonderland.charvar import (
    Presentation,
    RepresentationPoint,
    evaluate_word,
    is_scalar,
    line_action_on_boundary_pair,
    parabolic_invariants,
    rank1_compactified_model,
    relator_check,
    sl2_inverse,
    stratify,
    stratum_action_kinds,
    trace_point,
)
from wonderland.geometry import GroupPair, Pgl2Model, ProjMatrixPoint
from wonderland.lie import build_sl
from wonderland.linalg import Matrix
from wonderland.sampling import RationalStream


@pytest.fixture(scope="module")
def model():
    return Pgl2Model(build_sl(2))


@pytest.fixture(scope="module")
def sl2():
    return build_sl(2)


class TestWords:
    def test_empty_word_identity(self):
        p = RepresentationPoint([Matrix.identity(2), Matrix.identity(2)])
        assert evaluate_word(p, []) == Matrix.identity(2)

    def test_cancellation(self):
        st = RationalStream(401)
        p = RepresentationPoint([st.sl2(), st.sl2()])
        assert evaluate_word(p, [1, -1]) == Matrix.identity(2)

    def test_commutator_fixture(self):
        """Oracle: hand multiplication of the four matrices."""
        A = Matrix([[2, 0], [0, Q(1, 2)]])
        B = Matrix([[1, 1], [0, 1]])
        p = RepresentationPoint([A, B])
        got = evaluate_word(p, [1, 2, -1, -2])
        assert got == A * B * sl2_inverse(A) * sl2_inverse(B)
        assert got == Matrix([[1, 3], [0, 1]])

    def test_word_concatenation_homomorphism(self):
        st = RationalStream(409)
        p = RepresentationPoint([st.sl2(), st.sl2()])
        w1 = [1, 2, -1]
        w2 = [2, 2, 1]
        assert evaluate_word(p, w1 + w2) == evaluate_word(p, w1) * evaluate_word(p, w2)

    def test_index_out_of_range(self):
        p = RepresentationPoint([Matrix.identity(2)])
        with pytest.raises(ValueError):
            evaluate_word(p, [2])


class TestRelators:
    def test_free_group_always_true(self):
        st = RationalStream(419)
        pres = Presentation(2)
        p = RepresentationPoint([st.sl2(), st.sl2()])
        assert relator_check(pres, p)

    def test_commuting_diagonal_pair(self):
        pres = Presentation(2, [[1, 2, -1, -2]])
        p = RepresentationPoint(
            [Matrix([[2, 0], [0, Q(1, 2)]]), Matrix([[3, 0], [0, Q(1, 3)]])]
        )
        assert relator_check(pres, p)

    def test_scalar_relator_counts_projectively(self):
        # a^2 = -I: trivial in PGL2 though not in SL2
        pres = Presentation(2, [[1, 1]])
        st = RationalStream(423)
        A = Matrix([[0, 1], [-1, 0]])
        p = RepresentationPoint([A, st.sl2()])
        square = evaluate_word(p, [1, 1])
        assert is_scalar(square) and square != Matrix.identity(2)
        assert relator_check(pres, p)

    def test_generic_pair_fails(self):
        st = RationalStream(421)
        pres = Presentation(2, [[1, 2, -1, -2]])
        p = RepresentationPoint([st.sl2(), st.sl2()])
        assert not relator_check(pres, p)

    def test_conjugation_invariance(self):
        st = RationalStream(431)
        pres = Presentation(2, [[1, 2, -1, -2]])
        g = st.sl2()
        for mats in (
            [Matrix([[2, 0], [0, Q(1, 2)]]), Matrix([[3, 0], [0, Q(1, 3)]])],
            [st.sl2(), st.sl2()],
        ):
            p = RepresentationPoint(mats)
            moved = RepresentationPoint([g * m * sl2_inverse(g) for m in mats])
            assert relator_check(pres, p) == relator_check(pres, moved)

    def test_unreduced_relator_rejected(self):
        with pytest.raises(ValueError):
            Presentation(2, [[1, -1]])


class TestTracePoint:
    def test_identity_pair(self):
        p = RepresentationPoint([Matrix.identity(2), Matrix.identity(2)])
        assert trace_point(p) == (2, 2, 2)

    def test_minus_identity(self):
        p = RepresentationPoint([-Matrix.identity(2), Matrix.identity(2)])
        assert trace_point(p) == (-2, 2, -2)

    def test_fixture_223(self):
        p = RepresentationPoint([Matrix([[1, 1], [0, 1]]), Matrix([[1, 0], [1, 1]])])
        assert trace_point(p) == (2, 2, 3)

    def test_conjugation_invariance(self):
        st = RationalStream(433)
        a, b = st.sl2(), st.sl2()
        g = st.sl2()
        p = RepresentationPoint([a, b])
        q = RepresentationPoint([g * a * sl2_inverse(g), g * b * sl2_inverse(g)])
        assert trace_point(p) == trace_point(q)

    def test_rank_must_be_two(self):
        with pytest.raises(ValueError):
            trace_point(RepresentationPoint([Matrix.identity(2)]))


class TestStratify:
    def test_interior_tuple(self, model):
        st = RationalStream(439)
        pts = (ProjMatrixPoint(st.invertible2()), ProjMatrixPoint(st.invertible2()))
        s = stratify(model, pts)
        assert s.signature == ()
        assert stratum_action_kinds(s) == ["m2", "m2"]

    def test_mixed_tuple(self, model):
        s = stratify(model, (ProjMatrixPoint([1, 0, 0, 0]), ProjMatrixPoint([1, 0, 0, 1])))
        assert s.signature == (0,)
        kind, (u, v) = s.factors[0]
        assert kind == "boundary" and u.vec == (1, 0) and v.vec == (1, 0)
        assert stratum_action_kinds(s) == ["line", "line_dual", "m2"]

    def test_equivariance(self, model):
        """Conjugated tuples have the same signature and the line pairs move
        by the induced projective actions."""
        st = RationalStream(443)
        for _ in range(4):
            pts = (
                ProjMatrixPoint(st.rank_one2()),
                ProjMatrixPoint(st.invertible2()),
            )
            g = st.sl2()
            pair = GroupPair(g, g)
            moved = tuple(model.act(pair, p) for p in pts)
            s1 = stratify(model, pts)
            s2 = stratify(model, moved)
            assert s1.signature == s2.signature
            (k1, (u1, v1)) = s1.factors[0]
            (k2, (u2, v2)) = s2.factors[0]
            wu, wv = line_action_on_boundary_pair(g, u1, v1)
            assert (u2, v2) == (wu, wv)

    def test_json(self, model):
        s = stratify(model, (ProjMatrixPoint([1, 0, 0, 0]),))
        obj = s.to_json()
        assert obj["signature"] == [0]
        assert obj["factors"][0]["kind"] == "boundary"


class TestParabolicInvariants:
    def test_four_lines_dimension_two(self, sl2):
        sp = parabolic_invariants(sl2, ["line"] * 4, (1, 1, 1, 1))
        assert sp.dimension == 2

    def test_boundary_factor_pair(self, sl2):
        # one boundary factor of the two-factor model: line + dual line + matrix
        sp = parabolic_invariants(sl2, ["line", "line_dual", "m2"], (1, 1, 1))
        # oracle: V1 (x) V1* (x) adjoint+trivial of M2 = two trivial summands
        assert sp.dimension == 2

    def test_odd_degree_line(self, sl2):
        assert parabolic_invariants(sl2, ["line"], (5,)).dimension == 0

    def test_permutation_symmetry_of_dimensions(self, sl2):
        a = parabolic_invariants(sl2, ["line", "line", "m2"], (1, 1, 2)).dimension
        b = parabolic_invariants(sl2, ["m2", "line", "line"], (2, 1, 1)).dimension
        assert a == b


class TestRank1Model:
    def test_report(self):
        rep = rank1_compactified_model(max_degree=6)
        assert rep["tr_restricted"] == "x + y"
        assert rep["det_restricted"] == "x*y"
        assert rep["tr_swap_invariant"] and rep["det_swap_invariant"]
        assert rep["invariant_dims"] == [1, 1, 2, 2, 3, 3, 4]
        assert rep["dims_match"]

    def test_degree_one_dimension(self):
        rep = rank1_compactified_model(max_degree=1)
        assert rep["invariant_dims"][1] == 1
