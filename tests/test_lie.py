"""Lie core: sl_n, Killing form, the double, splittings, the r-tensor."""

import random
from fractions import Fraction as Q
from functools import lru_cache
from itertools import combinations
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as hst

from wonderland.lie import (
    BilinearForm,
    LieAlgebra,
    _dualize,
    build_sl,
    double_algebra,
    is_lagrangian,
    killing_form,
    r_matrix,
    splitting_from_l2,
    standard_splitting,
)
from wonderland.linalg import Matrix, qstr
from wonderland.poly import MultiPoly
from wonderland.sampling import RationalStream

from references import (
    ad,
    basis_vectors,
    bounded,
    covectors,
    gram_matrix,
    rational,
    sl_coords,
    sl_matrix,
    sparse_gram,
    value,
)


def _constants(brackets):
    """A dense tensor c[i][j][m] as the (i, j, m, c) list of its nonzero
    entries, which is what ``LieAlgebra`` takes."""
    d = len(brackets)
    return [
        (i, j, m, c)
        for i in range(d)
        for j in range(d)
        for m, c in enumerate(brackets[i][j])
        if c
    ]


def _dense(alg):
    """The dense tensor c[i][j][m] of ``alg``, zeros included."""
    d = alg.dim
    br = [[[Q(0)] * d for _ in range(d)] for _ in range(d)]
    for i, j, m, c in alg.structure_constants():
        br[i][j][m] = Q(c)
    return br


def test_sl2_bracket_table():
    """Oracle: commutators of explicit 2x2 matrices."""
    sl2 = build_sl(2)
    assert sl2.names == ("e", "h", "f")
    e, h, f = basis_vectors(sl2)
    assert sl2.bracket(h, e) == [Q(2), Q(0), Q(0)]  # [h,e] = 2e
    assert sl2.bracket(h, f) == [Q(0), Q(0), Q(-2)]  # [h,f] = -2f
    assert sl2.bracket(e, f) == [Q(0), Q(1), Q(0)]  # [e,f] = h


def test_sl_bracket_matches_matrix_commutator():
    st = RationalStream(3)
    for n in (2, 3):
        alg = build_sl(n)
        for _ in range(4):
            x = bounded(st, 5).vector(alg.dim)
            y = bounded(st, 5).vector(alg.dim)
            mx, my = sl_matrix(n, x), sl_matrix(n, y)
            want = sl_coords(n, mx * my - my * mx)
            assert alg.bracket(x, y) == want


@lru_cache(maxsize=None)
def _algebra_with_form(name):
    """sl_n ("sl3") or its double ("dsl3") with its invariant form, the
    Killing form or the split form, built once per test session."""
    n, doubled = int(name[-1]), name.startswith("d")
    alg = build_sl(n)
    return double_algebra(alg) if doubled else (alg, killing_form(alg))


def _algebra(name):
    return _algebra_with_form(name)[0]


def _bracket_case(name):
    dim = _algebra(name).dim
    entry = hst.one_of(hst.just(Q(0)), hst.fractions(-6, 6, max_denominator=7))
    vec = hst.lists(entry, min_size=dim, max_size=dim)
    return hst.tuples(hst.just(name), vec, vec, vec, vec)


class TestSparseBracket:
    """``bracket`` visits only the nonzero structure constants; the oracles
    are ad(x) applied to y column by column and the dense sum
    sum_ij x_i y_j c_ij over every structure constant."""

    @settings(max_examples=60, deadline=None)
    @given(hst.sampled_from(["sl2", "sl3", "dsl2", "dsl3"]).flatmap(_bracket_case))
    def test_bracket_matches_ad_columns_and_dense_sum(self, case):
        name, x, y, _, _ = case
        alg = _algebra(name)
        dim = alg.dim
        got = alg.bracket(x, y)
        ad_x = ad(alg, x)
        assert got == [sum((y[j] * ad_x[m, j] for j in range(dim)), Q(0)) for m in range(dim)]
        br = _dense(alg)
        dense = [
            sum((x[i] * y[j] * br[i][j][m] for i in range(dim) for j in range(dim)), Q(0))
            for m in range(dim)
        ]
        assert got == dense

    @settings(max_examples=20, deadline=None)
    @given(hst.sampled_from(["sl2", "sl3", "dsl2", "dsl3"]).flatmap(_bracket_case))
    def test_polynomial_entries_expand_bilinearly(self, case):
        """With x + t x' and y + t y' as ``MultiPoly`` entries the bracket is
        [x, y] + t ([x', y] + [x, y']) + t^2 [x', y']."""
        name, x, y, x1, y1 = case
        alg = _algebra(name)
        (t,) = MultiPoly.gens(("t",))

        def affine(v, v1):
            return [a + b * t for a, b in zip(v, v1)]

        got = alg.bracket(affine(x, x1), affine(y, y1))
        b00, b10 = alg.bracket(x, y), alg.bracket(x1, y)
        b01, b11 = alg.bracket(x, y1), alg.bracket(x1, y1)
        want = [a + (b + c) * t + d * t * t for a, b, c, d in zip(b00, b10, b01, b11)]
        assert [g == w for g, w in zip(got, want)] == [True] * alg.dim


def _int_bracket_case(name):
    dim = _algebra(name).dim
    vec = hst.lists(hst.one_of(hst.just(0), hst.integers(-9, 9)), min_size=dim, max_size=dim)
    return hst.tuples(hst.just(name), vec, vec)


def _sympy_sl(n, coords):
    """The SymPy n x n matrix of sl_n coordinates, read off the basis names:
    Eij the elementary matrix, Hk = E_kk - E_(k+1)(k+1); sl2's e, h, f are
    E12, H1, E21."""
    alias = {"e": "E12", "h": "H1", "f": "E21"}
    m = sympy.zeros(n, n)
    for name, c in zip(build_sl(n).names, coords):
        name = alias.get(name, name)
        if name[0] == "E":
            m[int(name[1]) - 1, int(name[2]) - 1] += c
        else:
            k = int(name[1]) - 1
            m[k, k] += c
            m[k + 1, k + 1] -= c
    return m


@settings(max_examples=25, deadline=None)
@given(hst.sampled_from(["sl3", "dsl3"]).flatmap(_int_bracket_case))
def test_bracket_of_int_vectors_is_int(case):
    """The structure constants of sl3 and of its double are integers, so a
    bracket of ``int`` vectors is ``int``s; it equals the bracket of the
    same vectors as ``Fraction``s and, summand by summand of the double, the
    SymPy matrix commutator."""
    name, x, y = case
    alg = _algebra(name)
    got = alg.bracket(x, y)
    assert all(type(v) is int for v in got)
    assert got == alg.bracket([Q(v) for v in x], [Q(v) for v in y])
    for lo in range(0, alg.dim, 8):
        a, b = _sympy_sl(3, x[lo : lo + 8]), _sympy_sl(3, y[lo : lo + 8])
        assert a * b - b * a == _sympy_sl(3, got[lo : lo + 8])


def test_sl3_dimension():
    assert build_sl(3).dim == 8


def test_sl_requires_n_at_least_2():
    with pytest.raises(ValueError):
        build_sl(1)


def test_jacobi_tensor_exactly_zero():
    for n in (2, 3):
        alg = build_sl(n)
        for i in range(alg.dim):
            for j in range(alg.dim):
                for k in range(alg.dim):
                    assert alg.jacobi_vector(i, j, k) == [Q(0)] * alg.dim


def test_invalid_structure_constants_rejected():
    # [x,y] = x is antisymmetry-violating when mirrored incorrectly
    br = [[[Q(0)], [Q(1)]], [[Q(1)], [Q(0)]]]
    with pytest.raises(ValueError, match=r"not antisymmetric at \(0,1\)"):
        LieAlgebra(("x", "y"), _constants(br))


@pytest.mark.parametrize("ijm", [(0, 2, 0), (2, 0, 1), (0, 1, 2), (-1, 0, 0), (0, 1, 1.5)])
def test_constant_index_outside_range_rejected(ijm):
    with pytest.raises(ValueError, match=r"outside range\(2\)"):
        LieAlgebra(("x", "y"), [(0, 1, 1, 1), (1, 0, 1, -1), (*ijm, 1)])


@pytest.mark.parametrize("c", [1, 0, Q(1, 2)])
def test_repeated_constant_rejected(c):
    """A second (0, 1, 1) is rejected, not summed or overwritten, even when
    one of the two values is zero."""
    with pytest.raises(ValueError, match=r"structure constant \(0,1,1\) given twice"):
        LieAlgebra(("x", "y"), [(0, 1, 1, 1), (1, 0, 1, -1), (0, 1, 1, c)])


def test_killing_form_sl2():
    """Oracle: traces of the explicit 3x3 ad matrices."""
    sl2 = build_sl(2)
    k = killing_form(sl2)
    assert gram_matrix(k) == Matrix([[0, 0, 4], [0, 8, 0], [4, 0, 0]])
    assert gram_matrix(k).det() == -128
    assert k.ad_invariance_residuals(sl2) == []


def test_killing_symmetry_random():
    sl2 = build_sl(2)
    k = killing_form(sl2)
    st = RationalStream(8)
    for _ in range(5):
        x, y = st.vector(3), st.vector(3)
        assert k.pairing(x, y) == k.pairing(y, x)


def test_double_form_structure():
    sl2 = build_sl(2)
    double, form = double_algebra(sl2)
    assert double.dim == 6
    st = RationalStream(4)
    z3 = [Q(0)] * 3
    for _ in range(5):
        x, y = st.vector(3), st.vector(3)
        # no cross terms between the two summands
        assert form.pairing(x + z3, z3 + y) == 0
        # the diagonal is isotropic
        assert form.pairing(x + x, y + y) == 0
    assert gram_matrix(form).rank() == 6
    assert form.ad_invariance_residuals(double) == []


def test_double_rejects_degenerate():
    # the abelian algebra has zero Killing form
    ab = LieAlgebra(("x",), [])
    with pytest.raises(ValueError):
        double_algebra(ab)


def test_is_lagrangian_diagonal_true():
    sl2 = build_sl(2)
    double, form = double_algebra(sl2)
    diag = [list(v) + list(v) for v in basis_vectors(sl2)]
    ok, cert = is_lagrangian(double, form, covectors(diag))
    assert ok and cert["failure"] is None


def test_is_lagrangian_first_factor_false():
    sl2 = build_sl(2)
    double, form = double_algebra(sl2)
    z3 = [Q(0)] * 3
    g0 = [list(v) + z3 for v in basis_vectors(sl2)]
    ok, cert = is_lagrangian(double, form, covectors(g0))
    assert not ok and cert["failure"] == "isotropy"


@pytest.mark.parametrize("scales", [(1, 1, 1), (Q(1, 2), 3, Q(-2, 7))])
def test_isotropy_witness_is_the_value_on_the_given_rows(scales):
    """The rows c_i (b_i, 0) are checked as integer covectors; the witness
    is <c_0 e, c_2 f> = 4 c_0 c_2 on the rows as given."""
    sl2 = build_sl(2)
    double, form = double_algebra(sl2)
    rows = [[c * x for x in list(v) + [0] * 3] for c, v in zip(scales, basis_vectors(sl2))]
    ok, cert = is_lagrangian(double, form, covectors(rows))
    assert not ok and cert["failure"] == "isotropy"
    assert cert["witness"] == (0, 2, qstr(value(form, rows[0], rows[2])))
    assert value(form, rows[0], rows[2]) == 4 * scales[0] * scales[2]


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_is_lagrangian_names_first_unclosed_pair(seed):
    """The graph {(x, x^T)} of transposition in sl3 + sl3 is isotropic, as
    tr(x^T y^T) = tr(xy), and [(x, x^T), (y, y^T)] = ([x, y], -[x, y]^T)
    lies in it only when [x, y] = 0.  The certificate names the first pair
    of the given rows whose matrices do not commute (SymPy)."""
    sl3 = build_sl(3)
    double, form = double_algebra(sl3)
    index = {name: k for k, name in enumerate(sl3.names)}
    order = list(range(8))
    if seed is not None:
        random.Random(seed).shuffle(order)
    rows = []
    for k in order:
        name = sl3.names[k]
        t = index["E" + name[2] + name[1]] if name[0] == "E" else k
        rows.append([Q(int(i == k)) for i in range(8)] + [Q(int(i == t)) for i in range(8)])
    mats = [_sympy_sl(3, basis_vectors(sl3)[k]) for k in order]
    want = next(
        (a, b) for a, b in combinations(range(8), 2) if mats[a] * mats[b] != mats[b] * mats[a]
    )
    ok, cert = is_lagrangian(double, form, covectors(rows))
    assert not ok
    assert cert["failure"] == "bracket closure" and cert["witness"] == want


def test_standard_splitting_axioms():
    sl2 = build_sl(2)
    s = standard_splitting(sl2)
    xs, ys = rational(s.x_basis), rational(s.y_basis)
    # transversality and dimensions
    assert Matrix(xs + ys).rank() == 6
    assert len(xs) == len(ys) == 3
    # duality gram is the identity
    for i in range(3):
        for j in range(3):
            assert value(s.form, xs[i], ys[j]) == (1 if i == j else 0)
    # l2 closed under bracket: certified by is_lagrangian inside validate()
    ok, _ = is_lagrangian(s.double, s.form, s.y_basis)
    assert ok


def test_standard_splitting_sl3():
    s = standard_splitting(build_sl(3))
    assert Matrix(rational(s.x_basis + s.y_basis)).rank() == 16


def test_splitting_from_l2_json_shape():
    sl2 = build_sl(2)
    ref = standard_splitting(sl2)
    s2 = splitting_from_l2(sl2, rational(ref.y_basis))
    assert s2.y_basis == ref.y_basis


def test_splitting_rejects_bad_l2():
    sl2 = build_sl(2)
    diag = [list(v) + list(v) for v in basis_vectors(sl2)]
    with pytest.raises(ValueError):
        splitting_from_l2(sl2, diag)  # l1 itself cannot be the complement


def test_r_matrix_rank_and_antisymmetry():
    s = standard_splitting(build_sl(2))
    r = r_matrix(s)
    assert Matrix(r.entries).rank() == 6
    for a in range(6):
        for b in range(6):
            assert r.entries[a][b] == -r.entries[b][a]


def test_r_matrix_basis_independent():
    """Re-mix the l1 basis by a random invertible matrix; r is unchanged."""
    sl2 = build_sl(2)
    s = standard_splitting(sl2)
    r = r_matrix(s)
    st = RationalStream(19)
    while True:
        mix = bounded(st, 3).matrix(3, 3)
        if mix.det() != 0:
            break
    xs = rational(s.x_basis)
    new_x = []
    for i in range(3):
        v = [Q(0)] * 6
        for k in range(3):
            c = mix.data[i][k]
            for m in range(6):
                v[m] += c * xs[k][m]
        new_x.append(v)
    remixed = _dualize(s.double, s.form, new_x, rational(s.y_basis))
    assert r_matrix(remixed).entries == r.entries


def _from_json(obj):
    """The algebra that a ``LieAlgebra.to_json`` object lists."""
    assert obj["dim"] == len(obj["names"])
    return LieAlgebra(obj["names"], [(i, j, m, Q(c)) for i, j, m, c in obj["structure_constants"]])


def test_lie_algebra_json_round_trip():
    sl2 = build_sl(2)
    again = _from_json(sl2.to_json())
    assert again.names == sl2.names
    assert again.structure_constants() == sl2.structure_constants()
    # [x, y] = y/2: a non-integral constant goes out as "1/2" and comes back
    half = LieAlgebra(("x", "y"), [(0, 1, 1, Q(1, 2)), (1, 0, 1, Q(-1, 2))])
    obj = half.to_json()
    assert obj == {
        "dim": 2,
        "names": ["x", "y"],
        "structure_constants": [[0, 1, 1, "1/2"], [1, 0, 1, "-1/2"]],
    }
    assert _from_json(obj).structure_constants() == half.structure_constants()


# -- the construction-time checks against dense references --------------------
#
# Each reference is written from the definition over the dense structure
# constant tensor ``_dense(alg)`` and the dense Gram matrix, visiting every index
# whether its entry is zero or not; none shares code with lie.py.

def _plain(rows):
    """Nested lists of ``Fraction``s with the integral ones as ``int``s, so
    the dense sums below run at integer speed."""
    if isinstance(rows, list):
        return [_plain(r) for r in rows]
    return rows.numerator if rows.denominator == 1 else rows


def _dense_ad_residuals(brackets, gram):
    """<[b_i,b_j],b_k> + <b_j,[b_i,b_k]> at every basis triple, the nonzero
    ones in (i, j, k) order."""
    d = len(gram)
    c, g = _plain(brackets), _plain(gram)
    out = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                v = sum(c[i][j][m] * g[m][k] for m in range(d))
                v += sum(g[j][m] * c[i][k][m] for m in range(d))
                if v:
                    out.append(((i, j, k), v))
    return out


def _dense_jacobi(brackets, i, j, k):
    """[[b_i,b_j],b_k] + [[b_j,b_k],b_i] + [[b_k,b_i],b_j], with
    [[b_a,b_b],b_c] = sum_m c_ab^m [b_m, b_c] over every m."""
    d = len(brackets)
    out = [0] * d
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for m in range(d):
            for p in range(d):
                out[p] += brackets[a][b][m] * brackets[m][c][p]
    return out


def _dense_first_failure(brackets):
    """The message the constructor must raise for this tensor, or None."""
    d = len(brackets)
    for i in range(d):
        for j in range(i, d):
            if any(brackets[i][j][m] != -brackets[j][i][m] for m in range(d)):
                return "structure constants not antisymmetric at (%d,%d)" % (i, j)
    plain = _plain(brackets)
    for i, j, k in combinations(range(d), 3):
        if any(_dense_jacobi(plain, i, j, k)):
            return "Jacobi identity fails at basis triple (%d,%d,%d)" % (i, j, k)
    return None


def _unchecked(names, brackets):
    """A ``LieAlgebra`` on any tensor, built with the Jacobi check off."""
    with mock.patch.object(LieAlgebra, "_check_jacobi", lambda self: None):
        return LieAlgebra(names, _constants(brackets))


ALGEBRAS = ["sl2", "sl3", "sl4", "dsl2", "dsl3", "dsl4"]


class TestAxiomChecksAgainstDenseReference:
    @pytest.mark.parametrize("name", ALGEBRAS)
    def test_ad_invariance_matches_dense_sum(self, name):
        alg, form = _algebra_with_form(name)
        want = _dense_ad_residuals(_dense(alg), gram_matrix(form).data)
        assert want == []
        assert form.ad_invariance_residuals(alg) == want

    @pytest.mark.parametrize("name", ALGEBRAS)
    def test_jacobi_vector_matches_dense_sum(self, name):
        alg = _algebra(name)
        plain = _plain(_dense(alg))
        triples = list(combinations(range(alg.dim), 3))
        if alg.dim > 16:
            triples = random.Random(name).sample(triples, 150)
        for i, j, k in triples:
            assert alg.jacobi_vector(i, j, k) == _dense_jacobi(plain, i, j, k)

    @settings(max_examples=40, deadline=None)
    @given(
        hst.sampled_from(["sl2", "sl3", "dsl2"]),
        hst.integers(0, 10**6),
        hst.integers(0, 10**6),
        hst.fractions(-5, 5, max_denominator=4).filter(bool),
    )
    def test_perturbed_gram_entry(self, name, a, b, delta):
        """A symmetric change of one Gram entry breaks ad-invariance; the
        residuals, their order and their values match the dense sum, and
        the error names the first of them."""
        alg, form = _algebra_with_form(name)
        a, b = a % alg.dim, b % alg.dim
        gram = [list(row) for row in gram_matrix(form).data]
        gram[a][b] += delta
        if a != b:
            gram[b][a] += delta
        bent = BilinearForm(*sparse_gram(gram))
        want = _dense_ad_residuals(_dense(alg), gram)
        got = bent.ad_invariance_residuals(alg)
        assert want and got == want
        assert all(type(v) is Q for _, v in got)
        with pytest.raises(ValueError, match="not ad-invariant") as err:
            bent.check_ad_invariant(alg)
        assert str(err.value) == "form is not ad-invariant, e.g. at %r" % ((want[0][0], Q(want[0][1])),)

    @settings(max_examples=40, deadline=None)
    @given(
        hst.sampled_from(["sl2", "sl3", "dsl2"]),
        hst.tuples(*[hst.integers(0, 10**6)] * 3),
        hst.fractions(-5, 5, max_denominator=3).filter(bool),
        hst.booleans(),
    )
    def test_perturbed_structure_constant(self, name, ijm, delta, mirrored):
        """One constant c_ij^m changed alone breaks antisymmetry; changed
        together with c_ji^m it keeps antisymmetry and may break Jacobi.
        The constructor accepts the tensor or raises exactly as the dense
        reference does, and ``jacobi_vector`` equals the dense sum at every
        triple."""
        alg = _algebra(name)
        i, j, m = (x % alg.dim for x in ijm)
        br = _dense(alg)
        br[i][j][m] += delta
        if mirrored and i != j:
            br[j][i][m] -= delta
        want = _dense_first_failure(br)
        if want is None:
            LieAlgebra(alg.names, _constants(br))
        else:
            with pytest.raises(ValueError) as err:
                LieAlgebra(alg.names, _constants(br))
            assert str(err.value) == want
        if mirrored and i != j:
            bent = _unchecked(alg.names, br)
            for t in combinations(range(alg.dim), 3):
                assert bent.jacobi_vector(*t) == _dense_jacobi(br, *t)

    def test_negative_controls(self):
        """[e, f] = h + e, mirrored in [f, e], is antisymmetric but not a
        Lie bracket; changing c_ef^e alone is not even antisymmetric."""
        br = _dense(build_sl(2))
        br[0][2][0] += 1
        with pytest.raises(ValueError, match=r"not antisymmetric at \(0,2\)"):
            LieAlgebra(("e", "h", "f"), _constants(br))
        br[2][0][0] -= 1
        with pytest.raises(ValueError, match=r"Jacobi identity fails at basis triple \(0,1,2\)"):
            LieAlgebra(("e", "h", "f"), _constants(br))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_killing_form_is_2n_trace_form(n):
    """SymPy oracle: the Killing form of sl_n is 2n tr(XY) (Humphreys,
    Introduction to Lie Algebras, section 6), on the elementary basis."""
    alg = build_sl(n)
    mats = [_sympy_sl(n, v) for v in basis_vectors(alg)]
    gram = gram_matrix(killing_form(alg))
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert gram[i, j] == 2 * n * (mats[i] * mats[j]).trace()


def test_set_up_needs_no_matrix_products_or_ad(monkeypatch):
    """``build_sl``, the Killing form, the double and the standard splitting
    read the sparse structure constants and keep every form and basis in
    integers: with ``Matrix`` construction disabled, and so every dense
    product and ``ad`` matrix, they still run."""

    def refuse(*args):
        raise AssertionError("dense matrix in the Lie set-up")

    monkeypatch.setattr(Matrix, "__init__", refuse)
    double, form = double_algebra(build_sl(3))
    assert double.dim == 16 and form.is_nondegenerate()
    s = standard_splitting(build_sl(3))
    assert len(s.y_basis) == 8
