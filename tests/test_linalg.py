"""Exact linear algebra: rref, kernels, determinants, bivectors."""

from contextlib import contextmanager
from fractions import Fraction as Q
from itertools import permutations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from wonderland import linalg
from wonderland.linalg import (
    ZERO,
    Bivector,
    Matrix,
    integer_inverse,
    integer_vector,
    row_span_contains,
    wedge_sum,
)
from wonderland.sampling import RationalStream

from references import apply_to


def laplace_det(m):
    """Independent determinant oracle: cofactor expansion."""
    n = m.rows
    if n == 1:
        return m.data[0][0]
    total = Q(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = Q(1)
        for i in range(n):
            prod *= m.data[i][perm[i]]
        total += sign * prod
    return total


def test_rows_from_a_generator_equal_rows_from_a_list():
    rows = [[1, Q(1, 2), 0], [0, 0, Q(-3)]]
    assert Matrix(list(r) for r in rows) == Matrix(rows)
    with pytest.raises(ValueError, match="ragged"):
        Matrix(r for r in [[1, 2], [3]])


def test_rref_identity():
    m = Matrix.identity(2)
    red, rank, pivots = m.rref()
    assert red == m and rank == 2 and pivots == [0, 1]


def test_rref_proportional_rows():
    m = Matrix([[1, 2], [2, 4]])
    red, rank, pivots = m.rref()
    assert red == Matrix([[1, 2], [0, 0]])
    assert rank == 1 and pivots == [0]


def test_rank_agrees_with_det_on_random_5x5():
    st = RationalStream(101)
    for _ in range(6):
        m = st.matrix(5, 5)
        nondegenerate = laplace_det(m) != 0
        assert (m.rank() == 5) == nondegenerate


def test_det_matches_laplace():
    st = RationalStream(55)
    for n in (2, 3, 4):
        for _ in range(4):
            m = st.matrix(n, n)
            assert m.det() == laplace_det(m)


det_entries = hst.one_of(
    hst.just(Q(0)), hst.integers(-6, 6).map(Q), hst.fractions(min_value=-9, max_value=9, max_denominator=7)
)


@settings(max_examples=60, deadline=None)
@given(hst.integers(1, 5).flatmap(lambda n: hst.lists(hst.lists(det_entries, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_det_matches_laplace_on_rational_entries(rows):
    m = Matrix(rows)
    assert m.det() == laplace_det(m)


@settings(max_examples=60, deadline=None)
@given(
    hst.integers(2, 5).flatmap(
        lambda n: hst.tuples(
            hst.lists(hst.lists(det_entries, min_size=n, max_size=n), min_size=n - 1, max_size=n - 1),
            hst.lists(det_entries, min_size=n - 1, max_size=n - 1),
            hst.integers(0, n - 1),
        )
    )
)
def test_det_of_singular_matrices_is_zero(case):
    """A row that is a rational combination of the others, put at any
    position, gives det 0 by both oracles."""
    rows, coefs, pos = case
    dependent = [sum((c * row[j] for c, row in zip(coefs, rows)), Q(0)) for j in range(len(rows) + 1)]
    m = Matrix(rows[:pos] + [dependent] + rows[pos:])
    assert laplace_det(m) == 0
    assert m.det() == 0


def test_det_of_empty_matrix_is_one():
    assert Matrix([]).det() == 1


def test_kernel_zero_matrix():
    basis = Matrix.zero(3, 3).kernel_basis()
    assert len(basis) == 3
    # canonical: the basis matrix is the identity
    assert Matrix(basis) == Matrix.identity(3)


def test_kernel_identity_empty():
    assert Matrix.identity(4).kernel_basis() == []


def test_kernel_vectors_annihilate():
    st = RationalStream(7)
    for _ in range(5):
        m = st.matrix(3, 5)
        for v in m.kernel_basis():
            assert apply_to(m, v) == [Q(0)] * 3


def test_kernel_of_conjugation_derivations_is_trace():
    """The stacked infinitesimal conjugation action on the linear forms of
    M_2 has kernel spanned by the trace form a + d.

    Oracle: [x, A] has zero trace for every x, and nothing else linear
    survives all three generators."""
    from wonderland.lie import sl_basis_matrix

    rows = []
    for i in range(3):
        x = sl_basis_matrix(2, i)
        for col in range(4):
            A = Matrix.zero(2, 2)
            A.data[col // 2][col % 2] = Q(1)
            comm = x * A - A * x
            rows.append(
                [comm.data[0][0], comm.data[0][1], comm.data[1][0], comm.data[1][1]]
            )
    # each row is a column of the action matrix, so the stacked system's
    # kernel is exactly the space of invariant linear forms
    basis = Matrix(rows).kernel_basis()
    assert basis == [[Q(1), Q(0), Q(0), Q(1)]]


def test_kernel_canonical_leading_ones():
    m = Matrix([[1, 2, 3, 4]])
    basis = m.kernel_basis()
    assert len(basis) == 3
    red, rank, _ = Matrix(basis).rref()
    assert rank == 3
    assert [r for r in red.data] == basis  # already echelonized
    for v in basis:
        lead = next(x for x in v if x != 0)
        assert lead == 1


def test_inverse_and_solve():
    st = RationalStream(12)
    m = st.invertible2()
    assert m * m.inverse() == Matrix.identity(2)
    rhs = st.vector(2)
    x = Matrix(m.data).solve(rhs)
    assert apply_to(m, x) == rhs


def test_solve_inconsistent():
    m = Matrix([[1, 1], [1, 1]])
    assert m.solve([Q(0), Q(1)]) is None


def test_row_span_helpers():
    rows = [[Q(1), Q(0), Q(2)], [Q(0), Q(1), Q(3)]]
    assert row_span_contains(rows, [Q(2), Q(1), Q(7)])
    assert not row_span_contains(rows, [Q(0), Q(0), Q(1)])


def test_matrix_json_round_trip():
    m = Matrix([[Q(1, 2), 3], [-2, Q(7, 5)]])
    obj = m.to_json()
    assert obj["entries"] == ["1/2", "3", "-2", "7/5"]
    entries = [Q(x) for x in obj["entries"]]
    assert Matrix([entries[:2], entries[2:]]) == m and (obj["rows"], obj["cols"]) == (2, 2)


def wedge_vectors(dim):
    """Vectors that are mostly zero, like the padded legs of mixed wedges,
    or dense."""
    entry = hst.fractions(min_value=-9, max_value=9, max_denominator=9)
    zero_or_entry = hst.one_of(hst.just(Q(0)), hst.just(Q(0)), hst.just(Q(0)), entry)
    return hst.one_of(
        hst.lists(zero_or_entry, min_size=dim, max_size=dim),
        hst.lists(entry, min_size=dim, max_size=dim),
    )


def wedge_lists(dim):
    coef = hst.fractions(min_value=-3, max_value=3, max_denominator=4)
    wedge = hst.tuples(coef, wedge_vectors(dim), wedge_vectors(dim))
    return hst.tuples(hst.just(dim), hst.lists(wedge, max_size=5))


# large pairwise coprime denominators, so the common denominator of a wedge
# list is a product of several of them
BIG_DENOMINATORS = [2**61 - 1, 10**9 + 7, 998244353, 65537, 3**20, 1]


def integer_assembly_entries():
    """Leg entries that stress the integer assembly: ints, zeros and
    Fractions with large coprime denominators."""
    big = hst.builds(
        Q,
        hst.integers(min_value=-(10**12), max_value=10**12),
        hst.sampled_from(BIG_DENOMINATORS),
    )
    small = hst.fractions(min_value=-9, max_value=9, max_denominator=9)
    return hst.one_of(hst.just(0), hst.integers(-5, 5), small, big)


def integer_assembly_lists(dim):
    entry = integer_assembly_entries()
    leg = hst.one_of(
        hst.lists(entry, min_size=dim, max_size=dim),
        hst.just([0] * dim),
        hst.just([Q(0)] * dim),
    )
    coef = hst.one_of(
        hst.just(0),
        hst.just(Q(0)),
        hst.integers(-3, 3),
        hst.fractions(min_value=-3, max_value=3, max_denominator=4),
        hst.builds(Q, hst.integers(-(10**9), 10**9), hst.sampled_from(BIG_DENOMINATORS)),
    )
    wedge = hst.tuples(coef, leg, leg)
    return hst.tuples(hst.just(dim), hst.lists(wedge, max_size=6))


def dense_wedge_formula(dim, wedges):
    return [
        [
            sum((Q(c) * (Q(u[a]) * w[b] - Q(w[a]) * u[b]) for c, u, w in wedges), Q(0))
            for b in range(dim)
        ]
        for a in range(dim)
    ]


class TestIntegerWedgeAssembly:
    """``Bivector.from_wedges`` sums in integers over one common
    denominator; the oracles are ``wedge_sum`` over Fractions and the dense
    formula sum c (u[a] w[b] - w[a] u[b])."""

    @settings(max_examples=80, deadline=None)
    @given(hst.integers(min_value=1, max_value=6).flatmap(integer_assembly_lists))
    def test_matches_fraction_wedge_sum_and_dense_formula(self, case):
        dim, wedges = case
        L = Bivector.from_wedges(dim, wedges)
        over_fractions = wedge_sum(
            dim, [(Q(c), [Q(x) for x in u], [Q(x) for x in w]) for c, u, w in wedges], ZERO
        )
        assert L.entries == over_fractions
        assert L.entries == dense_wedge_formula(dim, wedges)
        assert all(type(x) is Q for row in L.entries for x in row)

    def test_empty_wedge_list(self):
        assert Bivector.from_wedges(4, []) == Bivector.zero(4)

    def test_coprime_denominators_meet_in_one_entry(self):
        p, q, r = BIG_DENOMINATORS[:3]
        u = [Q(1, p), 3, 0]
        w = [0, Q(2, q), 0]
        L = Bivector.from_wedges(3, [(Q(5, r), u, w), (0, u, [1, 1, 1]), (2, [0] * 3, w)])
        assert L.entries[0][1] == Q(10, p * q * r) == -L.entries[1][0]
        assert L.entries[2] == [0, 0, 0]
        assert L.entries[1][1] == 0

    def test_cancelling_wedges_give_zero(self):
        u = [Q(1, 3), Q(-2, 7), 5]
        w = [Q(4, 11), 0, Q(1, 2)]
        assert Bivector.from_wedges(3, [(Q(1, 2), u, w), (Q(1, 2), w, u)]).is_zero()


class TestBivector:
    def test_antisymmetry_enforced(self):
        with pytest.raises(ValueError):
            Bivector([[0, 1], [1, 0]])

    def test_bracket_antisymmetric_in_arguments(self):
        st = RationalStream(31)
        vals = [st.take() for _ in range(3)]
        L = Bivector(
            [
                [0, vals[0], vals[1]],
                [-vals[0], 0, vals[2]],
                [-vals[1], -vals[2], 0],
            ]
        )
        df = integer_vector(st.vector(3))
        dg = integer_vector(st.vector(3))
        assert L.bracket_eval(df, dg) == -L.bracket_eval(dg, df)
        assert L.bracket_eval(df, df) == 0

    def test_symplectic_block(self):
        L = Bivector([[0, 1], [-1, 0]])
        assert L.bracket_eval(integer_vector([Q(1), Q(0)]), integer_vector([Q(0), Q(1)])) == 1

    def test_bracket_matches_pair_double_sum(self):
        # oracle: sum over unordered pairs of L_ij (df_i dg_j - df_j dg_i)
        st = RationalStream(47)
        vals = [st.take() for _ in range(3)]
        L = Bivector(
            [
                [0, vals[0], vals[1]],
                [-vals[0], 0, vals[2]],
                [-vals[1], -vals[2], 0],
            ]
        )
        df, dg = st.vector(3), st.vector(3)
        want = Q(0)
        for i in range(3):
            for j in range(i + 1, 3):
                want += L.entries[i][j] * (df[i] * dg[j] - df[j] * dg[i])
        assert L.bracket_eval(integer_vector(df), integer_vector(dg)) == want

    def test_from_wedges(self):
        u = [Q(1), Q(0), Q(2)]
        w = [Q(0), Q(1), Q(-1)]
        L = Bivector.from_wedges(3, [(Q(1, 2), u, w)])
        for a in range(3):
            for b in range(3):
                assert L.entries[a][b] == Q(1, 2) * (u[a] * w[b] - w[a] * u[b])

    @settings(max_examples=60, deadline=None)
    @given(hst.integers(min_value=1, max_value=7).flatmap(wedge_lists))
    def test_from_wedges_matches_dense_formula(self, case):
        dim, wedges = case
        L = Bivector.from_wedges(dim, wedges)
        for a in range(dim):
            for b in range(dim):
                want = sum(
                    (c * (u[a] * w[b] - w[a] * u[b]) for c, u, w in wedges), Q(0)
                )
                assert L.entries[a][b] == want

    def test_contract(self):
        L = Bivector([[0, 1], [-1, 0]])
        assert L.contract(integer_vector([Q(1), Q(0)])) == [Q(0), Q(1)]

    def test_square_enforced(self):
        with pytest.raises(ValueError):
            Bivector([[0, 1, 2], [-1, 0, 3]])

    @settings(max_examples=60, deadline=None)
    @given(
        hst.integers(min_value=1, max_value=6).flatmap(
            lambda dim: hst.tuples(
                integer_assembly_lists(dim),
                hst.lists(integer_assembly_entries(), min_size=dim, max_size=dim),
                hst.lists(integer_assembly_entries(), min_size=dim, max_size=dim),
            )
        )
    )
    def test_integer_pairings_match_dense_fraction_sums(self, data):
        """``bracket_eval`` and ``contract`` pair the integer rows of a
        ``from_wedges`` bivector with rational gradients over big coprime
        denominators; the oracle is the dense ``Fraction`` double sum over
        the entries of the wedge formula."""
        (dim, wedges), df, dg = data
        L = Bivector.from_wedges(dim, wedges)
        dense = dense_wedge_formula(dim, wedges)
        value = L.bracket_eval(integer_vector(df), integer_vector(dg))
        want = sum((dense[i][j] * df[i] * dg[j] for i in range(dim) for j in range(dim)), Q(0))
        assert type(value) is Q and value == want
        vector = L.contract(integer_vector(df))
        assert all(type(x) is Q for x in vector)
        assert vector == [sum((df[a] * dense[a][b] for a in range(dim)), Q(0)) for b in range(dim)]


def _refuse(*args):
    raise AssertionError("pair conversion reached from linalg")


@contextmanager
def refusing_pairs():
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_to_pairs", "_from_pairs"):
            mp.setattr(linalg, name, _refuse)
        yield


def gauss_jordan(rows):
    """RREF with zero rows last, and its pivots, by the textbook sweep on
    ``Fraction``."""
    a = [list(r) for r in rows]
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        hit = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if hit is None:
            continue
        a[r], a[hit] = a[hit], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def fraction_product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Q(0)) for col in zip(*b)] for row in a]


# the shared ZERO, a separate zero and small rationals
rational_entries = hst.one_of(
    hst.just(ZERO), hst.just(Q(0)), hst.builds(Q, hst.integers(-9, 9), hst.integers(1, 6))
)


def rational_rows(n, cols):
    """n rows of rationals, with an all-``ZERO`` row mixed in."""
    return hst.lists(
        hst.lists(rational_entries, min_size=cols, max_size=cols), min_size=n, max_size=n
    ).flatmap(lambda rows: hst.permutations(rows + [[ZERO] * cols]))


class TestIntegerPath:
    """Elimination and products go from ``Fraction`` rows to the integer
    kernels and back without the pair conversions: with ``_to_pairs`` and
    ``_from_pairs`` made to raise,
    every ``Matrix`` operation still agrees with plain ``Fraction``
    arithmetic."""

    @settings(max_examples=60, deadline=None)
    @given(
        hst.tuples(hst.integers(1, 4), hst.integers(1, 5)).flatmap(
            lambda nc: hst.tuples(
                rational_rows(*nc),
                hst.lists(rational_entries, min_size=nc[0] + 1, max_size=nc[0] + 1),
                hst.lists(hst.lists(rational_entries, min_size=3, max_size=3), min_size=nc[1], max_size=nc[1]),
            )
        )
    )
    def test_rref_rank_kernel_solve_product(self, data):
        rows, rhs, other = data
        cols = len(rows[0])
        want, want_pivots = gauss_jordan(rows)
        with refusing_pairs():
            m = Matrix(rows)
            red, rank, pivots = m.rref()
            kernel = m.kernel_basis()
            x = m.solve(rhs)
            prod = m * Matrix(other)
            assert m.rank() == rank
        assert red.data == want and pivots == want_pivots and rank == len(want_pivots)
        assert len(kernel) == cols - rank
        assert gauss_jordan(kernel)[0] == kernel  # already echelonized, leading ones
        for v in kernel:
            assert all(sum((a * b for a, b in zip(row, v)), Q(0)) == 0 for row in rows)
        if x is None:
            assert len(gauss_jordan([r + [b] for r, b in zip(rows, rhs)])[1]) > rank
        else:
            assert [sum((a * b for a, b in zip(row, x)), Q(0)) for row in rows] == rhs
        assert prod.data == fraction_product(rows, other)

    @settings(max_examples=60, deadline=None)
    @given(
        hst.integers(1, 4).flatmap(
            lambda n: hst.lists(hst.lists(rational_entries, min_size=n, max_size=n), min_size=n, max_size=n)
        )
    )
    @example([[Q(2), Q(-1, 3), ZERO], [Q(1), Q(1), Q(5, 2)], [ZERO, Q(4), Q(1)]])
    def test_inverse(self, rows):
        n = len(rows)
        m = Matrix(rows)
        with refusing_pairs():
            try:
                inv = m.inverse()
            except ValueError:
                inv = None
        if len(gauss_jordan(rows)[1]) < n:
            assert inv is None
        else:
            assert fraction_product(rows, inv.data) == Matrix.identity(n).data


class TestIntegerInverse:
    """``integer_inverse`` against the textbook ``Fraction`` Gauss-Jordan
    sweep on [A | I]; ``Matrix.inverse`` is its ``Fraction`` view."""

    @settings(max_examples=80, deadline=None)
    @given(
        hst.integers(1, 5).flatmap(
            lambda n: hst.lists(hst.lists(rational_entries, min_size=n, max_size=n), min_size=n, max_size=n)
        )
    )
    def test_matches_gauss_jordan(self, rows):
        n = len(rows)
        red, pivots = gauss_jordan([row + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(rows)])
        if pivots[:n] != list(range(n)):
            with pytest.raises(ValueError, match="singular"):
                integer_inverse(rows)
            return
        inv, d = integer_inverse(rows)
        assert [[Q(x, d) for x in row] for row in inv] == [row[n:] for row in red]
        assert d > 0 and gcd(d, *(x for row in inv for x in row)) == 1
        assert Matrix(rows).inverse().data == [row[n:] for row in red]

    def test_integer_rows(self):
        assert integer_inverse([[2, 1], [1, 1]]) == ([[1, -1], [-1, 2]], 1)
        assert integer_inverse([[2, 0], [0, Q(1, 3)]]) == ([[1, 0], [0, 6]], 2)

    def test_singular_and_non_square(self):
        with pytest.raises(ValueError, match="singular"):
            integer_inverse([[1, 2], [2, 4]])
        with pytest.raises(ValueError, match="singular"):
            integer_inverse([[Q(0)]])
        with pytest.raises(ValueError, match="non-square"):
            integer_inverse([[1, 2]])
        with pytest.raises(ValueError, match="non-square"):
            Matrix([[1, 2]]).inverse()
