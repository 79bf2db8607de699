"""Exact elimination against oracles that share no code with it.

The inputs are tall sparse rational matrices with zero rows and repeated
rows, the shape of the stacked derivation systems behind invariant spaces.
``Matrix.rref``, ``rank`` and ``kernel_basis`` are checked against SymPy; the
``rref_rows`` kernel is checked against a textbook Gauss-Jordan on
``Fraction`` written here.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wonderland import backend
from wonderland.linalg import Matrix

# about three entries in four are zero
entries = st.one_of(
    st.just(Q(0)),
    st.just(Q(0)),
    st.just(Q(0)),
    st.builds(Q, st.integers(-12, 12), st.integers(1, 6)),
)


@st.composite
def tall_sparse(draw):
    """Rows of a sparse matrix, with zero rows and repeats mixed in."""
    cols = draw(st.integers(1, 8))
    base = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=1, max_size=8))
    rows = list(base)
    rows += [[Q(0)] * cols for _ in range(draw(st.integers(0, 3)))]
    rows += [list(base[i]) for i in draw(st.lists(st.integers(0, len(base) - 1), max_size=6))]
    return draw(st.permutations(rows))


def gauss_jordan(rows):
    """RREF by the textbook column sweep: first nonzero pivot, scale, clear."""
    a = [list(r) for r in rows]
    pivots = []
    for c in range(len(a[0])):
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


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def from_sympy(m):
    return [[Q(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]


@settings(max_examples=80, deadline=None)
@given(tall_sparse())
def test_rref_rank_kernel_match_sympy(sympy, rows):
    m = Matrix(rows)
    ref = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])
    want, want_pivots = ref.rref()
    red, rank, pivots = m.rref()
    assert red.data == from_sympy(want)
    assert pivots == list(want_pivots)
    assert rank == m.rank() == len(want_pivots)
    kernel = m.kernel_basis()
    null = ref.nullspace()
    assert len(kernel) == len(null) == m.cols - rank
    if null:
        # both bases echelonized the same way span the same space
        span, _ = sympy.Matrix.hstack(*null).T.rref()
        assert kernel == from_sympy(span)


@settings(max_examples=120, deadline=None)
@given(tall_sparse())
def test_pure_rref_rows_matches_gauss_jordan(rows):
    got, rank, pivots = backend.rref_rows([[(x.numerator, x.denominator) for x in r] for r in rows])
    want, want_pivots = gauss_jordan(rows)
    assert (rank, pivots) == (len(want_pivots), want_pivots)
    assert got == [[(x.numerator, x.denominator) for x in r] for r in want]


def test_pure_rref_rows_empty_and_zero():
    assert backend.rref_rows([]) == ([], 0, [])
    zero = [[(0, 1)] * 3 for _ in range(2)]
    assert backend.rref_rows(zero) == (zero, 0, [])
