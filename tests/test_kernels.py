"""The exact kernels against ``Fraction`` arithmetic: the integer
elimination and product kernels, and the integer polynomial kernels."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from wonderland import backend

integers = st.integers(min_value=-50, max_value=50)


def sparse(row):
    return {j: x for j, x in enumerate(row) if x}


@given(
    st.lists(
        st.lists(integers, min_size=4, max_size=4),
        min_size=3,
        max_size=5,
    )
)
@settings(max_examples=40)
def test_rref_idempotent_and_pivots(rows):
    red, pivots = backend.rref_rows([sparse(r) for r in rows])
    assert backend.rref_rows(red) == (red, pivots)
    assert pivots == sorted(set(pivots)) and len(red) == len(pivots)
    for r, c in zip(red, pivots):
        assert r[c] > 0 and gcd(*r.values()) == 1 and min(r) == c
        for k in pivots:
            assert k == c or k not in r
    # the pivot rows span the input rows: appending any input row adds no pivot
    for row in rows:
        assert backend.rref_rows(red + [sparse(row)])[1] == pivots


@given(
    st.lists(
        st.lists(integers, min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    ),
    st.lists(st.lists(integers, min_size=2, max_size=2), min_size=3, max_size=3),
)
@settings(max_examples=30)
def test_mat_mul_oracle(a, b):
    got = backend.mat_mul(a, b)
    assert len(got) == len(a)
    for i in range(len(a)):
        for j in range(2):
            want = sum(Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(3))
            assert got[i][j] == want


def _poly_strategy():
    exps = st.tuples(
        st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
    )
    return st.dictionaries(exps, integers.filter(bool), max_size=6)


@given(_poly_strategy(), _poly_strategy())
@settings(max_examples=40)
def test_poly_mul_oracle(ta, tb):
    got = backend.poly_mul(ta, tb)
    want = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            want[e] = want.get(e, Fraction(0)) + Fraction(ca) * Fraction(cb)
    assert got == {e: c for e, c in want.items() if c != 0}
    assert all(type(c) is int for c in got.values())


@given(_poly_strategy(), integers, integers, st.integers(min_value=1, max_value=30))
@settings(max_examples=40)
def test_poly_eval_oracle(terms, nx, ny, q):
    """The monomial values times q^-top, summed with the coefficients, are
    the value of the polynomial at (nx / q, ny / q)."""
    index = list(terms)
    top = max((sum(e) for e in index), default=0)
    table = [(tuple((v, k) for v, k in enumerate(e) if k), top - sum(e)) for e in index]
    values, qtop = backend.poly_eval(table, top, [nx, ny], q)
    assert qtop == q**top and all(type(v) is int for v in values)
    x, y = Fraction(nx, q), Fraction(ny, q)
    want = sum((c * x ** e[0] * y ** e[1] for e, c in terms.items()), Fraction(0))
    assert Fraction(sum(terms[e] * v for e, v in zip(index, values)), qtop) == want
