"""The exact pair kernels against ``Fraction`` arithmetic."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wonderland import backend

rationals = st.tuples(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=30),
).map(lambda nd: (Fraction(nd[0], nd[1]).numerator, Fraction(nd[0], nd[1]).denominator))


def as_frac(p):
    return Fraction(p[0], p[1])


@given(rationals, rationals)
def test_q_add_matches_fraction(a, b):
    got = backend.q_add(a, b)
    assert as_frac(got) == as_frac(a) + as_frac(b)
    assert got[1] > 0


@given(rationals, rationals)
def test_q_mul_matches_fraction(a, b):
    got = backend.q_mul(a, b)
    assert as_frac(got) == as_frac(a) * as_frac(b)


@given(
    st.lists(
        st.lists(rationals, min_size=4, max_size=4),
        min_size=3,
        max_size=5,
    )
)
@settings(max_examples=40)
def test_rref_idempotent_and_pivots(rows):
    red, rank, pivots = backend.rref_rows(rows)
    red2, rank2, pivots2 = backend.rref_rows(red)
    assert (red2, rank2, pivots2) == (red, rank, pivots)
    for r, c in enumerate(pivots):
        assert red[r][c] == (1, 1)
        for i in range(len(rows)):
            if i != r:
                assert red[i][c] == (0, 1)


@given(
    st.lists(
        st.lists(rationals, min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    ),
    st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=3, max_size=3),
)
@settings(max_examples=30)
def test_mat_mul_oracle(a, b):
    got = backend.mat_mul(a, b)
    for i in range(len(a)):
        for j in range(2):
            want = sum(as_frac(a[i][k]) * as_frac(b[k][j]) for k in range(3))
            assert as_frac(got[i][j]) == want


def _poly_strategy():
    exps = st.tuples(
        st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
    )
    return st.dictionaries(exps, rationals, max_size=6).map(
        lambda d: {e: c for e, c in d.items() if c[0] != 0}
    )


@given(_poly_strategy(), _poly_strategy())
@settings(max_examples=40)
def test_poly_mul_oracle(ta, tb):
    got = backend.poly_mul(ta, tb)
    want = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            want[e] = want.get(e, Fraction(0)) + as_frac(ca) * as_frac(cb)
    want = {e: c for e, c in want.items() if c != 0}
    assert {e: as_frac(c) for e, c in got.items()} == want


@given(_poly_strategy(), rationals, rationals)
@settings(max_examples=40)
def test_poly_eval_oracle(terms, x, y):
    got = as_frac(backend.poly_eval(terms, (x, y)))
    want = sum(
        (as_frac(c) * as_frac(x) ** e[0] * as_frac(y) ** e[1] for e, c in terms.items()),
        Fraction(0),
    )
    assert got == want
