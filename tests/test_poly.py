"""Sparse polynomials and rational functions."""

from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wonderland import poly
from wonderland.linalg import integer_vector
from wonderland.poly import MonomialTable, MultiPoly, RationalFn
from wonderland.sampling import RationalStream

from references import bounded

VARS = ("x", "y", "z")


def make_poly(stream, variables=VARS, max_exp=3, nterms=5):
    terms = {}
    for _ in range(nterms):
        e = tuple(
            abs(stream.take().numerator) % (max_exp + 1) for _ in range(len(variables))
        )
        terms[e] = terms.get(e, Q(0)) + stream.take()
    return MultiPoly(variables, terms)


def from_json(obj):
    """The polynomial that a ``MultiPoly.to_json`` object lists."""
    return MultiPoly(obj["variables"], {tuple(e): Q(c) for e, c in obj["terms"]})


def test_diff_simple_cases():
    z2 = MultiPoly(("z",), {(2,): Q(1)})
    assert z2.diff("z") == MultiPoly(("z",), {(1,): Q(2)})
    v = ("a", "b", "c", "d")
    det = MultiPoly(v, {(1, 0, 0, 1): Q(1), (0, 1, 1, 0): Q(-1)})
    assert det.diff("a") == MultiPoly.var(v, "d")


def test_diff_unknown_variable():
    p = MultiPoly.var(VARS, "x")
    with pytest.raises(ValueError):
        p.diff("w")


def test_diff_matches_difference_quotient():
    """Oracle: expand p(z+h) - p(z), divide by h, set h = 0."""
    stream = RationalStream(5)
    ext = ("x", "y", "z", "h")
    for _ in range(4):
        p = make_poly(stream, max_exp=4)
        lifted = MultiPoly(ext, {e + (0,): c for e, c in p.terms.items()})
        shift = {
            "x": MultiPoly.var(ext, "x"),
            "y": MultiPoly.var(ext, "y"),
            "z": MultiPoly.var(ext, "z") + MultiPoly.var(ext, "h"),
            "h": MultiPoly.var(ext, "h"),
        }
        diffq = lifted.subs(shift) - lifted
        # every term is divisible by h; shift the h exponent down and set h=0
        quotient_terms = {}
        for e, c in diffq.terms.items():
            assert e[3] >= 1
            if e[3] == 1:
                quotient_terms[e[:3]] = c
        got = p.diff("z")
        assert got == MultiPoly(VARS, quotient_terms)


def test_leibniz_rule_on_random_polys():
    stream = RationalStream(23)
    for _ in range(5):
        p = make_poly(stream)
        q = make_poly(stream)
        lhs = (p * q).diff("y")
        rhs = p.diff("y") * q + p * q.diff("y")
        assert lhs == rhs


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.fractions(min_value=-5, max_value=5),
        max_size=5,
    ),
    st.fractions(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4),
)
@settings(max_examples=40)
def test_eval_matches_direct_substitution(terms, x, y):
    p = MultiPoly(("x", "y"), terms)
    want = sum((c * x ** e[0] * y ** e[1] for e, c in p.terms.items()), Q(0))
    assert p.eval([x, y]) == want


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        st.fractions(min_value=-5, max_value=5),
        max_size=6,
    ),
    st.lists(st.integers(-6, 6), min_size=3, max_size=3),
    st.lists(st.booleans(), min_size=3, max_size=3),
)
@settings(max_examples=60)
def test_eval_same_for_int_fraction_and_mixed_points(terms, ints, as_fraction):
    p = MultiPoly(VARS, terms)
    fracs = [Q(x) for x in ints]
    mixed = [Q(x) if f else x for x, f in zip(ints, as_fraction)]
    want = p.eval(fracs)
    assert p.eval(ints) == want
    assert p.eval(mixed) == want
    assert p.eval(tuple(mixed)) == want


poly_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    max_size=6,
)


@given(
    st.lists(st.lists(poly_terms, max_size=3), min_size=1, max_size=3),
    st.lists(
        st.one_of(
            st.integers(-6, 6),
            st.fractions(min_value=-4, max_value=4, max_denominator=9),
            st.just(0),
            st.just(Q(0)),
        ),
        min_size=3,
        max_size=3,
    ),
)
@settings(max_examples=80)
def test_monomial_table_matches_eval(groups, point):
    """Each group's (ints, den) from ``MonomialTable.values`` is the
    polynomials' ``eval``, at int, Fraction, mixed and zero points."""
    groups = [[MultiPoly(VARS, terms) for terms in group] for group in groups]
    table = MonomialTable(groups)
    for where in (point, [0, 0, 0], [Q(0)] * 3):
        for polys, (ints, den) in zip(groups, table.values(where)):
            assert [Q(x, den) for x in ints] == [p.eval(where) for p in polys]


def test_monomial_table_evaluates_each_monomial_once():
    """Monomials shared by several polynomials and groups are tabled once.
    At (2, 1/2, 5) = (4, 1, 10) / 2 the monomials xy, z and 1 read
    4, 20 and 4, which is 2^2 times their values."""
    x, y, z = MultiPoly.gens(VARS)
    table = MonomialTable([[x * y + z, x * y * Q(1, 3)], [z - x * y, MultiPoly.const(VARS, 2)]])
    assert len(table.table) == 3
    assert table.values([2, Q(1, 2), 5]) == [([72, 4], 12), ([16, 8], 4)]


def test_eval_converts_other_coordinates_once():
    p = MultiPoly(("x", "y"), {(1, 0): Q(2), (0, 2): Q(1)})
    assert p.eval(["1/2", 0.5]) == p.eval([Q(1, 2), Q(1, 2)]) == Q(5, 4)


def test_pow_and_subs():
    x, y, z = MultiPoly.gens(VARS)
    p = (x + y) ** 2
    assert p == x * x + 2 * x * y + y * y
    q = p.subs({"x": z, "y": z, "z": z})
    assert q == 4 * z * z


def test_grlex_serialization_canonical():
    x, y, z = MultiPoly.gens(VARS)
    p = z + x * x + y
    assert [e for e, _ in p.sorted_items()] == [(2, 0, 0), (0, 1, 0), (0, 0, 1)]
    obj = p.to_json()
    assert obj["terms"][0] == [[2, 0, 0], "1"]
    assert from_json(obj) == p


def test_variable_mismatch_raises():
    p = MultiPoly.var(("x",), "x")
    q = MultiPoly.var(("y",), "y")
    with pytest.raises(ValueError):
        p + q


def test_grad_at():
    x, y, z = MultiPoly.gens(VARS)
    p = x * x * y + 3 * z
    pt = [Q(2), Q(-1), Q(5)]
    assert RationalFn(p).grad_at(pt) == integer_vector([Q(-4), Q(4), Q(3)])


class TestRationalFn:
    def test_quotient_rule(self):
        stream = RationalStream(9)
        u = make_poly(stream)
        v = make_poly(stream) + 1
        f = RationalFn(u, v)
        d = f.diff("x")
        # cross-multiplied identity: d.num * v^2 == (u'v - uv') * d.den
        lhs = d.num * (v * v)
        rhs = (u.diff("x") * v - u * v.diff("x")) * d.den
        assert lhs == rhs

    def test_eval_and_domain(self):
        x, y, z = MultiPoly.gens(VARS)
        f = RationalFn(x + y, z)
        assert f.eval([Q(1), Q(2), Q(3)]) == Q(1)
        with pytest.raises(ZeroDivisionError):
            f.eval([Q(1), Q(2), Q(0)])

    def test_grad_at_matches_symbolic(self):
        stream = RationalStream(33)
        u = make_poly(stream, nterms=3)
        v = make_poly(stream, nterms=3) + 2
        f = RationalFn(u, v)
        pt = bounded(stream, 3).vector(3)
        if v.eval(pt) == 0:
            pt = [Q(0), Q(0), Q(0)]
        sym = [f.diff(n).eval(pt) for n in VARS]
        assert f.grad_at(pt) == integer_vector(sym)

    def test_zero_denominator_rejected(self):
        x, y, z = MultiPoly.gens(VARS)
        with pytest.raises(ZeroDivisionError):
            RationalFn(x, MultiPoly.zero(VARS))


def test_non_integral_exponent_rejected():
    """An exponent that is not an integer is an error, not truncated."""
    with pytest.raises(ValueError, match="bad exponent vector"):
        MultiPoly(("x",), {(1.5,): 1})
    assert MultiPoly(("x",), {(2.0,): 1}) == MultiPoly(("x",), {(2,): 1})


def assert_canonical(p):
    assert p.den > 0
    assert all(type(c) is int and c for c in p.ints.values())
    assert gcd(p.den, *p.ints.values()) == 1
    if p.is_zero():
        assert (p.ints, p.den) == ({}, 1)


monomials = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.fractions(min_value=-5, max_value=5, max_denominator=12),
    ),
    max_size=6,
)


@given(
    monomials.flatmap(lambda ms: st.tuples(st.just(ms), st.permutations(ms))),
    st.integers(-9, 9).filter(bool),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.fractions(min_value=-5, max_value=5, max_denominator=12),
        max_size=4,
    ),
)
@settings(max_examples=80)
def test_canonical_form_does_not_depend_on_the_route(monos, k, other):
    """One rational polynomial reached by different routes has one
    ``(ints, den)`` and one hash."""
    ordered, shuffled = monos
    v = ("x", "y")

    def summed(ms):
        return sum((MultiPoly(v, {e: c}) for e, c in ms), MultiPoly.zero(v))

    p = summed(ordered)
    q = MultiPoly(v, other)
    routes = [
        summed(shuffled),
        p * k * Q(1, k),
        p * Q(k, 7) * Q(7, k),
        from_json(p.to_json()),
        p + q - q,
    ]
    for r in [p, q] + routes:
        assert_canonical(r)
    for r in routes:
        assert (r.ints, r.den) == (p.ints, p.den)
        assert r == p and hash(r) == hash(p)


def test_arithmetic_makes_no_fraction(fraction_count):
    """Sums, products, derivatives and substitutions of rational polynomials
    run on the integers; evaluation makes only the value it returns."""
    x, y, z = MultiPoly.gens(VARS)
    p = x * x * Q(2, 3) - y * z * Q(5, 4) + Q(1, 6)
    q = x * y * Q(3, 10) + z * Q(-7, 9)
    images = {"x": q, "y": x * Q(1, 2), "z": p}
    pt = [Q(1, 2), Q(-3, 5), Q(4)]
    start = fraction_count[0]
    p * q, p + q, p.diff("x"), p.subs(images)
    assert fraction_count[0] == start
    value = p.eval(pt)
    assert fraction_count[0] == start + 1
    assert value == Q(2, 3) * pt[0] ** 2 - Q(5, 4) * pt[1] * pt[2] + Q(1, 6)


def test_monomial_table_reads_the_integers(monkeypatch):
    x, y, z = MultiPoly.gens(VARS)
    p = x * y * Q(1, 3) + z * Q(5, 2)
    q = x * x - Q(3, 4)
    want = [p.eval([Q(1, 2), 3, 5]), q.eval([Q(1, 2), 3, 5])]

    def refuse(*args):
        raise AssertionError("the Fraction view was made")

    monkeypatch.setattr(poly, "_unpairs", refuse)
    ((ints, den),) = MonomialTable([[p, q]]).values([Q(1, 2), 3, 5])
    assert [Q(n, den) for n in ints] == want
