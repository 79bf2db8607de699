"""Acceptance criteria: exact (zero-tolerance) residuals plus the concrete
structural facts, each timed against its stated budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion."""

import time
from fractions import Fraction as Q

import pytest

from wonderland.charvar import (
    RepresentationPoint,
    line_action_on_boundary_pair,
    parabolic_invariants,
    stratify,
    trace_point,
)
from wonderland.geometry import (
    GrassmannModel,
    GroupPair,
    Pgl2Model,
    ProjChart,
    ProjMatrixPoint,
    segre,
)
from wonderland.gitq import (
    GradedInvariantRing,
    divisor_saturation,
    glue_consistency,
    AffineChartQuotient,
    quotient_bracket_table,
)
from wonderland.invariants import (
    conjugation_action,
    det_of_factor,
    invariant_bracket_closure,
    invariants_of_degree,
    m2_variables,
    pgl2_surrogates,
    trace_of_word,
    ProjectiveInvariant,
)
from wonderland.lie import (
    build_sl,
    double_algebra,
    is_lagrangian,
    killing_form,
    standard_splitting,
)
from wonderland.linalg import Matrix
from wonderland.poisson import (
    diagonal_action_residual,
    splitting_bivector_field,
    jacobi_sweep,
    multiplicativity_residual,
    poisson_action_residual,
    tangency_check,
)
from wonderland.poly import MultiPoly
from wonderland.reports import ExperimentConfig, run_experiment
from wonderland.sampling import RationalStream

from references import gram_matrix, rational, value


@pytest.fixture(scope="module")
def ctx():
    sl2 = build_sl(2)
    double, form = double_algebra(sl2)
    return {
        "sl2": sl2,
        "double": double,
        "form": form,
        "model": Pgl2Model(sl2),
        "grass": GrassmannModel(sl2, double, form),
        "split": standard_splitting(sl2),
    }


def report(num, name, started, budget):
    elapsed = time.monotonic() - started
    print("ACCEPTANCE %d (%s): PASS in %.2fs (budget %ds)" % (num, name, elapsed, budget))
    assert elapsed < budget


def test_criterion_1_lie_core_exactness(ctx):
    started = time.monotonic()
    for n in (2, 3):
        alg = build_sl(n)  # construction validates antisymmetry + Jacobi
        z = [Q(0)] * alg.dim
        for i in range(alg.dim):
            for j in range(alg.dim):
                for k in range(alg.dim):
                    assert alg.jacobi_vector(i, j, k) == z
    kf = killing_form(ctx["sl2"])
    assert gram_matrix(kf) == Matrix([[0, 0, 4], [0, 8, 0], [4, 0, 0]])
    assert kf.ad_invariance_residuals(ctx["sl2"]) == []
    report(1, "lie core exactness", started, 1)


def test_criterion_2_splitting_axioms(ctx):
    started = time.monotonic()
    s = ctx["split"]
    ok1, cert1 = is_lagrangian(s.double, s.form, s.x_basis)
    ok2, cert2 = is_lagrangian(s.double, s.form, s.y_basis)
    assert ok1 and ok2, (cert1, cert2)
    xs, ys = rational(s.x_basis), rational(s.y_basis)
    assert Matrix(xs + ys).rank() == 6
    for i in range(3):
        for j in range(3):
            assert value(s.form, xs[i], ys[j]) == (1 if i == j else 0)
    report(2, "splitting axioms", started, 1)


def test_criterion_3_wonderful_geometry(ctx):
    started = time.monotonic()
    model, grass = ctx["model"], ctx["grass"]
    stream = RationalStream(2024)
    # orbit sweep: exactly the two dimensions {3, 2}
    dims = set()
    for _ in range(8):
        p = ProjMatrixPoint(stream.invertible2())
        dims.add(grass.orbit_dimension(model.lagrangian_of(p)))
        b = ProjMatrixPoint(stream.rank_one2())
        dims.add(grass.orbit_dimension(model.lagrangian_of(b)))
    assert dims == {3, 2}
    # boundary is exactly the vanishing of the determinant
    for _ in range(20):
        assert ProjMatrixPoint(stream.rank_one2()).is_boundary()
        assert not ProjMatrixPoint(stream.invertible2()).is_boundary()
    # segre round trip on 100 seeded boundary points
    for _ in range(100):
        p = ProjMatrixPoint(stream.rank_one2())
        u, v = model.segre_factor(p)
        assert segre(u, v) == p
    # the correspondence is 3-dimensional and Lagrangian at 100 seeded points
    for k in range(100):
        p = (
            ProjMatrixPoint(stream.rank_one2())
            if k % 2
            else ProjMatrixPoint(stream.nonzero_vector(4))
        )
        model.lagrangian_of(p, ctx["double"], ctx["form"])  # raises unless both hold
    report(3, "wonderful geometry", started, 10)


def test_criterion_4_poisson_identities(ctx):
    started = time.monotonic()
    model, split = ctx["model"], ctx["split"]
    # Jacobi: all coordinate triples, 50 seeded points per chart
    for k in range(4):
        chart = ProjChart(k)
        field = splitting_bivector_field(model, chart, split)
        stream = RationalStream(3000 + k)
        for _ in range(50):
            z = stream.vector(3)
            assert all(v == 0 for _, v in jacobi_sweep(field, z))
    # the field vanishes at the identity point
    ch0 = ProjChart(0)
    f0 = splitting_bivector_field(model, ch0, split)
    assert f0.value_at(ch0.coords_of(ProjMatrixPoint([1, 0, 0, 1]))).is_zero()
    # multiplicativity at 50 seeded pairs
    stream = RationalStream(3100)
    for _ in range(50):
        p1 = GroupPair(stream.sl2(), stream.sl2())
        p2 = GroupPair(stream.sl2(), stream.sl2())
        assert multiplicativity_residual(model, split, p1, p2).passed
    # the action equation at 50 seeded (pair, point) samples
    stream = RationalStream(3200)
    for k in range(50):
        pair = GroupPair(stream.sl2(), stream.sl2())
        point = (
            ProjMatrixPoint(stream.rank_one2())
            if k % 3 == 2
            else ProjMatrixPoint(stream.nonzero_vector(4))
        )
        assert poisson_action_residual(model, split, pair, point).passed
    # diagonal action on two factors at 25 seeded samples
    stream = RationalStream(3300)
    for _ in range(25):
        g = stream.sl2()
        pts = (
            ProjMatrixPoint(stream.nonzero_vector(4)),
            ProjMatrixPoint(stream.nonzero_vector(4)),
        )
        assert diagonal_action_residual(model, split, GroupPair(g, g), pts).passed
    # divisor tangency at 20 boundary points, negative control fails
    stream = RationalStream(3400)
    done = 0
    fields = {0: f0}
    while done < 20:
        p = ProjMatrixPoint(stream.rank_one2())
        k = p.chart_index()
        chart = ProjChart(k)
        if k not in fields:
            fields[k] = splitting_bivector_field(model, chart, split)
        assert tangency_check(fields[k], [chart.det_poly()], chart.coords_of(p), "tangency").passed
        done += 1
    hyper = MultiPoly.var(ch0.variables, "b") - 1
    control = tangency_check(f0, [hyper], [Q(1), stream.take(), stream.take()], "tangency")
    assert not control.passed
    report(4, "poisson identities", started, 300)


def test_criterion_5_invariant_theory(ctx):
    started = time.monotonic()
    act1 = conjugation_action(ctx["sl2"], 1)
    v = act1.variables
    s1 = invariants_of_degree(act1, (1,))
    s2 = invariants_of_degree(act1, (2,))
    assert (s1.dimension, s2.dimension) == (1, 2)
    assert s1.contains(trace_of_word(v, (1,)))
    assert s2.contains(trace_of_word(v, (1,)) ** 2)
    assert s2.contains(det_of_factor(v, 1))
    act2 = conjugation_action(ctx["sl2"], 2)
    v2 = act2.variables
    s11 = invariants_of_degree(act2, (1, 1))
    assert s11.dimension == 2
    assert s11.contains(trace_of_word(v2, (1,)) * trace_of_word(v2, (2,)))
    assert s11.contains(trace_of_word(v2, (1, 2)))
    fixture = RepresentationPoint(
        [Matrix([[1, 1], [0, 1]]), Matrix([[1, 0], [1, 1]])]
    )
    assert trace_point(fixture) == (2, 2, 3)
    report(5, "invariant theory", started, 30)


def test_criterion_6_appendix_realized(ctx):
    started = time.monotonic()
    model, split = ctx["model"], ctx["split"]
    from wonderland.gitq import product_bracket_residual, projection_poisson_residual

    surr = pgl2_surrogates(2)
    v2 = m2_variables(2)
    phi1 = ProjectiveInvariant(
        "phi1", trace_of_word(v2, (1,)) ** 2, det_of_factor(v2, 1), 2
    )
    phi2 = ProjectiveInvariant(
        "phi2",
        trace_of_word(v2, (1, 2)) ** 2,
        det_of_factor(v2, 1) * det_of_factor(v2, 2),
        2,
    )
    stream = RationalStream(6100)
    for _ in range(50):
        pair = GroupPair(stream.sl2(), stream.sl2())
        pts = (
            ProjMatrixPoint(stream.invertible2()),
            ProjMatrixPoint(stream.invertible2()),
        )
        assert projection_poisson_residual(model, split, pair, pts, surr[0], surr[2]).passed
    pair = GroupPair(stream.sl2(), stream.sl2())
    pts = (ProjMatrixPoint(stream.invertible2()), ProjMatrixPoint(stream.invertible2()))
    assert product_bracket_residual(model, split, pair, pts, phi1, surr[0], phi2, surr[2]).passed
    # closure for all surrogate generator pairs at 25 seeded samples
    stream = RationalStream(6200)
    gens = surr[:3]
    for _ in range(25):
        pts = (
            ProjMatrixPoint(stream.invertible2()),
            ProjMatrixPoint(stream.invertible2()),
        )
        c = stream.sl2()
        for i in range(3):
            for j in range(i + 1, 3):
                assert invariant_bracket_closure(
                    model, split, gens[i], gens[j], pts, c, "bracket-closure"
                ).passed
    # chart gluing at 20 overlap samples
    chart_f = AffineChartQuotient("trAB", trace_of_word(v2, (1, 2)), (1, 1), 2, (0, 0))
    chart_g = AffineChartQuotient(
        "detAdetB", det_of_factor(v2, 1) * det_of_factor(v2, 2), (2, 2), 2, (3, 3)
    )
    stream = RationalStream(6300)
    samples = []
    while len(samples) < 20:
        a, b = stream.invertible2(), stream.invertible2()
        pa, pb = ProjMatrixPoint(a), ProjMatrixPoint(b)
        if 0 in (pa.vec[0], pa.vec[3], pb.vec[0], pb.vec[3]):
            continue
        if (a * b).data[0][0] + (a * b).data[1][1] == 0:
            continue
        samples.append((pa, pb))
    residuals = glue_consistency(
        model, split, chart_f, chart_g, [surr[0], surr[2], surr[3]], samples
    )
    assert residuals and all(r.passed for r in residuals)
    # rank-1 quotient bracket table identically zero
    stream = RationalStream(6400)
    s1 = pgl2_surrogates(1)
    pts1 = [(ProjMatrixPoint(stream.invertible2()),) for _ in range(5)]
    conjs = [stream.sl2() for _ in range(5)]
    table, failures = quotient_bracket_table(model, split, s1, pts1, conjs)
    assert failures == []
    assert all(x == "0" for row in table for line in row["entries"] for x in line)
    report(6, "appendix realized", started, 300)


def test_criterion_7_boundary_strata(ctx):
    started = time.monotonic()
    model = ctx["model"]
    stream = RationalStream(7000)
    # equivariant stratification at 50 seeded samples
    for k in range(50):
        pts = (
            ProjMatrixPoint(stream.rank_one2())
            if k % 2
            else ProjMatrixPoint(stream.invertible2()),
            ProjMatrixPoint(stream.rank_one2())
            if k % 3
            else ProjMatrixPoint(stream.invertible2()),
        )
        g = stream.sl2()
        moved = tuple(model.act(GroupPair(g, g), p) for p in pts)
        s1 = stratify(model, pts)
        s2 = stratify(model, moved)
        assert s1.signature == s2.signature
        for (k1, d1), (k2, d2) in zip(s1.factors, s2.factors):
            assert k1 == k2
            if k1 == "boundary":
                assert d2 == line_action_on_boundary_pair(g, *d1)
    # the four-line invariant pencil has dimension exactly 2
    sp = parabolic_invariants(ctx["sl2"], ["line"] * 4, (1, 1, 1, 1))
    weights = {0: 1}
    for _ in range(4):
        new = {}
        for w, m in weights.items():
            for dw in (1, -1):
                new[w + dw] = new.get(w + dw, 0) + m
        weights = new
    assert sp.dimension == 2 == weights[0] - weights[2]
    # saturation separation for all seeded interior/boundary pairs
    ring = GradedInvariantRing(ctx["sl2"], 1, 2)
    stream = RationalStream(7100)
    interior = [(ProjMatrixPoint(stream.invertible2()),) for _ in range(5)]
    boundary = [(ProjMatrixPoint(stream.rank_one2()),) for _ in range(5)]
    checks, _ = divisor_saturation(ring, interior, boundary)
    assert checks and all(c.passed for c in checks)
    report(7, "boundary strata", started, 60)


def test_criterion_8_determinism_and_budget(ctx):
    started = time.monotonic()
    cfg = ExperimentConfig(experiment="all", samples=20, seed=42)
    rep1 = run_experiment(cfg)
    rep2 = run_experiment(ExperimentConfig(experiment="all", samples=20, seed=42))
    assert rep1.failed == 0
    assert rep1.serialize() == rep2.serialize()
    elapsed = time.monotonic() - started
    assert elapsed < 900
    report(8, "determinism and budget", started, 900)
