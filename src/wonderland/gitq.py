"""Poisson GIT quotients through their invariant rings and chart covers.

The quotient of a projective (product) compactification by conjugation is
represented by its graded invariant ring, the affine charts where a chosen
homogeneous invariant is nonzero, and evaluators for degree-zero fractions
on those charts.  Everything downstream consumes evaluations and bracket
tables, so no abstract variety objects appear.

Importing this module loads ``backend``, ``linalg``, ``poly`` and
``invariants`` only; what reads charts or brackets imports ``geometry`` or
``poisson`` when called.
"""

from fractions import Fraction
from itertools import combinations, product

from wonderland.invariants import (
    closure_residual,
    conjugated,
    conjugation_action,
    invariants_of_degree,
    trace_coordinates,
    traces_over_dets,
)
from wonderland.linalg import covector, qstr
from wonderland.poly import MonomialTable


class GradedInvariantRing:
    """Per-multidegree invariant dimensions up to a bound in each factor,
    for one or two matrix factors, with the trace coordinates as generators
    (``invariants.trace_coordinates``).

    Degree zero is spanned by the constants; each generator is re-verified
    against the kernel space of its degree.
    """

    def __init__(self, sl2, factors, bound):
        if bound < 0:
            raise ValueError("degree bound must be >= 0")
        if factors not in (1, 2):
            raise ValueError("rings are provided for one or two factors")
        self.factors = factors
        self.bound = bound
        self.action = conjugation_action(sl2, factors)
        self.generators = trace_coordinates(factors)
        self.spaces = {
            deg: invariants_of_degree(self.action, deg)
            for deg in product(range(bound + 1), repeat=factors)
        }
        zero_deg = tuple([0] * factors)
        if self.spaces[zero_deg].dimension != 1:
            raise AssertionError("degree zero is not spanned by constants")
        for name, poly, deg in self.generators:
            if deg in self.spaces and not self.spaces[deg].contains(poly):
                raise AssertionError("generator %s fails its kernel space" % name)

    def dimensions(self):
        return {deg: sp.dimension for deg, sp in sorted(self.spaces.items())}

    def to_json(self):
        return {
            "factors": self.factors,
            "degree_bound": self.bound,
            "dimensions": [
                {"degree": list(d), "dimension": s.dimension}
                for d, s in sorted(self.spaces.items())
            ],
            "generators": [
                {"name": n, "degree": list(d), "poly": p.to_json()}
                for n, p, d in self.generators
            ],
        }


class AffineChartQuotient:
    """The open piece where a homogeneous invariant f is nonzero.

    Functions on it are degree-zero fractions h / f^r; ``route`` fixes the
    ambient affine charts (one normalization index per factor) through which
    bracket computations on this piece are routed.
    """

    def __init__(self, name, poly, degree, factors, route):
        self.name = name
        self.poly = poly
        self.degree = degree
        self.factors = factors
        self.route = tuple(route)
        self.table = MonomialTable([[poly]])

    def contains(self, points):
        ((ints, _),) = self.table.values([x for p in points for x in p.vec])
        return ints[0] != 0

    def route_charts(self):
        from wonderland.geometry import ProjChart

        return [ProjChart(k) for k in self.route]


def semistable_charts(ring):
    """The charts {s != 0} that cover the semistable locus of the
    linearization O(1, ..., 1), one per invariant s that generates the
    invariants of diagonal degree (d, ..., d), each with a fixed evaluation
    route.  A tuple is semistable exactly when some invariant of diagonal
    degree is nonzero there, so exactly when one of these charts holds it.

    One factor: tr and det.  Two factors: trA trB, trAB, detA detB,
    trA^2 detB and trB^2 detA; a trace coordinate such as trB of degree
    (0, 1) is no test there, since ([E12], [I]) has trB = 2 but
    diag(t, 1/t) destabilises it."""
    if ring.factors == 1:
        invariants = ring.generators
    else:
        (_, trA, _), (_, trB, _), trAB, (_, detA, _), (_, detB, _) = ring.generators
        invariants = [
            ("trA*trB", trA * trB, (1, 1)),
            trAB,
            ("detA*detB", detA * detB, (2, 2)),
            ("trA^2*detB", trA**2 * detB, (2, 2)),
            ("trB^2*detA", trB**2 * detA, (2, 2)),
        ]
    routes = {1: [(0,), (3,)], 2: [(0, 0), (3, 3), (0, 3), (3, 0), (1, 2)]}[ring.factors]
    return [
        AffineChartQuotient(name, poly, deg, ring.factors, route)
        for (name, poly, deg), route in zip(invariants, routes)
    ]


def cover_report(charts, samples):
    """Which of the ``semistable_charts`` cover each sample; a sample that
    none covers is unstable (every invariant of diagonal degree vanishes
    there)."""
    rows = []
    for pts in samples:
        covering = [c.name for c in charts if c.contains(pts)]
        rows.append(
            {
                "point": [repr(p) for p in pts],
                "charts": covering,
                "semistable": bool(covering),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# the product bracket on (G x G) x X and the projection identity
# ---------------------------------------------------------------------------


def _pair_points(pair):
    """[g] and [h] as points of P(M_2)."""
    from wonderland.geometry import ProjMatrixPoint, flat_from_mat2

    return [ProjMatrixPoint(flat_from_mat2(pair.g)), ProjMatrixPoint(flat_from_mat2(pair.h))]


def product_bivector(model, splitting, pair, points):
    """The product structure on (G x G) x X^n at one sample: the group
    block, the mixed block, and no cross terms.  Returns the charts at
    [g], [h] and the points, those points, and the bivector."""
    from wonderland.poisson import mixed_wedges, pi_wedges, projected_bivector

    pts = _pair_points(pair) + list(points)
    charts = [model.chart_at(p) for p in pts]
    reps = [model.rep(p) for p in pts]
    nfac = len(pts)

    def pad(legs, offset):
        return tuple(
            legs[i - offset] if offset <= i < offset + len(legs) else None
            for i in range(nfac)
        )

    wedges = []
    for c, u, w in pi_wedges(model, splitting, reps[0], reps[1]):
        wedges.append((c, pad(u, 0), pad(w, 0)))
    for c, u, w in mixed_wedges(model, splitting, reps[2:]):
        wedges.append((c, pad(u, 2), pad(w, 2)))
    return charts, pts, projected_bivector(charts, reps, wedges)


def _x_side(model, splitting, pair, points, f1, f2):
    """The set-up both product identities share: the product bivector at
    [g], [h] and the points (its charts, points and value), then on the
    points' charts the restrictions of f1 and f2, their coordinates there,
    the restrictions' gradients, and {f1, f2}_X from the mixed bivector."""
    from wonderland.geometry import ProductChart
    from wonderland.poisson import mixed_value_in_charts

    charts, pts, L = product_bivector(model, splitting, pair, points)
    x_charts = charts[2:]
    x_pc = ProductChart(x_charts)
    z_x = x_pc.coords_of(pts[2:])
    rf = (f1.restrict(x_pc), f2.restrict(x_pc))
    gf1, gf2 = (r.grad_at(z_x) for r in rf)
    x_bracket = mixed_value_in_charts(model, splitting, points, x_charts).bracket_eval(gf1, gf2)
    return charts, pts, L, rf, z_x, (gf1, gf2), x_bracket


def product_bracket_residual(model, splitting, pair, points, phi1, f1, phi2, f2):
    """The product-bracket identity at one sample of (G x G) x X^n:
    contracting the product bivector against the gradients of phi (x) f
    equals {phi1,phi2}_G f1 f2 + phi1 phi2 {f1,f2}_X, exactly."""
    from wonderland.geometry import ProductChart
    from wonderland.poisson import pi_wedges, projected_bivector, residual_from_values

    charts, pts, L, (rf1, rf2), z_x, (gf1, gf2), x_bracket = _x_side(
        model, splitting, pair, points, f1, f2
    )
    pair_charts = charts[:2]
    pair_pc = ProductChart(pair_charts)
    z_pair = pair_pc.coords_of(pts[:2])
    rphi1, rphi2 = phi1.restrict(pair_pc), phi2.restrict(pair_pc)

    phi1_v, phi2_v = rphi1.eval(z_pair), rphi2.eval(z_pair)
    f1_v, f2_v = rf1.eval(z_x), rf2.eval(z_x)
    grad1 = rphi1.grad_at(z_pair)
    grad2 = rphi2.grad_at(z_pair)

    full1 = _product_grad(grad1, f1_v, gf1, phi1_v)
    full2 = _product_grad(grad2, f2_v, gf2, phi2_v)
    lhs = L.bracket_eval(full1, full2)

    pair_reps = [model.rep(p) for p in pts[:2]]
    Lg = projected_bivector(
        pair_charts, pair_reps, pi_wedges(model, splitting, pair_reps[0], pair_reps[1])
    )
    g_bracket = Lg.bracket_eval(grad1, grad2)
    rhs = g_bracket * f1_v * f2_v + phi1_v * phi2_v * x_bracket
    return residual_from_values(
        "product-bracket",
        {"phi": (phi1.name, phi2.name), "f": (f1.name, f2.name)},
        [lhs - rhs],
        details={"value": qstr(lhs)},
    )


def _product_grad(dphi, f, df, phi):
    """The covector of d(phi (x) f) = f dphi on the pair factors beside
    phi df on X, from the two gradients' covectors and the values."""
    (a, da), (b, db) = dphi, df
    d1, d2 = da * f.denominator, db * phi.denominator
    n1, n2 = f.numerator * d2, phi.numerator * d1
    return covector([x * n1 for x in a] + [x * n2 for x in b], d1 * d2)


def projection_poisson_residual(model, splitting, pair, points, f1, f2):
    """Pullbacks along the projection to X bracket to the pullback of the
    X-bracket: the projection is a Poisson map for the product structure."""
    from wonderland.poisson import residual_from_values

    charts, _, L, _, _, (gf1, gf2), rhs = _x_side(model, splitting, pair, points, f1, f2)
    npair = sum(c.dim for c in charts[:2])
    pull1, pull2 = (([0] * npair + g, d) for g, d in (gf1, gf2))
    lhs = L.bracket_eval(pull1, pull2)
    return residual_from_values(
        "projection-poisson",
        {"f": (f1.name, f2.name)},
        [lhs - rhs],
        details={"value": qstr(lhs)},
    )


# ---------------------------------------------------------------------------
# quotient bracket tables and gluing
# ---------------------------------------------------------------------------


def quotient_bracket_table(model, splitting, invariants, samples, conjugators):
    """The bracket table of the quotient at seeded samples, and the failing
    closure checks.

    At each sample the mixed bivector and every invariant's chart gradient
    are built once at the points and, when there is a pair, once at the
    points moved by the sample's conjugator; each pair's table entry and
    closure residual are read off those values.  A failing closure check
    leaves the quotient bracket undefined there, so its residual, which
    names the pair and the points, is returned beside the table for the
    report to record, pair by pair and sample by sample.  The table records
    {g_i, g_j} values per sample, which are exactly antisymmetric.
    """
    from wonderland.poisson import mixed_value_in_charts

    pairs = list(combinations(range(len(invariants)), 2))

    def brackets(points):
        charts = [model.chart_at(p) for p in points]
        L = mixed_value_in_charts(model, splitting, points, charts)
        grads = [f.chart_grad_at(charts, points) for f in invariants]
        return {(i, j): L.bracket_eval(grads[i], grads[j]) for i, j in pairs}

    before = [brackets(pts) for pts in samples]
    after = [
        brackets(conjugated(model, pts, c)) if pairs else {}
        for pts, c in zip(samples, conjugators)
    ]
    failures = [
        closure_residual(invariants[i], invariants[j], pts, b[i, j], a[i, j])
        for i, j in pairs
        for pts, b, a in zip(samples, before, after)
        if b[i, j] != a[i, j]
    ]
    table = []
    for pts, values in zip(samples, before):
        entries = [[Fraction(0)] * len(invariants) for _ in invariants]
        for (i, j), v in values.items():
            entries[i][j] = v
            entries[j][i] = -v
        table.append(
            {
                "points": [repr(p) for p in pts],
                "entries": [[qstr(x) for x in row] for row in entries],
            }
        )
    return table, failures


def quotient_jacobi_residual(model, splitting, invariants, points):
    """Jacobi for the induced bracket at one sample, computed upstairs
    through the mixed field on the product chart at the points, over every
    triple of the given functions: one sweep of the field, contracted with
    the functions' chart gradients."""
    from wonderland.poisson import function_jacobiators, mixed_product_field, residual_from_values

    charts = [model.chart_at(p) for p in points]
    field = mixed_product_field(model, splitting, charts)
    grads = [f.chart_grad_at(charts, points) for f in invariants]
    vals = function_jacobiators(field, field.chart.coords_of(points), grads)
    return residual_from_values(
        "quotient-jacobi", {"points": [repr(p) for p in points]}, vals
    )


def glue_consistency(model, splitting, chart_f, chart_g, fractions, samples):
    """Brackets of overlap functions agree when computed through the two
    charts' evaluation routes, exactly.

    ``fractions`` are degree-0 functions defined on the overlap; each
    sample must lie in both quotient charts and in both ambient routes
    (otherwise it is reported as skipped)."""
    from wonderland.geometry import ChartDomainError
    from wonderland.poisson import mixed_wedges, projected_bivector, residual_from_values

    name = "glue/%s-%s" % (chart_f.name, chart_g.name)
    residuals = []
    for pts in samples:
        where = [repr(p) for p in pts]
        if not (chart_f.contains(pts) and chart_g.contains(pts)):
            skipped = {"points": where, "skipped": "outside overlap"}
            residuals.append(residual_from_values(name, skipped, []))
            continue
        # one wedge list per sample; one bivector and one gradient per
        # fraction along each route
        reps = [model.rep(p) for p in pts]
        wedges = mixed_wedges(model, splitting, reps)
        try:
            routes = []
            for quotient_chart in (chart_f, chart_g):
                charts = quotient_chart.route_charts()
                L = projected_bivector(charts, reps, wedges)
                routes.append((L, [fr.chart_grad_at(charts, pts) for fr in fractions]))
        except ChartDomainError:
            skipped = {"points": where, "skipped": "outside route charts"}
            residuals.append(residual_from_values(name, skipped, []))
            continue
        (Lf, grads_f), (Lg, grads_g) = routes
        for a, b in combinations(range(len(fractions)), 2):
            va = Lf.bracket_eval(grads_f[a], grads_f[b])
            vb = Lg.bracket_eval(grads_g[a], grads_g[b])
            sample = {"points": where, "pair": (fractions[a].name, fractions[b].name)}
            residuals.append(
                residual_from_values(name, sample, [va - vb], details={"value": qstr(va)})
            )
    return residuals


# ---------------------------------------------------------------------------
# divisor saturation: invariants separate boundary from interior
# ---------------------------------------------------------------------------


def _pair_values(pairs):
    """values(points): the two values of each (name, h1, name, h2) pair at
    the points, all read from one compiled ``MonomialTable``."""
    table = MonomialTable([[h for _, h1, _, h2 in pairs for h in (h1, h2)]])

    def values(points):
        ((ints, den),) = table.values([x for p in points for x in p.vec])
        vals = [Fraction(n, den) for n in ints]
        return list(zip(vals[::2], vals[1::2]))

    return values


def _separation(pairs, values_a, values_b):
    """The first pair whose projective values differ, from their values at
    the two samples, or None."""
    for (name1, _, name2, _), va, vb in zip(pairs, values_a, values_b):
        if va == (0, 0) or vb == (0, 0):
            # a candidate unstable point: every listed invariant vanishes
            continue
        if va[0] * vb[1] != va[1] * vb[0]:
            return {
                "pair": (name1, name2),
                "values_a": (qstr(va[0]), qstr(va[1])),
                "values_b": (qstr(vb[0]), qstr(vb[1])),
            }
    return None


def divisor_saturation(ring, interior_samples, boundary_samples):
    """Boundary and interior samples are never identified: either some
    projective pair of homogeneous invariants separates them, or the
    boundary sample is unstable (every invariant vanishes) and has no image
    in the semistable quotient at all.  Boundary/boundary pairs are
    reported, not asserted (their orbits may be identified).

    The pairs are read off ``ring.generators``: each trace t squared,
    against the product of the dets of the factors t involves.  Each pair
    is evaluated once per sample, through one ``MonomialTable``."""
    from wonderland.poisson import residual_from_values

    pairs = [
        (n + "2", t**2, dn, d) for (n, t, _), (dn, d, _) in traces_over_dets(ring.generators)
    ]
    evaluate = _pair_values(pairs)
    interior = [(a, evaluate(a)) for a in interior_samples]
    boundary = [(b, evaluate(b)) for b in boundary_samples]
    checks = []
    for b, vb in boundary:
        unstable = all(v == (0, 0) for v in vb)
        for a, va in interior:
            sample = {"interior": [repr(p) for p in a], "boundary": [repr(p) for p in b]}
            if unstable:
                values, details = [Fraction(0)], {"unstable_boundary": True}
            else:
                sep = _separation(pairs, va, vb)
                values = [Fraction(0) if sep else Fraction(1)]
                details = sep or {"reason": "no separating pair found"}
            checks.append(
                residual_from_values("saturation-separation", sample, values, details=details)
            )
    reports = []
    for (b1, v1), (b2, v2) in combinations(boundary, 2):
        sep = _separation(pairs, v1, v2)
        reports.append(
            {
                "points": [[repr(p) for p in b1], [repr(p) for p in b2]],
                "separated": bool(sep),
                "witness": sep,
            }
        )
    return checks, reports
