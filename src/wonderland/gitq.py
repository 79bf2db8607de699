"""Poisson GIT quotients through their invariant rings and chart covers.

The quotient of a projective (product) compactification by conjugation is
represented by its graded invariant ring, the affine charts where a chosen
homogeneous invariant is nonzero, and evaluators for degree-zero fractions
on those charts.  Everything downstream consumes evaluations and bracket
tables, so no abstract variety objects appear.
"""

from fractions import Fraction

from wonderland.geometry import (
    ChartDomainError,
    ProductChart,
    ProjChart,
    ProjMatrixPoint,
    flat_from_mat2,
)
from wonderland.invariants import (
    ProjectiveInvariant,
    conjugation_action,
    det_of_factor,
    invariant_bracket_closure,
    invariants_of_degree,
    m2_variables,
    trace_of_word,
)
from wonderland.linalg import qstr
from wonderland.poisson import (
    function_jacobiators,
    mixed_product_field,
    mixed_value_in_charts,
    mixed_wedges,
    pi_wedges,
    projected_bivector,
    residual_from_values,
)

Q = Fraction


class GradedInvariantRing:
    """Per-degree invariant dimensions up to a bound, with chosen generators.

    Degree zero is spanned by the constants; each generator is re-verified
    against the kernel space of its degree.
    """

    def __init__(self, sl2, factors, bound=4):
        if bound < 0:
            raise ValueError("degree bound must be >= 0")
        self.factors = factors
        self.bound = bound
        self.action = conjugation_action(sl2, factors)
        v = self.action.variables
        if factors == 1:
            self.generators = [
                ("tr", trace_of_word(v, (1,)), (1,)),
                ("det", det_of_factor(v, 1), (2,)),
            ]
            degrees = [(d,) for d in range(bound + 1)]
        elif factors == 2:
            self.generators = [
                ("trA", trace_of_word(v, (1,)), (1, 0)),
                ("trB", trace_of_word(v, (2,)), (0, 1)),
                ("trAB", trace_of_word(v, (1, 2)), (1, 1)),
                ("detA", det_of_factor(v, 1), (2, 0)),
                ("detB", det_of_factor(v, 2), (0, 2)),
            ]
            degrees = [(i, j) for i in range(bound + 1) for j in range(bound + 1)]
        else:
            raise ValueError("rings are provided for one or two factors")
        self.spaces = {}
        for deg in degrees:
            self.spaces[deg] = invariants_of_degree(self.action, deg)
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

    def value(self, points):
        return self.poly.eval([x for p in points for x in p.vec])

    def contains(self, points):
        return self.value(points) != 0

    def route_charts(self):
        return [ProjChart(k) for k in self.route]

    def fraction(self, name, h, power=1):
        """The degree-0 fraction h / f^power, validated multihomogeneous."""
        den = self.poly**power
        return ProjectiveInvariant(name, h, den, self.factors)


def semistable_charts(ring):
    """One chart per ring generator, with a fixed evaluation route."""
    routes = {1: [(0,), (3,)], 2: [(0, 0), (3, 3), (0, 3), (3, 0), (1, 2)]}
    out = []
    for idx, (name, poly, deg) in enumerate(ring.generators):
        route = routes[ring.factors][idx % len(routes[ring.factors])]
        out.append(AffineChartQuotient(name, poly, deg, ring.factors, route))
    return out


def cover_report(charts, samples):
    """Which chart covers each sample; empty cover flags a candidate
    unstable point (every homogeneous invariant vanishes there)."""
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
    return [ProjMatrixPoint(flat_from_mat2(pair.g)), ProjMatrixPoint(flat_from_mat2(pair.h))]


def product_bivector(model, splitting, pair, points):
    """The product structure on (G x G) x X^n at one sample: the group
    block, the mixed block, and no cross terms.  Returns the charts at
    [g], [h] and the points, those points, and the bivector."""
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


def product_bracket_residual(model, splitting, pair, points, phi1, f1, phi2, f2):
    """The product-bracket identity at one sample of (G x G) x X^n:
    contracting the product bivector against the gradients of phi (x) f
    equals {phi1,phi2}_G f1 f2 + phi1 phi2 {f1,f2}_X, exactly."""
    charts, pts, L = product_bivector(model, splitting, pair, points)
    pair_charts, x_charts = charts[:2], charts[2:]
    pair_pc = ProductChart(pair_charts)
    z_pair = pair_pc.coords_of(pts[:2])
    x_pc = ProductChart(x_charts)
    z_x = x_pc.coords_of(pts[2:])

    rphi1, rphi2 = phi1.restrict(pair_pc), phi2.restrict(pair_pc)
    rf1, rf2 = f1.restrict(x_pc), f2.restrict(x_pc)

    phi1_v, phi2_v = rphi1.eval(z_pair), rphi2.eval(z_pair)
    f1_v, f2_v = rf1.eval(z_x), rf2.eval(z_x)

    grad1 = rphi1.grad_at(z_pair)
    grad2 = rphi2.grad_at(z_pair)
    gf1 = rf1.grad_at(z_x)
    gf2 = rf2.grad_at(z_x)

    # gradient of (phi (x) f) on the product
    full1 = [x * f1_v for x in grad1] + [x * phi1_v for x in gf1]
    full2 = [x * f2_v for x in grad2] + [x * phi2_v for x in gf2]
    lhs = L.bracket_eval(full1, full2)

    pair_reps = [model.rep(p) for p in pts[:2]]
    Lg = projected_bivector(
        pair_charts, pair_reps, pi_wedges(model, splitting, pair_reps[0], pair_reps[1])
    )
    g_bracket = Lg.bracket_eval(grad1, grad2)
    Lx = mixed_value_in_charts(model, splitting, points, x_charts)
    x_bracket = Lx.bracket_eval(gf1, gf2)
    rhs = g_bracket * f1_v * f2_v + phi1_v * phi2_v * x_bracket
    return residual_from_values(
        "product-bracket",
        {"phi": (phi1.name, phi2.name), "f": (f1.name, f2.name)},
        [lhs - rhs],
        details={"value": qstr(lhs)},
    )


def projection_poisson_residual(model, splitting, pair, points, f1, f2):
    """Pullbacks along the projection to X bracket to the pullback of the
    X-bracket: the projection is a Poisson map for the product structure."""
    charts, pts, L = product_bivector(model, splitting, pair, points)
    x_charts = charts[2:]
    x_pc = ProductChart(x_charts)
    z_x = x_pc.coords_of(pts[2:])
    rf1, rf2 = f1.restrict(x_pc), f2.restrict(x_pc)
    gf1 = rf1.grad_at(z_x)
    gf2 = rf2.grad_at(z_x)
    npair = sum(c.dim for c in charts[:2])
    pull1 = [Q(0)] * npair + gf1
    pull2 = [Q(0)] * npair + gf2
    lhs = L.bracket_eval(pull1, pull2)
    Lx = mixed_value_in_charts(model, splitting, points, x_charts)
    rhs = Lx.bracket_eval(gf1, gf2)
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

    Every pair is first run through the closure check at every sample.  A
    failure leaves the quotient bracket undefined there, so its residual,
    which names the pair and the points, is returned beside the table for
    the report to record.  The table records {g_i, g_j} values per sample,
    which are exactly antisymmetric.
    """
    failures = []
    for i, f in enumerate(invariants):
        for g in invariants[i + 1 :]:
            for pts, c in zip(samples, conjugators):
                res = invariant_bracket_closure(model, splitting, f, g, pts, c)
                if not res.passed:
                    failures.append(res)
    table = []
    for pts in samples:
        charts = [model.chart_at(p) for p in pts]
        L = mixed_value_in_charts(model, splitting, pts, charts)
        grads = [f.chart_grad_at(charts, pts) for f in invariants]
        entries = [[Q(0)] * len(invariants) for _ in invariants]
        for i in range(len(invariants)):
            for j in range(i + 1, len(invariants)):
                v = L.bracket_eval(grads[i], grads[j])
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
    residuals = []
    for pts in samples:
        if not (chart_f.contains(pts) and chart_g.contains(pts)):
            residuals.append(
                residual_from_values(
                    "glue/%s-%s" % (chart_f.name, chart_g.name),
                    {"points": [repr(p) for p in pts], "skipped": "outside overlap"},
                    [],
                )
            )
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
            residuals.append(
                residual_from_values(
                    "glue/%s-%s" % (chart_f.name, chart_g.name),
                    {"points": [repr(p) for p in pts], "skipped": "outside route charts"},
                    [],
                )
            )
            continue
        (Lf, grads_f), (Lg, grads_g) = routes
        for a in range(len(fractions)):
            for b in range(a + 1, len(fractions)):
                va = Lf.bracket_eval(grads_f[a], grads_f[b])
                vb = Lg.bracket_eval(grads_g[a], grads_g[b])
                residuals.append(
                    residual_from_values(
                        "glue/%s-%s" % (chart_f.name, chart_g.name),
                        {
                            "points": [repr(p) for p in pts],
                            "pair": (fractions[a].name, fractions[b].name),
                        },
                        [va - vb],
                        details={"value": qstr(va)},
                    )
                )
    return residuals


# ---------------------------------------------------------------------------
# divisor saturation: invariants separate boundary from interior
# ---------------------------------------------------------------------------


def separation_report(pairs_of_invariants, point_a, point_b):
    """Look for a same-degree invariant pair whose projective values differ
    at the two samples; returns the separating pair or None."""
    flat_a = [x for p in point_a for x in p.vec]
    flat_b = [x for p in point_b for x in p.vec]
    for name1, h1, name2, h2 in pairs_of_invariants:
        va = (h1.eval(flat_a), h2.eval(flat_a))
        vb = (h1.eval(flat_b), h2.eval(flat_b))
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


def _all_invariants_vanish(pairs, points):
    flat = [x for p in points for x in p.vec]
    for _, h1, _, h2 in pairs:
        if h1.eval(flat) != 0 or h2.eval(flat) != 0:
            return False
    return True


def divisor_saturation(model, ring, interior_samples, boundary_samples):
    """Boundary and interior samples are never identified: either some
    projective pair of homogeneous invariants separates them, or the
    boundary sample is unstable (every invariant vanishes) and has no image
    in the semistable quotient at all.  Boundary/boundary pairs are
    reported, not asserted (their orbits may be identified)."""
    if ring.factors == 1:
        v = m2_variables(1)
        pairs = [("tr2", trace_of_word(v, (1,)) ** 2, "det", det_of_factor(v, 1))]
    else:
        v = m2_variables(2)
        pairs = [
            ("trA2", trace_of_word(v, (1,)) ** 2, "detA", det_of_factor(v, 1)),
            ("trB2", trace_of_word(v, (2,)) ** 2, "detB", det_of_factor(v, 2)),
            (
                "trAB2",
                trace_of_word(v, (1, 2)) ** 2,
                "detAdetB",
                det_of_factor(v, 1) * det_of_factor(v, 2),
            ),
        ]
    checks = []
    for b in boundary_samples:
        unstable = _all_invariants_vanish(pairs, b)
        for a in interior_samples:
            if unstable:
                checks.append(
                    residual_from_values(
                        "saturation-separation",
                        {
                            "interior": [repr(p) for p in a],
                            "boundary": [repr(p) for p in b],
                        },
                        [Q(0)],
                        details={"unstable_boundary": True},
                    )
                )
                continue
            sep = separation_report(pairs, a, b)
            checks.append(
                residual_from_values(
                    "saturation-separation",
                    {"interior": [repr(p) for p in a], "boundary": [repr(p) for p in b]},
                    [Q(0) if sep else Q(1)],
                    details=sep or {"reason": "no separating pair found"},
                )
            )
    reports = []
    for i in range(len(boundary_samples)):
        for j in range(i + 1, len(boundary_samples)):
            sep = separation_report(pairs, boundary_samples[i], boundary_samples[j])
            reports.append(
                {
                    "points": [
                        [repr(p) for p in boundary_samples[i]],
                        [repr(p) for p in boundary_samples[j]],
                    ],
                    "separated": bool(sep),
                    "witness": sep,
                }
            )
    return checks, reports
