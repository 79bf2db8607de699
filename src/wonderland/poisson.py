"""Bivector fields on the compactification and their exact identities.

Every bivector here comes from wedge lists.  ``mixed_wedges`` gives
(1/2) sum_i lambda(x_i) ^ lambda(y_i) on each compactification factor plus
the cross terms coupling factors j < k through the dual pair (their sign,
MIXED_CROSS_SIGN, is forced by requiring the diagonal pair action to be
Poisson), and ``pi_wedges`` gives the pair-group bivector on G x G, the
right translate minus the left translate of the same wedge.  A leg is None
on a factor it does not touch, and a pair-group component is None where its
algebra element is zero.  The legs are flow tangents or translates, over
any ring of entries, so the same lists serve two ends:

* pointwise, at integer representatives, ``project_wedges`` replaces
  every leg by its chart coordinates, with one batch call of each chart's
  ``tangent_project_general`` per factor, which normalizes the factor's
  representative once and projects every distinct leg to integers over one
  denominator; over the factors' lcm D every leg is an integer vector,
  and it returns D^2 beside the projected wedges, whose coefficients it
  leaves as they are; ``projected_bivector`` sums them in integers with
  ``Bivector.from_wedges`` and puts D^2 into the denominator;
* symbolically, at the charts' parametrized representatives,
  ``polynomial_field`` projects them with ``project_normalized`` and sums
  them with ``linalg.wedge_sum`` into a ``BivectorField`` of polynomials
  (``splitting_bivector_field``, ``mixed_product_field``,
  ``pair_group_field``).

Every leg is an integer vector pointwise (and has integer coefficients
symbolically): the legs are built from the splitting's dual pairs scaled
to integers once (``DoubleSplitting.integer_pairs``, x_i = ix / dx and
y_i = iy / dy), so a wedge (1/2) x_i ^ y_i is listed as
(1 / (2 dx dy)) ix ^ iy.  Denominators live in the wedge coefficients and
in projectively scaled representatives: a representative and every leg
pushed or flowed with it may carry a common integer scale, which the
chart projection ignores, and the orbit legs made from ``adjoint`` (which
multiplies by the pair's scale s) have their coefficients divided by s^2.

Identity checks (Jacobi, multiplicativity, the action compatibility
equation, tangency to the boundary divisor) are all run at rational sample
points with zero-tolerance residuals.  A residual that is a difference of
bivectors, lhs - rhs (the action identity and multiplicativity), is
collected before it is expanded (``_collected``): each projected leg is
made its primitive integer vector, the coefficients of equal pairs of
primitive legs are summed in integers over both sides, and only the pairs
that do not cancel go to one ``from_wedges``.  Where the identity holds,
the sides agree wedge by wedge and that call gets an empty list; the
diagonal-action residual on several factors, whose orbit legs span all
factors and whose cross terms cancel only after the sum over the dual
basis, is expanded in full.  Field values are not collected, since nothing
cancels there.  Only the nonzero entries a residual prints become
``Fraction``s.
``jacobi_sweep`` reads the field values and their derivatives at a point
from the field's ``poly.MonomialTable`` (one evaluation per distinct
monomial) and sums every coordinate triple's Jacobiator in integers.  It
is the one Jacobi computation: the Jacobiator of any three functions is
its contraction with their gradients, given as covectors (integers over
one denominator, ``function_jacobiators``), and ``BivectorField.value_at``
hands the same table's integers to ``Bivector``.  ``tangency_check`` reads
each defining polynomial and its gradient through one ``poly.RationalFn``.

The action-compatibility identity pi_X(a.x) = a_* pi_X(x) + (orbit map)_*
pi_G(a) is computed by one pipeline, ``action_residual``, for both models
and any number of factors.  The left side is ``mixed_wedges`` at the
images' own representatives.  The right side sits at the sources'
representatives moved by the pair: the field at the sources with every leg
pushed, and ``orbit_wedges``, the group bivector's legs as flow tangents
there (the orbit map's derivative at (g, h) along (U, V) is the flow of
the double element (U g^{-1}, V h^{-1})).  A model supplies:

* ``rep(point)``, an integer ambient representative, and
  ``act(pair, point)``;
* ``flow_tangent(elem, rep)``, the tangent of a double element's flow at a
  representative;
* ``differentials(pair)``, a triple (push, adjoint, s): ``push`` moves
  representatives and ambient tangents by the action, ``adjoint`` is
  Ad_(g,h) on a double element, both in integers and both times the one
  scale s; they are built once per residual;
* ``chart_at(point)`` and ``action_sample(point, image)``, which names a
  one-point check and records its sample.

Each residual is a fixed polynomial (or rational) function of the sample of
bounded degree, so exact vanishing at more samples than that bound is strong
evidence for the identity, and every individual check is a proof at its
point.  For the coordinate-triple Jacobiator on a projective-model chart the
residual polynomial has total degree at most 7 (field entries are degree <= 4,
their derivatives degree <= 3); the default sweeps use well over 7 samples
per chart.  On P(M_2) the tests also prove it: the Jacobiators of the
splitting field, of the mixed field on every pair and triple of charts and
of the pair-group field on every pair of charts are zero polynomials.  On
Gr(3, 6) the Jacobiator is not the zero polynomial on a chart, and the
tests prove instead that it vanishes on the orbit of the diagonal, on the
chart at the diagonal and on a chart at a boundary point.
"""

from fractions import Fraction
from itertools import combinations, islice
from math import gcd, lcm

from wonderland.geometry import (
    GroupPair,
    ProductChart,
    ProjMatrixPoint,
    flat_from_mat2,
    flat_mul2,
)
from wonderland.linalg import (
    ZERO,
    Bivector,
    integer_rows,
    qstr,
    ratio,
    wedge_sum,
)
from wonderland.poly import MonomialTable, MultiPoly, RationalFn

# Sign of the cross terms coupling distinct factors of a product; -1 makes
# the diagonal action of the pair group exactly Poisson for the bivector
# conventions used here (+1 fails, see the negative-control test).
MIXED_CROSS_SIGN = -1


class IdentityResidual:
    """Outcome of one exact identity check at one sample."""

    __slots__ = ("name", "sample", "residual", "passed", "details")

    def __init__(self, name, sample, residual, passed, details=None):
        self.name = name
        self.sample = sample
        self.residual = residual
        self.passed = passed
        self.details = details or {}

    def to_json(self):
        out = {
            "name": self.name,
            "sample": self.sample,
            "residual": self.residual,
            "pass": self.passed,
        }
        if self.details:
            out["details"] = self.details
        return out


def residual_from_matrix(name, sample, bivector, details=None):
    ints = bivector.ints
    nonzero = islice(((i, j) for i, row in enumerate(ints) for j, x in enumerate(row) if x), 4)
    shown = [(i, j, qstr(Fraction(ints[i][j], bivector.den))) for i, j in nonzero]
    return IdentityResidual(
        name=name,
        sample=sample,
        residual="0" if not shown else repr(shown),
        passed=not shown,
        details=details or {},
    )


def residual_from_values(name, sample, values, details=None):
    bad = [qstr(v) for v in values if v != 0]
    return IdentityResidual(
        name=name,
        sample=sample,
        residual="0" if not bad else bad[0],
        passed=not bad,
        details=details or {},
    )


class BivectorField:
    """Antisymmetric matrix of polynomial entries over a chart."""

    def __init__(self, chart, entries):
        self.chart = chart
        self.entries = entries
        self._table = None
        k = len(entries)
        for i in range(k):
            for j in range(k):
                if not (entries[i][j] + entries[j][i]).is_zero():
                    raise ValueError("bivector field entries are not antisymmetric")

    @property
    def dim(self):
        return len(self.entries)

    def value_at(self, coords):
        """The bivector at a point, read from the compiled integer table."""
        (L, dl), _ = self.integer_values(coords)
        return Bivector.from_integers(L, dl)

    def integer_values(self, coords):
        """((L, dl), (dL, dd)): the field values L / dl and the derivative
        values dL / dd at a point, L and every dL[c] integer matrices,
        dL[c][i][j] that of d/dz_c of entry ij.  Each entry is
        differentiated once per field, at the first call, when the entries
        and derivatives are compiled into one ``MonomialTable``."""
        k = self.dim
        if self._table is None:
            flat = [p for row in self.entries for p in row]
            self._table = MonomialTable([flat, [p.diff(v) for v in self.chart.variables for p in flat]])
        (ent, dl), (der, dd) = self._table.values(coords)
        rows = [x[i : i + k] for x in (ent, der) for i in range(0, len(x), k)]
        return (rows[:k], dl), ([rows[c : c + k] for c in range(k, len(rows), k)], dd)

    def bracket_poly(self, f, g):
        """{f,g} as a polynomial: sum_ij L_ij df/dz_i dg/dz_j."""
        names = self.chart.variables
        df = [f.diff(v) for v in names]
        dg = [g.diff(v) for v in names]
        out = MultiPoly.zero(names)
        for i in range(self.dim):
            if df[i].is_zero():
                continue
            for j in range(self.dim):
                if dg[j].is_zero() or self.entries[i][j].is_zero():
                    continue
                out = out + self.entries[i][j] * df[i] * dg[j]
        return out


def polynomial_field(chart, factor_charts, ambs, wedges):
    """The bivector field of a wedge list whose legs were computed at the
    factor charts' parametrized representatives ``ambs``: each leg is
    projected there and a None leg is zero on its factor."""
    zero = MultiPoly.zero(chart.variables)

    def proj(legs):
        out = []
        for fc, amb, leg in zip(factor_charts, ambs, legs):
            out.extend([zero] * fc.dim if leg is None else fc.project_normalized(amb, leg))
        return out

    wedges = [(c, proj(u), proj(w)) for c, u, w in wedges]
    return BivectorField(chart, wedge_sum(chart.dim, wedges, zero))


def splitting_bivector_field(model, chart, splitting):
    """The splitting's bivector field on a compactification chart:
    (1/2) sum_i lambda(x_i) ^ lambda(y_i), exact polynomial entries."""
    amb = chart.ambient_polys()
    return polynomial_field(chart, [chart], [amb], mixed_wedges(model, splitting, [amb]))


def pair_group_field(model, chart_pair, splitting):
    """The pair-group bivector on a product chart of G x G: the right
    translate of the wedge minus the left translate."""
    if len(chart_pair.factors) != 2:
        raise ValueError("the group bivector lives on a two-factor chart")
    ambs = [chart_pair.ambient_polys(0), chart_pair.ambient_polys(1)]
    return polynomial_field(
        chart_pair, chart_pair.factors, ambs, pi_wedges(model, splitting, *ambs)
    )


def mixed_product_field(model, splitting, factor_charts):
    """The product field on compactification factors plus cross terms, on
    the product of the list ``factor_charts``.

    Block-diagonal copies of the one-factor field; for factors j < k the
    cross block couples lambda(y_i) on factor j with lambda(x_i) on factor k
    (see ``mixed_wedges``).
    """
    chart = ProductChart(factor_charts)
    ambs = [chart.ambient_polys(l) for l in range(len(factor_charts))]
    return polynomial_field(chart, factor_charts, ambs, mixed_wedges(model, splitting, ambs))


def mixed_value_in_charts(model, splitting, points, charts):
    """Pointwise mixed bivector at a tuple of points, projected into the
    given per-factor charts (which must contain the points)."""
    reps = [model.rep(p) for p in points]
    return projected_bivector(charts, reps, mixed_wedges(model, splitting, reps))


# ---------------------------------------------------------------------------
# pointwise values and pushforwards (used to transport both sides of the
# action identities into the chart at the image point)
# ---------------------------------------------------------------------------


def mixed_wedges(model, splitting, reps):
    """Pointwise wedge list of the mixed field on a tuple of factors.

    Each flow tangent is computed once per (basis element, factor) and
    shared by the diagonal and cross wedges; a leg is None on every factor
    it does not touch.  The cross terms' sign is ``MIXED_CROSS_SIGN``, read
    at each call."""
    n = len(reps)
    pairs = splitting.integer_pairs
    xs = [[model.flow_tangent(x, rep) for x, _, _ in pairs] for rep in reps]
    ys = [[model.flow_tangent(y, rep) for _, y, _ in pairs] for rep in reps]

    def emb(vec, l):
        return tuple(vec if m == l else None for m in range(n))

    out = []
    for l in range(n):
        for i, (_, _, d) in enumerate(pairs):
            out.append((Fraction(1, 2 * d), emb(xs[l][i], l), emb(ys[l][i], l)))
    for j in range(n):
        for k in range(j + 1, n):
            for i, (_, _, d) in enumerate(pairs):
                out.append((Fraction(MIXED_CROSS_SIGN, d), emb(ys[j][i], j), emb(xs[k][i], k)))
    return out


def pi_wedges(model, splitting, rep_g, rep_h):
    """Pair-group bivector wedges at flat 2x2 representatives, over any
    ring: legs (a G, b H) on the right and (G a, H b) on the left.  A
    component whose algebra element is zero is None."""
    reps = (rep_g, rep_h)

    def legs(elem):
        flats = model.elem_flats(elem)
        right = tuple(flat_mul2(a, r) if any(a) else None for a, r in zip(flats, reps))
        left = tuple(flat_mul2(r, a) if any(a) else None for a, r in zip(flats, reps))
        return right, left

    out = []
    for x, y, d in splitting.integer_pairs:
        (xr, xl), (yr, yl) = legs(x), legs(y)
        out.append((Fraction(1, 2 * d), xr, yr))
        out.append((Fraction(-1, 2 * d), xl, yl))
    return out


def project_wedges(charts, reps, wedges):
    """Project pointwise wedges into concatenated chart coordinates:
    (projected, D2), the wedge list with every leg replaced by its integer
    coordinate list and the scale D^2 of their sum.

    Each factor's distinct legs are projected by one batch call of its
    chart's ``tangent_project_general``, which normalizes the factor's
    representative once and returns integer coordinates over one
    denominator.  The factors are brought over one lcm D, so every leg is
    its integer list over D and the projected wedges, coefficients kept as
    they are, sum to D^2 times the bivector.  A leg that is None on a
    factor (absent there) or has no nonzero entry contributes zeros there
    without being projected: the projection is linear in the leg.
    Grassmannian legs are lists of rows, which ``any`` does not look into,
    so those are always projected."""
    batches = []
    for l, (chart, rep) in enumerate(zip(charts, reps)):
        legs = {}
        for _, u, w in wedges:
            for leg in (u[l], w[l]):
                if leg is not None and any(leg):
                    legs[id(leg)] = leg
        coords, den = chart.tangent_project_general(rep, list(legs.values())) if legs else ([], 1)
        batches.append((legs, coords, den))
    D = lcm(*(den for _, _, den in batches))
    projected = []
    for legs, coords, den in batches:
        s = D // den
        projected.append(dict(zip(legs, coords if s == 1 else [[s * x for x in c] for c in coords])))

    def proj(legs):
        out = []
        for chart, done, leg in zip(charts, projected, legs):
            coords = None if leg is None else done.get(id(leg))
            out.extend([0] * chart.dim if coords is None else coords)
        return out

    return [(c, proj(u), proj(w)) for c, u, w in wedges], D * D


def projected_bivector(charts, reps, wedges):
    """The ``Bivector`` of pointwise wedges in concatenated chart
    coordinates: ``project_wedges``, then one ``from_wedges``, whose
    denominator takes the scale D^2."""
    projected, d2 = project_wedges(charts, reps, wedges)
    out = Bivector.from_wedges(sum(c.dim for c in charts), projected)
    return Bivector.from_integers(out.ints, out.den * d2)


def _primitive_leg(leg):
    """(g, p) with leg = g p and p the primitive integer vector, as a
    tuple, whose first nonzero entry is positive; (0, None) for a zero
    leg."""
    g = gcd(*leg)
    if not g:
        return 0, None
    for x in leg:
        if x:
            if x < 0:
                g = -g
            break
    return g, tuple([x // g for x in leg])


def _collected(dim, lhs, rhs):
    """The ``Bivector`` lhs - rhs of a residual's two projected sides, each
    a pair (wedges, D2) as ``project_wedges`` returns it.

    Each leg is made its primitive integer vector and its gcd moves into
    the coefficient; the coefficients of identical (u, w) pairs of
    primitive legs are summed in integers over the lcm of their
    denominators, and only the pairs whose sum is not zero go to
    ``from_wedges``.  Where an identity holds, its two sides agree wedge by
    wedge and nothing is left to expand; where they do not, what is left is
    expanded as it stands.  The result is the rational matrix that
    ``from_wedges`` makes of the whole signed list."""
    terms = []
    den = 1
    for (wedges, d2), sign in ((lhs, 1), (rhs, -1)):
        for c, u, w in wedges:
            gu, pu = _primitive_leg(u)
            gw, pw = _primitive_leg(w)
            if c and gu and gw and pu != pw:
                d = c.denominator * d2
                den = lcm(den, d)
                terms.append((pu, pw, sign * c.numerator * gu * gw, d))
    sums = {}
    for pu, pw, n, d in terms:
        sums[pu, pw] = sums.get((pu, pw), 0) + n * (den // d)
    return Bivector.from_wedges(dim, [(Fraction(n, den), u, w) for (u, w), n in sums.items() if n])


def _mapped(wedges, maps):
    """The wedge list with each leg on factor l replaced by maps[l] of it;
    a leg shared by several wedges is mapped once, and None stays None."""
    done = {}

    def legs(u):
        out = []
        for l, (f, v) in enumerate(zip(maps, u)):
            if v is not None:
                key = (l, id(v))
                if key not in done:
                    done[key] = f(v)
                v = done[key]
            out.append(v)
        return tuple(out)

    return [(c, legs(u), legs(w)) for c, u, w in wedges]


def orbit_wedges(model, splitting, adjoint, scale, reps):
    """The orbit map's pushforward of the pair-group bivector at a = (g, h),
    as flow tangents at the moved representatives ``reps``.

    Along (U, V) at (g, h) the orbit map moves a.x by the flow of the double
    element (U g^{-1}, V h^{-1}).  The right legs (x G, ...) of pi_G(a) so
    give the flow of x itself, the left legs (G x, ...) the flow of
    Ad_a x; ``adjoint(x)`` is ``scale`` times that, so a left wedge's
    coefficient is divided by scale^2.  Every leg acts on all factors at
    once."""

    def legs(elem):
        return tuple(model.flow_tangent(elem, r) for r in reps)

    out = []
    for x, y, d in splitting.integer_pairs:
        out.append((Fraction(1, 2 * d), legs(x), legs(y)))
        out.append((Fraction(-1, 2 * d * scale * scale), legs(adjoint(x)), legs(adjoint(y))))
    return out


def multiplicativity_residual(model, splitting, pair1, pair2):
    """Exact residual of the group-bivector multiplicativity at two pair
    elements: value at the product minus left-translate of the second minus
    right-translate of the first, in the product chart at the product.

    The four matrices are scaled to integer flats over one denominator d
    and their products represent g1 g2 and h1 h2: every leg on a factor
    then carries the factor's scale d^2 together with its representative,
    which leaves the chart projections unchanged.  The value at the product
    and the two translates are projected in one batch and collected
    (``_collected``) as the two sides of the identity."""
    (g1, h1, g2, h2), _ = integer_rows(
        [flat_from_mat2(m) for m in (pair1.g, pair1.h, pair2.g, pair2.h)]
    )
    pg, ph = flat_mul2(g1, g2), flat_mul2(h1, h2)
    charts = [model.chart_at(ProjMatrixPoint(pg)), model.chart_at(ProjMatrixPoint(ph))]
    left = (lambda v: flat_mul2(g1, v), lambda v: flat_mul2(h1, v))
    right = (lambda v: flat_mul2(v, g2), lambda v: flat_mul2(v, h2))
    t1 = _mapped(pi_wedges(model, splitting, g2, h2), left)
    t2 = _mapped(pi_wedges(model, splitting, g1, h1), right)
    lhs = pi_wedges(model, splitting, pg, ph)
    wedges, d2 = project_wedges(charts, [pg, ph], lhs + t1 + t2)
    k = len(lhs)
    res = _collected(sum(c.dim for c in charts), (wedges[:k], d2), (wedges[k:], d2))
    return residual_from_matrix("pi-multiplicativity", {}, res)


def action_residual(model, splitting, pair, points):
    """The action-compatibility identity pi_X(a.x) = a_* pi_X(x) +
    (orbit map)_* pi_G(a) on a tuple of factors carrying the mixed field.

    Returns the image points and the ``Bivector`` lhs - t1 - t2 in the charts
    at the images.  lhs is the field at the images' own representatives;
    t1, the field at the sources pushed by the action, and t2, the group
    bivector's orbit legs (``orbit_wedges``), both sit at the pushed source
    representatives, so they are projected together, one batch per factor.
    The two projected sides are collected wedge by wedge (``_collected``)
    before the one ``from_wedges``."""
    images = [model.act(pair, p) for p in points]
    charts = [model.chart_at(im) for im in images]
    img_reps = [model.rep(im) for im in images]
    lhs = project_wedges(charts, img_reps, mixed_wedges(model, splitting, img_reps))
    push, adjoint, scale = model.differentials(pair)
    src_reps = [model.rep(p) for p in points]
    reps = [push(r) for r in src_reps]
    t1 = _mapped(mixed_wedges(model, splitting, src_reps), [push] * len(reps))
    t2 = orbit_wedges(model, splitting, adjoint, scale, reps)
    rhs = project_wedges(charts, reps, t1 + t2)
    return images, _collected(sum(c.dim for c in charts), lhs, rhs)


def poisson_action_residual(model, splitting, pair, point):
    """Exact residual of the action-compatibility identity at one sample,
    under the model's check name and sample record."""
    (image,), res = action_residual(model, splitting, pair, [point])
    name, sample = model.action_sample(point, image)
    return residual_from_matrix(name, sample, res)


def action_map_identities(model, pair, point, args):
    """The two map identities behind the action-compatibility equation,
    checked at explicit pair arguments: composing with right translation
    lands at the moved point; composing with left translation is the
    ambient action after the orbit map."""
    image = model.act(pair, point)
    vals = []
    for (u, v) in args:
        uv = GroupPair(u, v)
        lhs1 = model.act(uv, image)
        rhs1 = model.act(GroupPair(u * pair.g, v * pair.h), point)
        vals.append(Fraction(0) if lhs1 == rhs1 else Fraction(1))
        lhs2 = model.act(pair, model.act(uv, point))
        rhs2 = model.act(GroupPair(pair.g * u, pair.h * v), point)
        vals.append(Fraction(0) if lhs2 == rhs2 else Fraction(1))
    return residual_from_values(
        "action-map-identities", {"point": repr(point)}, vals
    )


def diagonal_action_residual(model, splitting, pair, points):
    """Exact residual of the Poisson condition for the (diagonal) pair action
    on a tuple of P(M_2) factors carrying the mixed product field; a
    diagonal pair must also act by conjugation.  With ``MIXED_CROSS_SIGN``
    flipped the identity breaks, the tests' negative control."""
    images, res = action_residual(model, splitting, pair, points)
    conj_ok = True
    if pair.g == pair.h:
        ginv = pair.g.inverse()
        conj_ok = all(
            ProjMatrixPoint(pair.g * p.matrix * ginv) == im
            for p, im in zip(points, images)
        )
    out = residual_from_matrix(
        "diagonal-action",
        {"points": [repr(p) for p in points]},
        res,
        details={"conjugation_action": conj_ok},
    )
    out.passed = out.passed and conj_ok
    return out


# ---------------------------------------------------------------------------
# Jacobi and tangency
# ---------------------------------------------------------------------------


def jacobi_sweep(field, coords):
    """All coordinate-triple Jacobiator values at one point:
    sum_b L[i][b] dL[b][j][k] + L[j][b] dL[b][k][i] + L[k][b] dL[b][i][j].

    The field values L and the entry derivatives dL come from the field's
    compiled integer table (``BivectorField.integer_values``), the sums run
    in integers over the nonzero L[i][b] only, and each triple's value
    becomes one ``Fraction``."""
    (L, dl), (dL, dd) = field.integer_values(coords)
    dim = field.dim
    nz = [[(dL[b], x) for b, x in enumerate(row) if x] for row in L]
    den = dl * dd
    out = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                acc = sum(x * d[j][k] for d, x in nz[i])
                acc += sum(x * d[k][i] for d, x in nz[j])
                acc += sum(x * d[i][j] for d, x in nz[k])
                out.append(((i, j, k), ratio(acc, den)))
    return out


def function_jacobiators(field, coords, grads):
    """The Jacobiator {f,{g,h}} + {g,{h,f}} + {h,{f,g}} at a point of every
    triple of functions, given by the covectors of their gradients there,
    in ``combinations`` order.

    The Jacobiator of functions is the Schouten trivector (1/2)[pi, pi]
    contracted with df ^ dg ^ dh: the second derivatives cancel.  So one
    ``jacobi_sweep`` gives the trivector's coordinate values J_ijk, and each
    triple's value is the sum over i < j < k of J_ijk det[df, dg, dh] on
    columns i, j, k, the minors taken in integers."""
    trivector = [(t, v) for t, v in jacobi_sweep(field, coords) if v]
    out = []
    for (df, fd), (dg, gd), (dh, hd) in combinations(grads, 3):
        total = ZERO
        for (i, j, k), v in trivector:
            minor = (
                df[i] * (dg[j] * dh[k] - dg[k] * dh[j])
                - df[j] * (dg[i] * dh[k] - dg[k] * dh[i])
                + df[k] * (dg[i] * dh[j] - dg[j] * dh[i])
            )
            total += v * minor
        out.append(total / (fd * gd * hd))
    return out


def tangency_check(field, defining, coords, name):
    """Whether the field restricts to the subvariety cut out by ``defining``
    polynomials at a point on it: every contraction with a defining
    differential must vanish as a vector, exactly.  Each F is read through
    one ``RationalFn``, its value and its gradient's covector."""
    fns = [RationalFn(F) for F in defining]
    if any(F.eval(coords) != 0 for F in fns):
        raise ValueError("sample point does not lie on the subvariety")
    L = field.value_at(coords)
    values = [x for F in fns for x in L.contract(F.grad_at(coords))]
    return residual_from_values(
        name, {"coords": [qstr(Fraction(c)) for c in coords]}, values
    )
