"""Points and charts of the wonderful compactification.

Two models:

* the explicit projective model P(M_2) for PGL_2, whose boundary is the
  rank-one (determinant zero) locus, factoring through the Segre embedding of
  P^1 x P^1; and
* the Grassmannian model for general sl_n: points are n-dimensional subspaces
  of the double d = g (+) g, stored as the primitive integer rows of their
  reduced echelon form, with the group pair acting through the adjoint
  representation on each summand.

Charts are affine: for P(M_2) the chart normalizing one matrix entry to 1,
for the Grassmannian the [I | C] chart after a column permutation.  A chart
is its normalizing index or its pivot set and nothing else, so a model's
``chart_at`` only reads that index off the point.  Each model has one
``flow_tangent``, the ambient tangent of a double element's flow at a
representative, and each chart one projection formula,
``project_normalized``, at a representative whose normalizing entry is c or
whose pivot block is c I (c^2 times the chart derivative).  Both use only
+ - x, so they run on ``MultiPoly`` entries (c = 1) and on integers alike.
``tangent_project_general`` projects a batch of tangents at one rational
representative: it scales the representative (for the Grassmannian, its
pivot-normalized form N = P R, P the pivot block's inverse from
``linalg.integer_inverse``, and P itself) to integers once per call,
scales all the tangents to integers over one denominator (a no-op for the
integer legs the Poisson residuals hand it), projects over the integers
and returns integer coordinates over one denominator; ``tangent_project``
is its one-tangent ``Fraction`` form.  ``infinitesimal_field`` runs the
flow at the chart's parametrized representative, which is already
normalized, and so gives the exact polynomial vector field on the chart.

Pointwise, no denominator is carried from flow to projection.  The
projection is projective: scaling a representative and every tangent at it
by one nonzero c (on the Grassmannian, each row of both by its own d_i)
leaves it unchanged.  So ``rep`` hands out integer representatives (the
primitive P(M_2) vector; the primitive echelon rows that a
``LagrangianPoint`` keeps), a model's ``differentials(pair)`` gives the
pair's ``push`` on representatives and tangents and its ``adjoint`` action
on double elements as integer maps that both multiply by one declared
scale s (P(M_2) scales g and h over one denominator d, s = d^2; the
Grassmannian builds the integer block B = d (Ad_g (+) Ad_h)^T once per
pair for both and for ``act``, s = d, from ``integer_adjoint``'s outer
products, and ``act`` row-reduces the integer rows it moves), and flow
tangents of integer double elements at integer representatives
are integer vectors.  The denominators that remain (the splitting's, and
s for legs made from ``adjoint``) live in the wedge coefficients.
"""

from fractions import Fraction
from math import gcd, lcm

from wonderland.backend import mat_mul
from wonderland.lie import _sl_basis_layout, _sparse_sl_basis, sl_matrix_of
from wonderland.linalg import (
    Matrix,
    echelon_rows,
    integer_inverse,
    integer_rows,
    integer_vector,
    qstr,
    ratio,
)
from wonderland.poly import MultiPoly

Q = Fraction


class ChartDomainError(ValueError):
    """A point fell outside a chart (normalizing entry vanished)."""


def _primitive(values):
    """Scale a rational vector to a primitive integer vector, first nonzero
    entry positive.  Canonical representative for projective points."""
    ints, _ = integer_vector([v if type(v) in (int, Fraction) else Fraction(v) for v in values])
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no projective class")
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


class ProjLinePoint:
    """A point [u0 : u1] of the projective line, canonically scaled."""

    __slots__ = ("vec",)

    def __init__(self, values):
        self.vec = _primitive(values)
        if len(self.vec) != 2:
            raise ValueError("projective line point needs two coordinates")

    def __eq__(self, other):
        return isinstance(other, ProjLinePoint) and self.vec == other.vec

    def __hash__(self):
        return hash(self.vec)

    def __repr__(self):
        return "[%d:%d]" % self.vec


class ProjMatrixPoint:
    """A point [A] of P(M_2): a nonzero 2x2 matrix up to scale.

    The canonical representative is a primitive integer vector over the flat
    entry order (a, b, c, d) with positive first nonzero entry.
    """

    __slots__ = ("vec",)

    def __init__(self, values):
        if isinstance(values, Matrix):
            values = [x for row in values.data for x in row]
        values = list(values)
        if len(values) != 4:
            raise ValueError("P(M_2) point needs four coordinates")
        self.vec = _primitive(values)

    @property
    def matrix(self):
        a, b, c, d = self.vec
        return Matrix([[a, b], [c, d]])

    def det(self):
        a, b, c, d = self.vec
        return Fraction(a * d - b * c)

    def is_boundary(self):
        return self.det() == 0

    def chart_index(self):
        """Index of the largest-magnitude entry of the primitive
        representative (ties break to the earliest position)."""
        best, arg = -1, 0
        for i, v in enumerate(self.vec):
            if abs(v) > best:
                best, arg = abs(v), i
        return arg

    def __eq__(self, other):
        return isinstance(other, ProjMatrixPoint) and self.vec == other.vec

    def __hash__(self):
        return hash(self.vec)

    def __repr__(self):
        return "[%s]" % ":".join(str(v) for v in self.vec)

    def to_json(self):
        return {"entries": [qstr(Fraction(v)) for v in self.vec]}

    @classmethod
    def from_json(cls, obj):
        return cls([Fraction(s) for s in obj["entries"]])


class GroupPair:
    """An element (g, h) of G x G carried by SL_n representatives."""

    __slots__ = ("g", "h")

    def __init__(self, g, h):
        g = g if isinstance(g, Matrix) else Matrix(g)
        h = h if isinstance(h, Matrix) else Matrix(h)
        if g.det() != 1 or h.det() != 1:
            raise ValueError("group pair entries must have determinant 1")
        self.g = g
        self.h = h

    @classmethod
    def identity(cls, n=2):
        return cls(Matrix.identity(n), Matrix.identity(n))

    def __repr__(self):
        return "GroupPair(%r, %r)" % (self.g, self.h)


class LagrangianPoint:
    """A point of Gr(n, d): the row span of an n x 2n matrix of ``int`` or
    ``Fraction`` entries, stored as ``rows``, the primitive integer multiple
    of each reduced echelon row with a positive pivot, and their ``pivots``.
    Those rows are canonical for the span, so equality is syntactic; ``mat``
    is the reduced echelon form as a ``Fraction`` ``Matrix``, made on read."""

    __slots__ = ("rows", "pivots")

    def __init__(self, rows):
        self.rows, pivots = echelon_rows(rows)
        if len(pivots) != len(rows):
            raise ValueError("rows are not independent")
        self.pivots = tuple(pivots)

    @property
    def n(self):
        return len(self.rows)

    @property
    def mat(self):
        return Matrix([[ratio(x, row[p]) for x in row] for row, p in zip(self.rows, self.pivots)])

    def __eq__(self, other):
        return isinstance(other, LagrangianPoint) and self.rows == other.rows

    def __hash__(self):
        return hash(tuple(map(tuple, self.rows)))

    def __repr__(self):
        return "LagrangianPoint(%r)" % self.mat

    def to_json(self):
        return self.mat.to_json()


FLAT_NAMES = ("a", "b", "c", "d")


class ProjChart:
    """Affine chart of P(M_2) normalizing entry ``norm_index`` to 1.

    The chart is its index: coordinates are the other three entries of the
    representative whose normalizing entry is 1.
    """

    def __init__(self, norm_index):
        self.norm_index = norm_index
        self.positions = [i for i in range(4) if i != norm_index]
        self.variables = tuple(FLAT_NAMES[i] for i in self.positions)

    @property
    def dim(self):
        return 3

    def ambient_polys(self, variables=None, var_offset=0):
        """The four matrix entries as polynomials in the chart coordinates."""
        variables = variables or self.variables
        out = [None] * 4
        out[self.norm_index] = MultiPoly.const(variables, 1)
        for m, pos in enumerate(self.positions):
            e = [0] * len(variables)
            e[var_offset + m] = 1
            out[pos] = MultiPoly(variables, {tuple(e): 1})
        return out

    def coords_of(self, point):
        """Chart coordinates of a point: its entries over its normalizing
        entry, at the other positions; raises ChartDomainError off-chart."""
        piv = point.vec[self.norm_index]
        if piv == 0:
            raise ChartDomainError("point lies outside chart %d" % self.norm_index)
        return [Fraction(point.vec[p], piv) for p in self.positions]

    def point_at(self, coords):
        return ProjMatrixPoint(self.rep_at(coords))

    def rep_at(self, coords):
        """Ambient representative with the normalizing entry equal to 1."""
        vec = [Fraction(0)] * 4
        vec[self.norm_index] = Fraction(1)
        for pos, x in zip(self.positions, coords):
            vec[pos] = Fraction(x)
        return vec

    def tangent_project(self, rep, vec):
        """Project an ambient tangent ``vec`` at representative ``rep`` to
        chart coordinates: the derivative of t -> [rep + t*vec]."""
        (coords,), den = self.tangent_project_general(rep, [vec])
        return [ratio(x, den) for x in coords]

    def tangent_project_general(self, rep, vecs):
        """Project several ambient tangents at one rational representative.

        Returns (coords, den): one integer coordinate list per tangent over
        one denominator.  The representative is scaled to r / dr, with
        normalizing entry c / dr, and the tangents together to v / dv; the
        projection is dr ``project_normalized(r, v)`` over den = c^2 dv."""
        r, dr = integer_vector(rep)
        c = r[self.norm_index]
        if c == 0:
            raise ChartDomainError("base point outside chart")
        vz, dv = integer_rows(vecs)
        return [[dr * x for x in self.project_normalized(r, v)] for v in vz], c * c * dv

    def project_normalized(self, rep, vec):
        """The projection at a representative whose normalizing entry is c,
        over any ring: c vec[p] - vec[k] rep[p] for p != k.  This is c^2
        times the chart derivative; at a chart's parametrized
        representative c = 1 and it is the derivative itself."""
        c, vk = rep[self.norm_index], vec[self.norm_index]
        if c == 1:
            return [vec[p] - vk * rep[p] for p in self.positions]
        return [c * vec[p] - vk * rep[p] for p in self.positions]

    def det_poly(self):
        """det of the parametrized matrix: the boundary divisor in this chart."""
        amb = self.ambient_polys()
        return amb[0] * amb[3] - amb[1] * amb[2]


class GrassChart:
    """The [I | C] chart of Gr(n, 2n) with a given pivot column set.

    The chart is its pivot set: coordinates are the free-column entries C,
    row-major.
    """

    def __init__(self, pivots, ambient_cols):
        self.pivots = tuple(pivots)
        self.ambient_cols = ambient_cols
        self.n = len(self.pivots)
        self.free = [j for j in range(ambient_cols) if j not in set(self.pivots)]
        self.variables = tuple(
            "c%d_%d" % (i, j) for i in range(self.n) for j in self.free
        )

    @property
    def dim(self):
        return self.n * len(self.free)

    def ambient_polys(self, variables=None, var_offset=0):
        """The n x 2n span matrix with polynomial entries (row-major list)."""
        variables = variables or self.variables
        rows = []
        for i in range(self.n):
            row = [MultiPoly.zero(variables) for _ in range(self.ambient_cols)]
            row[self.pivots[i]] = MultiPoly.const(variables, 1)
            for m, j in enumerate(self.free):
                e = [0] * len(variables)
                e[var_offset + i * len(self.free) + m] = 1
                row[j] = MultiPoly(variables, {tuple(e): 1})
            rows.append(row)
        return rows

    def coords_of(self, point):
        """Chart coordinates of a point: the free columns of P R, R the
        point's integer rows and P the inverse of their pivot block.  Raises
        ChartDomainError where that minor vanishes."""
        try:
            pinv, d = integer_inverse([[row[p] for p in self.pivots] for row in point.rows])
        except ValueError:
            raise ChartDomainError("point has a zero minor on chart pivots %r" % (self.pivots,)) from None
        norm = mat_mul(pinv, [[row[j] for j in self.free] for row in point.rows])
        return [ratio(x, d) for row in norm for x in row]

    def point_at(self, coords):
        return LagrangianPoint(self.rep_rows_at(coords))

    def rep_rows_at(self, coords):
        rows = []
        it = iter(coords)
        for i in range(self.n):
            row = [Fraction(0)] * self.ambient_cols
            row[self.pivots[i]] = Fraction(1)
            for j in self.free:
                row[j] = Fraction(next(it))
            rows.append(row)
        return rows

    def tangent_project(self, rep_rows, vel_rows):
        """Project row-velocities ``vel_rows`` (d/dt of the span rows) at a
        representative to chart coordinates, by tangent_project_general."""
        (coords,), den = self.tangent_project_general(rep_rows, [vel_rows])
        return [ratio(x, den) for x in coords]

    def tangent_project_general(self, rep_rows, legs):
        """Project several row-velocities at one rational representative R
        of the span, which need not be normalized.

        Returns (coords, den): one integer coordinate list per leg over one
        denominator.  P, the inverse of R's pivot block, and N = P R (pivot
        block I) are scaled to integer matrices Pz = dP P and Nz = c N, and
        the legs V together to Vz = dV V.  Per leg, W = Pz Vz = dP dV (P V),
        and ``project_normalized(Nz, W)`` is den = c dP dV times the
        projection of P V at N, which is the projection of V at R."""
        pz, dp = integer_inverse([[row[p] for p in self.pivots] for row in rep_rows])
        nz = mat_mul(pz, integer_rows(rep_rows)[0])
        g = gcd(*(x for row in nz for x in row))
        nz = [[x // g for x in row] for row in nz]
        vz, dv = integer_rows([row for vel_rows in legs for row in vel_rows])
        n = self.n
        coords = [self.project_normalized(nz, mat_mul(pz, vz[i : i + n])) for i in range(0, len(vz), n)]
        return coords, nz[0][self.pivots[0]] * dp * dv

    def project_normalized(self, rep_rows, vel_rows):
        """The projection at a representative N whose pivot block is c I,
        over any ring: c V - V_piv N on the free columns, row-major.  This
        is c^2 times the chart derivative; at a chart's parametrized
        representative c = 1 and it is the derivative itself."""
        c = rep_rows[0][self.pivots[0]]
        unit = c == 1
        out = []
        for vel in vel_rows:
            vpiv = [vel[p] for p in self.pivots]
            for j in self.free:
                acc = vel[j] if unit else c * vel[j]
                for vk, rep in zip(vpiv, rep_rows):
                    acc = acc - vk * rep[j]
                out.append(acc)
        return out


class ProductChart:
    """Chart of a product of factors; coordinates are concatenated with
    per-factor prefixes so variable names stay unique."""

    def __init__(self, factors):
        self.factors = list(factors)
        names = []
        self.offsets = []
        for idx, f in enumerate(self.factors):
            self.offsets.append(len(names))
            names.extend("p%d_%s" % (idx, v) for v in f.variables)
        self.variables = tuple(names)

    @property
    def dim(self):
        return len(self.variables)

    def ambient_polys(self, idx):
        return self.factors[idx].ambient_polys(self.variables, self.offsets[idx])

    def coords_of(self, points):
        out = []
        for f, p in zip(self.factors, points):
            out.extend(f.coords_of(p))
        return out


def flat_from_mat2(m):
    return [m.data[0][0], m.data[0][1], m.data[1][0], m.data[1][1]]


def flat_mul2(x, y):
    """Product of two 2x2 matrices in flat (a, b, c, d) order, over any ring."""
    return [
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    ]


class Pgl2Model:
    """The PGL_2 wonderful compactification as P(M_2) with its pair action."""

    def __init__(self, sl2):
        if getattr(sl2, "matrix_size", None) != 2:
            raise ValueError("Pgl2Model needs the sl_2 algebra from build_sl(2)")
        self.alg = sl2
        self.basis_mats = [sl_matrix_of(2, sl2._basis_vec(i)) for i in range(3)]

    # -- group action ---------------------------------------------------
    def act(self, pair, point):
        """(g, h) . [A] = [g A h^{-1}], by the integer ``push``."""
        return ProjMatrixPoint(self.differentials(pair)[0](point.vec))

    def rep(self, point):
        """The ambient representative: the flat primitive entries."""
        return list(point.vec)

    def differentials(self, pair):
        """(push, adjoint, s) at the pair, on flats, in integers.

        g and h are scaled over one denominator d to integer flats G = d g
        and H = d h; det g = det h = 1, so adj(G) = d g^{-1} and
        adj(H) = d h^{-1}.  ``push(A)`` = G A adj(H) = s g A h^{-1} with
        s = d^2: it is linear, so it moves representatives and ambient
        tangents alike, and the common scale leaves every chart projection
        unchanged.  ``adjoint(elem6)`` = (G a adj(G), H b adj(H)) in
        sl2 (+) sl2 coordinates is s Ad_(g,h) of a double element, both
        components over the one scale s.
        """
        (g, h), d = integer_rows([flat_from_mat2(pair.g), flat_from_mat2(pair.h)])
        gadj = [g[3], -g[1], -g[2], g[0]]
        hadj = [h[3], -h[1], -h[2], h[0]]

        def push(flat):
            return flat_mul2(flat_mul2(g, flat), hadj)

        def adjoint(elem6):
            a, b = self.elem_flats(elem6)
            ca = flat_mul2(flat_mul2(g, a), gadj)
            cb = flat_mul2(flat_mul2(h, b), hadj)
            return [ca[1], ca[0], ca[2], cb[1], cb[0], cb[2]]

        return push, adjoint, d * d

    def action_sample(self, point, image):
        """Check name and sample record of an action residual."""
        return "poisson-action", {"point": repr(point), "image": repr(image)}

    # -- elements of the double ------------------------------------------
    def elem_matrices(self, elem6):
        """A 6-vector in sl2 (+) sl2 coordinates as a pair of 2x2 matrices;
        the reference that ``elem_flats`` is tested against."""
        a = sl_matrix_of(2, elem6[:3])
        b = sl_matrix_of(2, elem6[3:])
        return a, b

    def elem_flats(self, elem6):
        """A 6-vector in sl2 (+) sl2 coordinates as a pair of flat 2x2
        matrices: e E12 + h H + f E21 is (h, e, f, -h)."""
        e1, h1, f1, e2, h2, f2 = elem6
        return [h1, e1, f1, -h1], [h2, e2, f2, -h2]

    def flow_tangent(self, elem6, rep_flat):
        """Ambient derivative of exp(ta) A exp(-tb) at t = 0: aA - Ab, over
        any ring of entries of A."""
        a, b = self.elem_flats(elem6)
        return [
            p - q for p, q in zip(flat_mul2(a, rep_flat), flat_mul2(rep_flat, b))
        ]

    # -- charts -----------------------------------------------------------
    def chart_at(self, point):
        """The chart normalizing the point's ``chart_index``."""
        return ProjChart(point.chart_index())

    # -- boundary structure -----------------------------------------------
    def segre_factor(self, point):
        """Write a boundary point as [u v^T]; round-trips through segre()."""
        if not point.is_boundary():
            raise ValueError("segre factorization needs det = 0")
        m = point.matrix
        u = None
        for j in range(2):
            col = [m.data[0][j], m.data[1][j]]
            if any(x != 0 for x in col):
                u = col
                break
        v = None
        for i in range(2):
            row = [m.data[i][0], m.data[i][1]]
            if any(x != 0 for x in row):
                v = row
                break
        up, vp = ProjLinePoint(u), ProjLinePoint(v)
        if segre(up, vp) != point:
            raise ValueError("rank-one factorization failed")
        return up, vp

    # -- the Lagrangian correspondence --------------------------------------
    def lagrangian_of(self, point, double=None, form=None):
        """[A] -> the subspace {(x, y) : x A = A y}, checked Lagrangian."""
        A = point.matrix
        cols = []
        for i in range(3):
            bi = self.basis_mats[i]
            cols.append(flat_from_mat2(bi * A))
        for i in range(3):
            bi = self.basis_mats[i]
            cols.append([-x for x in flat_from_mat2(A * bi)])
        system = Matrix([[cols[k][r] for k in range(6)] for r in range(4)])
        basis = system.kernel_basis()
        if len(basis) != 3:
            raise ValueError(
                "correspondence space has dimension %d, expected 3" % len(basis)
            )
        lp = LagrangianPoint(basis)
        if double is not None and form is not None:
            from wonderland.lie import is_lagrangian

            ok, cert = is_lagrangian(double, form, lp.rows)
            if not ok:
                raise ValueError("correspondence is not Lagrangian: %r" % cert)
        return lp


def segre(u, v):
    """The Segre image of ([u], [v]): the rank-one class [u v^T]."""
    return ProjMatrixPoint(
        [u.vec[0] * v.vec[0], u.vec[0] * v.vec[1], u.vec[1] * v.vec[0], u.vec[1] * v.vec[1]]
    )


class GrassmannModel:
    """Gr(n, d) for the double of a semisimple algebra, with the pair action
    through Ad (+) Ad and the induced infinitesimal vector fields."""

    def __init__(self, alg, double, form):
        self.alg = alg
        self.double = double
        self.form = form
        self.n = alg.dim
        self._last_pair = None

    def diagonal_point(self):
        return LagrangianPoint([[int(i == j) for j in range(self.n)] * 2 for i in range(self.n)])

    def _pair_action(self, pair):
        """(B, d) of the latest pair, built once, so that a residual's
        ``act`` and ``differentials`` share it: B = d (Ad_g (+) Ad_h)^T is
        the transposed pair block over the least common denominator d of
        its entries.  A row (or a double element) r moves to r B."""
        if self._last_pair is not pair:
            n = self.alg.matrix_size
            (ag, sg), (ah, sh) = integer_adjoint(n, pair.g), integer_adjoint(n, pair.h)
            d = lcm(sg, sh)
            zero = [0] * self.n
            block_t = [[x * (d // sg) for x in row] + zero for row in ag] + [
                zero + [x * (d // sh) for x in row] for row in ah
            ]
            self._last_pair = pair
            self._last_action = (block_t, d)
        return self._last_action

    def act(self, pair, point):
        """The span of the rows moved by Ad_g (+) Ad_h."""
        return LagrangianPoint(mat_mul(point.rows, self._pair_action(pair)[0]))

    def rep(self, point):
        """The ambient representative: the echelon rows of the span, each
        as its primitive integer multiple.  Scaling a row scales its flow
        tangent alike, so it changes neither the span nor any chart
        projection."""
        return point.rows

    def flow_tangent(self, elem, rows):
        """Row velocities of the one-parameter flow of a double element:
        ad_x r = [x, r] for each span row r, by the double's bracket, which
        visits only nonzero coordinates and structure constants.  Works on
        rational rows and on ``MultiPoly`` rows alike."""
        return [self.double.bracket(elem, r) for r in rows]

    def differentials(self, pair):
        """(push, adjoint, d) at the pair, on integer span rows.

        The pair acts on rows by right multiplication with the transposed
        pair block, here its integer multiple B = d (Ad_g (+) Ad_h)^T, so
        ``push`` moves representatives and row velocities alike, all by
        the scale d, which leaves every chart projection unchanged.  A
        double element is a row too: ``adjoint(elem)`` = elem B is
        d Ad_(g,h) of it, d (Ad_g a, Ad_h b).
        """
        block_t, d = self._pair_action(pair)

        def push(rows):
            return mat_mul(rows, block_t)

        def adjoint(elem):
            return mat_mul([elem], block_t)[0]

        return push, adjoint, d

    def action_sample(self, point, image):
        """Check name and sample record of an action residual: the first
        row of the source's reduced echelon form, from its integer row
        alone, and the image's pivots."""
        row, p = point.rows[0], point.pivots[0]
        return "poisson-action-grassmann", {
            "point": repr([ratio(x, row[p]) for x in row]),
            "pivots": list(image.pivots),
        }

    def chart_at(self, point):
        """The chart on the point's pivots."""
        return GrassChart(point.pivots, 2 * self.n)

    def _action_rows(self, point):
        """The infinitesimal-action map into the tangent space at the point:
        one projected flow tangent per basis element of the double."""
        base = self.rep(point)
        dim = self.double.dim
        tangents = [
            self.flow_tangent([int(i == j) for j in range(dim)], base) for i in range(dim)
        ]
        return Matrix(self.chart_at(point).tangent_project_general(base, tangents)[0])

    def orbit_dimension(self, point):
        """The dimension of the G x G orbit through the point."""
        return self._action_rows(point).rank()

    def stabilizer_basis(self, point):
        return self._action_rows(point).transpose().kernel_basis()


def integer_adjoint(n, g):
    """(A, s) with A / s = (Ad_g)^T on sl_n in the elementary basis, g an
    invertible n x n ``Matrix``, A an integer matrix in lowest terms over s:
    row j of A is s times the coordinates of g b_j g^{-1}.

    G = c g is g scaled to integers and (P, s) = ``integer_inverse(G)``,
    so g b g^{-1} = G b P / s.  A basis element b = sum v E_rc gives
    G b P = sum v (column r of G)(row c of P), an integer matrix read into
    coordinates as ``lie.sl_coords`` does: the positive entries, the
    Cartan partial sums of the diagonal, then the negative entries."""
    gz, _ = integer_rows(g.data)
    pz, s = integer_inverse(gz)
    pos, cart, neg = _sl_basis_layout(n)
    rows = []
    for b in _sparse_sl_basis(n):
        m = [[0] * n for _ in range(n)]
        for (r, c), v in b.items():
            prow = pz[c]
            for i in range(n):
                x = v * gz[i][r]
                if x:
                    mi = m[i]
                    for k, y in enumerate(prow):
                        mi[k] += x * y
        coords = [m[i][j] for i, j in pos]
        partial = 0
        for k in cart:
            partial += m[k][k]
            coords.append(partial)
        coords.extend(m[i][j] for i, j in neg)
        rows.append(coords)
    g0 = gcd(s, *(x for row in rows for x in row))
    return [[x // g0 for x in row] for row in rows], s // g0


def infinitesimal_field(model, chart, elem, variables=None, var_offset=0):
    """Polynomial field of the one-parameter flow of a double element on a
    chart: the model's flow tangent at the chart's parametrized
    representative, projected there.  Components are quadratic."""
    amb = chart.ambient_polys(variables, var_offset)
    return chart.project_normalized(amb, model.flow_tangent(elem, amb))
