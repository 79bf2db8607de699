"""Test-side references: plain computations that the package's integer
paths are compared against, and bounded draws from a seeded stream."""

from fractions import Fraction as Q

from wonderland.geometry import LagrangianPoint, ProjMatrixPoint
from wonderland.lie import sl_basis_matrix
from wonderland.linalg import Matrix, integer_rows, integer_vector
from wonderland.poly import MultiPoly
from wonderland.sampling import RationalStream, sample_rational


def apply_to(matrix, vec):
    """The ``Matrix`` times a column vector, summed in ``Fraction``s."""
    if len(vec) != matrix.cols:
        raise ValueError("length mismatch")
    return [sum((x * v for x, v in zip(row, vec)), Q(0)) for row in matrix.data]


def basis_vectors(alg):
    """The basis of the algebra as coordinate vectors."""
    return [[Q(int(i == j)) for j in range(alg.dim)] for i in range(alg.dim)]


def ad(alg, x):
    """Matrix of ad_x = [x, .] in the basis (x a coordinate vector)."""
    cols = [alg.bracket(x, e) for e in basis_vectors(alg)]
    return Matrix([[col[m] for col in cols] for m in range(alg.dim)])


def sl_matrix(n, coords):
    """The n x n matrix sum_i coords[i] b_i over the basis of sl_n."""
    out = Matrix.zero(n, n)
    for i, c in enumerate(coords):
        if c:
            out = out + sl_basis_matrix(n, i) * c
    return out


def sl_coords(n, m):
    """Coordinates of a traceless n x n matrix in the elementary basis:
    the entries above the diagonal, the partial sums of the diagonal, then
    the entries below it."""
    if sum(m.data[i][i] for i in range(n)) != 0:
        raise ValueError("matrix is not traceless")
    pos = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = [m.data[i][j] for (i, j) in pos]
    partial = Q(0)
    for k in range(n - 1):
        partial += m.data[k][k]
        out.append(partial)
    out.extend(m.data[j][i] for (i, j) in pos)
    return out


def elem_matrices(elem6):
    """A 6-vector in sl2 (+) sl2 coordinates as a pair of 2x2 matrices;
    the reference that ``Pgl2Model.elem_flats`` is tested against."""
    return sl_matrix(2, elem6[:3]), sl_matrix(2, elem6[3:])


def gram_matrix(form):
    """The Gram matrix of a ``BilinearForm`` as a ``Matrix``."""
    return Matrix([[Q(row.get(k, 0), form.den) for k in range(form.dim)] for row in form.ints])


def sparse_gram(rows):
    """(ints, den) of a dense Gram matrix of ``int`` or ``Fraction``
    entries, the arguments of ``BilinearForm``."""
    ints, den = integer_rows(rows)
    return [{k: g for k, g in enumerate(row) if g} for row in ints], den


def value(form, x, y):
    """<x, y> as a ``Fraction``."""
    return Q(form.pairing(x, y), form.den)


def covectors(rows):
    """Rows of ``int`` or ``Fraction`` entries as covectors (ints, den)."""
    return [integer_vector(row) for row in rows]


def rational(covectors):
    """Covectors (ints, den) as ``Fraction`` rows ints / den."""
    return [[Q(x, d) for x in ints] for ints, d in covectors]


def derive_linear(action, i, var_index):
    """D_i(z_a) = -sum_b rho_i[a][b] z_b for a = ``var_index``."""
    n = len(action.variables)
    terms = {}
    for b, c in enumerate(action.rho_mats[i].data[var_index]):
        if c != 0:
            terms[tuple(int(k == b) for k in range(n))] = -c
    return MultiPoly(action.variables, terms)


def derive_poly(action, i, p):
    """D_i extended to polynomials as a derivation:
    D_i(p) = sum_a (dp/dz_a) D_i(z_a)."""
    out = MultiPoly.zero(action.variables)
    for a, v in enumerate(action.variables):
        lin = derive_linear(action, i, a)
        if not lin.is_zero():
            out = out + p.diff(v) * lin
    return out


def is_invariant(action, p):
    return all(derive_poly(action, i, p).is_zero() for i in range(action.alg.dim))


def proj_rep_at(chart, coords):
    """The P(M_2) chart's ambient representative at ``coords``, with the
    normalizing entry equal to 1."""
    vec = [Q(0)] * 4
    vec[chart.norm_index] = Q(1)
    for pos, x in zip(chart.positions, coords):
        vec[pos] = Q(x)
    return vec


def proj_point_at(chart, coords):
    return ProjMatrixPoint(proj_rep_at(chart, coords))


def grass_rep_rows_at(chart, coords):
    """The Grassmannian chart's span rows at ``coords``: the identity on
    the pivots, the coordinates on the free columns, row by row."""
    it = iter(coords)
    rows = []
    for p in chart.pivots:
        row = [Q(0)] * chart.ambient_cols
        row[p] = Q(1)
        for j in chart.free:
            row[j] = Q(next(it))
        rows.append(row)
    return rows


def grass_point_at(chart, coords):
    return LagrangianPoint(grass_rep_rows_at(chart, coords))


class bounded(RationalStream):
    """A view of ``stream`` that draws with another bound: each draw is
    ``sample_rational(stream.seed, stream.index, bound)`` and advances the
    stream's index, so bounded and default draws can share one stream."""

    def __init__(self, stream, bound):
        self.stream = stream
        self.draw_bound = bound

    def take(self):
        x = sample_rational(self.stream.seed, self.stream.index, self.draw_bound)
        self.stream.index += 1
        return x
