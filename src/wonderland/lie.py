"""Lie algebras over Q from structure constants.

Covers: sl_n in the elementary-matrix basis, the Killing form, the double
d = g (+) g with its split invariant form, Lagrangian subalgebras, the
standard splitting with l1 the diagonal copy of g, and the associated
antisymmetric r-tensor from dual bases.  Every axiom (antisymmetry, Jacobi,
ad-invariance, isotropy, duality) is checked exactly at construction time.
"""

from fractions import Fraction
from functools import lru_cache

from wonderland.linalg import (
    ZERO,
    Bivector,
    Matrix,
    integer_vector,
    qparse,
    qstr,
    row_span_contains,
)

Q = Fraction


class LieAlgebra:
    """Lie algebra given by structure constants c[i][j] = [b_i, b_j]."""

    def __init__(self, names, brackets):
        self.names = tuple(names)
        self.dim = len(self.names)
        self.brackets = [
            [[Fraction(x) for x in vec] for vec in row] for row in brackets
        ]
        if len(self.brackets) != self.dim or any(
            len(row) != self.dim or any(len(v) != self.dim for v in row)
            for row in self.brackets
        ):
            raise ValueError("structure constant tensor has wrong shape")
        # the nonzero (m, c) of each c_ij, which is all ``bracket`` visits;
        # an integral c is kept as an ``int``, so brackets of integer
        # vectors stay in integers
        self._nonzero = [
            [
                tuple((m, c.numerator if c.denominator == 1 else c) for m, c in enumerate(vec) if c)
                for vec in row
            ]
            for row in self.brackets
        ]
        self._check_antisymmetry()
        self._check_jacobi()

    def _check_antisymmetry(self):
        for i in range(self.dim):
            for j in range(i, self.dim):
                for m in range(self.dim):
                    if self.brackets[i][j][m] != -self.brackets[j][i][m]:
                        raise ValueError(
                            "structure constants not antisymmetric at (%d,%d)" % (i, j)
                        )

    def _check_jacobi(self):
        z = [Fraction(0)] * self.dim
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    if self.jacobi_vector(i, j, k) != z:
                        raise ValueError(
                            "Jacobi identity fails at basis triple (%d,%d,%d)" % (i, j, k)
                        )

    def jacobi_vector(self, i, j, k):
        """[[b_i,b_j],b_k] + [[b_j,b_k],b_i] + [[b_k,b_i],b_j], exactly."""
        t1 = self.bracket(self.brackets[i][j], self._basis_vec(k))
        t2 = self.bracket(self.brackets[j][k], self._basis_vec(i))
        t3 = self.bracket(self.brackets[k][i], self._basis_vec(j))
        return [a + b + c for a, b, c in zip(t1, t2, t3)]

    def _basis_vec(self, i):
        v = [Fraction(0)] * self.dim
        v[i] = Fraction(1)
        return v

    def basis_vectors(self):
        return [self._basis_vec(i) for i in range(self.dim)]

    def bracket(self, x, y):
        """Bracket of coordinate vectors, by bilinear extension over the
        nonzero coordinates and structure constants only.  Over ``int``
        vectors and integral structure constants the result is ``int``s."""
        out = [0] * self.dim
        y_nz = [(j, yj) for j, yj in enumerate(y) if yj != 0]
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            row = self._nonzero[i]
            for j, yj in y_nz:
                cij = row[j]
                if cij:
                    f = xi * yj
                    for m, c in cij:
                        out[m] += f * c
        return out

    def ad(self, x):
        """Matrix of ad_x = [x, .] in the basis (x a coordinate vector)."""
        cols = [self.bracket(x, self._basis_vec(j)) for j in range(self.dim)]
        return Matrix([[cols[j][m] for j in range(self.dim)] for m in range(self.dim)])

    def to_json(self):
        sc = []
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    c = self.brackets[i][j][k]
                    if c != 0:
                        sc.append([i, j, k, qstr(c)])
        return {"dim": self.dim, "names": list(self.names), "structure_constants": sc}

    @classmethod
    def from_json(cls, obj):
        dim = obj["dim"]
        br = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j, k, c in obj["structure_constants"]:
            br[i][j][k] = qparse(c)
        return cls(obj["names"], br)


class BilinearForm:
    """Symmetric bilinear form given by its gram matrix in the basis."""

    def __init__(self, gram):
        self.gram = gram if isinstance(gram, Matrix) else Matrix(gram)
        if self.gram.rows != self.gram.cols:
            raise ValueError("gram matrix must be square")
        if self.gram != self.gram.transpose():
            raise ValueError("gram matrix must be symmetric")

    @property
    def dim(self):
        return self.gram.rows

    def value(self, x, y):
        acc = Fraction(0)
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            row = self.gram.data[i]
            for j, yj in enumerate(y):
                if yj != 0 and row[j] != 0:
                    acc += xi * row[j] * yj
        return acc

    def is_nondegenerate(self):
        return self.gram.det() != 0

    def ad_invariance_residuals(self, alg):
        """<[x,y],z> + <y,[x,z]> over all basis triples; all must be zero."""
        res = []
        for i in range(alg.dim):
            for j in range(alg.dim):
                for k in range(alg.dim):
                    v = self.value(alg.brackets[i][j], alg._basis_vec(k)) + self.value(
                        alg._basis_vec(j), alg.brackets[i][k]
                    )
                    if v != 0:
                        res.append(((i, j, k), v))
        return res

    def check_ad_invariant(self, alg):
        bad = self.ad_invariance_residuals(alg)
        if bad:
            raise ValueError("form is not ad-invariant, e.g. at %r" % (bad[0],))


def _sl_basis_layout(n):
    """Index layout (positives, cartans, negatives) of the elementary basis."""
    pos = [(i, j) for i in range(n) for j in range(i + 1, n)]
    neg = [(j, i) for (i, j) in pos]
    return pos, list(range(n - 1)), neg


def sl_basis_matrices(n):
    """Basis of sl_n: E_ij (i<j), H_k = E_kk - E_(k+1)(k+1), E_ij (i>j)."""
    pos, cart, neg = _sl_basis_layout(n)
    mats = []
    for (i, j) in pos:
        m = Matrix.zero(n, n)
        m.data[i][j] = Fraction(1)
        mats.append(m)
    for k in cart:
        m = Matrix.zero(n, n)
        m.data[k][k] = Fraction(1)
        m.data[k + 1][k + 1] = Fraction(-1)
        mats.append(m)
    for (i, j) in neg:
        m = Matrix.zero(n, n)
        m.data[i][j] = Fraction(1)
        mats.append(m)
    return mats


def sl_names(n):
    if n == 2:
        return ("e", "h", "f")
    pos, cart, neg = _sl_basis_layout(n)
    return tuple(
        ["E%d%d" % (i + 1, j + 1) for (i, j) in pos]
        + ["H%d" % (k + 1) for k in cart]
        + ["E%d%d" % (i + 1, j + 1) for (i, j) in neg]
    )


def sl_coords(n, m):
    """Coordinates of a traceless n x n matrix in the elementary basis."""
    if sum(m.data[i][i] for i in range(n)) != 0:
        raise ValueError("matrix is not traceless")
    pos, cart, neg = _sl_basis_layout(n)
    out = [m.data[i][j] for (i, j) in pos]
    partial = Fraction(0)
    for k in cart:
        partial += m.data[k][k]
        out.append(partial)
    out.extend(m.data[i][j] for (i, j) in neg)
    return out


@lru_cache(maxsize=None)
def _sl_basis_cached(n):
    """sl_basis_matrices(n), built once per n; callers must not mutate it."""
    return tuple(sl_basis_matrices(n))


def sl_matrix_of(n, coords):
    mats = _sl_basis_cached(n)
    if len(coords) != len(mats):
        raise ValueError("coordinate length mismatch")
    out = [[ZERO] * n for _ in range(n)]
    for c, m in zip(coords, mats):
        if c != 0:
            for row, mrow in zip(out, m.data):
                for j, x in enumerate(mrow):
                    if x:
                        row[j] += c * x
    return Matrix(out)


def build_sl(n):
    """sl_n from exact matrix commutators; Jacobi is verified on construction.

    The result carries ``matrix_size`` plus the triangular index split
    (positives / cartans / negatives) used by the standard splitting.
    """
    if n < 2:
        raise ValueError("sl_n requires n >= 2")
    mats = sl_basis_matrices(n)
    dim = len(mats)
    br = []
    for a in range(dim):
        row = []
        for b in range(dim):
            comm = mats[a] * mats[b] - mats[b] * mats[a]
            row.append(sl_coords(n, comm))
        br.append(row)
    alg = LieAlgebra(sl_names(n), br)
    npos = n * (n - 1) // 2
    alg.matrix_size = n
    alg.positive_indices = list(range(npos))
    alg.cartan_indices = list(range(npos, npos + n - 1))
    alg.negative_indices = list(range(npos + n - 1, dim))
    return alg


def killing_form(alg):
    """Killing form kappa(x,y) = trace(ad x ad y), with ad-invariance checked."""
    ads = [alg.ad(alg._basis_vec(i)) for i in range(alg.dim)]
    gram = Matrix.zero(alg.dim, alg.dim)
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            prod = ads[i] * ads[j]
            tr = sum((prod.data[m][m] for m in range(alg.dim)), Fraction(0))
            gram.data[i][j] = tr
            gram.data[j][i] = tr
    form = BilinearForm(gram)
    form.check_ad_invariant(alg)
    return form


def double_algebra(alg, kform=None):
    """The double d = g (+) g with componentwise bracket and the split form
    <(x1,x2),(y1,y2)> = <<x1,y1>> - <<x2,y2>>, all axioms checked exactly."""
    if kform is None:
        kform = killing_form(alg)
    if not kform.is_nondegenerate():
        raise ValueError("Killing form is degenerate; double requires semisimple input")
    n = alg.dim
    dim = 2 * n
    names = tuple(["%s|1" % s for s in alg.names] + ["%s|2" % s for s in alg.names])
    zero = [Fraction(0)] * dim

    def emb(vec, side):
        out = list(zero)
        off = 0 if side == 0 else n
        for i, x in enumerate(vec):
            out[off + i] = x
        return out

    br = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            si, sj = i // n, j // n
            if si != sj:
                br[i][j] = list(zero)
            else:
                br[i][j] = emb(alg.brackets[i % n][j % n], si)
    double = LieAlgebra(names, br)
    gram = Matrix.zero(dim, dim)
    for i in range(n):
        for j in range(n):
            gram.data[i][j] = kform.gram.data[i][j]
            gram.data[n + i][n + j] = -kform.gram.data[i][j]
    form = BilinearForm(gram)
    form.check_ad_invariant(double)
    if not form.is_nondegenerate():
        raise ValueError("double form unexpectedly degenerate")
    double.half_dim = n
    return double, form


def is_lagrangian(double, form, vectors):
    """Whether the span is a Lagrangian subalgebra of the double.

    Checks dimension = half the double, total isotropy, and closure under the
    bracket; returns (flag, certificate) where the certificate names the
    first violated axiom and witnesses.
    """
    n = double.dim // 2
    cert = {"dim": len(vectors), "expected_dim": n}
    vecs = [[Fraction(x) for x in v] for v in vectors]
    if len(vecs) != n or Matrix(vecs).rank() != n:
        cert["failure"] = "dimension"
        return False, cert
    for i in range(n):
        for j in range(i, n):
            val = form.value(vecs[i], vecs[j])
            if val != 0:
                cert["failure"] = "isotropy"
                cert["witness"] = (i, j, qstr(val))
                return False, cert
    for i in range(n):
        for j in range(i + 1, n):
            w = double.bracket(vecs[i], vecs[j])
            if not row_span_contains(vecs, w):
                cert["failure"] = "bracket closure"
                cert["witness"] = (i, j)
                return False, cert
    cert["failure"] = None
    return True, cert


class DoubleSplitting:
    """A Lagrangian splitting d = l1 + l2 with form-dual bases.

    ``x_basis`` spans l1 and ``y_basis`` spans l2, normalized so that
    <x_i, y_j> = delta_ij.  All axioms are validated on construction.
    """

    def __init__(self, base, double, form, x_basis, y_basis):
        self.base = base
        self.double = double
        self.form = form
        self.x_basis = [[Fraction(v) for v in vec] for vec in x_basis]
        self.y_basis = [[Fraction(v) for v in vec] for vec in y_basis]
        self.validate()
        # the dual pairs as integer vectors: x_i = ix / dx, y_i = iy / dy,
        # stored as (ix, iy, dx dy), so (1/2) x_i ^ y_i = ix ^ iy / (2 dx dy)
        self.integer_pairs = []
        for x, y in zip(self.x_basis, self.y_basis):
            ix, dx = integer_vector(x)
            iy, dy = integer_vector(y)
            self.integer_pairs.append((ix, iy, dx * dy))

    @property
    def half_dim(self):
        return self.double.dim // 2

    def validate(self):
        n = self.half_dim
        ok1, cert1 = is_lagrangian(self.double, self.form, self.x_basis)
        if not ok1:
            raise ValueError("l1 is not Lagrangian: %r" % cert1)
        ok2, cert2 = is_lagrangian(self.double, self.form, self.y_basis)
        if not ok2:
            raise ValueError("l2 is not Lagrangian: %r" % cert2)
        if Matrix(self.x_basis + self.y_basis).rank() != 2 * n:
            raise ValueError("l1 and l2 are not transverse")
        for i in range(n):
            for j in range(n):
                want = Fraction(1) if i == j else Fraction(0)
                if self.form.value(self.x_basis[i], self.y_basis[j]) != want:
                    raise ValueError("dual basis condition fails at (%d,%d)" % (i, j))

    def decompose(self, vec):
        """Coefficients (a, b) with vec = sum a_i x_i + sum b_j y_j."""
        cols = self.x_basis + self.y_basis
        m = Matrix([[cols[k][r] for k in range(len(cols))] for r in range(self.double.dim)])
        sol = m.solve([Fraction(v) for v in vec])
        if sol is None:
            raise ValueError("vector not in the double")
        n = self.half_dim
        return sol[:n], sol[n:]


def standard_splitting(alg):
    """The splitting with l1 the diagonal and l2 = {(h+u, -h+v)}.

    ``alg`` must come from build_sl so the triangular decomposition
    (positives, cartans, negatives) is available.  Dual bases are obtained by
    an exact linear solve against the split form.
    """
    for attr in ("positive_indices", "cartan_indices", "negative_indices"):
        if not hasattr(alg, attr):
            raise ValueError("standard splitting needs the sl_n triangular data")
    kform = killing_form(alg)
    double, form = double_algebra(alg, kform)
    n = alg.dim

    def pair(u, v):
        return list(u) + list(v)

    zero = [Fraction(0)] * n
    x_basis = [pair(alg._basis_vec(i), alg._basis_vec(i)) for i in range(n)]
    l2_raw = []
    for i in range(n):
        e = alg._basis_vec(i)
        if i in alg.positive_indices:
            l2_raw.append(pair(e, zero))
        elif i in alg.cartan_indices:
            l2_raw.append(pair(e, [-x for x in e]))
        else:
            l2_raw.append(pair(zero, e))
    return _dualize(alg, double, form, x_basis, l2_raw)


def splitting_from_l2(alg, l2_rows):
    """Splitting with user-supplied l2 basis (validated, then dualized)."""
    kform = killing_form(alg)
    double, form = double_algebra(alg, kform)
    n = alg.dim
    x_basis = [list(alg._basis_vec(i)) + list(alg._basis_vec(i)) for i in range(n)]
    l2 = [[Fraction(x) for x in row] for row in l2_rows]
    return _dualize(alg, double, form, x_basis, l2)


def _dualize(alg, double, form, x_basis, l2_raw):
    n = len(x_basis)
    gram = Matrix([[form.value(x_basis[i], l2_raw[j]) for j in range(n)] for i in range(n)])
    if gram.det() == 0:
        raise ValueError("duality system is singular; l2 does not split against l1")
    coeff = gram.inverse()
    y_basis = []
    for j in range(n):
        v = [Fraction(0)] * (2 * n)
        for k in range(n):
            c = coeff.data[k][j]
            if c != 0:
                for r in range(2 * n):
                    v[r] += c * l2_raw[k][r]
        y_basis.append(v)
    return DoubleSplitting(alg, double, form, x_basis, y_basis)


def r_matrix(splitting):
    """The antisymmetric tensor (1/2) sum_i x_i ^ y_i in ambient coordinates."""
    dim = splitting.double.dim
    half = Fraction(1, 2)
    wedges = [
        (half, splitting.x_basis[i], splitting.y_basis[i])
        for i in range(splitting.half_dim)
    ]
    return Bivector.from_wedges(dim, wedges)


def r_pair_eval(splitting, r, u, w):
    """Evaluate r against the wedge u ^ w through the split form.

    Uses the determinant pairing of a 2-tensor with a wedge, so for
    u = (v1 + f1), w = (v2 + f2) with v's in l1 and f's in l2 the value is
    the antisymmetric pairing f1(v2) - f2(v1).
    """
    g = splitting.form.gram
    gu = g.apply_to([Fraction(x) for x in u])
    gw = g.apply_to([Fraction(x) for x in w])
    acc = Fraction(0)
    for a in range(r.dim):
        for b in range(r.dim):
            e = r.entries[a][b]
            if e != 0:
                acc += e * (gu[a] * gw[b] - gw[a] * gu[b])
    return acc
