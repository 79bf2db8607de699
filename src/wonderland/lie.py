"""Lie algebras over Q from structure constants.

Covers: sl_n in the elementary-matrix basis, the Killing form, the double
d = g (+) g with its split invariant form, Lagrangian subalgebras, the
standard splitting with l1 the diagonal copy of g, and the associated
antisymmetric r-tensor from dual bases.  Every axiom (antisymmetry, Jacobi,
ad-invariance, isotropy, duality) is checked exactly at construction time,
over every basis pair or triple.

An algebra has one representation: its nonzero structure constants.
``LieAlgebra(names, constants)`` takes them as (i, j, m, c_ij^m) for
[b_i, b_j] = sum_m c_ij^m b_m, rejects an index outside ``range(dim)`` or a
repeated (i, j, m), and keeps only the per-pair table ``_nonzero``: the
nonzero (m, c_ij^m) of each bracket [b_i, b_j], integral constants as
``int``.  ``structure_constants`` lists them back, and the JSON form is the
same list.  A check costs one step per product of nonzeros, not one per
dense entry: Jacobi sums c_ij^m c_mk^p, the Killing form is
tr(ad_i ad_j) = sum_{p,m} c_ip^m c_jm^p with no ``ad`` matrix, and
ad-invariance compares <[b_i,b_j],b_k> = sum_m c_ij^m G_mk with its
transpose in (j, k).  ``build_sl`` takes its constants from sparse products
of elementary matrices, E_ij E_kl = delta_jk E_il, and the double shifts
the constants of g by 0 and by dim g.

Every other object is integers over one denominator as well.  A
``BilinearForm`` is its Gram matrix as sparse integer rows ``ints`` over
``den``, and ``pairing`` gives den <x, y> in integers.  A splitting keeps
each basis vector as a covector (ints, den), the form ``is_lagrangian``
checks and ``integer_pairs`` hands to the Poisson layer; ``_dualize``
inverts the integer Gram matrix of l1 against l2 with
``linalg.integer_inverse``.  A ``Fraction`` is made only for a value that
an error message or a command prints.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm

from wonderland.backend import rref_rows
from wonderland.linalg import (
    ZERO,
    Bivector,
    Matrix,
    covector,
    echelon_rows,
    integer_inverse,
    integer_vector,
    qstr,
    row_span_contains,
)


class LieAlgebra:
    """Lie algebra given by its nonzero structure constants
    [b_i, b_j] = sum_m c_ij^m b_m, listed as (i, j, m, c_ij^m)."""

    def __init__(self, names, constants):
        self.names = tuple(names)
        self.dim = len(self.names)
        idx = range(self.dim)
        table = {}
        for i, j, m, c in constants:
            if not (i in idx and j in idx and m in idx):
                raise ValueError(
                    "structure constant index (%r,%r,%r) outside range(%d)" % (i, j, m, self.dim)
                )
            cij = table.setdefault((i, j), {})
            if m in cij:
                raise ValueError("structure constant (%d,%d,%d) given twice" % (i, j, m))
            # an integral c is kept as an ``int``, so brackets of integer
            # vectors stay in integers
            if type(c) is not int:
                c = Fraction(c)
                c = c.numerator if c.denominator == 1 else c
            cij[m] = c
        # the nonzero (m, c) of each c_ij in m order, which is all
        # ``bracket`` and the checks visit
        self._nonzero = [
            [tuple(sorted((m, c) for m, c in table.get((i, j), {}).items() if c)) for j in idx]
            for i in idx
        ]
        self._check_antisymmetry()
        self._check_jacobi()

    def structure_constants(self):
        """The nonzero constants as (i, j, m, c_ij^m), in (i, j, m) order."""
        return [
            (i, j, m, c)
            for i, row in enumerate(self._nonzero)
            for j, cij in enumerate(row)
            for m, c in cij
        ]

    def _check_antisymmetry(self):
        nz = self._nonzero
        for i in range(self.dim):
            for j in range(i, self.dim):
                if nz[i][j] != tuple((m, -c) for m, c in nz[j][i]):
                    raise ValueError(
                        "structure constants not antisymmetric at (%d,%d)" % (i, j)
                    )

    def _check_jacobi(self):
        for i, j, k in combinations(range(self.dim), 3):
            if any(self.jacobi_vector(i, j, k)):
                raise ValueError(
                    "Jacobi identity fails at basis triple (%d,%d,%d)" % (i, j, k)
                )

    def jacobi_vector(self, i, j, k):
        """[[b_i,b_j],b_k] + [[b_j,b_k],b_i] + [[b_k,b_i],b_j], exactly: each
        term is sum_m c_ab^m [b_m, b_c] = sum_{m,p} c_ab^m c_mc^p b_p over the
        nonzero constants only."""
        nz = self._nonzero
        out = [0] * self.dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in nz[a][b]:
                for p, y in nz[m][c]:
                    out[p] += x * y
        return out

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

    def to_json(self):
        sc = [[i, j, m, qstr(c)] for i, j, m, c in self.structure_constants()]
        return {"dim": self.dim, "names": list(self.names), "structure_constants": sc}


class BilinearForm:
    """Symmetric bilinear form G = ints / den: ``ints`` are the rows of the
    Gram matrix in the basis as sparse integer rows ``{column: int}`` of
    their nonzero entries, over one denominator ``den`` > 0."""

    def __init__(self, ints, den):
        self.ints, self.den = ints, den
        dim = len(ints)
        if any(k not in range(dim) for row in ints for k in row):
            raise ValueError("gram matrix must be square")
        if any(ints[k].get(i) != g for i, row in enumerate(ints) for k, g in row.items()):
            raise ValueError("gram matrix must be symmetric")

    @property
    def dim(self):
        return len(self.ints)

    def pairing(self, x, y):
        """den <x, y>, summed over the nonzero entries: an integer on
        integer vectors."""
        acc = 0
        for xi, row in zip(x, self.ints):
            if xi:
                for k, g in row.items():
                    yk = y[k]
                    if yk:
                        acc += xi * g * yk
        return acc

    def is_nondegenerate(self):
        return len(rref_rows(self.ints)[1]) == self.dim

    def ad_invariance_residuals(self, alg):
        """<[b_i,b_j],b_k> + <b_j,[b_i,b_k]> over all basis triples, as
        ((i, j, k), value) for the nonzero ones in (i, j, k) order; all must
        be zero.

        With P_i[j][k] = <[b_i,b_j],b_k> = sum_m c_ij^m G_mk and G symmetric
        the residual is P_i[j][k] + P_i[k][j].  P_i is summed over the
        nonzero constants and Gram entries, and a residual can be nonzero
        only where P_i or its transpose is, so only those (j, k) are read;
        every other triple is zero exactly."""
        if alg.dim != self.dim:
            raise ValueError("form and algebra dimensions differ")
        res = []
        rows, den = self.ints, self.den
        for i, brackets in enumerate(alg._nonzero):
            p = {}
            for j, cij in enumerate(brackets):
                for m, c in cij:
                    for k, g in rows[m].items():
                        p[j, k] = p.get((j, k), 0) + c * g
            for j, k in sorted(p.keys() | {(k, j) for j, k in p}):
                v = p.get((j, k), 0) + p.get((k, j), 0)
                if v:
                    res.append(((i, j, k), Fraction(v, den)))
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


def _sparse_sl_basis(n):
    """Basis of sl_n as sparse matrices {(row, col): int}: E_ij (i<j),
    H_k = E_kk - E_(k+1)(k+1), E_ij (i>j)."""
    pos, cart, neg = _sl_basis_layout(n)
    return (
        [{ij: 1} for ij in pos]
        + [{(k, k): 1, (k + 1, k + 1): -1} for k in cart]
        + [{ij: 1} for ij in neg]
    )


def sl_basis_matrix(n, i):
    """Basis element i of sl_n (see ``_sparse_sl_basis``) as a ``Matrix``."""
    rows = [[ZERO] * n for _ in range(n)]
    for (r, c), x in _sparse_sl_basis(n)[i].items():
        rows[r][c] = Fraction(x)
    return Matrix(rows)


def sl_names(n):
    if n == 2:
        return ("e", "h", "f")
    pos, cart, neg = _sl_basis_layout(n)
    return tuple(
        ["E%d%d" % (i + 1, j + 1) for (i, j) in pos]
        + ["H%d" % (k + 1) for k in cart]
        + ["E%d%d" % (i + 1, j + 1) for (i, j) in neg]
    )


def _sparse_commutator(a, b):
    """AB - BA of sparse matrices, by E_ij E_kl = delta_jk E_il."""
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            if j == k:
                out[i, l] = out.get((i, l), 0) + x * y
            if l == i:
                out[k, j] = out.get((k, j), 0) - y * x
    return out


def build_sl(n):
    """sl_n from exact matrix commutators; Jacobi is verified on construction.

    The commutators are sparse products of elementary matrices, read off in
    the basis as sparse coordinates: an off-diagonal entry is the coordinate
    of its E_ij, and H_k has the partial sum of the diagonal up to k.  The
    result carries ``matrix_size`` plus the triangular index split
    (positives / cartans / negatives) used by the standard splitting.
    """
    if n < 2:
        raise ValueError("sl_n requires n >= 2")
    pos, cart, neg = _sl_basis_layout(n)
    npos = len(pos)
    index = {ij: k for k, ij in enumerate(pos)}
    index.update((ij, npos + n - 1 + k) for k, ij in enumerate(neg))
    mats = _sparse_sl_basis(n)
    constants = []
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            comm = _sparse_commutator(a, b)
            constants.extend((i, j, index[rc], c) for rc, c in comm.items() if rc[0] != rc[1])
            partial = 0
            for k in cart:
                partial += comm.get((k, k), 0)
                if partial:
                    constants.append((i, j, npos + k, partial))
    alg = LieAlgebra(sl_names(n), constants)
    alg.matrix_size = n
    alg.positive_indices = list(range(npos))
    alg.cartan_indices = list(range(npos, npos + n - 1))
    alg.negative_indices = list(range(npos + n - 1, len(mats)))
    return alg


def killing_form(alg):
    """Killing form kappa(x,y) = trace(ad x ad y), with ad-invariance checked.

    kappa(b_i, b_j) = sum_{p,m} c_ip^m c_jm^p, summed over the nonzero
    structure constants, as sparse integer rows over the lcm of the
    entries' denominators."""
    nz = alg._nonzero
    terms = [[(p, m, c) for p, cip in enumerate(row) for m, c in cip] for row in nz]
    lookup = [[dict(c) for c in row] for row in nz]
    gram = [{} for _ in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            tr = 0
            for p, m, c in terms[i]:
                d = lookup[j][m].get(p)
                if d:
                    tr += c * d
            if tr:
                gram[i][j] = gram[j][i] = tr
    den = lcm(*(g.denominator for row in gram for g in row.values()))
    ints = [{k: g.numerator * (den // g.denominator) for k, g in row.items()} for row in gram]
    form = BilinearForm(ints, den)
    form.check_ad_invariant(alg)
    return form


def double_algebra(alg):
    """The double d = g (+) g with componentwise bracket and the split form
    <(x1,x2),(y1,y2)> = <<x1,y1>> - <<x2,y2>>, <<.,.>> the Killing form,
    all axioms checked exactly."""
    kform = killing_form(alg)
    if not kform.is_nondegenerate():
        raise ValueError("Killing form is degenerate; double requires semisimple input")
    n = alg.dim
    names = tuple(["%s|1" % s for s in alg.names] + ["%s|2" % s for s in alg.names])
    constants = alg.structure_constants()
    double = LieAlgebra(
        names, [(i + off, j + off, m + off, c) for off in (0, n) for i, j, m, c in constants]
    )
    rows = kform.ints
    form = BilinearForm(
        rows + [{k + n: -g for k, g in row.items()} for row in rows], kform.den
    )
    form.check_ad_invariant(double)
    if not form.is_nondegenerate():
        raise ValueError("double form unexpectedly degenerate")
    return double, form


def is_lagrangian(double, form, vectors):
    """Whether the span is a Lagrangian subalgebra of the double.

    ``vectors`` are covectors (ints, den), the rows ints / den.  Checks
    dimension = half the double, total isotropy, and closure under the
    bracket, all on the integer rows; returns (flag, certificate) where
    the certificate names the first violated axiom and witnesses, an
    isotropy witness as the value on the rows themselves.
    """
    n = double.dim // 2
    cert = {"dim": len(vectors), "expected_dim": n}
    rows = [v for v, _ in vectors]
    if len(rows) != n or len(echelon_rows(rows)[1]) != n:
        cert["failure"] = "dimension"
        return False, cert
    for i in range(n):
        for j in range(i, n):
            val = form.pairing(rows[i], rows[j])
            if val:
                cert["failure"] = "isotropy"
                scale = form.den * vectors[i][1] * vectors[j][1]
                cert["witness"] = (i, j, qstr(Fraction(val, scale)))
                return False, cert
    # one elimination of the span and every bracket; only a span that is
    # not closed is searched pair by pair for the first failing bracket
    pairs = list(combinations(range(n), 2))
    brackets = [double.bracket(rows[i], rows[j]) for i, j in pairs]
    if len(echelon_rows(rows + brackets)[1]) > n:
        for (i, j), w in zip(pairs, brackets):
            if not row_span_contains(rows, w):
                cert["failure"] = "bracket closure"
                cert["witness"] = (i, j)
                return False, cert
    cert["failure"] = None
    return True, cert


class DoubleSplitting:
    """A Lagrangian splitting d = l1 + l2 with form-dual bases.

    ``x_basis`` spans l1 and ``y_basis`` spans l2, each vector a covector
    (ints, den) in lowest terms, normalized so that <x_i, y_j> = delta_ij.
    ``integer_pairs`` pairs them up for the Poisson layer: x_i = ix / dx and
    y_i = iy / dy as (ix, iy, dx dy), so (1/2) x_i ^ y_i = ix ^ iy / (2 dx dy).
    All axioms are validated on construction.
    """

    def __init__(self, double, form, x_basis, y_basis):
        self.double = double
        self.form = form
        self.x_basis = x_basis
        self.y_basis = y_basis
        self.validate()
        self.integer_pairs = [(ix, iy, dx * dy) for (ix, dx), (iy, dy) in zip(x_basis, y_basis)]

    def validate(self):
        ok1, cert1 = is_lagrangian(self.double, self.form, self.x_basis)
        if not ok1:
            raise ValueError("l1 is not Lagrangian: %r" % cert1)
        ok2, cert2 = is_lagrangian(self.double, self.form, self.y_basis)
        if not ok2:
            raise ValueError("l2 is not Lagrangian: %r" % cert2)
        if len(echelon_rows([v for v, _ in self.x_basis + self.y_basis])[1]) != self.double.dim:
            raise ValueError("l1 and l2 are not transverse")
        den = self.form.den
        for i, (x, dx) in enumerate(self.x_basis):
            for j, (y, dy) in enumerate(self.y_basis):
                if self.form.pairing(x, y) != (den * dx * dy if i == j else 0):
                    raise ValueError("dual basis condition fails at (%d,%d)" % (i, j))


def standard_splitting(alg):
    """The splitting with l1 the diagonal and l2 = {(h+u, -h+v)}.

    ``alg`` must come from build_sl so the triangular decomposition
    (positives, cartans, negatives) is available.  Dual bases are obtained by
    an exact linear solve against the split form.
    """
    for attr in ("positive_indices", "cartan_indices", "negative_indices"):
        if not hasattr(alg, attr):
            raise ValueError("standard splitting needs the sl_n triangular data")
    n = alg.dim
    l2 = []
    for i in range(n):
        row = [0] * (2 * n)
        if i in alg.positive_indices:
            row[i] = 1
        elif i in alg.cartan_indices:
            row[i], row[n + i] = 1, -1
        else:
            row[n + i] = 1
        l2.append(row)
    return splitting_from_l2(alg, l2)


def splitting_from_l2(alg, l2_rows):
    """Splitting with user-supplied l2 basis (validated, then dualized):
    exactly ``alg.dim`` rows of ``2 * alg.dim`` entries."""
    n = alg.dim
    if len(l2_rows) != n or any(len(row) != 2 * n for row in l2_rows):
        raise ValueError("l2 basis must be %d rows of %d entries" % (n, 2 * n))
    double, form = double_algebra(alg)
    diagonal = [[int(i == j) for j in range(n)] * 2 for i in range(n)]
    return _dualize(double, form, diagonal, l2_rows)


def _dualize(double, form, x_rows, l2_rows):
    """The splitting with l1 spanned by ``x_rows`` and l2 by ``l2_rows``,
    rows of ``int`` or ``Fraction`` entries, l2's basis replaced by the
    form-dual of l1's.

    With x_i = ix_i / dx_i, each l2 row scaled to integers L_k and the
    integer Gram matrix A[i][k] = den <ix_i, L_k>, whose inverse is
    P / p (``integer_inverse``), the y_j with <x_i, y_j> = delta_ij are
    y_j = den dx_j sum_k P[k][j] L_k / p."""
    xs = [integer_vector(x) for x in x_rows]
    ls = [integer_vector(row)[0] for row in l2_rows]
    try:
        inv, p = integer_inverse([[form.pairing(x, l) for l in ls] for x, _ in xs])
    except ValueError:
        raise ValueError("duality system is singular; l2 does not split against l1") from None
    y_basis = []
    for j, (_, dx) in enumerate(xs):
        scale = form.den * dx
        v = [0] * double.dim
        for k, l in enumerate(ls):
            c = inv[k][j] * scale
            if c:
                for r, x in enumerate(l):
                    if x:
                        v[r] += c * x
        y_basis.append(covector(v, p))
    return DoubleSplitting(double, form, xs, y_basis)


def r_matrix(splitting):
    """The antisymmetric tensor (1/2) sum_i x_i ^ y_i in ambient coordinates."""
    wedges = [(Fraction(1, 2 * d), x, y) for x, y, d in splitting.integer_pairs]
    return Bivector.from_wedges(splitting.double.dim, wedges)
