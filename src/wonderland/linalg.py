"""Exact rational matrices: row reduction, kernels, determinants, solving.

Entries are ``fractions.Fraction``; all arithmetic is exact, there is no
floating-point mode.  ``Matrix`` keeps entries that are already ``Fraction``
and converts the rest.  Zero entries made here or coming back from a kernel
are the one shared ``ZERO``, which the conversion to kernel pairs recognises
by identity, so a large sparse matrix costs one object per nonzero.  Row
reduction and products are delegated to the pair kernels in ``backend``,
whose ``rref_rows`` visits only nonzero entries.  A bivector is assembled
from its wedges in integers: ``Bivector.from_wedges`` scales every leg to an
integer vector, sums the integer outer products over one common denominator
with ``wedge_sum`` (the one wedge assembler, which the polynomial fields use
over ``MultiPoly`` entries) and makes one ``Fraction`` per nonzero entry.
The same integer helpers serve the chart projections and the Jacobi sweep:
``integer_vector`` and ``integer_rows`` scale rational vectors and matrices
to integers over one lcm denominator, ``int_mat_mul`` multiplies integer
matrices, and ``ratio`` turns an integer result back into one ``Fraction``.
Everything else is thin bookkeeping on top.
"""

from fractions import Fraction
from math import lcm
from operator import mul

from wonderland import backend

Q = Fraction
ZERO = Fraction(0)
_ZERO_PAIR = (0, 1)


def _to_pairs(rows):
    return [
        [_ZERO_PAIR if x is ZERO else (x.numerator, x.denominator) for x in row]
        for row in rows
    ]


def _from_pairs(rows):
    return [[Fraction(n, d) if n else ZERO for (n, d) in row] for row in rows]


def qstr(x: Fraction) -> str:
    """Canonical string form of a rational: 'n' or 'n/d'."""
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def qparse(s) -> Fraction:
    return Fraction(s)


class Matrix:
    """A rows x cols matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        self.data = [
            [x if type(x) is Fraction else Fraction(x) for x in row] for row in data
        ]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.rows else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")

    @classmethod
    def zero(cls, rows, cols):
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return list(self.data[i])

    def col(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        body = "; ".join(" ".join(qstr(x) for x in row) for row in self.data)
        return "Matrix[%s]" % body

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix([[-x for x in row] for row in self.data])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            prod = backend.mat_mul(_to_pairs(self.data), _to_pairs(other.data))
            return Matrix(_from_pairs(prod))
        return Matrix([[x * Fraction(other) for x in row] for row in self.data])

    def __rmul__(self, scalar):
        return Matrix([[Fraction(scalar) * x for x in row] for row in self.data])

    def transpose(self):
        return Matrix([self.col(j) for j in range(self.cols)])

    def apply_to(self, vec):
        """Matrix times column vector (a list of Fractions)."""
        if len(vec) != self.cols:
            raise ValueError("length mismatch")
        return [
            sum((row[j] * vec[j] for j in range(self.cols)), Fraction(0))
            for row in self.data
        ]

    def rref(self):
        """Return (R, rank, pivot_columns) with R in reduced row echelon form."""
        rows, rank, pivots = backend.rref_rows(_to_pairs(self.data))
        return Matrix(_from_pairs(rows)), rank, pivots

    def rank(self):
        return self.rref()[1]

    def kernel_basis(self):
        """Exact basis of the null space, canonically echelonized.

        Vectors are returned as rows whose own matrix is in reduced row
        echelon form (leading entry 1), so the output is reproducible.
        """
        red, rank, pivots = self.rref()
        pivset = set(pivots)
        free = [j for j in range(self.cols) if j not in pivset]
        raw = []
        for f in free:
            v = [ZERO] * self.cols
            v[f] = Fraction(1)
            for i, p in enumerate(pivots):
                v[p] = -red.data[i][f]
            raw.append(v)
        if not raw:
            return []
        canon, _, _ = Matrix(raw).rref()
        return [canon.row(i) for i in range(len(raw))]

    def det(self):
        """Exact determinant by fraction-style Gaussian elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        a = [list(row) for row in self.data]
        det = Fraction(1)
        for c in range(n):
            pr = -1
            for i in range(c, n):
                if a[i][c] != 0:
                    pr = i
                    break
            if pr < 0:
                return Fraction(0)
            if pr != c:
                a[c], a[pr] = a[pr], a[c]
                det = -det
            piv = a[c][c]
            det *= piv
            for i in range(c + 1, n):
                if a[i][c] != 0:
                    f = a[i][c] / piv
                    for j in range(c, n):
                        a[i][j] -= f * a[c][j]
        return det

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = Matrix([row + ident for row, ident in zip(self.data, Matrix.identity(n).data)])
        red, rank, _ = aug.rref()
        if rank < n:
            raise ValueError("matrix is singular")
        return Matrix([red.row(i)[n:] for i in range(n)])

    def solve(self, rhs):
        """Solve A x = rhs exactly; returns one solution (free vars set to 0)
        or None if inconsistent.  ``rhs`` is a list of Fractions."""
        if len(rhs) != self.rows:
            raise ValueError("length mismatch")
        aug = Matrix([row + [b] for row, b in zip(self.data, rhs)])
        red, rank, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [Fraction(0)] * self.cols
        for i, p in enumerate(pivots):
            x[p] = red.data[i][self.cols]
        return x

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [qstr(x) for row in self.data for x in row],
        }

    @classmethod
    def from_json(cls, obj):
        r, c = obj["rows"], obj["cols"]
        ent = [qparse(s) for s in obj["entries"]]
        if len(ent) != r * c:
            raise ValueError("entry count does not match rows*cols")
        return cls([ent[i * c : (i + 1) * c] for i in range(r)])


class Bivector:
    """Pointwise antisymmetric 2-tensor: an n x n Fraction matrix L with
    L[i][j] = -L[j][i].  Pairing with two differentials gives the bracket
    value {f,g} = sum_ij L[i][j] df_i dg_j."""

    __slots__ = ("dim", "entries")

    def __init__(self, entries):
        m = Matrix(entries)
        if m.rows != m.cols:
            raise ValueError("bivector matrix must be square")
        for i in range(m.rows):
            for j in range(i, m.cols):
                if m.data[i][j] != -m.data[j][i]:
                    raise ValueError("bivector matrix must be antisymmetric")
        self.dim = m.rows
        self.entries = m.data

    @classmethod
    def zero(cls, dim):
        return cls([[0] * dim for _ in range(dim)])

    @classmethod
    def from_wedges(cls, dim, wedges):
        """Build sum of coef * (u ^ w) with u ^ w = u(x)w - w(x)u.

        The sum is taken in integers: each leg is scaled by the lcm of its
        denominators, every wedge's coefficient is brought over one common
        denominator L, ``wedge_sum`` adds the integer outer products, and
        each nonzero entry becomes one ``Fraction(x, L)``.  Coefficients and
        leg entries are ``int`` or ``Fraction``."""
        scaled = []
        den = 1
        for coef, u, w in wedges:
            if coef == 0:
                continue
            iu, du = integer_vector(u)
            iw, dw = integer_vector(w)
            d = coef.denominator * du * dw
            den = lcm(den, d)
            scaled.append((coef.numerator, d, iu, iw))
        ent = wedge_sum(dim, [(n * (den // d), iu, iw) for n, d, iu, iw in scaled], 0)
        return cls([[ratio(x, den) for x in row] for row in ent])

    def bracket_eval(self, df, dg):
        """Value of {f,g} from the differentials df, dg at this point."""
        if len(df) != self.dim or len(dg) != self.dim:
            raise ValueError("differential length mismatch")
        acc = Fraction(0)
        for i in range(self.dim):
            di = df[i]
            if di == 0:
                continue
            row = self.entries[i]
            for j in range(self.dim):
                if row[j] != 0 and dg[j] != 0:
                    acc += row[j] * di * dg[j]
        return acc

    def contract(self, covector):
        """The vector L(xi, .) for a covector xi; zero iff xi conormal
        directions are preserved."""
        if len(covector) != self.dim:
            raise ValueError("covector length mismatch")
        out = []
        for b in range(self.dim):
            acc = Fraction(0)
            for a in range(self.dim):
                if covector[a] != 0 and self.entries[a][b] != 0:
                    acc += covector[a] * self.entries[a][b]
            out.append(acc)
        return out

    def is_zero(self):
        return all(x == 0 for row in self.entries for x in row)

    def __eq__(self, other):
        return isinstance(other, Bivector) and self.entries == other.entries

    def __repr__(self):
        return "Bivector(%r)" % (self.entries,)


def integer_vector(vec):
    """(ints, d) with vec = ints / d, d the lcm of the entries' denominators."""
    (ints,), d = integer_rows([vec])
    return ints, d


def integer_rows(rows):
    """(int_rows, d) with rows = int_rows / d over one denominator d, the
    lcm of every entry's denominator; entries are ``int`` or ``Fraction``.
    Rows whose entries are all ``int`` come back as they are, with d = 1;
    no caller mutates what it gets."""
    d = 1
    exact = True
    for row in rows:
        for x in row:
            if type(x) is not int:
                exact = False
                if x.denominator != 1:
                    d = lcm(d, x.denominator)
    if exact:
        return rows, 1
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def int_mat_mul(a, b):
    """Product of two integer matrices given as lists of rows."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def ratio(n, d):
    """The rational n / d as a ``Fraction``, or the shared ``ZERO``."""
    return Fraction(n, d) if n else ZERO


def wedge_sum(dim, wedges, zero):
    """Entries of sum coef * (u ^ w) over any ring whose zero is ``zero``:
    integers (``Bivector.from_wedges``), ``Fraction``s or ``MultiPoly``
    entries (the polynomial fields).  ``coef`` is used as given.

    Only the nonzero entries of u and w are visited: each product
    t = coef u[a] w[b] is added at [a][b] and subtracted at [b][a].
    """
    ent = [[zero] * dim for _ in range(dim)]
    for coef, u, w in wedges:
        if coef == 0:
            continue
        w_nz = [(b, wb) for b, wb in enumerate(w) if wb != 0]
        for a, ua in enumerate(u):
            if ua == 0:
                continue
            cu = coef * ua
            row = ent[a]
            for b, wb in w_nz:
                t = cu * wb
                row[b] += t
                ent[b][a] -= t
    return ent


def row_span_contains(span_rows, vec):
    """True iff vec lies in the row span of span_rows (all exact)."""
    base = Matrix(span_rows)
    _, rank, _ = base.rref()
    ext = Matrix(list(span_rows) + [list(vec)])
    _, rank2, _ = ext.rref()
    return rank2 == rank


def same_row_span(rows_a, rows_b):
    ra = Matrix(rows_a).rref()[0]
    rb = Matrix(rows_b).rref()[0]
    na = [r for r in ra.data if any(x != 0 for x in r)]
    nb = [r for r in rb.data if any(x != 0 for x in r)]
    return na == nb
