"""Exact rational matrices: row reduction, kernels, determinants, solving.

Entries are ``fractions.Fraction``; all arithmetic is exact, there is no
floating-point mode.  ``Matrix`` keeps entries that are already ``Fraction``
and converts the rest.  Zero entries made here are the one shared ``ZERO``,
so a large sparse matrix costs one object per nonzero.

Row reduction, products and determinants run in integers.  ``_scaled_rows`` turns each
row into a sparse integer row ``{column: int}`` over its own denominator in
one scan, skipping the shared ``ZERO`` by identity; ``backend.rref_rows``
reduces those rows and returns one primitive integer row per pivot, and
``backend.mat_mul`` multiplies integer matrices; ``det`` is Bareiss's
fraction-free elimination.  A ``Fraction`` is made
only for an entry of a result.  ``kernel_basis`` reads the null space off
the pivot rows in integers and echelonizes it with a second ``rref_rows``
call.  ``integer_inverse`` is the one inversion: one ``rref_rows`` pass on
[A | I] gives the inverse as an integer matrix over one denominator (the
chart projections and the Grassmannian's adjoint action use it as it is;
``Matrix.inverse`` is its ``Fraction`` view), and ``echelon_rows`` hands
out the primitive pivot rows of a reduction, which are all that the
Grassmannian's points keep.

A ``Bivector`` is an integer matrix over one denominator.  ``from_wedges``
takes integer legs as they are (the chart projections hand it those),
scales any rational leg to integers and keeps the integer sum of
``wedge_sum`` (the one wedge assembler, also used over ``MultiPoly``
entries by the polynomial fields).  A covector, such as a gradient, is
(ints, den) in lowest terms with den > 0 (``covector``), so equal ones
compare equal; ``bracket_eval`` and ``contract`` take covectors, sum in
integers and make one ``Fraction`` per result.  ``integer_vector`` and
``integer_rows`` (also used by the chart projections and
``poly.MonomialTable``) scale rational vectors and matrices to integers
over one lcm denominator, and ``ratio`` turns an integer result back into
one ``Fraction``.
Everything else is thin bookkeeping on top.
"""

from fractions import Fraction
from math import gcd, lcm

from wonderland import backend

ZERO = Fraction(0)
_ZERO_PAIR = (0, 1)


# ``_to_pairs`` and ``_from_pairs`` have no caller: the benchmark tracer
# counts them by name for ``convert.calls``, so they stay until that counter
# is retired.
def _to_pairs(rows):
    return [
        [_ZERO_PAIR if x is ZERO else (x.numerator, x.denominator) for x in row]
        for row in rows
    ]


def _from_pairs(rows):
    return [[Fraction(n, d) if n else ZERO for (n, d) in row] for row in rows]


def _scaled_rows(rows):
    """``(ints, dens)``: each row of ``Fraction`` or ``int`` entries as a
    sparse integer row ``{column: int}`` of its nonzero entries, with
    ``rows[i][j] == ints[i].get(j, 0) / dens[i]``.  One scan per row: the
    shared ``ZERO`` is skipped by identity, and each other entry's numerator
    and denominator are read once; the row's denominator grows to the lcm
    of its entries' as they come."""
    ints, dens = [], []
    for row in rows:
        out = {}
        d = 1
        for j, x in [(j, x) for j, x in enumerate(row) if x is not ZERO]:
            n = x.numerator
            if n:
                e = x.denominator
                if d % e:
                    m = lcm(d, e) // d
                    d *= m
                    for k in out:
                        out[k] *= m
                out[j] = n * (d // e)
        ints.append(out)
        dens.append(d)
    return ints, dens


def _fraction_rows(rows, pivots, cols):
    """The RREF rows as dense ``Fraction`` rows: each primitive pivot row
    from ``backend.rref_rows`` divided by its pivot."""
    out = []
    for r, c in zip(rows, pivots):
        pc = r[c]
        dense = [ZERO] * cols
        for k, v in r.items():
            dense[k] = Fraction(v, pc)
        out.append(dense)
    return out


def qstr(x: Fraction) -> str:
    """Canonical string form of a rational: 'n' or 'n/d'."""
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


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
            # rows of self over their own denominators, other over one
            a, da = _scaled_rows(self.data)
            b, db = _scaled_rows(other.data)
            den = lcm(*db)
            prod = backend.mat_mul(
                [[r.get(k, 0) for k in range(self.cols)] for r in a],
                [[r.get(j, 0) * (den // d) for j in range(other.cols)] for r, d in zip(b, db)],
            )
            return Matrix([[ratio(x, d * den) for x in row] for row, d in zip(prod, da)])
        return Matrix([[x * Fraction(other) for x in row] for row in self.data])

    def __rmul__(self, scalar):
        return Matrix([[Fraction(scalar) * x for x in row] for row in self.data])

    def transpose(self):
        return Matrix([self.col(j) for j in range(self.cols)])

    def rref(self):
        """Return (R, rank, pivot_columns) with R in reduced row echelon form."""
        rows, pivots = backend.rref_rows(_scaled_rows(self.data)[0])
        red = _fraction_rows(rows, pivots, self.cols)
        red += [[ZERO] * self.cols for _ in range(self.rows - len(pivots))]
        return Matrix(red), len(pivots), pivots

    def rank(self):
        return self.rref()[1]

    def kernel_basis(self):
        """Exact basis of the null space, canonically echelonized.

        Vectors are returned as rows whose own matrix is in reduced row
        echelon form (leading entry 1), so the output is reproducible.

        The vectors are read off the pivot rows in integers: for a free
        column f, entry L at f and -r[f] L / r[p] at the pivot p of each
        pivot row r with r[f] != 0, L the lcm of those pivots.  A second
        ``rref_rows`` call echelonizes them.
        """
        rows, pivots = backend.rref_rows(_scaled_rows(self.data)[0])
        pivset = set(pivots)
        entries = {f: [] for f in range(self.cols) if f not in pivset}
        for r, p in zip(rows, pivots):
            for f, v in r.items():
                if f != p:
                    entries[f].append((p, v, r[p]))
        raw = []
        for f, col in entries.items():
            den = lcm(*(c for _, _, c in col))
            vec = {p: -v * (den // c) for p, v, c in col}
            vec[f] = den
            raw.append(vec)
        return _fraction_rows(*backend.rref_rows(raw), self.cols)

    def det(self):
        """Exact determinant by fraction-free elimination (Bareiss, 1968).

        The rows are scaled to integers A / d over one denominator.  Step k
        replaces each entry below and right of the pivot by
        (a_ij a_kk - a_ik a_kj) / p, p the previous pivot, an exact integer
        division; the last pivot is det A, so det = last pivot / d^n."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        rows, d = integer_rows(self.data)
        a = [list(row) for row in rows]
        sign, prev = 1, 1
        for k in range(n):
            if not a[k][k]:
                swap = next((i for i in range(k + 1, n) if a[i][k]), None)
                if swap is None:
                    return ZERO
                a[k], a[swap] = a[swap], a[k]
                sign = -sign
            piv = a[k][k]
            for i in range(k + 1, n):
                row, aik = a[i], a[i][k]
                for j in range(k + 1, n):
                    row[j] = (row[j] * piv - aik * a[k][j]) // prev
            prev = piv
        return Fraction(sign * prev, d**n)

    def inverse(self):
        """The inverse as ``Fraction`` entries of ``integer_inverse``."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        inv, d = integer_inverse(self.data)
        return Matrix([[ratio(x, d) for x in row] for row in inv])

    def solve(self, rhs):
        """Solve A x = rhs exactly; returns one solution (free vars set to 0)
        or None if inconsistent.  ``rhs`` is a list of Fractions."""
        if len(rhs) != self.rows:
            raise ValueError("length mismatch")
        n = self.cols
        rows, pivots = backend.rref_rows(
            _scaled_rows([row + [b] for row, b in zip(self.data, rhs)])[0]
        )
        if n in pivots:
            return None
        x = [ZERO] * n
        for r, p in zip(rows, pivots):
            x[p] = ratio(r.get(n, 0), r[p])
        return x

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [qstr(x) for row in self.data for x in row],
        }


class Bivector:
    """Pointwise antisymmetric 2-tensor L = ints / den: integer rows with
    ints[i][j] = -ints[j][i] over one denominator.  Pairing with two
    differentials gives the bracket value {f,g} = sum_ij L[i][j] df_i dg_j."""

    __slots__ = ("dim", "ints", "den")

    def __init__(self, entries):
        ints, den = integer_rows(entries)
        n = len(ints)
        if any(len(row) != n for row in ints):
            raise ValueError("bivector matrix must be square")
        if any(ints[i][j] != -ints[j][i] for i in range(n) for j in range(i, n)):
            raise ValueError("bivector matrix must be antisymmetric")
        self.dim, self.ints, self.den = n, ints, den

    @classmethod
    def from_integers(cls, ints, den):
        """ints / den for an integer matrix built antisymmetric, as it is."""
        out = cls.__new__(cls)
        out.dim, out.ints, out.den = len(ints), ints, den
        return out

    @classmethod
    def zero(cls, dim):
        return cls([[0] * dim for _ in range(dim)])

    @classmethod
    def from_wedges(cls, dim, wedges):
        """Build sum of coef * (u ^ w) with u ^ w = u(x)w - w(x)u.

        The sum is taken in integers: each leg is scaled by the lcm of its
        denominators, every wedge's coefficient is brought over one common
        denominator L, and ``wedge_sum``'s integer outer products over L
        are the bivector.  Coefficients and leg entries are ``int`` or
        ``Fraction``."""
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
        return cls.from_integers(ent, den)

    @property
    def entries(self):
        """The matrix as ``Fraction`` rows, made on each read."""
        return [[ratio(x, self.den) for x in row] for row in self.ints]

    def bracket_eval(self, df, dg):
        """Value of {f,g} from the covectors df, dg of the differentials at
        this point, summed in integers over their denominators."""
        (f, fd), (g, gd) = df, dg
        if len(f) != self.dim or len(g) != self.dim:
            raise ValueError("differential length mismatch")
        g_nz = [(j, y) for j, y in enumerate(g) if y]
        acc = sum(x * sum(row[j] * y for j, y in g_nz) for x, row in zip(f, self.ints) if x)
        return Fraction(acc, self.den * fd * gd)

    def contract(self, xi):
        """The vector L(xi, .) for a covector xi = (ints, den), as
        ``Fraction``s; zero iff xi conormal directions are preserved."""
        c, d = xi
        if len(c) != self.dim:
            raise ValueError("covector length mismatch")
        rows = [(x, row) for x, row in zip(c, self.ints) if x]
        return [ratio(sum(x * row[b] for x, row in rows), self.den * d) for b in range(self.dim)]

    def is_zero(self):
        return not any(map(any, self.ints))

    def __eq__(self, other):
        return isinstance(other, Bivector) and self.entries == other.entries

    def __repr__(self):
        return "Bivector(%r)" % (self.entries,)


def integer_inverse(rows):
    """(P, d) with P / d the inverse of the square matrix ``rows`` (entries
    ``int`` or ``Fraction``), P an integer matrix in lowest terms over d.

    One ``rref_rows`` pass on [A | I], row i carrying its scale d_i into
    the identity block; primitive pivot row i is p_i times row i of
    [I | A^-1], so over d, the lcm of the pivots, row i of P is its right
    half times d / p_i.  Raises ``ValueError`` on a singular matrix."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse of a non-square matrix")
    ints, dens = _scaled_rows(rows)
    for i, (r, d) in enumerate(zip(ints, dens)):
        r[n + i] = d
    red, pivots = backend.rref_rows(ints)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    d = lcm(*(r[i] for i, r in enumerate(red)))
    return [[r.get(n + j, 0) * (d // r[i]) for j in range(n)] for i, r in enumerate(red)], d


def echelon_rows(rows):
    """(prim, pivots): the reduced row echelon form of dense rows of ``int``
    or ``Fraction`` entries, in integers.  ``prim`` holds the primitive
    integer pivot rows of ``rref_rows`` as dense lists, each the least
    integer multiple of its RREF row with a positive pivot."""
    cols = len(rows[0]) if rows else 0
    sparse, pivots = backend.rref_rows(_scaled_rows(rows)[0])
    return [[r.get(j, 0) for j in range(cols)] for r in sparse], pivots


def integer_vector(vec):
    """The covector (ints, d) of vec = ints / d, d the lcm of the entries'
    denominators."""
    (ints,), d = integer_rows([vec])
    return ints, d


def covector(ints, den):
    """The covector ints / den (``den > 0``) in lowest terms."""
    g = gcd(den, *ints)
    return ([x // g for x in ints], den // g) if g != 1 else (ints, den)


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
    rows, pivots = backend.rref_rows(_scaled_rows(span_rows)[0])
    return len(backend.rref_rows(rows + _scaled_rows([vec])[0])[1]) == len(pivots)

