"""Deterministic rational sampling.

All randomness in the package flows through ``sample_rational``, a pure
function of (seed, index) built on the splitmix64 mixer, so every experiment
is replayable bit-for-bit on any platform.  No ambient entropy anywhere.
A ``RationalStream`` draws every value with the one bound ``BOUND``.
"""

from fractions import Fraction
from math import prod

from wonderland.backend import mat_mul
from wonderland.linalg import Matrix, integer_rows, ratio

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4B7C15

# |p| <= BOUND and 1 <= q <= BOUND for every p/q a stream draws
BOUND = 9


def _mix(z):
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def raw64(seed, index):
    """The index-th 64-bit word of the stream with the given seed."""
    return _mix((seed + (index + 1) * _GOLDEN) & _MASK)


def subseed(seed, label_index):
    """Derive an independent stream seed (used to give each check its own
    stream so sweeps can run in any order)."""
    return raw64(seed, (label_index << 1) | 1)


def sample_rational(seed, index, bound):
    """Deterministic rational p/q with |p| <= bound and 1 <= q <= bound."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    u = raw64(seed, 2 * index)
    v = raw64(seed, 2 * index + 1)
    p = u % (2 * bound + 1) - bound
    q = v % bound + 1
    return Fraction(p, q)


class RationalStream:
    """Sequential view over sample_rational(seed, 0), (seed, 1), ...

    Construction order fixes everything; two streams with the same seed
    produce the same values regardless of scheduling.  The seed must lie in
    [0, 2^64): ``raw64`` reduces it mod 2^64, so any other seed would replay
    another seed's stream.
    """

    def __init__(self, seed):
        if not 0 <= seed <= _MASK:
            raise ValueError("seed must lie in [0, 2^64)")
        self.seed = seed
        self.index = 0

    def take(self):
        x = sample_rational(self.seed, self.index, BOUND)
        self.index += 1
        return x

    def take_nonzero(self):
        while True:
            x = self.take()
            if x != 0:
                return x

    def vector(self, n):
        return [self.take() for _ in range(n)]

    def nonzero_vector(self, n):
        while True:
            v = self.vector(n)
            if any(x != 0 for x in v):
                return v

    def matrix(self, rows, cols):
        return Matrix([[self.take() for _ in range(cols)] for _ in range(rows)])

    def sl2(self):
        """A generic exact SL2 element: lower * upper * diag(t, 1/t)."""
        return self.sl(2)

    def sl(self, n):
        """A generic determinant-one n x n matrix: unit lower and upper
        triangular factors times a diagonal with reciprocal last entry.

        The product L U D is formed in integers: L and U are scaled over
        their denominators, L U is one integer product, and each entry
        becomes one ``Fraction`` with its column's diagonal entry."""
        lower = [[int(i == j) for j in range(n)] for i in range(n)]
        upper = [[int(i == j) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i):
                lower[i][j] = self.take()
                upper[j][i] = self.take()
        diag = [self.take_nonzero() for _ in range(n - 1)]
        num = prod(t.numerator for t in diag)
        den = prod(t.denominator for t in diag)
        cols = [(t.numerator, t.denominator) for t in diag] + [(den, num)]
        (lz, dl), (uz, du) = integer_rows(lower), integer_rows(upper)
        return Matrix(
            [[ratio(x * a, dl * du * b) for x, (a, b) in zip(row, cols)] for row in mat_mul(lz, uz)]
        )

    def invertible2(self):
        while True:
            m = self.matrix(2, 2)
            if m.det() != 0:
                return m

    def rank_one2(self):
        """A nonzero 2x2 matrix u v^T of rank exactly one."""
        u = self.nonzero_vector(2)
        v = self.nonzero_vector(2)
        return Matrix([[u[0] * v[0], u[0] * v[1]], [u[1] * v[0], u[1] * v[1]]])
