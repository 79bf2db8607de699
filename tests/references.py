"""Test-side references: plain computations that the package's integer
paths are compared against, and bounded draws from a seeded stream."""

from fractions import Fraction as Q

from wonderland.lie import sl_matrix_of
from wonderland.sampling import RationalStream, sample_rational


def apply_to(matrix, vec):
    """The ``Matrix`` times a column vector, summed in ``Fraction``s."""
    if len(vec) != matrix.cols:
        raise ValueError("length mismatch")
    return [sum((x * v for x, v in zip(row, vec)), Q(0)) for row in matrix.data]


def basis_vectors(alg):
    """The basis of the algebra as coordinate vectors."""
    return [[Q(int(i == j)) for j in range(alg.dim)] for i in range(alg.dim)]


def elem_matrices(elem6):
    """A 6-vector in sl2 (+) sl2 coordinates as a pair of 2x2 matrices;
    the reference that ``Pgl2Model.elem_flats`` is tested against."""
    return sl_matrix_of(2, elem6[:3]), sl_matrix_of(2, elem6[3:])


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
