"""Representation varieties and compactified character varieties.

Words in free-group generators evaluate to exact SL2 products; projective
equality (scalar relators) carries the PGL2 quotient.  Tuples in the
compactified model stratify by which factors hit the boundary, each
boundary factor splitting into its pair of projective-line parameters, and
the strata carry invariants of the induced mixed action.  The rank-one
model is worked out explicitly on the closure of the diagonal torus.
"""

from fractions import Fraction

from wonderland.geometry import ProjLinePoint
from wonderland.invariants import invariants_of_degree, mixed_factor_action, trace_coordinates
from wonderland.linalg import Matrix
from wonderland.poly import MultiPoly

Q = Fraction


class Presentation:
    """Generator count and relator words (signed indices, reduced)."""

    def __init__(self, rank, relators=()):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        self.relators = [list(w) for w in relators]
        for w in self.relators:
            for k, idx in enumerate(w):
                if idx == 0 or abs(idx) > rank:
                    raise ValueError("relator index %d out of range" % idx)
                if k and w[k - 1] == -idx:
                    raise ValueError("relator word is not reduced")

    def to_json(self):
        return {"r": self.rank, "relators": [list(w) for w in self.relators]}


class RepresentationPoint:
    """A tuple of SL2 ``Matrix`` entries standing for a PGL2 representation."""

    def __init__(self, mats):
        self.mats = tuple(mats)
        for m in self.mats:
            if m.det() != 1:
                raise ValueError("representation matrices must have determinant 1")

    @property
    def rank(self):
        return len(self.mats)


def sl2_inverse(m):
    """Exact inverse of a determinant-one 2x2 matrix."""
    return Matrix([[m.data[1][1], -m.data[0][1]], [-m.data[1][0], m.data[0][0]]])


def evaluate_word(point, word):
    """Product of generators and inverses along the word, exact."""
    out = Matrix.identity(2)
    for idx in word:
        if idx == 0 or abs(idx) > point.rank:
            raise ValueError("word index %d out of range" % idx)
        m = point.mats[abs(idx) - 1]
        out = out * (m if idx > 0 else sl2_inverse(m))
    return out


def is_scalar(m):
    return m.data[0][1] == 0 and m.data[1][0] == 0 and m.data[0][0] == m.data[1][1]


def relator_check(pres, point):
    """True iff every relator evaluates to a scalar matrix (projective
    identity, the PGL2 condition)."""
    if point.rank != pres.rank:
        raise ValueError("rank mismatch")
    return all(is_scalar(evaluate_word(point, w)) for w in pres.relators)


def trace_point(point):
    """(tr A, tr B, tr AB) for a two-generator representation."""
    if point.rank != 2:
        raise ValueError("trace coordinates need exactly two generators")
    a, b = point.mats
    ab = a * b
    tr = lambda m: m.data[0][0] + m.data[1][1]
    return (tr(a), tr(b), tr(ab))


class BoundaryStratum:
    """Per-factor classification of a tuple in the compactified model."""

    def __init__(self, factors, signature):
        self.factors = factors
        self.signature = signature

    def to_json(self):
        out = []
        for kind, data in self.factors:
            if kind == "interior":
                out.append({"kind": "interior", "point": data.to_json()})
            else:
                u, v = data
                out.append(
                    {"kind": "boundary", "left": list(u.vec), "right": list(v.vec)}
                )
        return {"signature": list(self.signature), "factors": out}


def stratify(model, points):
    """Boundary signature of a tuple; boundary factors are replaced by
    their projective-line pair through the rank-one factorization.

    The signature records only which factors degenerate, which is coarser
    than the conjugation orbit type (closures of conjugation orbits in the
    compactification need not decompose into finitely many suborbits)."""
    factors = []
    signature = []
    for i, p in enumerate(points):
        if p.is_boundary():
            signature.append(i)
            factors.append(("boundary", model.segre_factor(p)))
        else:
            factors.append(("interior", p))
    return BoundaryStratum(factors, tuple(signature))


def stratum_action_kinds(stratum):
    """The mixed-action factors of a stratum: each boundary factor carries
    its two line parameters (left translation and its dual), interior
    factors stay matrix factors with conjugation."""
    kinds = []
    for kind, _ in stratum.factors:
        if kind == "interior":
            kinds.append("m2")
        else:
            kinds.extend(["line", "line_dual"])
    return kinds


def parabolic_invariants(sl2, kinds, multidegree):
    """Invariants of the diagonal action on a mixed product of matrix and
    line factors, as an exact kernel space."""
    action = mixed_factor_action(sl2, kinds)
    return invariants_of_degree(action, tuple(multidegree))


def line_action_on_boundary_pair(g, u, v):
    """The conjugation action transported through the rank-one
    factorization: A = u v^T goes to (g u)(v^T g^{-1})."""
    gu = [
        g.data[0][0] * u.vec[0] + g.data[0][1] * u.vec[1],
        g.data[1][0] * u.vec[0] + g.data[1][1] * u.vec[1],
    ]
    ginv = sl2_inverse(g)
    vg = [
        ginv.data[0][0] * v.vec[0] + ginv.data[1][0] * v.vec[1],
        ginv.data[0][1] * v.vec[0] + ginv.data[1][1] * v.vec[1],
    ]
    return ProjLinePoint(gu), ProjLinePoint(vg)


# ---------------------------------------------------------------------------
# the rank-one compactified model: the closure of the diagonal torus
# ---------------------------------------------------------------------------


def rank1_compactified_model(max_degree=6):
    """The one-generator picture on the torus closure {[x:0:0:y]}.

    The restrictions of trace and determinant are x + y (degree 1) and x y
    (degree 2); the Weyl swap fixes both.  Per-degree dimensions of the
    swap-invariant functions match a polynomial ring on generators of
    weights 1 and 2, confirming the one-dimensional quotient picture.
    """
    tvars = ("x", "y")
    x = MultiPoly.var(tvars, "x")
    y = MultiPoly.var(tvars, "y")
    (_, tr, _), (_, det, _) = trace_coordinates(1)
    to_torus = {
        "a": x,
        "b": MultiPoly.zero(tvars),
        "c": MultiPoly.zero(tvars),
        "d": y,
    }
    tr_t = tr.subs(to_torus)
    det_t = det.subs(to_torus)
    swap = {"x": y, "y": x}
    report = {
        "torus": "[x:0:0:y]",
        "tr_restricted": str(tr_t),
        "det_restricted": str(det_t),
        "tr_swap_invariant": tr_t.subs(swap) == tr_t,
        "det_swap_invariant": det_t.subs(swap) == det_t,
    }
    dims = []
    weighted = []
    for d in range(max_degree + 1):
        monos = [(i, d - i) for i in range(d + 1)]
        rows = []
        for (i, j) in monos:
            img = {(j, i): Q(1)}
            row = [img.get(e, Q(0)) - (Q(1) if e == (i, j) else Q(0)) for e in monos]
            rows.append(row)
        dim = len(Matrix([[rows[r][c] for r in range(len(monos))] for c in range(len(monos))]).kernel_basis())
        dims.append(dim)
        weighted.append(len([(i, j) for i in range(d + 1) for j in range(d + 1) if i + 2 * j == d]))
    report["invariant_dims"] = dims
    report["weighted_ring_dims"] = weighted
    report["dims_match"] = dims == weighted
    return report
