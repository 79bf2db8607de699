"""Sparse multivariate polynomials and rational functions over Q.

Terms are stored as a map from exponent tuples to nonzero Fraction
coefficients.  The canonical term order is graded lexicographic (total degree
first, then lexicographic on exponent tuples, largest first), which fixes the
serialized form.  Binary operations require both operands to share the same
variable tuple; charts declare their variables once and everything downstream
sticks to them.
"""

from fractions import Fraction
from math import lcm

from wonderland import backend
from wonderland.linalg import integer_vector, qparse, qstr

Q = Fraction


def _pairs(terms):
    return {e: (c.numerator, c.denominator) for e, c in terms.items()}


def _unpairs(terms):
    return {e: Fraction(n, d) for e, (n, d) in terms.items() if n != 0}


def grlex_key(exps):
    return (sum(exps), exps)


class MultiPoly:
    """Polynomial in a fixed ordered tuple of named variables."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean = {}
        if terms:
            nv = len(self.variables)
            for e, c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                e = tuple(int(x) for x in e)
                if len(e) != nv or any(x < 0 for x in e):
                    raise ValueError("bad exponent vector %r" % (e,))
                clean[e] = clean.get(e, Fraction(0)) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def const(cls, variables, c):
        c = Fraction(c)
        if c == 0:
            return cls.zero(variables)
        return cls(variables, {tuple([0] * len(variables)): c})

    @classmethod
    def var(cls, variables, name):
        variables = tuple(variables)
        try:
            i = variables.index(name)
        except ValueError:
            raise ValueError("unknown variable %r" % name) from None
        e = [0] * len(variables)
        e[i] = 1
        return cls(variables, {tuple(e): Fraction(1)})

    @classmethod
    def gens(cls, variables):
        return [cls.var(variables, v) for v in variables]

    # -- basic queries ------------------------------------------------
    def is_zero(self):
        return not self.terms

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.variables == other.variables and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == MultiPoly.const(self.variables, other).terms
        return NotImplemented

    def __hash__(self):
        return hash((self.variables, tuple(self.sorted_items())))

    # -- arithmetic ---------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise ValueError("variable mismatch: %r vs %r" % (self.variables, other.variables))
            return other
        return MultiPoly.const(self.variables, other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        p = MultiPoly.__new__(MultiPoly)
        p.variables = self.variables
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = MultiPoly.__new__(MultiPoly)
        p.variables = self.variables
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return MultiPoly.zero(self.variables)
            p = MultiPoly.__new__(MultiPoly)
            p.variables = self.variables
            p.terms = {e: c * v for e, v in self.terms.items()}
            return p
        other = self._coerce(other)
        prod = backend.poly_mul(_pairs(self.terms), _pairs(other.terms))
        p = MultiPoly.__new__(MultiPoly)
        p.variables = self.variables
        p.terms = _unpairs(prod)
        return p

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("nonnegative integer power required")
        out = MultiPoly.const(self.variables, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- calculus and evaluation ---------------------------------------
    def diff(self, name):
        """Formal partial derivative with respect to a declared variable."""
        try:
            i = self.variables.index(name)
        except ValueError:
            raise ValueError("unknown variable %r" % name) from None
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            k = ne[i]
            ne[i] = k - 1
            out[tuple(ne)] = c * k
        p = MultiPoly.__new__(MultiPoly)
        p.variables = self.variables
        p.terms = out
        return p

    def grad(self):
        return [self.diff(v) for v in self.variables]

    def grad_at(self, point):
        return [self.diff(v).eval(point) for v in self.variables]

    def eval(self, point):
        """Evaluate at a rational point (sequence aligned with variables).

        An ``int`` or ``Fraction`` coordinate is read as it is; anything
        else is converted to a ``Fraction`` once."""
        if len(point) != len(self.variables):
            raise ValueError("point length mismatch")
        pairs = []
        for x in point:
            if not isinstance(x, (int, Fraction)):
                x = Fraction(x)
            pairs.append((x.numerator, x.denominator))
        n, d = backend.poly_eval(_pairs(self.terms), pairs)
        return Fraction(n, d)

    def subs(self, images):
        """Substitute polynomials for variables.

        ``images`` maps variable names to MultiPoly in some common target
        variable tuple; unmapped variables are not allowed.
        """
        if not self.terms:
            tgt = next(iter(images.values())).variables if images else self.variables
            return MultiPoly.zero(tgt)
        imgs = [images[v] for v in self.variables]
        tgt = imgs[0].variables
        out = MultiPoly.zero(tgt)
        for e, c in self.terms.items():
            term = MultiPoly.const(tgt, c)
            for img, k in zip(imgs, e):
                if k:
                    term = term * img**k
            out = out + term
        return out

    # -- io -------------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_items():
            factors = []
            for v, k in zip(self.variables, e):
                if k == 1:
                    factors.append(v)
                elif k > 1:
                    factors.append("%s^%d" % (v, k))
            body = "*".join(factors)
            if not body:
                parts.append(qstr(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append("%s*%s" % (qstr(c), body))
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __repr__(self):
        return "MultiPoly(%s)" % self

    def to_json(self):
        return {
            "variables": list(self.variables),
            "terms": [[list(e), qstr(c)] for e, c in self.sorted_items()],
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            tuple(obj["variables"]),
            {tuple(e): qparse(c) for e, c in obj["terms"]},
        )


class MonomialTable:
    """The integer evaluator of fixed groups of polynomials in one tuple of
    variables.  Each group (a list of ``MultiPoly``) gets integer
    coefficients over one denominator, the lcm of its coefficients', on one
    table of the monomials that occur; ``values`` evaluates each monomial
    once per point."""

    def __init__(self, groups):
        index = {}
        self.groups = []
        for polys in groups:
            den = lcm(*(c.denominator for p in polys for c in p.terms.values()))
            ints = [
                [(index.setdefault(e, len(index)), c.numerator * (den // c.denominator)) for e, c in p.terms.items()]
                for p in polys
            ]
            self.groups.append((ints, den))
        # monomial m: its (variable, exponent) pairs and top - deg m
        self.top = max((sum(e) for e in index), default=0)
        self.table = [(tuple((v, k) for v, k in enumerate(e) if k), self.top - sum(e)) for e in index]

    def values(self, coords):
        """One (ints, den) per group, polys[i](coords) = ints[i] / den.

        With the coordinates scaled to integers n / q over one denominator,
        monomial m is evaluated once, as n^m q^(top - deg m) = q^top z^m,
        and each group is its integer sums over its denominator times q^top."""
        ints, q = integer_vector(coords)
        pows = [[1, x] for x in ints]
        qpow = [1]
        for _ in range(self.top):
            qpow.append(qpow[-1] * q)
        values = []
        for factors, rest in self.table:
            x = qpow[rest]
            for v, k in factors:
                pv = pows[v]
                while len(pv) <= k:
                    pv.append(pv[-1] * pv[1])
                x *= pv[k]
            values.append(x)
        return [
            ([sum(c * values[m] for m, c in p) for p in polys], den * qpow[-1])
            for polys, den in self.groups
        ]


class RationalFn:
    """Quotient of two MultiPoly over the same variables.

    No polynomial gcd cancellation is attempted; the denominator is
    normalized so its leading (graded-lex) coefficient is 1, which keeps the
    representation deterministic.  Evaluation is defined only where the
    denominator is nonzero.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = MultiPoly.const(num.variables, 1)
        if num.variables != den.variables:
            raise ValueError("variable mismatch")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        lead = den.sorted_items()[0][1]
        if lead != 1:
            inv = 1 / lead
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    @property
    def variables(self):
        return self.num.variables

    def diff(self, name):
        """Quotient-rule partial derivative, exact."""
        du = self.num.diff(name)
        dv = self.den.diff(name)
        return RationalFn(du * self.den - self.num * dv, self.den * self.den)

    def eval(self, point):
        d = self.den.eval(point)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at sample point")
        return self.num.eval(point) / d

    def grad_at(self, point):
        """Pointwise gradient by the quotient rule (no symbolic quotients)."""
        u = self.num.eval(point)
        v = self.den.eval(point)
        if v == 0:
            raise ZeroDivisionError("denominator vanishes at sample point")
        du = self.num.grad_at(point)
        dv = self.den.grad_at(point)
        return [(a * v - u * b) / (v * v) for a, b in zip(du, dv)]

    def __str__(self):
        return "(%s) / (%s)" % (self.num, self.den)

    __repr__ = __str__
