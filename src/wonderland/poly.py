"""Sparse multivariate polynomials and rational functions over Q.

A ``MultiPoly`` is integers over one denominator: ``ints`` maps exponent
tuples to nonzero ``int`` coefficients, and the polynomial is ``ints / den``
with ``den > 0`` and ``gcd(den, *ints.values()) == 1``; zero is ``({}, 1)``.
That form is canonical, so equal polynomials have equal ``ints`` and
``den``.  Every operation runs on the integers (``backend.poly_mul`` is the
product, ``MonomialTable`` the evaluator), and ``terms``, the map from
exponent tuples to ``Fraction`` coefficients, is made on read for output.
The canonical term order is graded lexicographic (total degree
first, then lexicographic on exponent tuples, largest first), which fixes the
serialized form.  Binary operations require both operands to share the same
variable tuple; charts declare their variables once and everything downstream
sticks to them.
"""

from fractions import Fraction
from math import gcd, lcm

from wonderland import backend
from wonderland.linalg import integer_vector, qparse, qstr


def _canonical(ints, den):
    """``ints / den`` in canonical form; ``ints`` holds no zero."""
    if not ints:
        return {}, 1
    if den != 1:
        g = gcd(den, *ints.values())
        if g != 1:
            return {e: c // g for e, c in ints.items()}, den // g
    return ints, den


def _pairs(terms):
    """``(ints, den)``: the coefficient map ``terms`` (``int``, ``Fraction``
    or anything ``Fraction`` accepts) as integers over one denominator, in
    canonical form: over the lcm of the reduced denominators, the
    numerators have no common factor with it.  The benchmark tracer counts
    this function and ``_unpairs`` as ``convert.calls`` until it retires
    that counter (see ROADMAP.md)."""
    ratios = {}
    den = 1
    for e, c in terms.items():
        n, d = (c if isinstance(c, (int, Fraction)) else Fraction(c)).as_integer_ratio()
        if n:
            ratios[e] = n, d
            den = lcm(den, d)
    return {e: n * (den // d) for e, (n, d) in ratios.items()}, den


def _unpairs(ints, den):
    """The ``Fraction`` coefficient map of ``ints / den``: the ``terms``
    view.  Counted by the benchmark tracer with ``_pairs``."""
    return {e: Fraction(c, den) for e, c in ints.items()}


def grlex_key(exps):
    return (sum(exps), exps)


class MultiPoly:
    """Polynomial in a fixed ordered tuple of named variables."""

    __slots__ = ("variables", "ints", "den")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        ints, self.den = _pairs(terms or {})
        self.ints = {}
        for e, c in ints.items():
            k = tuple(map(int, e))
            if len(k) != len(self.variables) or k != tuple(e) or min(k, default=0) < 0:
                raise ValueError("bad exponent vector %r" % (e,))
            self.ints[k] = c

    @classmethod
    def _of(cls, variables, ints, den=1):
        """The polynomial ``ints / den`` (``ints`` without zeros, ``den > 0``)."""
        p = cls.__new__(cls)
        p.variables = variables
        p.ints, p.den = _canonical(ints, den)
        return p

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, variables):
        return cls._of(tuple(variables), {})

    @classmethod
    def const(cls, variables, c):
        variables = tuple(variables)
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        if c == 0:
            return cls._of(variables, {})
        return cls._of(variables, {(0,) * len(variables): c.numerator}, c.denominator)

    @classmethod
    def var(cls, variables, name):
        variables = tuple(variables)
        try:
            i = variables.index(name)
        except ValueError:
            raise ValueError("unknown variable %r" % name) from None
        e = [0] * len(variables)
        e[i] = 1
        return cls._of(variables, {tuple(e): 1})

    @classmethod
    def gens(cls, variables):
        return [cls.var(variables, v) for v in variables]

    # -- basic queries ------------------------------------------------
    @property
    def terms(self):
        """The coefficients as ``{exponent tuple: Fraction}``, made on read."""
        return _unpairs(self.ints, self.den)

    def is_zero(self):
        return not self.ints

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.variables, other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.den == other.den and self.ints == other.ints

    def __hash__(self):
        return hash((self.variables, self.den, frozenset(self.ints.items())))

    # -- arithmetic ---------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise ValueError("variable mismatch: %r vs %r" % (self.variables, other.variables))
            return other
        return MultiPoly.const(self.variables, other)

    def __add__(self, other):
        other = self._coerce(other)
        da, db = self.den, other.den
        den = da * (db // gcd(da, db))
        ma, mb = den // da, den // db
        out = {e: c * ma for e, c in self.ints.items()} if ma != 1 else dict(self.ints)
        for e, c in other.ints.items():
            s = out.get(e, 0) + c * mb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly._of(self.variables, out, den)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of(self.variables, {e: -c for e, c in self.ints.items()}, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MultiPoly._of(self.variables, {})
            n = other.numerator
            return MultiPoly._of(self.variables, {e: c * n for e, c in self.ints.items()}, self.den * other.denominator)
        other = self._coerce(other)
        return MultiPoly._of(self.variables, backend.poly_mul(self.ints, other.ints), self.den * other.den)

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
        for e, c in self.ints.items():
            k = e[i]
            if k:
                out[e[:i] + (k - 1,) + e[i + 1 :]] = c * k
        return MultiPoly._of(self.variables, out, self.den)

    def grad(self):
        return [self.diff(v) for v in self.variables]

    def grad_at(self, point):
        return [self.diff(v).eval(point) for v in self.variables]

    def eval(self, point):
        """Evaluate at a rational point (sequence aligned with variables).

        An ``int`` or ``Fraction`` coordinate is read as it is; anything
        else is converted to a ``Fraction`` once.  The one ``Fraction`` made
        from ``Fraction`` coordinates is the value."""
        if len(point) != len(self.variables):
            raise ValueError("point length mismatch")
        point = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in point]
        ((n,), d) = MonomialTable([[self]]).values(point)[0]
        return Fraction(n, d)

    def subs(self, images):
        """Substitute polynomials for variables.

        ``images`` maps variable names to MultiPoly in some common target
        variable tuple; unmapped variables are not allowed.
        """
        if not self.ints:
            tgt = next(iter(images.values())).variables if images else self.variables
            return MultiPoly.zero(tgt)
        imgs = [images[v] for v in self.variables]
        tgt = imgs[0].variables
        powers = {}
        out = MultiPoly.zero(tgt)
        for e, c in self.ints.items():
            term = MultiPoly._of(tgt, {(0,) * len(tgt): c})
            for i, k in enumerate(e):
                if k:
                    pw = powers.get((i, k))
                    if pw is None:
                        pw = powers[i, k] = imgs[i] ** k
                    term = term * pw
            out = out + term
        return MultiPoly._of(tgt, out.ints, out.den * self.den)

    # -- io -------------------------------------------------------------
    def __str__(self):
        if not self.ints:
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
    coefficients over one denominator, the lcm of its polynomials', on one
    table of the monomials that occur; ``values`` evaluates each monomial
    once per point."""

    def __init__(self, groups):
        index = {}
        self.groups = []
        for polys in groups:
            den = lcm(*(p.den for p in polys))
            ints = [
                [(index.setdefault(e, len(index)), c * (den // p.den)) for e, c in p.ints.items()]
                for p in polys
            ]
            self.groups.append((ints, den))
        # monomial m: its (variable, exponent) pairs and top - deg m
        self.top = max((sum(e) for e in index), default=0)
        self.table = [(tuple((v, k) for v, k in enumerate(e) if k), self.top - sum(e)) for e in index]

    def values(self, coords):
        """One (ints, den) per group, polys[i](coords) = ints[i] / den.

        With the coordinates scaled to integers n / q over one denominator,
        ``backend.poly_eval`` evaluates monomial m once, as
        n^m q^(top - deg m) = q^top z^m, and each group is its integer sums
        over its denominator times q^top."""
        values, qtop = backend.poly_eval(self.table, self.top, *integer_vector(coords))
        return [
            ([sum(c * values[m] for m, c in p) for p in polys], den * qtop)
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
        lead = den.ints[max(den.ints, key=grlex_key)]
        if lead != den.den:
            inv = Fraction(den.den, lead)
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
