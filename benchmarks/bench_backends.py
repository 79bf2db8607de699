"""Benchmark the compiled kernel extension against the pure-Python twin.

Workloads mirror where the package actually spends time: exact rational row
reduction (many small systems, one dense system, and the tall sparse stacked
derivation system of the M2 x M2 invariants of bidegree (3, 3)), sparse
polynomial products, and polynomial evaluation sweeps.
Inputs are deterministic; both backends must return identical results, which
is asserted before timings are reported.

Usage: python3 benchmarks/bench_backends.py [--quick]
"""

import argparse
import sys
import time

from wonderland import _kernels_py
from wonderland.invariants import conjugation_action, monomial_basis
from wonderland.lie import build_sl
from wonderland.sampling import RationalStream

try:
    from wonderland import _kernels_cy
except ImportError:
    _kernels_cy = None


def pairs_matrix(stream, rows, cols, bound=99):
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            x = stream.take(bound)
            row.append((x.numerator, x.denominator))
        out.append(row)
    return out


def derivation_system(degree):
    """The stacked derivation rows whose kernel is the M2 x M2 invariants of
    the given bidegree, as pairs; (3, 3) gives 1116 rows and 400 columns."""
    action = conjugation_action(build_sl(2), 2)
    rows = action.derivation_rows(monomial_basis(action, degree))
    return [[(x.numerator, x.denominator) for x in row] for row in rows]


def dense_poly(stream, nvars, degree, nterms, bound=9):
    terms = {}
    while len(terms) < nterms:
        e = []
        left = degree
        for _ in range(nvars):
            k = abs(stream.take(bound).numerator) % (left + 1)
            e.append(k)
            left -= k
        x = stream.take_nonzero(bound)
        terms[tuple(e)] = (x.numerator, x.denominator)
    return terms


def timeit(fn, repeats):
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def run(quick):
    nsmall = 120 if quick else 400
    size = 20 if quick else 36
    nterms = 60 if quick else 140
    npoints = 60 if quick else 200
    repeats = 2 if quick else 3

    stream = RationalStream(2718)
    small_mats = [pairs_matrix(stream, 9, 12, bound=3) for _ in range(nsmall)]
    mat = pairs_matrix(stream, size, size + 6)
    sparse = derivation_system((3, 3))
    pa = dense_poly(stream, 4, 6, nterms)
    pb = dense_poly(stream, 4, 6, nterms)
    pe = dense_poly(stream, 6, 8, nterms)
    points = []
    for _ in range(npoints):
        pt = []
        for _ in range(6):
            x = stream.take(9)
            pt.append((x.numerator, x.denominator))
        points.append(tuple(pt))

    workloads = [
        # many small reductions with small entries: the package's real profile
        ("rref 9x12 x%d" % nsmall, lambda k: [k.rref_rows(m) for m in small_mats]),
        # one large dense reduction: dominated by big-integer growth
        ("rref %dx%d dense" % (size, size + 6), lambda k: k.rref_rows(mat)),
        # tall, sparse and rank-deficient: the shape invariant spaces reduce
        ("rref %dx%d sparse" % (len(sparse), len(sparse[0])), lambda k: k.rref_rows(sparse)),
        ("poly_mul %d terms" % nterms, lambda k: k.poly_mul(pa, pb)),
        (
            "poly_eval x%d points" % npoints,
            lambda k: [k.poly_eval(pe, pt) for pt in points],
        ),
    ]

    backends = [("pure", _kernels_py)]
    if _kernels_cy is not None:
        backends.append(("compiled", _kernels_cy))
    else:
        print("compiled extension not built; timing the pure backend only")

    print("%-24s" % "workload", *("%12s" % name for name, _ in backends), "%10s" % "speedup")
    for label, work in workloads:
        times = []
        results = []
        for _, mod in backends:
            t, res = timeit(lambda m=mod: work(m), repeats)
            times.append(t)
            results.append(res)
        if len(results) == 2 and results[0] != results[1]:
            print("BACKEND MISMATCH in %s" % label, file=sys.stderr)
            return 1
        speed = "%9.2fx" % (times[0] / times[1]) if len(times) == 2 else "       n/a"
        print(
            "%-24s" % label,
            *("%11.4fs" % t for t in times),
            speed,
        )
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true", help="smaller sizes")
    sys.exit(run(ap.parse_args().quick))
