"""Which report check catches which broken bivector.

Each mutation wraps one wedge builder of ``wonderland.poisson``
(``mixed_wedges``, ``pi_wedges`` or ``orbit_wedges``) for one test, in
every module that imports it, so the program runs unedited around it.
The configs are small: every experiment of ``run --experiment all`` at 2
samples, ``--model sl2-grassmann --experiment action`` at 2 samples, and
one sl3 action residual on Gr(8, 16).  Each case asserts the exact set of
failing checks, named by config, so a check that stops catching a mutation
fails here.

The checks that catch none of these mutations, and why:

* ``action-map-identities``, ``rank1/torus-quotient``,
  ``saturation-separation``, ``saturation/boundary-pairs``,
  ``f2/trace-fixture`` and ``f2/word-identity`` read no bivector;
* ``tangency/*``: every leg is a flow tangent of the pair action, which
  preserves the boundary divisor, so any combination of them stays tangent;
* ``glue/*``, ``product-bracket`` and ``projection-poisson`` compare the
  field with itself along two routes, and a mutation changes both alike;
* ``rank1/bracket-table-zero``: the one-factor quotient is a curve, so
  every bracket on it vanishes; a broken field shows as ``bracket-closure``;
* ``jacobi/chart*`` see one factor, so no cross term, and a scaled field is
  still Poisson;
* ``pi-multiplicativity`` sees no mutation that keeps the group bivector
  of the form R_g r - L_g r: that is multiplicative for every r, so
  dropping d from both pair-group coefficients at once goes unseen by
  every check here.
"""

import pytest

from wonderland import geometry, gitq, lie, linalg, poisson, reports
from wonderland.geometry import GroupPair

REAL = {name: getattr(poisson, name) for name in ("mixed_wedges", "pi_wedges", "orbit_wedges")}


def _diagonal_count(splitting, reps):
    """The number of one-factor wedges that lead a ``mixed_wedges`` list;
    the cross wedges follow them."""
    return len(reps) * len(splitting.integer_pairs)


def _cross(change):
    def mixed(model, splitting, reps):
        out = REAL["mixed_wedges"](model, splitting, reps)
        k = _diagonal_count(splitting, reps)
        return out[:k] + [change(*w) for w in out[k:]]

    return "mixed_wedges", mixed


def _diagonal(change):
    def mixed(model, splitting, reps):
        out = REAL["mixed_wedges"](model, splitting, reps)
        k = _diagonal_count(splitting, reps)
        return change(out[:k]) + out[k:]

    return "mixed_wedges", mixed


def _left(name, factor):
    """The group wedge builder ``name`` with each left (odd) wedge's
    coefficient multiplied by factor(d), d the scale of its dual pair."""

    def group(*args):
        out = REAL[name](*args)
        pairs = args[1].integer_pairs
        return [
            (c * factor(pairs[i // 2][2]), u, w) if i % 2 else (c, u, w)
            for i, (c, u, w) in enumerate(out)
        ]

    return name, group


ACTION = {
    "all:diagonal-action",
    "all:poisson-action",
    "grassmann:poisson-action-grassmann",
    "sl3:poisson-action-grassmann",
}

MATRIX = {
    "unmutated": (None, set()),
    "cross-doubled": (_cross(lambda c, u, w: (2 * c, u, w)), {"all:diagonal-action"}),
    "cross-legs-swapped": (_cross(lambda c, u, w: (c, w, u)), {"all:diagonal-action"}),
    "diagonal-doubled": (_diagonal(lambda ws: [(2 * c, u, w) for c, u, w in ws]), ACTION),
    "first-diagonal-dropped": (
        _diagonal(lambda ws: ws[1:]),
        ACTION
        | {
            "all:bracket-closure",
            "all:f2/closure",
            "all:f2/quotient-table-zero",
            "all:jacobi/chart0",
            "all:jacobi/chart1",
            "all:jacobi/chart2",
            "all:jacobi/chart3",
        },
    ),
    "pair-group-left-doubled": (_left("pi_wedges", lambda d: 2), {"all:pi-multiplicativity"}),
    "pair-group-left-ignores-d": (_left("pi_wedges", lambda d: d), {"all:pi-multiplicativity"}),
    "orbit-left-doubled": (_left("orbit_wedges", lambda d: 2), ACTION),
    "orbit-left-ignores-d": (_left("orbit_wedges", lambda d: d), ACTION),
}


@pytest.fixture(scope="module")
def sl3_sample():
    sl3 = lie.build_sl(3)
    double, form = lie.double_algebra(sl3)
    gr = geometry.GrassmannModel(sl3, double, form)
    unipotent = [
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [2, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [1, 1, 0], [0, 3, 1]],
        [[1, 2, 0], [0, 1, -1], [0, 0, 1]],
    ]
    g1, h1, g2, h2 = map(linalg.Matrix, unipotent)
    src = gr.act(GroupPair(g1, h1), gr.diagonal_point())
    return gr, lie.standard_splitting(sl3), GroupPair(g2, h2), src


def _failing(sl3_sample):
    out = set()
    for label, cfg in (
        ("all", reports.ExperimentConfig("all", samples=2, seed=42)),
        ("grassmann", reports.ExperimentConfig("action", model="sl2-grassmann", samples=2, seed=42)),
    ):
        out |= {"%s:%s" % (label, c.name) for c in reports.run_experiment(cfg).checks if not c.passed}
    gr, split, pair, src = sl3_sample
    res = poisson.poisson_action_residual(gr, split, pair, src)
    if not res.passed:
        out.add("sl3:" + res.name)
    return out


@pytest.mark.parametrize("mutation", list(MATRIX))
def test_mutation_is_caught_by_exactly_these_checks(mutation, sl3_sample, monkeypatch):
    wrap, want = MATRIX[mutation]
    if wrap is not None:
        name, fn = wrap
        for module in (poisson, gitq):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fn)
    assert _failing(sl3_sample) == want
