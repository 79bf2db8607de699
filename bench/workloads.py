"""The benchmark's three workloads.

Each workload has

* ``setup()``: import the package and build the shared exact objects; this
  is what ``setup_s`` times in a fresh process;
* ``inputs(seed, index)``: the inputs of pass ``index``, made by the
  benchmark from the run's seed (the program receives only these);
* ``run_pass(ctx, inp)``: one pass over the workload's batch, returning the
  program's outputs as plain data, ready to verify;
* ``verify(inp, out)``: independent checks (``oracle``); raises
  ``OracleError`` on a wrong output.

Program code is reached through module attributes (``lie.build_sl``), so
the traced run's wrappers see every call.  No workload starts a thread or a
process; ``WONDERLAND_THREADS`` and ``WONDERLAND_BACKEND`` keep the
program's defaults.
"""

import json
import random
from fractions import Fraction

import oracle


def _rng(seed, index, salt):
    return random.Random("%d/%d/%s" % (seed, index, salt))


def _rational(rng, bound):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _nonzero_rational(rng, bound):
    while True:
        x = _rational(rng, bound)
        if x:
            return x


def _sl_entries(rng, n, bound):
    return [_rational(rng, bound) for _ in range(n * (n - 1))] + [
        _nonzero_rational(rng, bound) for _ in range(n - 1)
    ]


class RunAll:
    """``wonderland run --experiment all --model pgl2-projective --samples
    20``: one report per pass, each pass with its own report seed."""

    name = "run-all"
    samples = 20
    degree = 4

    def setup(self):
        from wonderland import reports

        # run_experiment builds its own Context per report; building one
        # here is what set-up costs a user of the command
        return {"reports": reports, "context": reports.Context()}

    def inputs(self, seed, index):
        return {"seed": _rng(seed, index, self.name).getrandbits(32)}

    def run_pass(self, ctx, inp):
        reports = ctx["reports"]
        cfg = reports.ExperimentConfig(
            experiment="all",
            model="pgl2-projective",
            samples=self.samples,
            seed=inp["seed"],
            degree=self.degree,
        )
        return [reports.run_experiment(cfg).serialize()]

    def verify(self, inp, out):
        (text,) = out
        degenerate = oracle.check_run_all_report(text, inp["seed"], self.samples, self.degree)
        return {"negative_control_degenerate": degenerate}


M2_DEGREES = [1, 2, 3, 4, 5, 6]
M2X2_DEGREES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (3, 3)]
RING_BOUND = 2


class InvariantRing:
    """Conjugation invariants of M_2 and M_2 x M_2 on a ladder of
    (multi)degrees, the graded ring of two factors, and tr(ABAB) in the
    trace generators.  The ladder is fixed; the seed draws the SL_2 points
    the expression is fitted on and the conjugation the oracle checks."""

    name = "invariant-ring"

    def __init__(self):
        # spaces already checked in SymPy; every pass computes the same
        # ladder, so later passes are checked by equality with these
        self._checked_spaces = []

    def setup(self):
        from wonderland import gitq, invariants, lie

        sl2 = lie.build_sl(2)
        return {
            "gitq": gitq,
            "invariants": invariants,
            "sl2": sl2,
            "m2": invariants.conjugation_action(sl2, 1),
            "m2x2": invariants.conjugation_action(sl2, 2),
        }

    def inputs(self, seed, index):
        rng = _rng(seed, index, self.name)
        points = [
            [oracle.sl_unipotent_product(_sl_entries(rng, 2, 9), 2) for _ in range(2)]
            for _ in range(64)
        ]
        return {"points": points, "conjugator": _sl_entries(rng, 2, 9)}

    def run_pass(self, ctx, inp):
        inv = ctx["invariants"]
        spaces = []
        for d in M2_DEGREES:
            spaces.append(inv.invariants_of_degree(ctx["m2"], (d,)))
        for md in M2X2_DEGREES:
            spaces.append(inv.invariants_of_degree(ctx["m2x2"], md))
        ring = ctx["gitq"].GradedInvariantRing(ctx["sl2"], 2, RING_BOUND)
        gens = inv.trace_generators(ctx["sl2"], 2)
        target = inv.trace_of_word(inv.m2_variables(2), (1, 2, 1, 2))
        points = iter(inp["points"])

        def sampler():
            a, b = next(points)
            return [x for m in (a, b) for row in m for x in row]

        coeffs = inv.express_in_generators(target, gens, 2, sampler, symbolic=False)
        return {
            "spaces": [
                (sp.degree, tuple(p.variables for p in sp.basis), [dict(p.terms) for p in sp.basis])
                for sp in spaces
            ],
            "ring": ring.dimensions(),
            "generators": [name for name, _ in gens],
            "expression": coeffs,
            "fit_points": inp["points"],
        }

    def verify(self, inp, out):
        if out["spaces"] not in self._checked_spaces:
            self._check_spaces(out["spaces"], oracle.sl_unipotent_product(inp["conjugator"], 2))
            self._checked_spaces.append(out["spaces"])
        for (p, q), dim in out["ring"].items():
            oracle.require(
                dim == oracle.m2x2_invariant_dimension(p, q),
                "ring dimension %d at (%d, %d)" % (dim, p, q),
            )
        want_degrees = {(i, j) for i in range(RING_BOUND + 1) for j in range(RING_BOUND + 1)}
        oracle.require(set(out["ring"]) == want_degrees, "ring degrees %r" % sorted(out["ring"]))
        # Fricke: tr(ABAB) = tr(AB)^2 - 2 in the generators (trA, trB, trAB)
        oracle.require(out["generators"] == ["trA", "trB", "trAB"], "generator order")
        oracle.require(
            out["expression"] == {(0, 0, 0): Fraction(-2), (0, 0, 2): Fraction(1)},
            "tr(ABAB) expressed as %r" % (out["expression"],),
        )
        for a, b in out["fit_points"][:8]:
            oracle.require(oracle.fricke_holds(a, b), "Fricke identity fails at a fit point")
        return {}

    @staticmethod
    def _check_spaces(spaces, g):
        conj = {}
        for degree, variables, bases in spaces:
            if len(degree) == 1:
                want = oracle.m2_invariant_dimension(degree[0])
            else:
                want = oracle.m2x2_invariant_dimension(*degree)
            oracle.require(len(bases) == want, "dimension %d at degree %r, want %d" % (len(bases), degree, want))
            for vs, terms in zip(variables, bases):
                if vs not in conj:
                    conj[vs] = oracle.ConjugationOracle(vs, g)
                oracle.require(conj[vs].is_invariant(terms), "basis element at %r is not invariant" % (degree,))


class Grassmann:
    """The subspace model: ``run --experiment jacobi`` and ``--experiment
    action`` with ``--model sl2-grassmann`` (Gr(3, 6)), and one sl_3 action
    residual in Gr(8, 16) at a source and a group pair drawn by the
    benchmark."""

    name = "grassmann"
    samples = 20

    def setup(self):
        from wonderland import geometry, lie, linalg, poisson, reports

        sl3 = lie.build_sl(3)
        double, form = lie.double_algebra(sl3)
        return {
            "reports": reports,
            "geometry": geometry,
            "linalg": linalg,
            "poisson": poisson,
            # the sl2 objects run_experiment rebuilds per report, as for run-all
            "sl2": reports.Context(),
            "gr3": geometry.GrassmannModel(sl3, double, form),
            "split3": lie.standard_splitting(sl3),
        }

    def inputs(self, seed, index):
        rng = _rng(seed, index, self.name)
        return {
            "jacobi_seed": rng.getrandbits(32),
            "action_seed": rng.getrandbits(32),
            "sl3": [_sl_entries(rng, 3, 3) for _ in range(4)],
        }

    def run_pass(self, ctx, inp):
        reports, geometry = ctx["reports"], ctx["geometry"]
        texts = []
        for exp, key in (("jacobi", "jacobi_seed"), ("action", "action_seed")):
            cfg = reports.ExperimentConfig(
                experiment=exp, model="sl2-grassmann", samples=self.samples, seed=inp[key]
            )
            texts.append(reports.run_experiment(cfg).serialize())
        gr = ctx["gr3"]
        g1, h1, g2, h2 = (ctx["linalg"].Matrix(oracle.sl_unipotent_product(e, 3)) for e in inp["sl3"])
        src = gr.act(geometry.GroupPair(g1, h1), gr.diagonal_point())
        pair = geometry.GroupPair(g2, h2)
        res = ctx["poisson"].poisson_action_residual(gr, ctx["split3"], pair, src)
        image = gr.act(pair, src)
        return {
            "reports": texts,
            "sl3": {"pass": res.passed, "residual": res.to_json()["residual"]},
            "subspaces": [src.mat.data, image.mat.data],
        }

    def verify(self, inp, out):
        for text, exp, key in zip(out["reports"], ("jacobi", "action"), ("jacobi_seed", "action_seed")):
            rep = json.loads(text)
            cfg = rep["config"]
            oracle.require(
                (cfg["experiment"], cfg["model"], cfg["seed"]) == (exp, "sl2-grassmann", inp[key]),
                "report config %r" % cfg,
            )
            names = {"jacobi": "jacobi/grassmann", "action": "poisson-action-grassmann"}
            oracle.require(len(rep["checks"]) == self.samples, "%s has %d checks" % (exp, len(rep["checks"])))
            for c in rep["checks"]:
                oracle.require(c["name"] == names[exp], "unexpected check %r" % c["name"])
                oracle.require(c["pass"] and c["residual"] == "0", "%s residual %s" % (exp, c["residual"]))
        oracle.require(out["sl3"]["pass"] and out["sl3"]["residual"] == "0", "sl3 action residual")
        for rows in out["subspaces"]:
            oracle.check_lagrangian(rows, 3)
        return {}


WORKLOADS = {w.name: w for w in (RunAll(), InvariantRing(), Grassmann())}
