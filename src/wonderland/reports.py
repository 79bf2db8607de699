"""Experiment orchestration: deterministic configs, checks, reports.

Every experiment is a pure function of its config; all randomness flows
through the seeded sampler, so a rerun with the same config produces a
byte-identical report.  Wall time is kept off the report body (it goes to
stderr) so files can be compared directly.
"""

import json
import sys
import time
from fractions import Fraction

from wonderland import __version__
from wonderland.geometry import (
    GrassmannModel,
    GroupPair,
    Pgl2Model,
    ProjChart,
    ProjMatrixPoint,
)
from wonderland.gitq import (
    AffineChartQuotient,
    GradedInvariantRing,
    divisor_saturation,
    glue_consistency,
    product_bracket_residual,
    projection_poisson_residual,
    quotient_bracket_table,
)
from wonderland.invariants import (
    ProjectiveInvariant,
    det_of_factor,
    invariant_bracket_closure,
    m2_variables,
    pgl2_surrogates,
    trace_of_word,
)
from wonderland.charvar import (
    RepresentationPoint,
    rank1_compactified_model,
    trace_point,
)
from wonderland.lie import build_sl, standard_splitting
from wonderland.linalg import Matrix, qstr
from wonderland.poisson import (
    IdentityResidual,
    action_map_identities,
    diagonal_action_residual,
    splitting_bivector_field,
    jacobi_sweep,
    multiplicativity_residual,
    poisson_action_residual,
    residual_from_values,
    tangency_check,
)
from wonderland.sampling import RationalStream, subseed

Q = Fraction

KNOWN_EXPERIMENTS = (
    "jacobi",
    "action",
    "diagonal-action",
    "multiplicativity",
    "tangency",
    "glue",
    "saturation",
    "rank1",
    "f2-demo",
    "all",
)

KNOWN_MODELS = ("pgl2-projective", "sl2-grassmann")

# the experiments with a subspace-model runner; the others check P(M2) only
GRASSMANN_EXPERIMENTS = ("jacobi", "action")

# the experiments that read an option; the others accept only its default
OPTION_READERS = {"degree": ("rank1", "all"), "n_factors": ("diagonal-action", "all")}


class ExperimentConfig:
    """One experiment's parameters, validated on construction; the class
    attributes are the defaults."""

    model = "pgl2-projective"
    samples = 20
    seed = 42
    degree = 4
    n_factors = 2

    def __init__(
        self, experiment, model=model, samples=samples, seed=seed, degree=degree,
        n_factors=n_factors,
    ):
        self.experiment = experiment
        self.model = model
        self.samples = samples
        self.seed = seed
        self.degree = degree
        self.n_factors = n_factors
        if self.experiment not in KNOWN_EXPERIMENTS:
            raise ValueError("unknown experiment %r" % self.experiment)
        if self.model not in KNOWN_MODELS:
            raise ValueError("unknown model %r" % self.model)
        if self.model == "sl2-grassmann" and self.experiment not in GRASSMANN_EXPERIMENTS:
            raise ValueError(
                "experiment %r has no sl2-grassmann runner (use one of %s)"
                % (self.experiment, ", ".join(GRASSMANN_EXPERIMENTS))
            )
        if self.samples < 1:
            raise ValueError("sample count must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2^64)")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if self.n_factors < 1:
            raise ValueError("factor count must be >= 1")
        for option, readers in OPTION_READERS.items():
            unread = self.experiment not in readers
            if unread and getattr(self, option) != getattr(ExperimentConfig, option):
                raise ValueError(
                    "experiment %r does not read %s (only %s do)"
                    % (self.experiment, option, " and ".join(readers))
                )

    def to_json(self):
        return {
            "experiment": self.experiment,
            "model": self.model,
            "samples": self.samples,
            "seed": self.seed,
            "degree": self.degree,
            "n_factors": self.n_factors,
        }


class ExperimentReport:
    def __init__(self, config, checks, wall_time=0.0):
        self.config = config
        self.checks = checks
        self.wall_time = wall_time

    @property
    def passed(self):
        return sum(1 for c in self.checks if c.passed)

    @property
    def failed(self):
        return len(self.checks) - self.passed

    def to_json(self):
        return {
            "schema": 1,
            "tool": "wonderland",
            "version": __version__,
            "config": self.config.to_json(),
            "summary": {"pass": self.passed, "fail": self.failed},
            "checks": [c.to_json() for c in self.checks],
        }

    def serialize(self):
        """The report as ``json.dumps(..., sort_keys=True, indent=2)`` plus a
        newline, grown chunk by chunk: the encoder's list of some ten
        thousand chunks is never held at once."""
        text = ""
        for chunk in json.JSONEncoder(sort_keys=True, indent=2).iterencode(self.to_json()):
            text += chunk
        return text + "\n"


class Context:
    """Shared exact objects for one experiment run."""

    def __init__(self):
        self.sl2 = build_sl(2)
        self.model = Pgl2Model(self.sl2)
        self.split = standard_splitting(self.sl2)
        self.grass = GrassmannModel(self.sl2, self.split.double, self.split.form)
        self._chart_fields = {}

    def chart_field(self, k):
        """The splitting's bivector field on P(M2) chart k, built on first
        use and shared by the runners of one report."""
        if k not in self._chart_fields:
            self._chart_fields[k] = splitting_bivector_field(self.model, ProjChart(k), self.split)
        return self._chart_fields[k]


def _interior_point(stream):
    return ProjMatrixPoint(stream.invertible2())


def _boundary_point(stream):
    return ProjMatrixPoint(stream.rank_one2())


def _any_point(stream):
    return ProjMatrixPoint(stream.nonzero_vector(4))


def run_jacobi(cfg, ctx):
    checks = []
    if cfg.model == "pgl2-projective":
        for k in range(4):
            fld = ctx.chart_field(k)
            stream = RationalStream(subseed(cfg.seed, k))
            for s in range(cfg.samples):
                z = stream.vector(3)
                values = [v for _, v in jacobi_sweep(fld, z)]
                checks.append(
                    residual_from_values(
                        "jacobi/chart%d" % k,
                        {"sample": s, "coords": [qstr(c) for c in z]},
                        values,
                    )
                )
    else:
        dpt = ctx.grass.diagonal_point()
        chart = ctx.grass.chart_at(dpt)
        fld = splitting_bivector_field(ctx.grass, chart, ctx.split)
        stream = RationalStream(subseed(cfg.seed, 99))
        done = 0
        resampled = 0
        while done < cfg.samples:
            pair = GroupPair(stream.sl2(), stream.sl2())
            point = ctx.grass.act(pair, dpt)
            if point.pivots != chart.pivots:
                resampled += 1
                continue
            z = chart.coords_of(point)
            values = [v for _, v in jacobi_sweep(fld, z)]
            checks.append(
                residual_from_values(
                    "jacobi/grassmann",
                    {"sample": done},
                    values,
                    details={"resampled": resampled},
                )
            )
            done += 1
    return checks


def run_action(cfg, ctx):
    checks = []
    stream = RationalStream(subseed(cfg.seed, 1))
    if cfg.model == "sl2-grassmann":
        dpt = ctx.grass.diagonal_point()
        for s in range(cfg.samples):
            pair = GroupPair(stream.sl2(), stream.sl2())
            if s % 3 == 2:
                src = ctx.model.lagrangian_of(ProjMatrixPoint(stream.rank_one2()))
            else:
                src = ctx.grass.act(GroupPair(stream.sl2(), stream.sl2()), dpt)
            res = poisson_action_residual(ctx.grass, ctx.split, pair, src)
            res.sample["sample"] = s
            checks.append(res)
        return checks
    for s in range(cfg.samples):
        pair = GroupPair(stream.sl2(), stream.sl2())
        point = _boundary_point(stream) if s % 3 == 2 else _any_point(stream)
        res = poisson_action_residual(ctx.model, ctx.split, pair, point)
        res.sample["sample"] = s
        checks.append(res)
    args = [(stream.sl2(), stream.sl2()) for _ in range(3)]
    checks.append(
        action_map_identities(ctx.model, GroupPair(stream.sl2(), stream.sl2()), _any_point(stream), args)
    )
    return checks


def run_diagonal_action(cfg, ctx):
    checks = []
    stream = RationalStream(subseed(cfg.seed, 2))
    for s in range(cfg.samples):
        g = stream.sl2()
        pts = tuple(_any_point(stream) for _ in range(cfg.n_factors))
        res = diagonal_action_residual(ctx.model, ctx.split, GroupPair(g, g), pts)
        res.sample["sample"] = s
        checks.append(res)
    return checks


def run_multiplicativity(cfg, ctx):
    checks = []
    stream = RationalStream(subseed(cfg.seed, 3))
    for s in range(cfg.samples):
        p1 = GroupPair(stream.sl2(), stream.sl2())
        p2 = GroupPair(stream.sl2(), stream.sl2())
        res = multiplicativity_residual(ctx.model, ctx.split, p1, p2)
        res.sample["sample"] = s
        checks.append(res)
    return checks


def run_tangency(cfg, ctx):
    checks = []
    stream = RationalStream(subseed(cfg.seed, 4))
    done = 0
    while done < cfg.samples:
        p = _boundary_point(stream)
        k = p.chart_index()
        chart = ProjChart(k)
        res = tangency_check(
            ctx.chart_field(k), [chart.det_poly()], chart.coords_of(p), name="tangency/det0"
        )
        res.sample["sample"] = done
        checks.append(res)
        done += 1
    # negative control: a non-invariant hyperplane must NOT be tangent
    chart = ProjChart(0)
    from wonderland.poly import MultiPoly

    hyper = MultiPoly.var(chart.variables, "b") - 1
    # at z = [1, c, d] the contraction with d(b) is
    # (d(-c/2 + d/4 - 1/4), -d(d + 1)/4); it vanishes at d = 0 and at
    # c = d = -1, where the control could not fail, so d is redrawn there
    c = stream.take()
    d = stream.take()
    while d == 0 or (c == -1 and d == -1):
        d = stream.take()
    control = tangency_check(
        ctx.chart_field(0), [hyper], [Q(1), c, d], name="tangency/negative-control"
    )
    checks.append(
        IdentityResidual(
            name="tangency/negative-control",
            sample=control.sample,
            residual=control.residual,
            passed=not control.passed,
            details={"expected": "nonzero contraction"},
        )
    )
    return checks


def _overlap_samples(stream, count):
    out = []
    while len(out) < count:
        a = Matrix(
            [[stream.take(), stream.take()], [stream.take(), stream.take()]]
        )
        b = Matrix(
            [[stream.take(), stream.take()], [stream.take(), stream.take()]]
        )
        if a.det() == 0 or b.det() == 0:
            continue
        pa, pb = ProjMatrixPoint(a), ProjMatrixPoint(b)
        # both route charts need the corner entries nonzero
        if 0 in (pa.vec[0], pa.vec[3], pb.vec[0], pb.vec[3]):
            continue
        ab_tr = (a * b).data[0][0] + (a * b).data[1][1]
        if ab_tr == 0:
            continue
        out.append((pa, pb))
    return out


def run_glue(cfg, ctx):
    checks = []
    # single factor: the trace chart against the determinant chart
    v1 = m2_variables(1)
    tr_chart = AffineChartQuotient("tr", trace_of_word(v1, (1,)), (1,), 1, (0,))
    det_chart = AffineChartQuotient("det", det_of_factor(v1, 1), (2,), 1, (3,))
    surr1 = pgl2_surrogates(1) + [
        ProjectiveInvariant(
            "tr4_over_det2",
            trace_of_word(v1, (1,)) ** 4,
            det_of_factor(v1, 1) ** 2,
            1,
        )
    ]
    stream = RationalStream(subseed(cfg.seed, 55))
    single = []
    while len(single) < max(2, cfg.samples // 2):
        m = stream.invertible2()
        p = ProjMatrixPoint(m)
        if p.vec[0] == 0 or p.vec[3] == 0 or m.data[0][0] + m.data[1][1] == 0:
            continue
        single.append((p,))
    checks.extend(
        glue_consistency(ctx.model, ctx.split, tr_chart, det_chart, surr1, single)
    )
    # two factors: the mixed-trace chart against the determinant product
    v2 = m2_variables(2)
    chart_f = AffineChartQuotient("trAB", trace_of_word(v2, (1, 2)), (1, 1), 2, (0, 0))
    chart_g = AffineChartQuotient(
        "detAdetB", det_of_factor(v2, 1) * det_of_factor(v2, 2), (2, 2), 2, (3, 3)
    )
    surr = pgl2_surrogates(2)
    stream = RationalStream(subseed(cfg.seed, 5))
    samples = _overlap_samples(stream, cfg.samples)
    checks.extend(
        glue_consistency(
            ctx.model, ctx.split, chart_f, chart_g, [surr[0], surr[2], surr[3]], samples
        )
    )
    return checks


def run_saturation(cfg, ctx):
    ring = GradedInvariantRing(ctx.sl2, 1, 2)
    stream = RationalStream(subseed(cfg.seed, 6))
    interior = [(_interior_point(stream),) for _ in range(max(2, cfg.samples // 4))]
    boundary = [(_boundary_point(stream),) for _ in range(max(2, cfg.samples // 4))]
    checks, boundary_reports = divisor_saturation(ctx.model, ring, interior, boundary)
    summary = residual_from_values(
        "saturation/boundary-pairs",
        {"pairs": len(boundary_reports)},
        [],
        details={"reports": boundary_reports},
    )
    checks.append(summary)
    return checks


def run_rank1(cfg, ctx):
    rep = rank1_compactified_model(max_degree=cfg.degree + 2)
    values = []
    values.append(Q(0) if rep["tr_restricted"] == "x + y" else Q(1))
    values.append(Q(0) if rep["det_restricted"] == "x*y" else Q(1))
    values.append(Q(0) if rep["tr_swap_invariant"] else Q(1))
    values.append(Q(0) if rep["det_swap_invariant"] else Q(1))
    values.append(Q(0) if rep["dims_match"] else Q(1))
    check = residual_from_values("rank1/torus-quotient", {}, values, details=rep)
    # the quotient bracket table on the single-factor invariants is zero
    stream = RationalStream(subseed(cfg.seed, 7))
    surr = pgl2_surrogates(1)
    pts = [(_interior_point(stream),) for _ in range(3)]
    conjs = [stream.sl2() for _ in range(3)]
    table = quotient_bracket_table(ctx.model, ctx.split, surr, pts, conjs)
    flat = [
        Q(x) for row in table for line in row["entries"] for x in line
    ]
    table_check = residual_from_values(
        "rank1/bracket-table-zero", {"samples": len(pts)}, flat, details={"table": table}
    )
    return [check, table_check]


def run_f2_demo(cfg, ctx):
    checks = []
    fixture = RepresentationPoint(
        [Matrix([[1, 1], [0, 1]]), Matrix([[1, 0], [1, 1]])]
    )
    tp = trace_point(fixture)
    checks.append(
        residual_from_values(
            "f2/trace-fixture",
            {"expected": ["2", "2", "3"]},
            [tp[0] - 2, tp[1] - 2, tp[2] - 3],
        )
    )
    stream = RationalStream(subseed(cfg.seed, 8))
    surr = pgl2_surrogates(2)
    samples = [
        (_interior_point(stream), _interior_point(stream)) for _ in range(3)
    ]
    conjs = [stream.sl2() for _ in range(3)]
    table = quotient_bracket_table(ctx.model, ctx.split, surr[:3], samples, conjs)
    flat = [Q(x) for row in table for line in row["entries"] for x in line]
    checks.append(
        residual_from_values(
            "f2/quotient-table-zero",
            {"samples": len(samples)},
            flat,
            details={"table": table},
        )
    )
    pair = GroupPair(stream.sl2(), stream.sl2())
    pts = (_interior_point(stream), _interior_point(stream))
    v2 = m2_variables(2)
    phi = ProjectiveInvariant(
        "trsq1", trace_of_word(v2, (1,)) ** 2, det_of_factor(v2, 1), 2
    )
    checks.append(product_bracket_residual(ctx.model, ctx.split, pair, pts, phi, surr[0], phi, surr[2]))
    checks.append(projection_poisson_residual(ctx.model, ctx.split, pair, pts, surr[0], surr[2]))
    for f, g in ((surr[0], surr[1]), (surr[0], surr[2]), (surr[1], surr[2])):
        checks.append(
            invariant_bracket_closure(
                ctx.model, ctx.split, f, g, pts, stream.sl2(), name="f2/closure"
            )
        )
    # frozen word identity on determinant-one pairs: the length-four
    # alternating word in two generators against the three traces
    from wonderland.invariants import express_in_generators, trace_generators

    gens = trace_generators(ctx.sl2, 2)
    word = trace_of_word(v2, (1, 2, 1, 2))

    def sampler():
        a, b = stream.sl2(), stream.sl2()
        return [x for m in (a, b) for row in m.data for x in row]

    coeffs = express_in_generators(word, gens, 2, sampler, symbolic=False)
    expected = {(0, 0, 0): Q(-2), (0, 0, 2): Q(1)}
    checks.append(
        residual_from_values(
            "f2/word-identity",
            {"target": "tr of the alternating length-4 word", "bound": 2},
            [Q(0) if coeffs == expected else Q(1)],
            details={
                "coefficients": sorted(
                    (list(e), qstr(c)) for e, c in (coeffs or {}).items()
                )
            },
        )
    )
    return checks


RUNNERS = {
    "jacobi": run_jacobi,
    "action": run_action,
    "diagonal-action": run_diagonal_action,
    "multiplicativity": run_multiplicativity,
    "tangency": run_tangency,
    "glue": run_glue,
    "saturation": run_saturation,
    "rank1": run_rank1,
    "f2-demo": run_f2_demo,
}


def run_experiment(config):
    """Execute an experiment; the report is deterministic given the config."""
    ctx = Context()
    start = time.monotonic()
    if config.experiment == "all":
        checks = [
            c
            for name in KNOWN_EXPERIMENTS
            if name != "all"
            for c in RUNNERS[name](config, ctx)
        ]
    else:
        checks = RUNNERS[config.experiment](config, ctx)
    report = ExperimentReport(config=config, checks=checks)
    report.wall_time = time.monotonic() - start
    return report


def write_report(report, path):
    data = report.serialize()
    with open(path, "w") as fh:
        fh.write(data)
    print(
        "wall_time_seconds=%.3f (segregated from the report file)" % report.wall_time,
        file=sys.stderr,
    )
    return path
