"""Command line interface.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error.
"""

import argparse
import json
import sys
from fractions import Fraction

from wonderland import __version__


def _print(obj):
    print(json.dumps(obj, sort_keys=True, indent=2))


def _is_2x2(m):
    return isinstance(m, list) and len(m) == 2 and all(isinstance(r, list) and len(r) == 2 for r in m)


def _rational(x):
    """An entry of an input matrix; one that is not a rational is a usage error."""
    try:
        return Fraction(str(x))
    except (ValueError, ZeroDivisionError):
        raise ValueError("not a rational number: %r" % (x,)) from None


def _load_json(path):
    """An input file's JSON; an unreadable file is a usage error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError("cannot read %s: %s" % (path, exc.strerror)) from None


def _parse_2x2(text, flag):
    """The rational 2x2 matrix of a JSON option; any other shape is a
    usage error."""
    from wonderland.linalg import Matrix

    data = json.loads(text)
    if not _is_2x2(data):
        raise ValueError("%s needs a JSON 2x2 matrix" % flag)
    return Matrix([[_rational(x) for x in row] for row in data])


def cmd_lie_build(args):
    from wonderland.lie import build_sl

    alg = build_sl(args.n)
    _print(alg.to_json())
    return 0


def cmd_lie_splitting(args):
    from wonderland.lie import build_sl, splitting_from_l2, standard_splitting
    from wonderland.linalg import qstr

    alg = build_sl(args.n)
    if args.l2:
        obj = _load_json(args.l2)
        rows = obj.get("l2_basis") if isinstance(obj, dict) else None
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError('%s: "l2_basis" must be a list of rows' % args.l2)
        rows = [[_rational(x) for x in row] for row in rows]
        s = splitting_from_l2(alg, rows)
    else:
        s = standard_splitting(alg)
    _print(
        {
            "dim": s.double.dim,
            "x_basis": [[qstr(Fraction(x, d)) for x in row] for row, d in s.x_basis],
            "y_basis": [[qstr(Fraction(x, d)) for x in row] for row, d in s.y_basis],
            "axioms": "verified",
        }
    )
    return 0


def cmd_geom_orbit_dim(args):
    from wonderland.geometry import GrassmannModel, Pgl2Model, LagrangianPoint, ProjMatrixPoint
    from wonderland.lie import build_sl, double_algebra, is_lagrangian
    from wonderland.linalg import integer_vector

    sl2 = build_sl(2)
    double, form = double_algebra(sl2)
    gr = GrassmannModel(sl2, double, form)
    if args.model == "pgl2":
        model = Pgl2Model(sl2)
        point = ProjMatrixPoint(_parse_2x2(args.point, "--point"))
        lag = model.lagrangian_of(point, double, form)
    else:
        data = json.loads(args.point)
        rows_ok = isinstance(data, list) and len(data) == gr.n
        if not rows_ok or not all(isinstance(row, list) and len(row) == 2 * gr.n for row in data):
            raise ValueError("--point needs %d span rows of %d entries" % (gr.n, 2 * gr.n))
        rows = [[_rational(x) for x in row] for row in data]
        ok, cert = is_lagrangian(double, form, [integer_vector(row) for row in rows])
        if not ok:
            raise ValueError("span is not Lagrangian: %r" % cert)
        lag = LagrangianPoint(rows)
    _print({"orbit_dimension": gr.orbit_dimension(lag)})
    return 0


def cmd_geom_boundary(args):
    from wonderland.geometry import Pgl2Model, ProjMatrixPoint
    from wonderland.lie import build_sl

    model = Pgl2Model(build_sl(2))
    points = _load_json(args.sweep)
    if not isinstance(points, list) or not all(_is_2x2(m) for m in points):
        raise ValueError("%s: --sweep needs a JSON list of 2x2 matrices" % args.sweep)
    out = []
    for data in points:
        flat = [_rational(x) for row in data for x in row]
        p = ProjMatrixPoint(flat)
        entry = {"point": repr(p), "boundary": p.is_boundary()}
        if p.is_boundary():
            u, v = model.segre_factor(p)
            entry["segre"] = [list(u.vec), list(v.vec)]
        out.append(entry)
    _print(out)
    return 0


def cmd_invariants(args):
    from wonderland.invariants import conjugation_action, invariants_of_degree
    from wonderland.lie import build_sl

    if args.action is None:
        raise ValueError("invariants needs --action conj-m2 or conj-m2x2, or the express subcommand")
    if args.action == "conj-m2":
        if args.multidegree is not None:
            raise ValueError("--action conj-m2 takes --degree, not --multidegree")
        factors, degree = 1, (1 if args.degree is None else args.degree,)
    else:
        if args.multidegree is None or args.degree is not None:
            raise ValueError("--action conj-m2x2 needs --multidegree p,q and no --degree")
        factors, degree = 2, tuple(int(x) for x in args.multidegree.split(","))
    space = invariants_of_degree(conjugation_action(build_sl(2), factors), degree)
    _print(space.to_json())
    return 0


def cmd_invariants_express(args):
    from wonderland.invariants import (
        express_in_generators,
        m2_variables,
        trace_generators,
        trace_of_word,
    )
    from wonderland.lie import build_sl
    from wonderland.linalg import qstr
    from wonderland.sampling import RationalStream

    sl2 = build_sl(2)
    gens = trace_generators(sl2, 2)
    v = m2_variables(2)
    target = trace_of_word(v, (1, 2, 1, 2))
    stream = RationalStream(args.seed)

    def sampler():
        a, b = stream.sl2(), stream.sl2()
        return [x for m in (a, b) for row in m.data for x in row]

    coeffs = express_in_generators(target, gens, args.bound, sampler, symbolic=False)
    if coeffs is None:
        _print({"expression": None})
        return 1
    _print(
        {
            "generators": [name for name, _ in gens],
            "coefficients": [[list(e), qstr(c)] for e, c in sorted(coeffs.items())],
        }
    )
    return 0


def cmd_git_ring(args):
    from wonderland.gitq import GradedInvariantRing
    from wonderland.lie import build_sl

    ring = GradedInvariantRing(build_sl(2), args.r, args.degree)
    _print(ring.to_json())
    return 0


def cmd_charvar_trace(args):
    from wonderland.charvar import RepresentationPoint, trace_point
    from wonderland.linalg import qstr

    A = _parse_2x2(args.A, "--A")
    B = _parse_2x2(args.B, "--B")
    t = trace_point(RepresentationPoint([A, B]))
    _print({"trace_point": [qstr(x) for x in t]})
    return 0


def cmd_charvar_stratify(args):
    from wonderland.charvar import stratify
    from wonderland.geometry import Pgl2Model, ProjMatrixPoint
    from wonderland.lie import build_sl

    model = Pgl2Model(build_sl(2))
    data = json.loads(args.tuple)
    if not isinstance(data, list) or not data or not all(_is_2x2(m) for m in data):
        raise ValueError("--tuple needs a nonempty JSON list of 2x2 matrices")
    points = [ProjMatrixPoint([_rational(x) for row in m for x in row]) for m in data]
    _print(stratify(model, points).to_json())
    return 0


def cmd_charvar_rank1(args):
    from wonderland.charvar import rank1_compactified_model

    _print(rank1_compactified_model())
    return 0


def cmd_run(args):
    """Run one experiment; an option that the command line leaves out, or
    that the subcommand lacks, gets its ExperimentConfig default."""
    from wonderland.reports import ExperimentConfig, run_experiment, write_report

    cfg = ExperimentConfig(
        experiment=args.experiment,
        model=canonical_model(getattr(args, "model", ExperimentConfig.model)),
        samples=getattr(args, "samples", ExperimentConfig.samples),
        seed=getattr(args, "seed", ExperimentConfig.seed),
        degree=getattr(args, "degree", ExperimentConfig.degree),
        n_factors=getattr(args, "n", ExperimentConfig.n_factors),
    )
    report = run_experiment(cfg)
    if args.out:
        write_report(report, args.out)
    else:
        sys.stdout.write(report.serialize())
    return 0 if report.failed == 0 else 1


MODEL_CHOICES = ("pgl2-projective", "sl2-grassmann", "pgl2", "grassmann")

MODEL_ALIASES = {"pgl2": "pgl2-projective", "grassmann": "sl2-grassmann"}


def canonical_model(name):
    return MODEL_ALIASES.get(name, name)


def _run_options(parser, *names, **defaults):
    """Make ``parser`` run an experiment through ``cmd_run`` with the named
    options (``model`` takes a model name, the others an integer) and
    ``--out``.  An option left off the command line is absent from the
    parsed arguments, so ``cmd_run`` gives it the ``ExperimentConfig``
    default; parsing imports no experiment code."""
    for name in names:
        kind = {"choices": MODEL_CHOICES} if name == "model" else {"type": int}
        parser.add_argument("--" + name, default=argparse.SUPPRESS, **kind)
    parser.add_argument("--out")
    parser.set_defaults(func=cmd_run, **defaults)


def build_parser():
    p = argparse.ArgumentParser(prog="wonderland", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    lie = sub.add_parser("lie", help="Lie algebra tools").add_subparsers(
        dest="sub", required=True
    )
    b = lie.add_parser("build", help="build an algebra from structure constants")
    b.add_argument("--n", type=int, default=2)
    b.set_defaults(func=cmd_lie_build)
    s = lie.add_parser("splitting", help="build and validate a splitting")
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--l2", help="JSON file with an l2 basis to validate")
    s.set_defaults(func=cmd_lie_splitting)

    geom = sub.add_parser("geom", help="compactification geometry").add_subparsers(
        dest="sub", required=True
    )
    od = geom.add_parser("orbit-dim")
    od.add_argument("--model", choices=("pgl2", "grassmann"), default="pgl2")
    od.add_argument("--point", required=True, help="JSON 2x2 matrix or span rows")
    od.set_defaults(func=cmd_geom_orbit_dim)
    bd = geom.add_parser("boundary")
    bd.add_argument("--sweep", required=True, help="JSON file with a list of 2x2 matrices")
    bd.set_defaults(func=cmd_geom_boundary)

    poisson = sub.add_parser("poisson", help="bivector identity checks").add_subparsers(
        dest="sub", required=True
    )
    _run_options(poisson.add_parser("jacobi"), "model", "samples", "seed", experiment="jacobi")
    _run_options(
        poisson.add_parser("action"), "model", "samples", "seed", "n", experiment="diagonal-action"
    )
    _run_options(poisson.add_parser("tangency"), "model", "samples", "seed", experiment="tangency")

    inv = sub.add_parser("invariants", help="invariant spaces and expressions")
    invsub = inv.add_subparsers(dest="sub")
    invsub.required = False
    inv.add_argument("--action", choices=("conj-m2", "conj-m2x2"))
    inv.add_argument("--degree", type=int, help="degree for conj-m2 (default 1)")
    inv.add_argument("--multidegree")
    inv.set_defaults(func=cmd_invariants)
    ex = invsub.add_parser("express")
    ex.add_argument("--bound", type=int, default=2)
    ex.add_argument("--seed", type=int, default=42)
    ex.set_defaults(func=cmd_invariants_express)

    git = sub.add_parser("git", help="GIT quotient tools").add_subparsers(
        dest="sub", required=True
    )
    ring = git.add_parser("ring")
    ring.add_argument("--r", type=int, default=2)
    ring.add_argument("--degree", type=int, default=4)
    ring.set_defaults(func=cmd_git_ring)
    for name in ("glue", "saturation"):
        _run_options(git.add_parser(name), "samples", "seed", experiment=name)

    cv = sub.add_parser("charvar", help="character variety tools").add_subparsers(
        dest="sub", required=True
    )
    tr = cv.add_parser("trace")
    tr.add_argument("--A", required=True)
    tr.add_argument("--B", required=True)
    tr.set_defaults(func=cmd_charvar_trace)
    stf = cv.add_parser("stratify")
    stf.add_argument("--tuple", required=True)
    stf.set_defaults(func=cmd_charvar_stratify)
    rk = cv.add_parser("rank1")
    rk.set_defaults(func=cmd_charvar_rank1)

    run = sub.add_parser("run", help="run a named experiment and write a report")
    run.add_argument("--experiment", required=True)
    _run_options(run, "model", "samples", "seed", "degree", "n")

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
