"""The package has no knob that selects nothing.

It reads no environment variable: every behaviour is chosen by arguments,
so a report depends on its config alone and each code path that can run is
the one the tests run.  Every command-line option is read by the handler
of its subcommand and admits more than one value, so no option is parsed
only to be ignored.  And the same holds for the Python API: a parameter
with a default exists only where some caller in the program sets another
value, or where a named pin keeps it (``KEPT_DEFAULTS``); a default that
every caller leaves alone, or that every caller overrides, goes.  Likewise
every function and method exists for a caller in the program (the package,
the command line or the benchmark), or a named pin keeps it for the
ROADMAP item that will give it one (``TEST_ONLY``); a helper that only
tests call goes, or moves into ``tests/references.py``.
"""

import argparse
import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import wonderland
from wonderland import cli

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wonderland"
BENCH = PACKAGE.parents[1] / "bench"


def test_no_environment_reads():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    hits = [
        "%s:%d: %s" % (path.name, n, line.strip())
        for path in sources
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"environ|getenv", line)
    ]
    assert hits == []


def _parsers(parser, name="wonderland"):
    yield name, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub, child in action.choices.items():
                yield from _parsers(child, "%s %s" % (name, sub))


def test_every_option_is_read_by_its_handler():
    checked = 0
    unread = []
    for name, parser in _parsers(cli.build_parser()):
        handler = parser.get_default("func")
        body = inspect.getsource(handler) if handler else ""
        for action in parser._actions:
            if not action.option_strings or isinstance(
                action, (argparse._HelpAction, argparse._VersionAction)
            ):
                continue
            checked += 1
            dest = re.escape(action.dest)
            if not re.search(r'args\.%s\b|getattr\(args, "%s"' % (dest, dest), body):
                unread.append("%s %s" % (name, action.option_strings[0]))
            if action.choices is not None and len(action.choices) < 2:
                unread.append("%s %s (one value)" % (name, action.option_strings[0]))
    assert checked > 20
    assert unread == []


# every defaulted parameter in the package, and what keeps it: the caller
# in the program that sets another value than the default, or the pin
CLI_DEFAULT = "an ExperimentConfig default, which cmd_run and bench/workloads.py rely on"
KEPT_DEFAULTS = {
    "charvar.Presentation.__init__(relators)": "ROADMAP item 14 (presentations of Gamma)",
    "charvar.rank1_compactified_model(max_degree)": "reports.run_rank1 passes cfg.degree + 2",
    "cli.main(argv)": "the console script calls main() to read sys.argv",
    "geometry.GrassChart.ambient_polys(var_offset)": "ProductChart.ambient_polys",
    "geometry.GrassChart.ambient_polys(variables)": "ProductChart.ambient_polys",
    "geometry.Pgl2Model.lagrangian_of(double)": "cli.cmd_geom_orbit_dim checks the image",
    "geometry.Pgl2Model.lagrangian_of(form)": "cli.cmd_geom_orbit_dim checks the image",
    "geometry.ProjChart.ambient_polys(var_offset)": "ProductChart.ambient_polys",
    "geometry.ProjChart.ambient_polys(variables)": "ProductChart.ambient_polys",
    "invariants.closure_residual(name)": "invariant_bracket_closure passes f2/closure",
    "invariants.express_in_generators(symbolic)": "bench/workloads.py passes symbolic=False",
    "poisson.IdentityResidual.__init__(details)": "reports.run_tangency passes details",
    "poisson.residual_from_matrix(details)": "diagonal_action_residual passes details",
    "poisson.residual_from_values(details)": "closure_residual passes details",
    "poly.MultiPoly._of(den)": "MultiPoly.__add__ passes den",
    "poly.RationalFn.__init__(den)": "ProjectiveInvariant passes den",
    "poly.RationalFn.grad_at(entries)": "ProjectiveInvariant.chart_grad_at passes entries",
    "reports.ExperimentConfig.__init__(degree)": CLI_DEFAULT,
    "reports.ExperimentConfig.__init__(model)": CLI_DEFAULT,
    "reports.ExperimentConfig.__init__(n_factors)": CLI_DEFAULT,
    "reports.ExperimentConfig.__init__(samples)": CLI_DEFAULT,
    "reports.ExperimentConfig.__init__(seed)": CLI_DEFAULT,
}


def _defaulted_parameters():
    """Every parameter with a default of every function and method that a
    ``wonderland`` module defines, as "module.qualname(parameter)"."""
    out = set()
    for info in pkgutil.iter_modules(wonderland.__path__):
        module = importlib.import_module("wonderland." + info.name)
        owners, seen = [module], set()
        while owners:
            for value in vars(owners.pop()).values():
                value = getattr(value, "__func__", value)
                if getattr(value, "__module__", None) != module.__name__ or id(value) in seen:
                    continue
                seen.add(id(value))
                if inspect.isclass(value):
                    owners.append(value)
                elif inspect.isfunction(value):
                    out.update(
                        "%s.%s(%s)" % (info.name, value.__qualname__, p.name)
                        for p in inspect.signature(value).parameters.values()
                        if p.default is not inspect.Parameter.empty
                    )
    return out


def test_every_default_is_set_otherwise_or_pinned():
    assert sorted(_defaulted_parameters()) == sorted(KEPT_DEFAULTS)


def test_run_subcommands_default_to_experiment_config(monkeypatch):
    """Every subcommand that runs an experiment gives each option it is not
    passed the ``ExperimentConfig`` default, read when it runs: with the
    defaults changed, the config it builds carries the changed ones."""
    from wonderland import reports

    class Report:
        failed = 0

        def serialize(self):
            return ""

    seen = []
    monkeypatch.setattr(reports, "run_experiment", lambda cfg: seen.append(cfg) or Report())
    changed = {"samples": 7, "seed": 5, "degree": 3, "n_factors": 1}
    for attr, value in changed.items():
        monkeypatch.setattr(reports.ExperimentConfig, attr, value)
    commands = [
        name.split()[1:]
        for name, parser in _parsers(cli.build_parser())
        if parser.get_default("func") is cli.cmd_run
    ]
    assert len(commands) == 6
    for argv in commands:
        assert cli.main(argv + (["--experiment", "all"] if argv == ["run"] else [])) == 0
    want = dict(changed, model=reports.ExperimentConfig.model)
    assert [{k: getattr(cfg, k) for k in want} for cfg in seen] == [want] * len(commands)


# every function and method that nothing in the package or the benchmark
# calls, and the ROADMAP item that will give it a caller
TEST_ONLY = {
    "charvar.line_action_on_boundary_pair": "ROADMAP item 9 (boundary divisors as points on P^1)",
    "charvar.parabolic_invariants": "ROADMAP item 9 (boundary divisors as points on P^1)",
    "charvar.relator_check": "ROADMAP item 14 (presentations of Gamma)",
    "charvar.stratum_action_kinds": "ROADMAP item 9 (boundary divisors as points on P^1)",
    "geometry.infinitesimal_field": "ROADMAP item 7 (rho(phi) from the action fields)",
    "gitq.cover_report": "ROADMAP item 12 (GIT stability)",
    "gitq.quotient_jacobi_residual": "ROADMAP item 6 (the quotient Poisson structure)",
    "gitq.semistable_charts": "ROADMAP item 12 (GIT stability)",
    "lie.r_matrix": "ROADMAP item 7 (Jacobi from the Cartan trivector)",
    "poisson.BivectorField.bracket_poly": "ROADMAP item 5 (proofs in the report)",
    "poisson.pair_group_field": "ROADMAP item 5 (the pair-group Jacobi identity)",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _references(tree):
    """(identifier, enclosing function nodes) of every name the code uses:
    names, attributes, imported names, and the words of string constants,
    which cover ``getattr`` and the tracer's "module:qualname" targets."""
    out = []

    def walk(node, chain):
        if isinstance(node, ast.FunctionDef):
            chain = chain + (node,)
        if isinstance(node, ast.Name):
            out.append((node.id, chain))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, chain))
        elif isinstance(node, ast.alias):
            out.append((node.name.split(".")[-1], chain))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.extend((w, chain) for w in re.split(r"[:.]", node.value) if _IDENTIFIER.fullmatch(w))
        for child in ast.iter_child_nodes(node):
            walk(child, chain)

    walk(tree, ())
    return out


def _uncalled_functions():
    """Every function and method of the package, other than the dunder
    methods Python calls itself, whose name the package and the benchmark
    use nowhere outside its own body, as "module.qualname"."""
    defs, refs = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        refs += _references(tree)
        owners = [(tree, path.stem + ".")]
        while owners:
            owner, prefix = owners.pop()
            for node in ast.iter_child_nodes(owner):
                if isinstance(node, ast.ClassDef):
                    owners.append((node, prefix + node.name + "."))
                elif isinstance(node, ast.FunctionDef):
                    defs.append((prefix + node.name, node))
    for path in sorted(BENCH.glob("*.py")):
        refs += _references(ast.parse(path.read_text()))
    return {
        qual
        for qual, node in defs
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and not any(name == node.name and node not in chain for name, chain in refs)
    }


def test_every_function_has_a_caller_or_is_pinned():
    assert sorted(_uncalled_functions()) == sorted(TEST_ONLY)
