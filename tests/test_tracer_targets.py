"""The benchmark tracer's targets exist and its movers are called.

``bench/tracer.py`` looks its ``BOUNDARY`` and ``COUNTED`` targets up by
``module:qualname`` when a traced benchmark run starts, so renaming one of
them in the package would crash that run.  This reads the tables from the
tracer file and resolves every name.

``bench/run.py`` fails a traced run when a metric in its ``MOVERS`` table
reads zero on a workload, so a refactor that stops calling one would fail
only there; the last test runs small grassmann reports under ``cProfile``
and checks that every such target is called.
"""

import cProfile
import importlib
import importlib.util
import pstats
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_tables():
    return _load("bench_tracer", TRACER)


def _lookup(target):
    mod_name, qual = target.split(":")
    owner = importlib.import_module(mod_name)
    for part in qual.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


def _resolves(target):
    return callable(_lookup(target))


def test_every_traced_target_resolves():
    tracer = _tracer_tables()
    targets = [t for fns in tracer.BOUNDARY.values() for ts in fns.values() for t in ts]
    targets += [t for ts in tracer.COUNTED.values() for t in ts]
    assert len(targets) > 40
    assert [t for t in targets if not _resolves(t)] == []


def test_self_timed_modules_import():
    tracer = _tracer_tables()
    for mod_name in tracer.SELF_ONLY.values():
        importlib.import_module(mod_name)


def _code_key(target):
    code = _lookup(target).__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def test_grassmann_movers_are_called():
    from wonderland.reports import ExperimentConfig, run_experiment

    tracer = _tracer_tables()
    run = _load("bench_run", BENCH / "run.py")
    targets = {
        "%s.%s" % (layer, name): ts for layer, fns in tracer.BOUNDARY.items() for name, ts in fns.items()
    }
    targets.update(tracer.COUNTED)
    movers = {
        name: targets[name]
        for name in run.MOVERS["grassmann"] + run.MOVERS_EVERYWHERE
        if name in targets
    }
    assert {
        "geometry.tangent_project_general",
        "linalg.from_wedges",
        "poly.diff",
        "poisson.poisson_action_residual",
    } <= set(movers)
    prof = cProfile.Profile()
    prof.enable()
    try:
        for experiment in ("jacobi", "action"):
            cfg = ExperimentConfig(experiment, model="sl2-grassmann", samples=1, seed=5)
            assert run_experiment(cfg).failed == 0
    finally:
        prof.disable()
    called = set(pstats.Stats(prof).stats)
    uncalled = [
        name for name, ts in movers.items() if not any(_code_key(t) in called for t in ts)
    ]
    assert uncalled == []
