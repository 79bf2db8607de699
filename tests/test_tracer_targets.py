"""The benchmark tracer's targets exist and its movers are called.

``bench/tracer.py`` looks its ``BOUNDARY`` and ``COUNTED`` targets up by
``module:qualname`` when a traced benchmark run starts, so renaming one of
them in the package would crash that run.  This reads the tables from the
tracer file and resolves every name.

``bench/run.py`` fails a traced run when a metric in its ``MOVERS`` table
or in ``MOVERS_EVERYWHERE`` reads zero on a workload, so a refactor that
stops calling one would fail only there; the last tests run each
workload's own set-up and one pass under ``cProfile`` and check that every
such target is called.
"""

import cProfile
import importlib
import importlib.util
import pstats
import sys
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


def _uncalled_movers(workload_name, monkeypatch):
    """The movers of one workload (its ``MOVERS`` entry and
    ``MOVERS_EVERYWHERE``) that its own ``setup()`` and one ``run_pass``
    from ``bench/workloads.py`` never call under ``cProfile``."""
    tracer = _tracer_tables()
    run = _load("bench_run", BENCH / "run.py")
    # workloads.py imports the benchmark's oracle as a top-level module
    monkeypatch.setitem(sys.modules, "oracle", _load("oracle", BENCH / "oracle.py"))
    workload = _load("bench_workloads", BENCH / "workloads.py").WORKLOADS[workload_name]
    targets = {
        "%s.%s" % (layer, name): ts for layer, fns in tracer.BOUNDARY.items() for name, ts in fns.items()
    }
    targets.update(tracer.COUNTED)
    names = run.MOVERS[workload_name] + run.MOVERS_EVERYWHERE
    # py.calls counts every Python call, so it has no target of its own
    assert [name for name in names if name not in targets] == ["py.calls"]
    prof = cProfile.Profile()
    prof.enable()
    try:
        ctx = workload.setup()
        workload.run_pass(ctx, workload.inputs(5, 0))
    finally:
        prof.disable()
    called = set(pstats.Stats(prof).stats)
    return [
        name
        for name in names
        if name in targets and not any(_code_key(t) in called for t in targets[name])
    ]


def test_run_all_movers_are_called(monkeypatch):
    assert _uncalled_movers("run-all", monkeypatch) == []


def test_invariant_ring_movers_are_called(monkeypatch):
    assert _uncalled_movers("invariant-ring", monkeypatch) == []


def test_grassmann_movers_are_called(monkeypatch):
    assert _uncalled_movers("grassmann", monkeypatch) == []
