"""Every target the benchmark tracer wraps or counts exists in the package.

``bench/tracer.py`` looks its ``BOUNDARY`` and ``COUNTED`` targets up by
``module:qualname`` when a traced benchmark run starts, so renaming one of
them in the package would crash that run.  This reads the tables from the
tracer file and resolves every name.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _resolves(target):
    mod_name, qual = target.split(":")
    owner = importlib.import_module(mod_name)
    for part in qual.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return callable(owner)


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
