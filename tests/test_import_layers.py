"""Which modules a fresh interpreter loads.

The invariant engine (``lie``, ``invariants`` and the ring half of
``gitq``) sits below the chart and Poisson layers, so using it must not
load them: each import compiles its module from source when bytecode is
not cached.  ``reports`` is the other way round: the traced benchmark run
imports it and then looks every tracer target up in ``sys.modules``, so it
must load every module the tracer names.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ABOVE_ENGINE = {
    "wonderland.geometry",
    "wonderland.poisson",
    "wonderland.reports",
    "wonderland.charvar",
    "wonderland.sampling",
}


def _loaded(code):
    """The ``wonderland`` modules loaded after ``code`` runs in a fresh
    interpreter, and what ``code`` printed before them."""
    probe = code + (
        "\nimport sys, json"
        "\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('wonderland'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    return set(json.loads(out[-1])), out[:-1]


def test_engine_loads_without_charts_or_brackets():
    modules, _ = _loaded(
        "import wonderland.invariants, wonderland.gitq, wonderland.lie\n"
        "from wonderland.invariants import conjugation_action\n"
        "from wonderland.lie import build_sl\n"
        "conjugation_action(build_sl(2), 2)"
    )
    assert "wonderland.gitq" in modules
    assert modules & ABOVE_ENGINE == set()


def test_git_ring_command_loads_without_charts_or_brackets():
    modules, printed = _loaded(
        "from wonderland import cli\n"
        "assert cli.main(['git', 'ring', '--r', '1', '--degree', '2']) == 0"
    )
    assert json.loads("\n".join(printed))["degree_bound"] == 2
    assert modules & ABOVE_ENGINE == set()


def test_reports_loads_every_traced_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [t for fns in tracer.BOUNDARY.values() for ts in fns.values() for t in ts]
    wanted = {t.split(":")[0] for t in targets} | set(tracer.SELF_ONLY.values())
    assert ABOVE_ENGINE <= wanted
    modules, _ = _loaded("import wonderland.reports")
    assert wanted - modules == set()


def test_restrict_loads_no_poisson_layer():
    """A surrogate restricted in a process that imported only
    ``invariants`` and the charts agrees with its value at the points;
    ``restrict`` loads nothing of the Poisson layer."""
    modules, printed = _loaded(
        "import wonderland.invariants as inv\n"
        "f = inv.pgl2_surrogates(2)[0]\n"
        "from wonderland.geometry import ProductChart, ProjChart, ProjMatrixPoint\n"
        "pts = [ProjMatrixPoint([1, 2, 3, 5]), ProjMatrixPoint([2, -1, 1, 4])]\n"
        "pc = ProductChart([ProjChart(0), ProjChart(3)])\n"
        "print(f.restrict(pc).eval(pc.coords_of(pts)) == f.value_at(pts))"
    )
    assert printed == ["True"]
    assert "wonderland.poisson" not in modules
