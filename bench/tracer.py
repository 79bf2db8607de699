"""Layer-boundary tracing for the benchmark, installed from outside the program.

Two instruments, never active at the same time:

* ``Spans`` wraps the public boundary functions of each ``wonderland``
  module and records, per function, the number of calls and the inclusive
  busy time of its outermost activations, and per layer the self time: the
  time during which the innermost active wrapped call belongs to that layer.
* ``count_calls`` runs a callable under ``cProfile`` (the wrappers removed)
  and returns exact counts: Python-level calls, ``Fraction`` constructions,
  ``Matrix`` constructions and pair/``Fraction`` conversions.

Functions bound into other modules by ``from ... import`` (and stored in
module-level dicts such as ``reports.RUNNERS``) are replaced wherever they
are looked up, or their calls would go uncounted.
"""

import cProfile
import functools
import sys
import types
from time import perf_counter

# layer -> metric name -> targets "module:qualname"; several targets under
# one name are summed (one per model or chart class).
BOUNDARY = {
    "reports": {
        name: ["wonderland.reports:" + name]
        for name in (
            "run_jacobi",
            "run_action",
            "run_diagonal_action",
            "run_multiplicativity",
            "run_tangency",
            "run_glue",
            "run_saturation",
            "run_rank1",
            "run_f2_demo",
        )
    }
    | {"serialize": ["wonderland.reports:ExperimentReport.serialize"]},
    "gitq": {
        "glue_consistency": ["wonderland.gitq:glue_consistency"],
        "quotient_bracket_table": ["wonderland.gitq:quotient_bracket_table"],
        "GradedInvariantRing": ["wonderland.gitq:GradedInvariantRing.__init__"],
    },
    "invariants": {
        "mixed_bracket_value": ["wonderland.invariants:mixed_bracket_value"],
        "restrict": ["wonderland.invariants:ProjectiveInvariant.restrict"],
        "invariants_of_degree": ["wonderland.invariants:invariants_of_degree"],
        "express_in_generators": ["wonderland.invariants:express_in_generators"],
    },
    "poisson": {
        name: ["wonderland.poisson:" + name]
        for name in (
            "splitting_bivector_field",
            "jacobi_sweep",
            "mixed_wedges",
            "project_wedges",
            "poisson_action_residual",
            "multiplicativity_residual",
        )
    },
    "geometry": {
        "flow_tangent": ["wonderland.geometry:Pgl2Model.flow_tangent"],
        "tangent_project": [
            "wonderland.geometry:ProjChart.tangent_project",
            "wonderland.geometry:GrassChart.tangent_project",
        ],
        "tangent_project_general": ["wonderland.geometry:GrassChart.tangent_project_general"],
        "act": [
            "wonderland.geometry:Pgl2Model.act",
            "wonderland.geometry:GrassmannModel.act",
        ],
    },
    "poly": {
        "mul": ["wonderland.poly:MultiPoly.__mul__"],
        "subs": ["wonderland.poly:MultiPoly.subs"],
        "diff": ["wonderland.poly:MultiPoly.diff"],
        "eval": ["wonderland.poly:MultiPoly.eval"],
    },
    "linalg": {
        "matmul": ["wonderland.linalg:Matrix.__mul__"],
        "rref": ["wonderland.linalg:Matrix.rref"],
        "kernel_basis": ["wonderland.linalg:Matrix.kernel_basis"],
        "solve": ["wonderland.linalg:Matrix.solve"],
        "det": ["wonderland.linalg:Matrix.det"],
        "from_wedges": ["wonderland.linalg:Bivector.from_wedges"],
    },
    "kernels": {
        name: ["wonderland.backend:" + name]
        for name in ("rref_rows", "mat_mul", "poly_mul", "poly_eval")
    },
    "lie": {
        name: ["wonderland.lie:" + name]
        for name in ("build_sl", "double_algebra", "standard_splitting")
    },
}

# layers timed for self time only: every public function and method they
# define
SELF_ONLY = {"charvar": "wonderland.charvar", "sampling": "wonderland.sampling"}

LAYERS = list(BOUNDARY) + list(SELF_ONLY)

# exact counters: metric -> "module:qualname" of the counted code
COUNTED = {
    "fractions.new": ["fractions:Fraction.__new__"],
    "linalg.matrix_new": ["wonderland.linalg:Matrix.__init__"],
    "convert.calls": [
        "wonderland.linalg:_to_pairs",
        "wonderland.linalg:_from_pairs",
        "wonderland.poly:_pairs",
        "wonderland.poly:_unpairs",
    ],
}


def metric_names():
    """Every per-layer metric, in report order, with its unit."""
    out = []
    for layer, fns in BOUNDARY.items():
        for name in fns:
            out.append(("%s.%s.calls" % (layer, name), "count"))
            out.append(("%s.%s.busy_s" % (layer, name), "s"))
    for layer in LAYERS:
        out.append(("%s.self_s" % layer, "s"))
    out.append(("py.calls", "count"))
    for name in COUNTED:
        out.append((name, "count"))
    out.append(("trace.overhead_s", "s"))
    return out


def _resolve(target):
    mod_name, qual = target.split(":")
    owner = sys.modules[mod_name]
    parts = qual.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


def _raw(owner, attr):
    """The stored object (descriptor for a class attribute) and the plain
    function inside it."""
    stored = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return stored, getattr(stored, "__func__", stored)


def _public_callables(mod):
    """Qualified names of the public functions and methods ``mod`` defines."""
    out = []
    for name, value in vars(mod).items():
        if name.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
            continue
        if isinstance(value, types.FunctionType):
            out.append(name)
        elif isinstance(value, type):
            out.extend(
                "%s.%s" % (name, attr)
                for attr, member in vars(value).items()
                if isinstance(member, types.FunctionType) and not attr.startswith("_")
            )
    return out


class Spans:
    """Boundary wrappers; ``install`` / ``remove`` patch and restore."""

    def __init__(self):
        self.calls = {}
        self.busy = {}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.self_s["bench"] = 0.0
        self._stack = ["bench"]
        self._last = perf_counter()
        self._patches = []

    def _wrap(self, fn, layer, key):
        calls, busy = self.calls, self.busy
        calls.setdefault(key, 0)
        busy.setdefault(key, 0.0)
        stack, self_s = self._stack, self.self_s
        depth = [0]
        start = [0.0]
        spans = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            now = perf_counter()
            self_s[stack[-1]] += now - spans._last
            spans._last = now
            stack.append(layer)
            calls[key] += 1
            if depth[0] == 0:
                start[0] = now
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                now = perf_counter()
                self_s[stack.pop()] += now - spans._last
                spans._last = now
                depth[0] -= 1
                if depth[0] == 0:
                    busy[key] += now - start[0]

        return wrapper

    def _patch_function(self, fn, wrapper):
        """Replace ``fn`` wherever a wonderland module binds it."""
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "wonderland" or mod_name.startswith("wonderland.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, name, wrapper)
                elif isinstance(value, dict) and name.isupper():
                    for k, v in list(value.items()):
                        if v is fn:
                            self._set_item(value, k, wrapper)

    def _set(self, obj, name, value):
        old = obj.__dict__[name] if isinstance(obj, type) else getattr(obj, name)
        self._patches.append(("attr", obj, name, old))
        setattr(obj, name, value)

    def _set_item(self, mapping, key, value):
        self._patches.append(("item", mapping, key, mapping[key]))
        mapping[key] = value

    def install(self):
        for layer, fns in BOUNDARY.items():
            for name, targets in fns.items():
                for target in targets:
                    self._install_one(target, layer, "%s.%s" % (layer, name))
        for layer, mod_name in SELF_ONLY.items():
            for qual in _public_callables(sys.modules[mod_name]):
                self._install_one("%s:%s" % (mod_name, qual), layer, "%s.%s" % (layer, qual))

    def _install_one(self, target, layer, key):
        owner, attr = _resolve(target)
        stored, fn = _raw(owner, attr)
        wrapper = self._wrap(fn, layer, key)
        if isinstance(owner, type):
            if isinstance(stored, classmethod):
                wrapper = classmethod(wrapper)
            self._set(owner, attr, wrapper)
        else:
            self._patch_function(fn, wrapper)

    def remove(self):
        now = perf_counter()
        self.self_s[self._stack[-1]] += now - self._last
        self._last = now
        for kind, obj, key, old in reversed(self._patches):
            if kind == "attr":
                setattr(obj, key, old)
            else:
                obj[key] = old
        self._patches = []

    def metrics(self):
        out = {}
        for layer, fns in BOUNDARY.items():
            for name in fns:
                key = "%s.%s" % (layer, name)
                out[key + ".calls"] = self.calls.get(key, 0)
                out[key + ".busy_s"] = self.busy.get(key, 0.0)
        for layer in LAYERS:
            out[layer + ".self_s"] = self.self_s[layer]
        return out


def count_calls(fn):
    """Run ``fn()`` under cProfile and return (result, exact counts)."""
    codes = {}
    for metric, targets in COUNTED.items():
        for target in targets:
            owner, attr = _resolve(target)
            codes[_raw(owner, attr)[1].__code__] = metric
    prof = cProfile.Profile(builtins=False)
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    counts = {"py.calls": 0}
    counts.update({m: 0 for m in COUNTED})
    for entry in prof.getstats():
        if not isinstance(entry.code, types.CodeType):
            continue
        counts["py.calls"] += entry.callcount
        metric = codes.get(entry.code)
        if metric:
            counts[metric] += entry.callcount
    return result, counts
