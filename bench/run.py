"""Benchmark of the exact verifier: end-to-end run or traced per-layer run.

Usage (from the repository root):

    python3 bench/run.py --workload {run-all,invariant-ring,grassmann} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` times ``setup_s`` (median over fresh processes), ``pass_s``
(median time of the workload's passes over ``S`` seconds) and
``peak_rss_mb``; both times are scaled to the reference speed of
``calibrate``, measured while they run.  ``--trace 1`` traces the set-up, then runs pass 0's
inputs five times: a warm-up, one pass with the layer-boundary wrappers,
one untraced (``trace.overhead_s`` is the difference of the two) and two
under the call-counting profiler, whose counts must agree; it reports the
per-layer metrics.  Every output is checked against
``oracle``; the last line of standard output is the JSON result, and the
same result plus the run's details go to ``bench/out/``.  The exit code is
0 when every output verified, 1 when one did not, 2 when the program's
sources are missing.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

# per-layer metrics that must read non-zero on a workload: the ones expected
# to move its pass_s, and the lie set-up it builds for setup_s (a function
# name covers both its .calls and .busy_s)
MOVERS = {
    "run-all": [
        "invariants.mixed_bracket_value",
        "invariants.restrict",
        "poisson.project_wedges",
        "poisson.mixed_wedges",
        "gitq.glue_consistency",
        "geometry.flow_tangent",
        "poly.subs",
        "lie.double_algebra",
        "lie.standard_splitting",
    ],
    "invariant-ring": [
        "linalg.kernel_basis",
        "linalg.rref",
        "kernels.rref_rows",
        "linalg.matrix_new",
        "invariants.invariants_of_degree",
    ],
    "grassmann": [
        "linalg.from_wedges",
        "geometry.tangent_project_general",
        "poisson.poisson_action_residual",
        "poly.diff",
        "lie.double_algebra",
        "lie.standard_splitting",
    ],
}
MOVERS_EVERYWHERE = ["fractions.new", "convert.calls", "py.calls", "linalg.matmul", "lie.build_sl"]


def log(msg):
    print("bench: %s" % msg, file=sys.stderr, flush=True)


def probe_setup(name):
    """Median scaled set-up time over fresh processes, and each probe's
    wall time and scaled time."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), name],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(p["scaled_s"] for p in probes), probes


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def attempt_pass(workload, ctx, inp):
    """One pass; returns (seconds, outputs) or (seconds, None) on an error."""
    t0 = time.perf_counter()
    try:
        out = workload.run_pass(ctx, inp)
    except Exception:  # a failed operation is counted, the run goes on
        log("pass raised:\n" + traceback.format_exc())
        out = None
    return time.perf_counter() - t0, out


def verify_all(workload, done):
    """Check every (inputs, outputs) pair; returns (correct, notes)."""
    import oracle

    notes = {}
    correct = True
    for inp, out in done:
        if out is None:
            continue
        try:
            for key, value in workload.verify(inp, out).items():
                notes[key] = notes.get(key, 0) + value
        except oracle.OracleError as exc:
            log("wrong output: %s" % exc)
            correct = False
        except Exception:  # a malformed output is a wrong output
            log("output could not be checked:\n" + traceback.format_exc())
            correct = False
    return correct, notes


def same_outputs(a, b):
    return a is not None and b is not None and a == b


def timed_run(workload, seed, seconds):
    import calibrate

    setup_s, setup_all = probe_setup(workload.name)
    ctx = workload.setup()
    # warm-up pass on pass 0's inputs: fills lazy state and gives a second
    # output to compare pass 0 with (same inputs, so byte-identical)
    warm_inp = workload.inputs(seed, 0)
    warm_s, warm_out = attempt_pass(workload, ctx, warm_inp)
    done, times, walls, loops = [], [], [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while not times or time.perf_counter() < deadline:
        inp = workload.inputs(seed, index)
        with calibrate.Sampled() as timer:
            _, out = attempt_pass(workload, ctx, inp)
        times.append(timer.scaled_s)
        walls.append(timer.wall_s)
        loops.append(timer.loops)
        done.append((inp, out))
        index += 1
    rss = peak_rss_mb()
    done.append((warm_inp, warm_out))
    correct, notes = verify_all(workload, done)
    if not same_outputs(warm_out, done[0][1]):
        log("two passes on the same inputs gave different outputs")
        correct = False
    failed = sum(1 for _, out in done if out is None)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "pass_s": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    details = {
        "setup_probes": setup_all,
        "warmup_wall_s": warm_s,
        "pass_scaled_s": times,
        "pass_wall_s": walls,
        "reference_loops": loops,
        "notes": notes,
    }
    return correct, len(done), failed, metrics, details


def traced_run(workload, seed):
    import tracer
    import wonderland.reports  # noqa: F401  (loads every traced module before the wrappers go in)

    spans = tracer.Spans()
    spans.install()
    try:
        ctx = workload.setup()
    finally:
        spans.remove()
    inp = workload.inputs(seed, 0)
    warm_s, warm_out = attempt_pass(workload, ctx, inp)
    spans.install()
    try:
        traced_s, traced_out = attempt_pass(workload, ctx, inp)
    finally:
        spans.remove()
    plain_s, plain_out = attempt_pass(workload, ctx, inp)
    counted = [tracer.count_calls(lambda: attempt_pass(workload, ctx, inp)[1]) for _ in range(2)]
    outs = [warm_out, traced_out, plain_out] + [out for out, _ in counted]
    done = [(inp, out) for out in outs]
    correct, notes = verify_all(workload, done)
    if not all(same_outputs(outs[0], o) for o in outs[1:]):
        log("passes on the same inputs gave different outputs")
        correct = False
    counts = counted[0][1]
    if counted[1][1] != counts:
        log("exact counts differ between two passes: %r vs %r" % (counts, counted[1][1]))
        correct = False
    values = spans.metrics()
    values.update(counts)
    values["trace.overhead_s"] = traced_s - plain_s
    zero = [
        key
        for prefix in MOVERS[workload.name] + MOVERS_EVERYWHERE
        for key in values
        if (key == prefix or key.startswith(prefix + ".")) and not values[key]
    ]
    if zero:
        log("layer metrics expected to move this workload read zero: %s" % zero)
        correct = False
    units = dict(tracer.metric_names())
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    failed = sum(1 for out in outs if out is None)
    details = {"warmup_s": warm_s, "plain_pass_s": plain_s, "traced_pass_s": traced_s, "notes": notes}
    return correct, len(outs), failed, metrics, details


def main(argv=None):
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wonderland", "__init__.py")):
        log("no program sources under %s; run from a checkout of the repository" % SRC)
        return 2
    sys.path.insert(0, SRC)
    from wonderland import backend

    workload = WORKLOADS[args.workload]
    log("workload %s, seed %d, kernel backend %s" % (workload.name, args.seed, backend.BACKEND))
    if args.trace:
        correct, attempted, failed, metrics, details = traced_run(workload, args.seed)
    else:
        correct, attempted, failed, metrics, details = timed_run(workload, args.seed, args.seconds)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    sidecar = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (workload.name, args.seed, args.trace))
    with open(sidecar, "w") as fh:
        json.dump(
            {
                "workload": workload.name,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "backend": backend.BACKEND,
                "nproc": os.cpu_count(),
                "result": result,
                "details": details,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
