"""Time one workload's set-up in a fresh process.

Usage: python3 bench/setup_probe.py WORKLOAD

Prints, as JSON, the wall seconds taken to import ``wonderland`` and build
the workload's shared exact objects, and the same time scaled to the
reference speed by ``calibrate`` probes made just before and just after.
``run.py`` starts this several times per run and reports the median scaled
time as ``setup_s``.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[0:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import calibrate  # noqa: E402  (needs the paths above)
from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    workload = WORKLOADS[sys.argv[1]]
    calibrate.speed_probe()  # warm-up: the first loop in a process is slower
    before = calibrate.speed_probe()
    t0 = time.perf_counter()
    workload.setup()
    wall = time.perf_counter() - t0
    after = calibrate.speed_probe()
    print(json.dumps({"wall_s": wall, "scaled_s": wall * calibrate.scale(before, after)}))
