"""Time one benchmark set-up: imports, generator set-up and one warm-up solve.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the elapsed seconds on its last line.  ``run.py`` starts this probe
several times per run and reports the median as ``setup_s``.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402

lib = workloads.import_library()
wl = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
workloads.warm_up(lib, wl)
print(repr(time.perf_counter() - T0))
