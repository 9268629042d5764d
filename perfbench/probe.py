"""Set-up probe, run by ``run.py`` in a fresh process per sample.

    python3 perfbench/probe.py WORKLOAD SEED

Prints the seconds from before ``import qubus`` until the workload's first
call has its input: imports, spec construction and the seeded input.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402  (imports neither qubus nor numpy)

workloads.load(sys.argv[1], int(sys.argv[2])).prepare(1)
print(time.perf_counter() - START)
