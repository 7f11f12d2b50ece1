"""Time importing frobsplit and building one round of a workload's inputs.

Run in a fresh interpreter by run.py:
    python3 bench/setup_probe.py <workload> <seed>
Prints the elapsed seconds.  The clock starts before frobsplit and the
modules it shares with the benchmark are imported.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402

workloads.build_round(sys.argv[1], int(sys.argv[2]), 0)
print(repr(time.perf_counter() - START))
