"""Machine-speed calibration for the benchmark's timings.

The 2-vCPU virtual machine this benchmark was built on is shared: the
same work took from 1x to 2x as long from one run to the next, in swings
of seconds to tens of seconds.  So timings are reported at a reference speed.  Between
timed calls, at most every ``EVERY_S`` seconds, the benchmark times two
fixed polynomial products in its own arithmetic (``reference.mul``, never
frobsplit): a small one of 1,600 term products and a large one of 22,500.
A timing taken between two calibrations is divided by the mean of their
slowdowns.  On five runs each of matrix-chains and compat-fedder this
took the quartile spread of the round wall time from 0.10-0.15 down to
about 0.05.

A change to frobsplit cannot move the calibration, so a faster program
still reads faster; the cost is that a change that only helps or hurts
under contention would not show.
"""

from __future__ import annotations

import random
import time

import reference as ref

EVERY_S = 0.25
PRIME = 7


def _poly(seed: int, n: int, terms: int, deg: int) -> dict:
    rng = random.Random(seed)
    return {tuple(rng.randrange(deg) for _ in range(n)): rng.randrange(1, PRIME) for _ in range(terms)}


# Each product with its time on the build machine at its usual speed.
SMALL = (_poly(0, 4, 40, 6), _poly(1, 4, 40, 6))
SMALL_REFERENCE_S = 0.0022
LARGE = (_poly(2, 3, 150, 8), _poly(3, 3, 150, 8))
LARGE_REFERENCE_S = 0.0327


def slowdown() -> float:
    """How much slower than the reference speed the machine runs now: the
    geometric mean of the two products' time ratios (best of three for
    the small one)."""
    clock = time.perf_counter
    small = []
    for _ in range(3):
        start = clock()
        ref.mul(*SMALL, PRIME)
        small.append(clock() - start)
    start = clock()
    ref.mul(*LARGE, PRIME)
    large = clock() - start
    return (min(small) / SMALL_REFERENCE_S * large / LARGE_REFERENCE_S) ** 0.5
