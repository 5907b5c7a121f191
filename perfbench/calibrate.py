"""How fast the machine is running right now, from a fixed reference
computation.

The benchmark's host is a few cores of a shared machine whose speed for
one process changes by up to 1.7x within seconds (the same request, run
in a loop, swings between two levels that last from a tenth of a second
to many seconds; CPU time swings as much as wall time).  Timing requests
alone then measures the neighbours as much as the program.

`reference_s()` times `reference_pass`, a fixed computation in the
standard library's `Fraction`, several times and returns the fastest.
Over blocks of requests, the program's time follows the reference's with
a slope close to 1 (0.9-1.1 on gram, verify and connect requests); a
reference in plain ints and dicts slowed less than the program did.  The
session runs it between requests, outside the timed region, and scales each
request's wall time by `REFERENCE_S / reference_s()` taken around it:
the time the request would have taken with the machine at reference
speed.  The program cannot change the reference computation, so a
change to the program moves scaled times as it moves raw ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Repetitions per reading; the fastest one is kept, so a reading skips a
# preemption that hits one repetition.
REPEATS = 3

# reference_pass() on the reference machine in its fast state (2 vCPUs,
# Intel Xeon at 2.0 GHz, Python 3.11.7): the unit that scaled times are
# expressed in, chosen so that they read close to raw times there.
REFERENCE_S = 0.00055


def reference_pass() -> Fraction:
    """A fixed recurrence in exact rationals, the arithmetic the program
    spends its time in: fraction products, sums and reductions by gcd."""
    x, total = Fraction(1), Fraction(0)
    for k in range(1, 60):
        x = x * Fraction(2 * k + 1, 3 * k + 2) + Fraction(1, k)
        total += x / (k + 1)
    return total


def reference_s() -> float:
    """Fastest of REPEATS timed reference passes, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference_pass()
        best = min(best, time.perf_counter() - start)
    return best
