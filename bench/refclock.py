"""Host-speed reference: a fixed pure-Python kernel timed next to each op.

The shared 2-core machines this benchmark runs on switch between a fast and
a slow mode, 1.6-1.9x apart, for a tenth of a second up to minutes at a
time, presumably as other tenants come and go on the same physical cores.
A wall or CPU time taken in the slow mode is longer by about that factor,
and a whole 35 s run can fall in it.  So each timed op is bracketed by two
timings of this kernel, and its time is scaled by REF_S over their mean:
the result is the op's time at the speed at which the kernel takes REF_S.
The kernel is small-number Fraction arithmetic, like the program's exact
scalars; it imports nothing from quadalg, so no change to the program can
change it.  The match is not exact: ops of a few milliseconds or more slow
down by nearly the kernel's factor, but ops under 0.1 ms slow down less,
so in the slow mode their scaled times come out up to about 20% low.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The kernel's time on a quiet 2.1 GHz Xeon vCPU (its fast mode).  Changing
# it rescales every corrected time, so it changes the baseline.
REF_S = 0.25e-3


def _kernel() -> Fraction:
    """Small-number Fraction arithmetic: the sum starts over once it passes
    50, so no integer grows and every run does the same work."""
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(i % 7 + 1, i % 5 + 1) * Fraction(2, 3)
        if s > 50:
            s = Fraction(0)
    return s


def ref_time() -> float:
    """The kernel's time now: the faster of two back-to-back runs, so the
    second one runs with warm caches after a large op."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(ref_before: float, ref_after: float) -> float:
    """Factor that brings a time taken between two kernel timings to REF_S speed."""
    return 2 * REF_S / (ref_before + ref_after)
