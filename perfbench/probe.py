"""Host speed probe, for timings that hold steady on a shared host.

On a shared host the speed of a core drifts with other tenants' load. On
the 2-vCPU VM this benchmark was built on, it ran up to 1.5x slower for
tens of seconds at a time. CPU time slowed by the same factor, and no run
length averages that out. So every timed stretch is paired with probes
taken right next to it: a fixed, standard-library-only computation (a sum
of Fractions), which no change to ``tpa`` can alter. A time is then
reported at nominal host speed:

    reported = measured * speed(probes taken during or right after it)
    speed(probes) = mean of NOMINAL_S / probe time

NOMINAL_S sets the scale. Reported times are the times on a host where one
probe takes exactly 1 ms, about that VM when it was quiet. Comparisons
between commits do not depend on that choice. Raw times are printed
beside the scaled ones.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 1e-3


def probe():
    """Seconds taken by one fixed Fraction computation (about 1 ms)."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return perf_counter() - start


def speed(probe_times):
    """Host speed relative to nominal over the stretch the probes sampled;
    a measured time times this factor is the time at nominal speed."""
    return statistics.fmean(NOMINAL_S / p for p in probe_times)
