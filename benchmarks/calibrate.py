"""Machine-speed calibration for a shared, noisy host.

On the 2-core VM this benchmark was written on, the speed available to one
process flips between two levels every few seconds (the same code takes
1.7-1.9 times longer while another tenant is busy), so repetition alone
does not make runs agree.  The benchmark therefore runs a fixed reference
computation between ops, about every PROBE_EVERY_S of op time, and scales
each op's latency by how fast the reference ran right around it:

    reported time = measured time * (NOMINAL_REFERENCE_S / reference time) ** SENSITIVITY

where the reference time is the mean of the probes taken just before and
just after the op's window.  The reference is pure-Python interpreter work
(stdlib Fractions, tuples, dicts and calls) of the same kind as the
library's, but its small working set makes it slow down a little more than
the library when the host is busy.  Regressing log op time on log reference
time within each op kind and size, over 60-75 s of each workload's own ops
on that VM, gave exponents from 0.74 to 0.89 (0.79-0.83 for closed_form,
0.85-0.88 test_curve, 0.79-0.85 dr_expand, 0.74-0.89 cli_small, measured
twice an hour apart); SENSITIVITY is about their mean.  How much the
library slows relative to the reference depends on what the other tenant
runs, so the scaling removes most, not all, of the host's drift.
The reference is defined here, so no change to the library can move it: a
slower program still reads slower, a busier host mostly does not.  Raw times are kept in each run's record.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Reference time on the same VM while no other tenant was busy
# (2 vCPUs at 2.0 GHz, Python 3.11.7).
NOMINAL_REFERENCE_S = 0.0018
PROBE_EVERY_S = 0.2  # seconds of op time between two probes
PROBE_REPEATS = 5  # a probe is the fastest of this many reference runs
SENSITIVITY = 0.85


def reference_work() -> int:
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(1, 800):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        table[(i % 13, i % 11)] = acc.numerator % 97
    return len(table) + acc.denominator


class Calibration:
    def __init__(self):
        self.probes: list[float] = []

    def probe(self) -> float:
        """Seconds the reference takes now: the fastest of PROBE_REPEATS
        runs, which drops one-off interruptions but not a sustained slowdown."""
        times = []
        for _ in range(PROBE_REPEATS):
            start = perf_counter()
            reference_work()
            times.append(perf_counter() - start)
        self.probes.append(min(times))
        return self.probes[-1]

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor that turns a time measured between two probes into
        nominal-machine time."""
        return (NOMINAL_REFERENCE_S / ((before + after) / 2)) ** SENSITIVITY
