"""A fixed reference loop that measures how fast the host runs right now.

Shared hosts change speed for tens of seconds at a time when a neighbour
loads the same core: on a 2-core Intel Xeon host a fixed interpreted loop
took 6.4 ms in one minute and 9.1 ms in the next, and one benchmark pass on
identical inputs read 25 % apart in two runs.  The benchmark therefore times
this loop just before and just after every op and reports times in
*reference-host seconds*: measured seconds x ``REF_LOOP_S`` / the loop's
mean time around the op.  Over 9 s blocks of a fixed trace on that host,
the scaled time varied by 1 % where the raw time varied by 12 %.

The loop uses no surftrace code, so a change to the library cannot move it;
it mixes 3-vector numpy calls with interpreted arithmetic, the same kind of
work as the library's pointwise kernels.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: about the loop's time on the host the benchmark was defined on (2-core
#: Intel Xeon, python 3.11.7, numpy 2.4.6) while that host was quiet; it only
#: sets the unit, and must stay fixed for results to compare
REF_LOOP_S = 2.0e-3

_A = np.array([0.3, -1.2, 0.7])
_B = np.array([1.1, 0.4, -0.5])


def reference_loop() -> float:
    """Wall time of one pass of the fixed loop."""
    t0 = perf_counter()
    acc = 0.0
    for _ in range(60):
        c = np.cross(_A, _B)
        m = np.array([_A, _B, c])
        acc += float(c @ _A) / float(np.linalg.norm(c)) + float(m[1] @ m[2])
    return perf_counter() - t0


def host_scale(samples: list[float]) -> float:
    """Factor from measured to reference-host seconds.

    The mean, not the median: the loop's time flips between two levels
    within milliseconds, and an op pays the average of them.
    """
    return REF_LOOP_S / statistics.fmean(samples)
