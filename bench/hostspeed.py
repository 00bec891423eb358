"""A fixed reference computation that tells how fast the host is running right now.

The benchmark's machine shares its host with other tenants, and the
speed it gets drifts by up to 2.5x within seconds and by tens of
percent over minutes (see NOTES.md, Host noise). A timing taken at one
moment says as much about the host as about primegen. So the benchmark
runs `probe()` beside every op and every set-up interpreter, and scales
each time to what it would have been at the probe speed `PROBE_REF_S`:

    scaled time = measured time * PROBE_REF_S / probe time around it

The probe does not use primegen, so a change to the program moves the
scaled time and leaves the probe alone; a change in host speed moves
both and cancels out. Its work is a mix of what primegen's workloads do:
modular squaring of 332-bit and 2048-bit integers, small-integer `pow`
in a Python loop, and building, counting and sorting a list of ints.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# A typical median of `probe()` on the reference machine (Python 3.11,
# 2-vCPU Intel Xeon VM), where it ranged from 2.3 to 3.9 ms as the host's
# speed drifted. It only fixes the scale of the reported seconds;
# comparisons between two commits on one machine do not depend on it.
PROBE_REF_S = 0.0030

_M332 = (1 << 331) + 12345
_M2048 = (1 << 2047) + 12345
REPEATS = 3


def _once() -> float:
    start = perf_counter()
    x = 3
    for _ in range(300):
        x = x * x % _M332
    y = 3
    for _ in range(40):
        y = y * y % _M2048
    s = 0
    for a in range(2, 500):
        s += pow(a, 1000, 1009)
    xs = [i * 7919 % 10007 for i in range(8000)]
    counts: dict[int, int] = {}
    for v in xs:
        counts[v] = counts.get(v, 0) + 1
    xs.sort()
    return perf_counter() - start


def probe() -> float:
    """Median duration of a few runs of the reference computation, in seconds."""
    return statistics.median(_once() for _ in range(REPEATS))


def scale(seconds: float, probe_s: float) -> float:
    """`seconds` measured while the probe took `probe_s`, at the reference probe speed."""
    return seconds * PROBE_REF_S / probe_s
