"""A fixed pure-Python loop that measures how fast the machine runs right now.

The benchmark shares a few cores of a host with other tenants, and their
load slows every instruction of this process by 20-50% for seconds to
minutes at a time; process CPU time slows just as much, so the time is not
lost to descheduling, and no quiet moment need occur in a whole run.  The
probe runs the same interpreter work every time, so its duration tracks
that slowdown.  The benchmark times one probe before each op and one after,
and scales the op's wall time by NOMINAL_S over the mean of those two: the
time the op would have taken at the speed where the probe takes NOMINAL_S.
The program's own cost is untouched by the scaling; only the host's slow
spells are taken out.
"""

from __future__ import annotations

import time

ITERATIONS = 12000
# The probe's fastest time on the 2.1 GHz Xeon vCPU the benchmark was
# written on (CPython 3.11), when the host was quiet.
NOMINAL_S = 0.00093


def probe(n: int = ITERATIONS) -> float:
    """Seconds taken by a fixed loop of integer arithmetic and list indexing."""
    t0 = time.perf_counter()
    acc, table = 0, list(range(64))
    for i in range(n):
        acc = (acc * 31 + table[i & 63]) % 65521
    return time.perf_counter() - t0
