"""Host speed probe: converts wall time to seconds at a reference speed.

On a shared host the same pass can run at very different speeds from one
second to the next (see README.md, Noise).  `SpeedProbe` samples the speed
the process currently gets: every `INTERVAL_S` of wall time a SIGALRM
handler runs a fixed micro-kernel twice and records the cost of the second,
warm run.  Work done in a stretch of wall time is proportional to the
stretch divided by the probe cost measured there, so

    reference seconds = sum over stretches of stretch * REFERENCE_S / cost

is the time the same work would take at the speed where the probe costs
`REFERENCE_S`.  It does not depend on how fast the host was during the run,
only on the work done.  The probe's own time is left out of the stretches.
"""
from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
# The probe's cost in a tight loop on the reference host (a 2-vCPU KVM
# guest, Python 3.11.7) in its fast state.  Inside a pass the probe runs
# with cold caches and costs more, so reference seconds come out below wall
# seconds; the constant only fixes the scale, which runs share.
REFERENCE_S = 35e-6

clock = time.monotonic


def probe_kernel() -> tuple:
    """A fixed mix of dict, integer and Fraction work, about 35 us.

    The mix follows the workloads: dict and integer work dominates
    `counting`, Fraction arithmetic `clouds` and `sweeps`.  Tried alone,
    either half tracked one kind of workload and not the other.
    """
    table = {}
    acc = 0
    for i in range(150):
        table[i & 31] = table.get(i & 31, 0) + i
        acc += i * i
    frac = Fraction(0)
    for i in range(1, 7):
        frac += Fraction(1, i * i + 1)
    return acc, frac


class SpeedProbe:
    """Samples the probe cost every INTERVAL_S while started."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.costs: list[float] = []

    def _tick(self, signum, frame) -> None:
        # The first call refills the caches the pass evicted; its cost says
        # more about the pass than about the host, so only the second call
        # is timed.
        start = clock()
        probe_kernel()
        timed = clock()
        probe_kernel()
        end = clock()
        self.starts.append(start)
        self.ends.append(end)
        self.costs.append(end - timed)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_seconds(self, start: float, end: float) -> float:
        """Seconds at the reference speed of the wall interval [start, end].

        Each stretch before a probe is scaled by that probe's cost; the
        stretch after the last probe in the interval by the last cost seen,
        and an interval with no probe by the nearest probe.
        """
        if not self.starts:
            raise RuntimeError("no probe sample was taken")
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        total, at = 0.0, start
        for i in range(lo, hi):
            total += (self.starts[i] - at) * REFERENCE_S / self.costs[i]
            at = self.ends[i]
        last = min(max(hi - 1, 0), len(self.starts) - 1)
        return total + (end - at) * REFERENCE_S / self.costs[last]
