"""The host's speed, sampled through the run with a fixed reference kernel.

On a shared virtual machine the same op can take 1.7 times as long for
seconds or minutes at a time, because the host is busy elsewhere; the
thread's CPU time slows with it.  A run's median op time then depends on how
much of the run fell in a slow period.  The kernel below is benchmark code
only, so no change to the package changes its cost: timed within 100 ms of
an op, it tells how fast the machine was at that moment.

``SpeedProbe.sample`` runs the kernel between ops, outside the op clock,
until kernel time reaches ``SHARE`` of op time.  ``SpeedProbe.scale`` gives
each op the factor ``NOMINAL_S`` ÷ (median kernel time within ``HALF_WINDOW_NS``
of the op).  An op time times its factor is the time the op would take at
the speed at which the kernel takes ``NOMINAL_S``.
"""

from __future__ import annotations

import bisect
import statistics
import time
from array import array

import numpy as np

NOMINAL_S = 0.2e-3  # about the kernel's time on the baseline machine, quiet host
SHARE = 0.05
HALF_WINDOW_NS = 100_000_000
MIN_SAMPLES = 5

_RNG = np.random.default_rng(0)
_A = _RNG.normal(size=(4, 4)) + 1j * _RNG.normal(size=(4, 4))
_H = _A @ _A.conj().T
_EYE = np.eye(4)
_GRID = np.linspace(0.0, np.pi, 4097)


def kernel() -> float:
    """Small Hermitian eigenproblems, float formatting and one grid pass."""
    acc = 0.0
    for k in range(12):
        w = np.linalg.eigvalsh(_H + k * _EYE)
        acc += float(w[0]) + len(",".join(repr(x) for x in w.tolist()))
    return acc + float(np.cos(_GRID).sum())


class SpeedProbe:
    """Kernel timings taken through a run, and the op scale factors they give."""

    def __init__(self):
        self.at_ns = array("q")  # midpoint of each kernel run
        self.took_ns = array("q")
        self.busy_ns = 0
        self._medians: dict[tuple[int, int], float] = {}

    def sample(self, op_busy_ns: int) -> None:
        """Run the kernel until it has taken SHARE of op_busy_ns."""
        while self.busy_ns < SHARE * op_busy_ns or not self.took_ns:
            t = time.perf_counter_ns()
            kernel()
            dt = time.perf_counter_ns() - t
            self.at_ns.append(t + dt // 2)
            self.took_ns.append(dt)
            self.busy_ns += dt

    def scale(self, start_ns: int, dt_ns: int) -> float:
        """NOMINAL_S ÷ the median kernel time around the op [start, start + dt)."""
        mid = start_ns + dt_ns // 2
        lo = bisect.bisect_left(self.at_ns, mid - HALF_WINDOW_NS - dt_ns // 2)
        hi = bisect.bisect_right(self.at_ns, mid + HALF_WINDOW_NS + dt_ns // 2)
        if hi - lo < MIN_SAMPLES:  # too few near the op: take the nearest ones
            j = bisect.bisect_left(self.at_ns, mid)
            lo = max(0, min(j - MIN_SAMPLES // 2, len(self.at_ns) - MIN_SAMPLES))
            hi = min(len(self.at_ns), lo + MIN_SAMPLES)
        if (lo, hi) not in self._medians:
            self._medians[lo, hi] = statistics.median(self.took_ns[lo:hi])
        return NOMINAL_S * 1e9 / self._medians[lo, hi]
