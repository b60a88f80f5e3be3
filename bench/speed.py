"""The speed of the machine during a round, measured inside the round.

On a shared host the same computation runs 20-50% slower when neighbours
are busy, and that load changes within minutes, so wall times of separate
runs scatter more than any bound a regression check could use. While a
round solves, a SIGALRM handler times a fixed pure-Python kernel (tuple
keys, dict accumulation and complex arithmetic, the instruction mix of the
sparse ring) every PERIOD_S of wall time. The median kernel time over the
round, against REF_KERNEL_S, says how much slower than the reference speed
the machine ran, and `solve_s` is the wall time (less the probes' own time)
rescaled to that reference speed.

The handler calls nothing in the library, so it changes no result; it only
interrupts the solve between bytecodes, about 2% of the time.
"""

import signal
import statistics
import time

PERIOD_S = 0.02
# kernel time on an unloaded development machine (2-vCPU VM, Python 3.11):
# rescaled times read as seconds at that speed
REF_KERNEL_S = 250e-6

_KEYS = [((i % 7 - 3,), (i % 5 - 2,), (i % 3, 0, 0)) for i in range(12)]


def kernel():
    acc = {}
    for a in _KEYS:
        for b in _KEYS:
            key = (tuple(u + v for u, v in zip(a[0], b[0])),
                   tuple(u + v for u, v in zip(a[1], b[1])), a[2])
            acc[key] = acc.get(key, 0j) + 1.0001j
    return acc


class SpeedProbe:
    """Context manager sampling the kernel time while the body runs."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a body shorter than one period
            self._tick(None, None)
        return False

    def slowdown(self):
        """Median kernel time over the reference time (1.0: reference
        speed, 1.3: 30% slower)."""
        return statistics.median(self.samples) / REF_KERNEL_S

    def rescale(self, wall_s):
        """Wall time less the probes' time, at the reference speed."""
        return (wall_s - sum(self.samples)) / self.slowdown()
