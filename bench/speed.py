"""Samples the speed of the core a workload runs on, while it runs.

On a shared host the speed of a core drifts by tens of percent over tens of
seconds, and process CPU time drifts with it, so neither wall time nor CPU
time compares runs made at different moments.  So while a workload runs,
a timer interrupts it after every INTERVAL_S of its CPU time and times one
short slice of a fixed reference kernel.  The kernel uses nothing from
``openconvex``, so no change to the program moves it.  It mixes the three
kinds of work the workloads do: small numpy batches with a scatter and a
dense solve (the chain solver), ``Fraction`` arithmetic (the exact spline
checks) and scalar float loops (the per-point spline path).

Times are read from ``work_clock``, which leaves out the time spent in
slices.  A time t whose slices took r on (trimmed) average is reported as
t * NOMINAL_S / r: the time the same work takes on a core that runs a slice
in NOMINAL_S.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# About the mean slice time on the 2-core Intel Xeon (2.1 GHz) that recorded
# results/baseline.json, with Python 3.11.7 and numpy 2.4.6.
NOMINAL_S = 0.0055
INTERVAL_S = 0.1        # process CPU time between slices
MIN_SLICES = 15         # slices behind a scaled time, about 1.5 s of the run
TRIM = 0.1              # share of slices dropped at either end of a mean
WARMUP_SLICES = 20

_spent = 0.0            # seconds spent in slices so far


def work_clock() -> float:
    """``perf_counter()`` less the time spent in reference slices."""
    return perf_counter() - _spent


class Reference:
    """The fixed kernel; ``slice()`` runs a fixed amount of it."""

    def __init__(self):
        rng = np.random.default_rng(20181206)
        m, k, n = 240, 6, 120
        self.n = n
        self.idx = rng.integers(0, n, size=(m, k))
        P = rng.normal(size=(m, k, k))
        self.P = P @ P.transpose(0, 2, 1)
        self.q = rng.normal(size=(m, k))
        A = rng.normal(size=(n, n))
        self.A = A @ A.T + n * np.eye(n)
        self.z = rng.normal(size=n)

    def _numeric(self) -> float:
        u = self.z[self.idx]
        lg = np.einsum("mkl,ml->mk", self.P, u) + self.q
        g = np.zeros(self.n)
        np.add.at(g, self.idx, lg)
        blocks = 1e-3 * (np.einsum("mk,ml->mkl", lg, lg) + self.P)
        H = self.A.copy()
        np.add.at(H, (self.idx[:, :, None], self.idx[:, None, :]), blocks)
        x = np.linalg.solve(H, g)
        return float(np.sum(np.log1p(x * x)))

    @staticmethod
    def _exact() -> Fraction:
        acc = Fraction(0)
        for i in range(1, 120):
            acc += Fraction(i, 16) * Fraction(3 * i + 1, 32) - Fraction(i * i, 256)
        return acc

    @staticmethod
    def _scalar() -> float:
        s = 0.0
        for i in range(3000):
            x = i * 1e-3
            s += math.sqrt(x * x + 1.0) - 0.5 * x
        return s

    def slice(self) -> float:
        """Seconds for one slice, with the cyclic GC held off so that the
        workload's live objects do not change the kernel's cost."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            for _ in range(2):
                self._numeric()
                self._exact()
                self._scalar()
            return perf_counter() - t0
        finally:
            if enabled:
                gc.enable()


class Sampler:
    """Runs a reference slice every INTERVAL_S of this process's CPU time."""

    def __init__(self):
        self.reference = Reference()
        for _ in range(WARMUP_SLICES):
            self.reference.slice()
        self.stamps: list[float] = []   # work_clock at the start of each slice
        self.slices: list[float] = []   # seconds per slice

    def _tick(self, signum, frame) -> None:
        global _spent
        t0 = perf_counter()
        self.stamps.append(t0 - _spent)
        self.slices.append(self.reference.slice())
        _spent += perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0.0, 0.0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def slice_time(self, span: tuple[float, float]) -> float:
        """Mean slice time within span (work_clock start and end), widened on
        both sides to the MIN_SLICES nearest when fewer fell in it.

        A mean, not a median: the work's own time takes in every slowdown of
        the core, brief ones too, and so does the mean.  Trimming TRIM of
        the slices at either end drops the rare slice a long preemption hits.
        """
        lo = bisect.bisect_left(self.stamps, span[0])
        hi = bisect.bisect_right(self.stamps, span[1])
        while hi - lo < MIN_SLICES and (lo > 0 or hi < len(self.stamps)):
            lo = max(lo - 1, 0)
            hi = min(hi + 1, len(self.stamps))
        return _trimmed_mean(self.slices[lo:hi])

    def scaled(self, span: tuple[float, float]) -> float:
        """Seconds that span takes at the nominal speed."""
        return (span[1] - span[0]) * NOMINAL_S / self.slice_time(span)


def _trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    k = int(len(values) * TRIM)
    return statistics.fmean(values[k:len(values) - k])
