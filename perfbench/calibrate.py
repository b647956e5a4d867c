"""Machine-speed calibration for the benchmark's timings.

A shared host's speed can drift between states up to ~2x apart, each
lasting from a fraction of a second to minutes (seen on a 2-core x86_64
VM), so raw wall times of identical runs spread far beyond any useful
bound (steadiness.json keeps the raw figures next to the normalized ones).
A fixed pure-Python kernel (exact Gauss-Jordan elimination of a seeded
20 x 20 rational matrix: the same kind of Fraction work as secat's linear
algebra, but none of secat's code) is timed every `INTERVAL_S` from a
SIGALRM handler, also in the middle of a long query.  Each sample runs the
kernel twice back to back, so that one preempted run weighs less; the
garbage collector is off while the kernel runs, so that its time does not
depend on the size of secat's heap.  Each stretch of query time between two
samples is rescaled to a machine on which the kernel takes `REFERENCE_S`:

    normalized = measured * REFERENCE_S / mean(kernel runs before and after)

(Keeping only the faster run of each sample spread more: 7.3% against 4.4%
over eight seeds of tc-diagonal.)

The samples' own time is excluded from the measured time.  A change to
secat moves the measured time and not the kernel, so the normalized time
moves by the same factor.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.025
SIZE = 20
INTERVAL_S = 0.5


def kernel_seconds() -> float:
    rng = random.Random(7)
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(SIZE)]
         for _ in range(SIZE)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for c in range(SIZE):
            p = next(r for r in range(c, SIZE) if m[r][c])
            m[c], m[p] = m[p], m[c]
            inv = 1 / m[c][c]
            m[c] = [x * inv for x in m[c]]
            for r in range(SIZE):
                if r != c and m[r][c]:
                    f = m[r][c]
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def kernel_pair() -> tuple[float, float]:
    """Two back-to-back kernel runs: one sample of the machine's speed."""
    return kernel_seconds(), kernel_seconds()


def scale(before: tuple[float, float], after: tuple[float, float]) -> float:
    """Factor that rescales a time measured between two kernel samples."""
    return REFERENCE_S / ((sum(before) + sum(after)) / 4)


class SpeedClock:
    """Kernel samples taken on a timer; normalizes intervals measured meanwhile.

    Use as a context manager around the measured loop.  After it exits,
    `normalize` gives the measured and normalized seconds of any interval;
    only the parts between the first and the last sample count.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, tuple[float, float]]] = []
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        pair = kernel_pair()
        self.samples.append((start, time.perf_counter(), pair))
        self._busy = False

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        # Gaps between samples, with measured and normalized time before each.
        self._starts, self._gaps, self._before = [], [], [(0.0, 0.0)]
        for (_, gap_start, k0), (gap_end, _, k1) in zip(self.samples,
                                                        self.samples[1:]):
            length, factor = gap_end - gap_start, scale(k0, k1)
            measured, normalized = self._before[-1]
            self._starts.append(gap_start)
            self._gaps.append((length, factor))
            self._before.append((measured + length,
                                 normalized + length * factor))

    @property
    def kernels(self) -> list[tuple[float, float]]:
        """The raw kernel times of every sample."""
        return [pair for _, _, pair in self.samples]

    def _elapsed(self, t: float) -> tuple[float, float]:
        i = bisect.bisect_right(self._starts, t) - 1
        if i < 0:
            return 0.0, 0.0
        length, factor = self._gaps[i]
        inside = min(t - self._starts[i], length)
        measured, normalized = self._before[i]
        return measured + inside, normalized + inside * factor

    def normalize(self, t0: float, t1: float) -> tuple[float, float]:
        """(measured, normalized) seconds of [t0, t1], kernel runs excluded."""
        m0, n0 = self._elapsed(t0)
        m1, n1 = self._elapsed(t1)
        return m1 - m0, n1 - n0
