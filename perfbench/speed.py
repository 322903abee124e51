"""The machine's current speed, measured on a fixed reference loop.

Shared machines switch between fast and slow phases many times a minute,
and their mean speed drifts by tens of percent within a quarter of an
hour.  So timed code is reported at a fixed reference speed: its wall
seconds are divided by the seconds per iteration that `reference_loop`
took while the code ran, and multiplied by REFERENCE_ITER_S.  The loop
does not use liefam, so a change to liefam moves the scaled time one to
one with the program's own speed.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

#: Seconds per iteration of `reference_loop` that defines the reference
#: speed; scaled times are what the code takes at that speed.
REFERENCE_ITER_S = 5e-6
SAMPLE_INTERVAL_S = 0.2
SAMPLE_ITERATIONS = 1_500


def reference_loop(iterations: int) -> float:
    """Seconds per iteration of fixed Fraction and dict work."""
    start = time.perf_counter()
    terms = {}
    step = Fraction(3, 7)
    for i in range(1, iterations + 1):
        key = (i % 7, i % 5)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(i % 11 + 1, i % 13 + 1) * step
    return (time.perf_counter() - start) / iterations


def scale(seconds: float, per_iteration: float) -> float:
    """`seconds` measured while the reference loop took `per_iteration`, at the reference speed."""
    return seconds * REFERENCE_ITER_S / per_iteration


class Sampler:
    """Samples the reference speed every SAMPLE_INTERVAL_S while a block runs.

    A SIGALRM handler runs a short reference loop between the bytecodes
    of the measured code, so the samples see the phases the code sees.
    A block too short for the timer gets one sample right after it.
    """

    def __enter__(self):
        self.samples = []  # seconds per iteration
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sampling_s = sum(self.samples) * SAMPLE_ITERATIONS
        if not self.samples:
            self._sample()
        return False

    def _sample(self, signum=None, frame=None):
        self.samples.append(reference_loop(SAMPLE_ITERATIONS))

    def scaled(self, seconds: float) -> float:
        """`seconds` spent in the block, less the sampling, at the reference speed."""
        return scale(seconds - self.sampling_s, statistics.mean(self.samples))
