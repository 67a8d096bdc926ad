"""Reference-CPU time: wall time corrected for the host's momentary speed.

On a shared host the effective speed of one CPU swings by a factor of two
from one second to the next, whatever the program does (measured: a fixed
slice of work takes 9 ms in one second and 18 ms in the next).  A raw wall
time then does not repeat from run to run.  While a region is timed, an
interval timer interrupts it every INTERVAL_S and runs a fixed calibration
slice.  The slices' own time is subtracted from the region, and the rest is
scaled by (SLICE_REF_S / mean slice time) ** SPEED_EXPONENT.  The result
estimates the region's time on a reference CPU that runs the slice in
exactly SLICE_REF_S.
The slice mixes the kinds of work the program does (interpreter arithmetic,
dict stores, Fraction sums and tiny numpy arrays) and calls no mbrwa code,
so a change to the program cannot move it.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import numpy as np

SLICE_REF_S = 0.0005
# The program slows a little less than the slice when the host is contended.
# Over 30 runs of the three workloads, scaling by (slice ratio) ** 0.9 gave
# a smaller spread of run medians than 1.0 on every workload (0.8 and 0.7
# helped the orbit workloads and hurt certify).
SPEED_EXPONENT = 0.9
INTERVAL_S = 0.01
_LOOPS = 200


def slice_s() -> float:
    """Wall seconds of one calibration slice."""
    t0 = perf_counter()
    acc, table, a = 0.0, {}, np.ones(5)
    for i in range(_LOOPS):
        x = i * 0.5
        acc += x * x - acc * 1e-9
        table[i & 255] = (acc, x)
        a = a + 1e-9 * a
    f = Fraction(0)
    for i in range(1, 15):
        f += Fraction(1, i)
    return perf_counter() - t0


@dataclass
class Timing:
    wall_s: float = 0.0
    slices_s: float = 0.0  # time spent in calibration slices inside the region
    samples: tuple[float, ...] = ()  # every slice time, plus one before and one after

    @property
    def reference_s(self) -> float:
        return reference(self.wall_s - self.slices_s, self.samples)

    @property
    def mean_slice_s(self) -> float:
        return statistics.fmean(self.samples)


def reference(net_s: float, samples) -> float:
    """``net_s`` of work in reference-CPU seconds, given slice times."""
    return net_s * (SLICE_REF_S / statistics.fmean(samples)) ** SPEED_EXPONENT


class Sampler:
    """Times regions in reference-CPU seconds.  The interval timer delivers
    to the main thread, so regions must run there, one at a time."""

    def __init__(self):
        self._slices: list[float] = []
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        self._slices.append(slice_s())

    @contextlib.contextmanager
    def timed(self):
        """Yields a Timing that is filled in when the block exits."""
        timing = Timing()
        self._slices = []
        before = slice_s()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = perf_counter()
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            timing.wall_s = perf_counter() - t0
            timing.slices_s = sum(self._slices)
            timing.samples = (before, *self._slices, slice_s())
