"""Calibrated durations for a machine whose speed drifts.

On a shared machine the same CPU work can take up to twice as long
during a neighbour's busy period, and such periods last from seconds to
minutes, longer than a run. Wall time alone then measures the
neighbours more than the program. So while a call runs, a fixed
reference kernel (Python parsing and dict work, JSON, a NumPy sort: the
mix the CLI does) also runs every ``SAMPLE_INTERVAL_S``, from a SIGALRM
handler on the same thread, and once before and after the call. The
call's own time, its wall time minus the kernel runs, is then scaled by
how fast the kernel ran:

    calibrated = own time * REFERENCE_NOMINAL_S / mean reference time

A calibrated second is a second on a machine where the kernel takes
``REFERENCE_NOMINAL_S``, about its fastest time on a 2-vCPU Intel Xeon
with Python 3.11 and NumPy 2.4. Raw times are kept beside the calibrated
ones in the run record.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

import numpy as np

REFERENCE_NOMINAL_S = 0.0022
SAMPLE_INTERVAL_S = 0.05

_LINES = [f"{1000000 + 20 * k} {1000 + (k * 7919) % 409} {1000 + (k * 104729) % 409}"
          for k in range(3000)]
_VALUES = np.linspace(0.0, 1.0, 30000)[::-1].copy()


def _reference_kernel() -> float:
    counts = {}
    for line in _LINES:
        t, a, b = line.split()
        key = (a, b) if a < b else (b, a)
        counts[key] = counts.get(key, 0) + int(t) % 3
    text = json.dumps(sorted([a, b, w] for (a, b), w in counts.items()))
    return len(text) + float(np.log1p(np.sort(_VALUES)).sum())


def reference_s() -> float:
    """Median wall time of three runs of the reference kernel."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Clock:
    """Times calls and calibrates them by the reference speed around them."""

    def __init__(self):
        _reference_kernel()  # the first call pays one-off costs; leave it out
        self.references = []   # every endpoint measurement, in order
        self.sampling_s = 0.0  # total time spent in in-call samples so far
        self._samples = []
        self._last = self.mark()

    def mark(self) -> float:
        """Measure the reference now; the next call starts from here."""
        self._last = reference_s()
        self.references.append(self._last)
        return self._last

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _reference_kernel()
        took = time.perf_counter() - start
        self._samples.append(took)
        self.sampling_s += took

    def timed(self, fn):
        """Run ``fn()``; returns (its result, own seconds, calibrated seconds)."""
        before, self._samples = self._last, []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        own = elapsed - sum(self._samples)
        speed = statistics.fmean([before, self.mark()] + self._samples)
        return result, own, own * REFERENCE_NOMINAL_S / speed
