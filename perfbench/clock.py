"""Host speed, measured with a fixed calibration kernel between ops.

On a shared host the speed of the CPU drifts by up to 2x over a few
seconds, as neighbours come and go. Raw seconds then mostly measure the
neighbours. The benchmark therefore runs a fixed kernel, which uses no
code of the program under test, between its ops. It reports its times in
*ref* units as well: host seconds divided by the median duration of that
kernel around the same time. A change to the program moves ref times just
as it moves seconds, while a change in host speed moves the kernel too
and cancels out.
"""

import statistics
import time

import numpy as np


#: Seconds one ref unit stands for when a time must be given in seconds:
#: about the kernel's duration on a 2-vCPU Intel Xeon VM at 2.1 GHz.
NOMINAL_UNIT_S = 0.03


class Clock:
    """Calibration ticks around the timed segments of one pass.

    Segment ``i`` runs between ticks ``i`` and ``i + 1``.  Its ref value
    divides its seconds by the median of the ticks within
    :data:`WINDOW` of it: single ticks are noisy, while the host's speed
    drifts over seconds.
    """

    #: Ticks on each side of a segment that its ref value uses.
    WINDOW = 3

    def __init__(self):
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 1 << 20, size=30_000)
        self._sorted = np.sort(rng.integers(0, 1 << 20, size=4096))
        self.samples = []
        self.segments = []

    def tick(self):
        """Run the calibration kernel once; returns its duration.

        The kernel mixes what the program spends its time on: a Python
        loop over a dict, many numpy calls on small arrays, and one sort
        of a mid-sized array.
        """
        start = time.perf_counter()
        table = {}
        total = 0
        for k in range(20_000):
            total += k * k
            table[k & 1023] = total
        small = self._sorted
        for k in range(1_500):
            total += int(np.searchsorted(small, k * 613))
            np.unique(small[k & 63:(k & 63) + 48])
        np.unique(np.argsort(self._keys, kind="stable") ^ self._keys)
        took = time.perf_counter() - start
        self.samples.append(took)
        return took

    def begin_pass(self):
        """Start a pass: forget older ticks and segments, tick once."""
        self.samples = []
        self.segments = []
        self.tick()

    def lap(self, seconds):
        """Record a timed segment of ``seconds`` and tick after it;
        returns the segment's index into :meth:`refs`."""
        self.segments.append(seconds)
        self.tick()
        return len(self.segments) - 1

    def refs(self):
        """Every segment of the pass in ref units."""
        return [
            seconds / statistics.median(
                self.samples[max(0, i + 1 - self.WINDOW):i + 1 + self.WINDOW])
            for i, seconds in enumerate(self.segments)]

    @property
    def unit_s(self):
        """Median kernel duration over the ticks of this pass."""
        return statistics.median(self.samples)
