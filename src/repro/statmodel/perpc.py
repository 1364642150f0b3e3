"""Per-load-PC reuse-distance statistics (the CoolSim substrate).

Randomized statistical warming predicts hits/misses for the load PCs in
the detailed region from reuse distances sampled *by PC* in the warm-up
interval (Section 2.3).  The core inefficiency the paper attacks lives
here: the sampler cannot know which PCs the region will execute, so it
must gather enough samples for *every* PC, and per-PC statistics are
sparse for PC-rich programs (soplex) — the source of CoolSim's
mispredictions in Figures 9 and 10.
"""

import numpy as np

from repro.statmodel.histogram import ReuseHistogram
from repro.statmodel.statstack import StatStack


class PerPCReuseStats:
    """Reuse histograms keyed by static PC, with a global fallback."""

    def __init__(self, min_samples=8):
        self.min_samples = int(min_samples)
        self._by_pc = {}
        self.global_histogram = ReuseHistogram()
        self._models = None
        #: ``miss_probability`` results per ``(pc, cache_lines)``; valid
        #: until the next :meth:`add` or :meth:`add_many`.
        self._probabilities = {}

    def add(self, pc, distance):
        """Record one sampled reuse (``distance < 0`` counts as cold)."""
        pc = int(pc)
        histogram = self._by_pc.get(pc)
        if histogram is None:
            histogram = self._by_pc[pc] = ReuseHistogram()
        if distance < 0:
            histogram.add_cold()
            self.global_histogram.add_cold()
        else:
            histogram.add(distance)
            self.global_histogram.add(distance)
        self._models = None
        self._probabilities.clear()

    def add_many(self, pcs, distances):
        """Record many sampled reuses: :meth:`add` on every aligned
        ``(pc, distance)`` pair.

        The batch is grouped by PC once, and each distinct PC's
        histogram takes its distances in one call.  The result equals
        the :meth:`add` loop over the pairs in any order: every sample
        has unit weight, so bin weights and cold masses add up exactly,
        and nothing iterates the per-PC map (only lookups and its size
        are read), so the order PCs enter it does not matter.
        """
        pcs = np.asarray(pcs, dtype=np.int64)
        distances = np.asarray(distances, dtype=np.int64)
        n = pcs.shape[0]
        if n == 0:
            return
        order = np.argsort(pcs, kind="stable")
        sorted_pcs = pcs[order]
        sorted_distances = distances[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], sorted_pcs[1:] != sorted_pcs[:-1])))
        ends = np.append(starts[1:], n)
        for pc, lo, hi in zip(sorted_pcs[starts].tolist(), starts.tolist(),
                              ends.tolist()):
            histogram = self._by_pc.get(pc)
            if histogram is None:
                histogram = self._by_pc[pc] = ReuseHistogram()
            histogram.add_many(sorted_distances[lo:hi])
        self.global_histogram.add_many(distances)
        self._models = None
        self._probabilities.clear()

    @property
    def n_samples(self):
        return self.global_histogram.total

    @property
    def n_pcs(self):
        return len(self._by_pc)

    def samples_for(self, pc):
        """Sample mass collected for ``pc``."""
        histogram = self._by_pc.get(int(pc))
        return histogram.total if histogram is not None else 0.0

    def _conversion_model(self):
        """Global StatStack used for the reuse-to-stack conversion.

        The expected stack distance of a window is determined by the
        reuse behaviour of *all* intermediate accesses, so the conversion
        always uses the global distribution; the per-PC distribution only
        answers how likely this PC's reuse distance is to exceed the
        resulting miss threshold.
        """
        if self._models is None:
            self._models = StatStack(self.global_histogram)
        return self._models

    def miss_probability(self, pc, cache_lines):
        """Predicted miss probability for an access by ``pc``.

        ``P(rd >= rd*)`` under the PC's own distribution (its samples
        permitting, else the global one — exactly the fallback that
        degrades CoolSim on PC-rich workloads), where ``rd*`` is the
        reuse distance whose expected stack distance reaches the cache
        size under the global conversion model.
        """
        key = (int(pc), cache_lines)
        probability = self._probabilities.get(key)
        if probability is None:
            probability = self._probabilities[key] = \
                self._miss_probability(pc, cache_lines)
        return probability

    def _miss_probability(self, pc, cache_lines):
        r_star = self._conversion_model().reuse_for_stack(cache_lines)
        histogram = self._by_pc.get(int(pc))
        if histogram is None or histogram.total < self.min_samples:
            histogram = self.global_histogram
        if histogram.total == 0:
            return 0.0
        if r_star is None:
            # No finite reuse reaches the cache size: only never-reused
            # lines can miss.
            return float(histogram.cold / histogram.total)
        return float(histogram.ccdf(r_star - 1))

    def used_fallback(self, pc):
        """True if predictions for ``pc`` come from the global histogram."""
        histogram = self._by_pc.get(int(pc))
        return histogram is None or histogram.total < self.min_samples
