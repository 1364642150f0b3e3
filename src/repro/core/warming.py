"""Directed statistical warming: the DSW capacity decision.

The heart of Section 3.1: for each key cacheline the Explorers deliver
its exact backward (key) reuse distance; the vicinity distribution turns
that reuse distance into an expected stack distance via StatStack; a
stack distance larger than the (effective) cache size is a capacity miss,
a never-found line is a cold miss, everything else would have been
resident in a perfectly-warmed cache.

Contrast with CoolSim's predictor (``repro.sampling.coolsim``): CoolSim
knows only a *distribution* per load PC and must draw; DSW knows the
exact reuse distance of the very line being accessed — this is where the
accuracy gain of Figures 9/10 comes from.

The predictor answers in outcome codes (:mod:`repro.caches.stats`),
one per call.  The compiled classifier reads it as a table instead
(:meth:`DirectedCapacityPredictor.key_table`): the key lines and each
one's StatStack stack distance, computed once per predictor, so the
Analysts of a sweep, which share a region's predictor, share it too.
"""

import numpy as np

from repro.caches.stats import HIT_WARMING, MISS_CAPACITY, MISS_COLD
from repro.statmodel.statstack import StatStack

#: Sentinel reuse distance for key lines never found in the warm-up
#: interval (their last use predates the previous detailed region).
COLD_DISTANCE = -1


class DirectedCapacityPredictor:
    """Capacity/cold decision from key reuse distances + vicinity model."""

    def __init__(self, key_reuse_distances, vicinity_histogram):
        self.key_reuse_distances = dict(key_reuse_distances)
        self.vicinity_histogram = vicinity_histogram
        self.statstack = StatStack(vicinity_histogram)
        self.lookups = 0
        self.unknown_lines = 0
        self._key_table = None

    def __call__(self, pc, line, effective_llc_lines):
        self.lookups += 1
        distance = self.key_reuse_distances.get(int(line))
        if distance is None:
            # Not a key line: can only happen for lines first touched by
            # the region *after* the Scout snapshot (never, in this
            # trace-driven setting) — treat conservatively as cold.
            self.unknown_lines += 1
            return MISS_COLD
        if distance == COLD_DISTANCE:
            return MISS_COLD
        stack_distance = self.statstack.stack_distance(distance)
        if stack_distance >= effective_llc_lines:
            return MISS_CAPACITY
        return HIT_WARMING

    def key_table(self):
        """``(keys, stack)``: the key lines ascending and each one's
        stack distance, ``-1.0`` for a cold key — the table
        :func:`repro.kernels.native.classify_llc` decides from exactly
        as per-access calls decide.  Built on first use."""
        if self._key_table is None:
            n_keys = len(self.key_reuse_distances)
            keys = np.fromiter(self.key_reuse_distances, np.int64,
                               count=n_keys)
            distances = np.fromiter(self.key_reuse_distances.values(),
                                    np.int64, count=n_keys)
            order = np.argsort(keys)
            distances = distances[order]
            stack = np.where(distances == COLD_DISTANCE, -1.0,
                             self.statstack.stack_distance(distances))
            self._key_table = keys[order], stack
        return self._key_table

    def count_lookups(self, lookups, unknown_lines):
        """Count decisions taken from :meth:`key_table` (rechecks
        included) as the per-access calls would have counted them."""
        self.lookups += lookups
        self.unknown_lines += unknown_lines

    def predicted_stack_distance(self, line):
        """Expected stack distance for a key line (inf if cold/unknown)."""
        distance = self.key_reuse_distances.get(int(line), COLD_DISTANCE)
        if distance == COLD_DISTANCE:
            return float("inf")
        return float(self.statstack.stack_distance(distance))
