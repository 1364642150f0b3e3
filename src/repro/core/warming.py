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

Both forms answer in outcome codes (:mod:`repro.caches.stats`): a
per-access call returns one, and :meth:`DirectedCapacityPredictor.predict_many`
an int8 array of them, which the classifier stores as is.
"""

import numpy as np

from repro.caches.stats import (
    HIT_WARMING,
    MISS_CAPACITY,
    MISS_COLD,
    MISS_CONFLICT,
)
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
        # The same table sorted by line, for predict_many's searchsorted.
        n_keys = len(self.key_reuse_distances)
        keys = np.fromiter(self.key_reuse_distances, np.int64, count=n_keys)
        order = np.argsort(keys)
        self._keys = keys[order]
        self._distances = np.fromiter(self.key_reuse_distances.values(),
                                      np.int64, count=n_keys)[order]

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

    def predict_many(self, lines, effective_lines, llc_lines):
        """Outcomes of a batch of accesses, with the full-capacity recheck.

        Element ``i`` is what the classifier derives from per-access
        calls: ``self(pc, lines[i], effective_lines[i])``, and, for a
        capacity miss under a stride-limited ``effective_lines[i] <
        llc_lines``, a second call at ``llc_lines`` that turns the miss
        into ``MISS_CONFLICT`` when the full cache would have held the
        line.  The counters advance as those calls would advance them.
        Returns an int8 array of outcome codes.
        """
        lines = np.asarray(lines, dtype=np.int64)
        effective_lines = np.asarray(effective_lines, dtype=np.int64)
        slot = np.searchsorted(self._keys, lines)
        known = slot < self._keys.shape[0]
        known[known] = self._keys[slot[known]] == lines[known]
        distance = np.full(lines.shape[0], COLD_DISTANCE, dtype=np.int64)
        distance[known] = self._distances[slot[known]]
        warm = distance != COLD_DISTANCE
        stack = np.full(lines.shape[0], np.inf)
        stack[warm] = self.statstack.stack_distance(distance[warm])
        capacity = warm & (stack >= effective_lines)
        codes = np.full(lines.shape[0], MISS_COLD, dtype=np.int8)
        codes[warm] = HIT_WARMING
        codes[capacity] = MISS_CAPACITY
        recheck = capacity & (effective_lines < llc_lines)
        codes[recheck & (stack < llc_lines)] = MISS_CONFLICT
        self.lookups += lines.shape[0] + int(np.count_nonzero(recheck))
        self.unknown_lines += lines.shape[0] - int(np.count_nonzero(known))
        return codes

    def predicted_stack_distance(self, line):
        """Expected stack distance for a key line (inf if cold/unknown)."""
        distance = self.key_reuse_distances.get(int(line), COLD_DISTANCE)
        if distance == COLD_DISTANCE:
            return float("inf")
        return float(self.statstack.stack_distance(distance))
