"""Sparse reuse-distance histograms.

Reuse distance = number of memory accesses strictly between two accesses
to the same cacheline (Section 2.2).  Samples that never see a reuse
("cold" / dangling watchpoints) carry real information — their lines
escape every window — and are kept as a separate infinite-distance mass.
"""

import numpy as np


class ReuseHistogram:
    """A weighted histogram over finite reuse distances plus infinite mass.

    The state is two arrays, the sorted distinct finite distances and
    their weights.  Adds append to a pending buffer, and the first query
    folds the buffer in, in add order: each bin's weight is summed
    exactly in the order its adds arrived (``np.bincount`` adds
    sequentially per bin), so :meth:`state` does not depend on how the
    adds were batched — fractional weights included.
    """

    def __init__(self):
        self.cold = 0.0
        self._distances = np.empty(0, dtype=np.int64)
        self._weights = np.empty(0, dtype=np.float64)
        #: ``(distances, weights)`` array pairs not yet folded, in add
        #: order; single adds collect in the two lists below first.
        self._pending = []
        self._pending_distances = []
        self._pending_weights = []

    # -- construction -------------------------------------------------------

    def add(self, distance, weight=1.0):
        """Record one finite reuse distance (``distance >= 0``)."""
        if distance < 0:
            raise ValueError("reuse distance must be non-negative")
        self._pending_distances.append(int(distance))
        self._pending_weights.append(weight)

    def add_cold(self, weight=1.0):
        """Record a sample whose line was never reused (infinite distance)."""
        self.cold += weight

    def add_many(self, distances, weight=1.0):
        """Record an array of distances, each with ``weight``: the same
        as :meth:`add` on every non-negative one and :meth:`add_cold` on
        every negative one, in order."""
        distances = np.asarray(distances, dtype=np.int64)
        cold = distances < 0
        n_cold = int(np.count_nonzero(cold))
        if n_cold:
            # Sequential, like repeated add_cold (np.cumsum accumulates
            # in order; a pairwise sum could differ in the last bit).
            self.cold = float(np.cumsum(np.concatenate(
                ([self.cold], np.full(n_cold, weight, dtype=np.float64))))[-1])
        finite = distances[~cold] if n_cold else distances
        if finite.shape[0]:
            self._append(finite, np.full(finite.shape[0], weight,
                                         dtype=np.float64))

    def merge(self, other):
        """Accumulate another histogram into this one (returns self).

        Each of ``other``'s bins adds as one weight, its folded total.
        """
        distances, weights = other._materialize()
        if distances.shape[0]:
            self._append(distances, weights)
        self.cold += other.cold
        return self

    def _append(self, distances, weights):
        self._flush_single_adds()
        self._pending.append((distances, weights))

    def _flush_single_adds(self):
        if self._pending_distances:
            self._pending.append((
                np.asarray(self._pending_distances, dtype=np.int64),
                np.asarray(self._pending_weights, dtype=np.float64)))
            self._pending_distances = []
            self._pending_weights = []

    # -- persistence ---------------------------------------------------------

    def state(self):
        """Canonical ``(distances, weights, cold)`` snapshot.

        The arrays are the materialized (distance-sorted) form, so two
        histograms built from the same samples in different orders
        produce identical states.
        """
        distances, weights = self.distances()
        return distances, weights, float(self.cold)

    @classmethod
    def from_state(cls, distances, weights, cold):
        """Rebuild a histogram from a :meth:`state` snapshot."""
        distances = np.array(distances, dtype=np.int64)
        weights = np.array(weights, dtype=np.float64)
        if distances.shape != weights.shape or np.any(
                distances[1:] <= distances[:-1]):
            raise ValueError("state distances must be sorted and distinct, "
                             "one weight each")
        histogram = cls()
        histogram._distances = distances
        histogram._weights = weights
        histogram.cold = float(cold)
        return histogram

    # -- queries -------------------------------------------------------------

    def _materialize(self):
        """Fold the pending adds in; the sorted distances and weights."""
        self._flush_single_adds()
        if self._pending:
            # The folded bins go first, so every bin's sum starts from
            # its current weight and continues in add order.
            distances = np.concatenate(
                [self._distances] + [d for d, _ in self._pending])
            weights = np.concatenate(
                [self._weights] + [w for _, w in self._pending])
            self._pending = []
            self._distances, inverse = np.unique(distances,
                                                 return_inverse=True)
            self._weights = np.bincount(inverse, weights=weights,
                                        minlength=self._distances.shape[0])
        return self._distances, self._weights

    @property
    def total(self):
        """Total sample mass including cold samples."""
        _, weights = self._materialize()
        return float(weights.sum()) + self.cold

    @property
    def n_finite(self):
        """Total finite-reuse mass."""
        _, weights = self._materialize()
        return float(weights.sum())

    def distances(self):
        """Sorted unique finite distances and their weights (copies)."""
        distances, weights = self._materialize()
        return distances.copy(), weights.copy()

    def ccdf(self, k):
        """``P(reuse distance > k)`` — vectorized over ``k``.

        Infinite (cold) mass is always part of the tail.
        """
        distances, weights = self._materialize()
        total = float(weights.sum()) + self.cold
        if total == 0:
            return np.zeros_like(np.asarray(k, dtype=np.float64))
        cum = np.concatenate(([0.0], np.cumsum(weights)))
        idx = np.searchsorted(distances, np.asarray(k), side="right")
        tail = (float(weights.sum()) - cum[idx]) + self.cold
        return tail / total

    def quantile(self, q):
        """Smallest distance d with ``P(rd <= d) >= q`` (None if in cold tail)."""
        if not 0 <= q <= 1:
            raise ValueError("q must be in [0, 1]")
        distances, weights = self._materialize()
        total = float(weights.sum()) + self.cold
        if total == 0:
            return None
        cum = np.cumsum(weights) / total
        idx = int(np.searchsorted(cum, q, side="left"))
        if idx >= distances.size:
            return None
        return int(distances[idx])

    def mean_finite(self):
        """Mean of finite distances (0 if empty)."""
        distances, weights = self._materialize()
        if weights.sum() == 0:
            return 0.0
        return float((distances * weights).sum() / weights.sum())

    def __len__(self):
        return self._materialize()[0].shape[0]

    def __repr__(self):
        return (f"ReuseHistogram(n_finite={self.n_finite:.0f}, "
                f"cold={self.cold:.0f}, bins={len(self)})")
