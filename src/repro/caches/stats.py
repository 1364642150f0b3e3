"""Access-outcome bookkeeping shared by simulators and predictors."""

from collections import Counter
from dataclasses import dataclass, field


#: Classification labels used throughout the library (Figure 3's taxonomy).
HIT_LUKEWARM = "lukewarm_hit"
HIT_MSHR = "mshr_hit"
MISS_CONFLICT = "conflict_miss"
MISS_COHERENCE = "coherence_miss"
MISS_CAPACITY = "capacity_miss"
MISS_COLD = "cold_miss"
HIT_WARMING = "warming_hit"          # a would-be warming miss, modeled as hit

ALL_OUTCOMES = (
    HIT_LUKEWARM,
    HIT_MSHR,
    MISS_CONFLICT,
    MISS_COHERENCE,
    MISS_CAPACITY,
    MISS_COLD,
    HIT_WARMING,
)

#: Outcomes that count as LLC misses for MPKI/CPI purposes.
MISS_OUTCOMES = frozenset(
    {MISS_CONFLICT, MISS_COHERENCE, MISS_CAPACITY, MISS_COLD})


@dataclass
class AccessStats:
    """Counts of per-access outcomes for one detailed region (or a sum)."""

    counts: dict = field(default_factory=lambda: {o: 0 for o in ALL_OUTCOMES})

    def record(self, outcome):
        if outcome not in self.counts:
            raise ValueError(f"unknown outcome {outcome!r}")
        self.counts[outcome] += 1

    def record_many(self, outcomes):
        """:meth:`record` every outcome of an iterable."""
        for outcome, count in Counter(outcomes).items():
            if outcome not in self.counts:
                raise ValueError(f"unknown outcome {outcome!r}")
            self.counts[outcome] += count

    @property
    def total(self):
        return sum(self.counts.values())

    @property
    def misses(self):
        return sum(self.counts[o] for o in MISS_OUTCOMES)

    @property
    def hits(self):
        return self.total - self.misses

    def miss_ratio(self):
        return self.misses / self.total if self.total else 0.0

    def merge(self, other):
        """Accumulate another stats object into this one (returns self)."""
        for outcome, count in other.counts.items():
            self.counts[outcome] = self.counts.get(outcome, 0) + count
        return self

    def as_dict(self):
        return dict(self.counts)
