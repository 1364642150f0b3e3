"""Access outcomes: Figure 3's taxonomy as small integer codes.

Each outcome is a code ``0..6``; ``LABELS[code]`` names it and
``IS_MISS[code]`` says whether it is an LLC miss.  Predictors, the
classifier and SMARTS produce codes and the interval model consumes
them, in numpy arrays (:class:`ClassifiedRegion`).  Only
:class:`AccessStats` keys its counts by label, as Python ints in
``LABELS`` order: pickled results and store artifacts hash that dict,
and reports read it by name.
"""

from dataclasses import dataclass

import numpy as np


#: Outcome codes, indexes into :data:`LABELS` and :data:`IS_MISS`.
HIT_LUKEWARM = 0
HIT_MSHR = 1
MISS_CONFLICT = 2
MISS_COHERENCE = 3
MISS_CAPACITY = 4
MISS_COLD = 5
HIT_WARMING = 6          # a would-be warming miss, modeled as hit

#: The name of each outcome code: the keys of :attr:`AccessStats.counts`.
LABELS = ("lukewarm_hit", "mshr_hit", "conflict_miss", "coherence_miss",
          "capacity_miss", "cold_miss", "warming_hit")

#: Whether each outcome code counts as an LLC miss for MPKI/CPI purposes.
IS_MISS = np.array([False, False, True, True, True, True, False])


@dataclass
class AccessStats:
    """Counts of per-access outcomes for one detailed region, by label."""

    counts: dict

    @classmethod
    def of(cls, n_accesses, codes):
        """The stats of ``n_accesses`` accesses, given the outcome codes
        of those that reach beyond the lukewarm state; every other access
        counts as a lukewarm hit."""
        codes = np.asarray(codes, dtype=np.int8)
        counts = np.bincount(codes, minlength=len(LABELS))
        if counts.shape[0] > len(LABELS):
            raise ValueError(f"unknown outcome code {counts.shape[0] - 1}")
        counts[HIT_LUKEWARM] += n_accesses - codes.shape[0]
        return cls(dict(zip(LABELS, counts.tolist())))

    @property
    def total(self):
        return sum(self.counts.values())

    @property
    def misses(self):
        return sum(self.counts[label]
                   for label, miss in zip(LABELS, IS_MISS) if miss)

    @property
    def hits(self):
        return self.total - self.misses

    def miss_ratio(self):
        return self.misses / self.total if self.total else 0.0


@dataclass
class ClassifiedRegion:
    """One detailed region's outcomes, as the interval model times them
    (sequences are stored as int8 and int64 arrays)."""

    #: Accesses in the region.
    n_accesses: int
    #: Outcome code of each access that reaches beyond the lukewarm
    #: state (MSHR hits, misses and warming hits), in access order.
    outcomes: np.ndarray
    #: Region-relative instruction position of each outcome.
    outcome_instr: np.ndarray
    #: Accesses that miss the L1 and hit the LLC, warming hits included.
    llc_hits: int

    def __post_init__(self):
        self.outcomes = np.asarray(self.outcomes, dtype=np.int8)
        self.outcome_instr = np.asarray(self.outcome_instr, dtype=np.int64)

    @property
    def stats(self):
        return AccessStats.of(self.n_accesses, self.outcomes)
