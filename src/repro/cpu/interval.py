"""Interval-analysis CPI model for detailed regions.

Interval analysis (Eyerman/Eeckhout-style first-order modeling) splits
execution into a base component — instructions dispatched at the issue
width — plus penalty intervals for branch mispredictions and long-latency
memory accesses.  Memory-level parallelism is modeled by clustering
misses that fall within one ROB reach of each other: up to ``max_mlp``
misses of a cluster overlap and pay a single memory round-trip.

The model is strategy-agnostic: SMARTS feeds it *actual* outcomes from
the functionally-warmed hierarchy, CoolSim and DeLorean feed *predicted*
outcomes.  Any CPI discrepancy between strategies therefore traces back
to miss classification, mirroring the paper's evaluation design where
SMARTS is the accuracy reference.

Outcomes arrive as outcome codes (:mod:`repro.caches.stats`) with their
instruction positions, plus an LLC-hit count, so timing a region is a
few array operations.
"""

from dataclasses import dataclass

import numpy as np

from repro.caches.stats import HIT_MSHR, IS_MISS


@dataclass
class RegionTiming:
    """CPI breakdown for one detailed region."""

    n_instructions: int
    base_cycles: float
    branch_cycles: float
    llc_hit_cycles: float
    memory_cycles: float
    delayed_hit_cycles: float

    @property
    def total_cycles(self):
        return (self.base_cycles + self.branch_cycles + self.llc_hit_cycles
                + self.memory_cycles + self.delayed_hit_cycles)

    @property
    def cpi(self):
        if self.n_instructions == 0:
            return 0.0
        return self.total_cycles / self.n_instructions


class IntervalCoreModel:
    """Convert a region's access outcomes into cycles."""

    def __init__(self, config):
        self.config = config

    def serialized_misses(self, miss_instr_positions):
        """Effective serialized memory round-trips after MLP clustering.

        Misses whose instruction positions fall within one ROB reach of
        the cluster head overlap, ``max_mlp`` at a time.
        """
        positions = np.sort(np.asarray(miss_instr_positions, dtype=np.int64))
        if positions.size == 0:
            return 0.0
        rob = self.config.rob_entries
        max_mlp = self.config.max_mlp
        serialized = 0.0
        cluster_start = positions[0]
        cluster_size = 0
        for pos in positions.tolist():
            if pos - cluster_start <= rob:
                cluster_size += 1
            else:
                serialized += -(-cluster_size // max_mlp)
                cluster_start = pos
                cluster_size = 1
        serialized += -(-cluster_size // max_mlp)
        return float(serialized)

    def region_timing(self, n_instructions, outcomes, outcome_instr,
                      llc_hits=0, n_mispredicts=0):
        """Compute timing for one detailed region.

        Parameters
        ----------
        n_instructions:
            Region length in instructions.
        outcomes:
            Outcome codes (:mod:`repro.caches.stats`) of the accesses
            that reach beyond the lukewarm state (misses, MSHR and
            warming hits), as an array or a sequence.  Lukewarm hits
            need not be reported; the base component and ``llc_hits``
            cover them.
        outcome_instr:
            Instruction position (region-relative) of each outcome.
        llc_hits:
            Number of LLC hits (L1 misses that hit the LLC, warming hits
            included).
        n_mispredicts:
            Branch mispredictions in the region.
        """
        outcomes = np.asarray(outcomes, dtype=np.int8)
        outcome_instr = np.asarray(outcome_instr, dtype=np.int64)
        if outcomes.shape[0] != outcome_instr.shape[0]:
            raise ValueError("outcomes and positions length mismatch")

        config = self.config
        miss_positions = outcome_instr[IS_MISS[outcomes]]
        n_delayed = int(np.count_nonzero(outcomes == HIT_MSHR))

        base = n_instructions / config.issue_width
        branch = n_mispredicts * config.branch_mispredict_penalty
        llc_cycles = llc_hits * config.llc_hit_penalty
        memory = (self.serialized_misses(miss_positions)
                  * config.memory_penalty)
        delayed = (n_delayed * config.delayed_hit_fraction
                   * config.memory_penalty / config.max_mlp)
        return RegionTiming(
            n_instructions=n_instructions,
            base_cycles=base,
            branch_cycles=float(branch),
            llc_hit_cycles=float(llc_cycles),
            memory_cycles=float(memory),
            delayed_hit_cycles=float(delayed),
        )
