"""SMARTS: sampled simulation with functional warming (the reference).

Wunderlich et al. (ISCA 2003).  Between detailed regions the caches are
kept warm by functionally simulating *every* memory access — no storage
overhead, full accuracy, but the functional-warming rate (~1.3 MIPS)
bounds overall speed.  The paper uses SMARTS as the accuracy reference
for CPI (Figures 9/10) and for working-set curves (Figure 13), and as the
speed baseline (= 1.0) in Figure 5.

Region simulation has two paths.  The batch path (native backend, LRU
caches, no prefetcher) pre-computes the L1 hit mask and the LLC hit
stream with the batch LRU kernel and takes the residual misses through
the MSHRs in one compiled walk (:meth:`~repro.caches.mshr.MSHRFile.walk`,
which records every MSHR hit).  It labels a residual miss cold when it
is its line's first access in the trace, read from the trace index: a
run refines its regions in order from the trace start, so every access
before the miss has been simulated.  The scalar reference walks every
access and keeps the set of lines seen.  Unlike the DSW classifier
there is no rollback wrinkle — the scalar loop touches the LLC *before*
the MSHR lookup, so the LLC substream is exactly the L1-miss substream
either way and the two paths are bit-identical by construction
(enforced in ``tests/test_kernels.py``).
"""

import numpy as np

from repro import kernels
from repro.caches.hierarchy import CacheHierarchy
from repro.caches.mshr import MSHRFile
from repro.caches.stats import (
    AccessStats,
    HIT_LUKEWARM,
    HIT_MSHR,
    MISS_CAPACITY,
    MISS_COLD,
)
from repro.cpu.interval import IntervalCoreModel
from repro.cpu.prefetch import StridePrefetcher
from repro.sampling.base import StrategyBase, region_timing
from repro.sampling.classify import ClassifiedRegion
from repro.sampling.results import RegionResult, StrategyResult
from repro.vff.costmodel import CostMeter


class Smarts(StrategyBase):
    """Functional warming between detailed regions."""

    name = "SMARTS"

    def __init__(self, processor_config=None, prefetcher=False,
                 mshr_window=24):
        super().__init__(processor_config)
        self.core_model = IntervalCoreModel(self.processor_config)
        self.prefetcher_enabled = prefetcher
        self.mshr_window = mshr_window

    def begin(self, context, plan, hierarchy_config):
        """Start a refinable run: ``refine(spec)`` per region, then
        ``result(plan)`` — the batch :meth:`run` composed of the same
        steps, which is what pins the incremental live path to it."""
        return SmartsRun(self, context, plan, hierarchy_config)

    # -- region simulation (stateless helpers, shared with SmartsRun) ------

    def _simulate_region(self, window, hierarchy, prefetcher, seen_lines,
                         index=None):
        """Cycle-level region simulation over the warmed hierarchy.

        With a ``seen_lines`` set the scalar reference runs and updates
        it.  With ``None`` the batch path runs (LRU caches, no
        prefetcher) and reads first accesses from ``index``.
        """
        if seen_lines is None:
            return self._simulate_region_batch(window, hierarchy, index)
        return self._simulate_region_scalar(window, hierarchy, prefetcher,
                                            seen_lines)

    # -- scalar reference --------------------------------------------------

    def _simulate_region_scalar(self, window, hierarchy, prefetcher,
                                seen_lines):
        lines = np.asarray(window.lines)
        pcs = np.asarray(window.pcs)
        instr = window.rel_instr()
        mshr = MSHRFile(self.processor_config.mshrs_l1d,
                        window=self.mshr_window)
        result = ClassifiedRegion(stats=AccessStats())

        for position, (line, pc, rel_instr) in enumerate(
                zip(lines.tolist(), pcs.tolist(), instr.tolist())):
            first_touch = line not in seen_lines
            seen_lines.add(line)
            if hierarchy.l1d.access(line):
                result.stats.record(HIT_LUKEWARM)
                continue
            if hierarchy.llc.access(line):
                result.stats.record(HIT_LUKEWARM)
                result.llc_hit_instr.append(rel_instr)
                continue
            if mshr.lookup(line, position):
                result.stats.record(HIT_MSHR)
                result.outcomes.append(HIT_MSHR)
                result.outcome_instr.append(rel_instr)
                continue
            outcome = MISS_COLD if first_touch else MISS_CAPACITY
            mshr.allocate(line, position)
            result.stats.record(outcome)
            result.outcomes.append(outcome)
            result.outcome_instr.append(rel_instr)
            if prefetcher is not None:
                for target in prefetcher.train(
                        pc, line, is_present=hierarchy.llc.contains):
                    hierarchy.llc.insert(target)
        return result

    # -- batch two-phase path ----------------------------------------------

    def _simulate_region_batch(self, window, hierarchy, index):
        """Batch-kernel region simulation (LRU, no prefetcher).

        The L1 sees every access and the LLC sees exactly the L1-miss
        substream — both run as batch LRU kernels.  The residual LLC
        misses then go through the MSHRs in one compiled walk, each
        miss allocating.  A residual miss is cold when it is its line's
        first access in the trace, which ``index`` answers in one
        batched query.
        """
        lines = np.asarray(window.lines)
        instr = window.rel_instr()
        result = ClassifiedRegion(stats=AccessStats())
        n = lines.shape[0]
        if n == 0:
            return result

        _, l1_mask, _ = hierarchy.l1d.warm_profile(lines)
        candidates = np.flatnonzero(~l1_mask)
        _, llc_mask, _ = hierarchy.llc.warm_profile(lines[candidates])
        misses = candidates[~llc_mask]
        cold = (index.lines.first_positions(lines[misses])
                == window.lo + misses)

        mshr = MSHRFile(self.processor_config.mshrs_l1d,
                        window=self.mshr_window)
        mshr_hit = mshr.walk(lines[misses], misses,
                             np.ones(misses.shape[0], dtype=bool))
        outcomes = np.full(misses.shape[0], MISS_CAPACITY, dtype=object)
        outcomes[cold] = MISS_COLD
        outcomes[mshr_hit] = HIT_MSHR
        outcomes = outcomes.tolist()
        result.stats.record_many(outcomes)
        result.outcomes.extend(outcomes)
        result.outcome_instr.extend(instr[misses].tolist())

        result.stats.counts[HIT_LUKEWARM] += n - misses.shape[0]
        result.llc_hit_instr.extend(instr[candidates[llc_mask]].tolist())
        return result


class SmartsRun:
    """Refinable SMARTS execution state: one warmed hierarchy carried
    across regions, extended one region at a time.

    Over a live feed the runner calls :meth:`refine` as each region's
    prefix becomes available and :meth:`result` at every watermark; a
    batch :meth:`Smarts.run` is exactly the same calls back to back, so
    the incremental estimates cannot drift from a from-scratch run on
    the same prefix.
    """

    def __init__(self, strategy, context, plan, hierarchy_config):
        self.strategy = strategy
        self.context = context
        self.meter = CostMeter(scale=plan.scale)
        self.machine = context.machine(self.meter)
        self.hierarchy = CacheHierarchy(hierarchy_config,
                                        seed=context.seed)
        self.prefetcher = (StridePrefetcher(n_streams=8)
                           if strategy.prefetcher_enabled else None)
        batch = (kernels.get_backend() != "scalar"
                 and self.prefetcher is None
                 and self.hierarchy.l1d._is_lru
                 and self.hierarchy.llc._is_lru)
        #: Lines accessed so far, for the scalar reference's cold-miss
        #: labels; the batch path reads first accesses from the index.
        self.seen_lines = None if batch else set()
        #: Instruction where the next region's gap must start.
        self.next_instruction = 0
        self.regions = []

    def refine(self, spec):
        """Consume one region window: warm across the gap, simulate the
        detailed region, append its :class:`RegionResult`.

        Regions must come in plan order from the trace start, each gap
        starting where the previous region ended: both cold-miss rules
        rely on every earlier access having been simulated.
        """
        if spec.warmup_start != self.next_instruction:
            raise ValueError(
                f"SMARTS refines regions in order from the trace start: "
                f"expected a gap starting at instruction "
                f"{self.next_instruction}, got {spec.warmup_start}")
        context = self.context
        machine = self.machine
        seen_lines = self.seen_lines
        # Functional warming across the gap (the expensive part).
        machine.functional_warm(
            self.hierarchy, spec.warmup_start, spec.warming_start)
        if seen_lines is not None:
            gap = context.gap_window(spec)
            seen_lines.update(np.unique(np.asarray(gap.lines)).tolist())
        # Detailed warming: detailed simulation that also warms caches
        # (cost charged at the paper's 30 k instructions).
        machine.meter.detailed(spec.paper_warming_instructions)
        warming = context.warming_window(spec)
        if seen_lines is not None:
            seen_lines.update(np.unique(np.asarray(warming.lines)).tolist())
        self.hierarchy.warm(np.asarray(warming.lines))

        machine.detailed(spec.region_start, spec.region_end)
        classified = self.strategy._simulate_region(
            context.region_window(spec), self.hierarchy, self.prefetcher,
            seen_lines, machine.index)
        timing = region_timing(self.strategy.core_model, context, spec,
                               classified)
        self.regions.append(RegionResult(
            index=spec.index,
            n_instructions=spec.region_end - spec.region_start,
            stats=classified.stats,
            timing=timing,
        ))
        self.next_instruction = spec.region_end
        return self.regions[-1]

    def result(self, plan):
        """The :class:`StrategyResult` for the regions refined so far.

        Snapshots the meter so a result taken at one watermark is not
        mutated by later refinement.
        """
        meter = CostMeter(params=self.meter.params, scale=self.meter.scale)
        meter.ledger.merge(self.meter.ledger)
        return StrategyResult(
            strategy=self.strategy.name,
            workload=self.context.workload.name,
            regions=list(self.regions),
            meter=meter,
            paper_equivalent_instructions=plan.paper_equivalent_instructions,
        )
