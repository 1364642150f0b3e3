"""SMARTS: sampled simulation with functional warming (the reference).

Wunderlich et al. (ISCA 2003).  Between detailed regions the caches are
kept warm by functionally simulating *every* memory access — no storage
overhead, full accuracy, but the functional-warming rate (~1.3 MIPS)
bounds overall speed.  The paper uses SMARTS as the accuracy reference
for CPI (Figures 9/10) and for working-set curves (Figure 13), and as the
speed baseline (= 1.0) in Figure 5.

Region simulation has two paths; a run picks one when it starts, by
:meth:`~repro.caches.hierarchy.CacheHierarchy.batch_path` (native
backend, LRU caches, no prefetcher).  The batch path pre-computes the
L1 hit mask and the LLC hit stream with the batch LRU kernel and takes
the residual misses through the MSHRs in one compiled walk
(:meth:`~repro.caches.mshr.MSHRFile.walk`, which records every MSHR
hit).  It codes a residual miss cold when it is its line's first access
in the trace, read from the trace index: a run refines its regions in
order from the trace start, so every access before the miss has been
simulated.  The scalar reference walks every access and keeps the set
of lines seen.  Both return a
:class:`~repro.caches.stats.ClassifiedRegion` of outcome codes.  Unlike
the DSW classifier, whose MSHR hits skip the LLC fetch, the scalar
loop touches the LLC *before* the MSHR lookup, so the LLC substream is
exactly the L1-miss substream either way and the two paths are
bit-identical by construction (enforced in ``tests/test_kernels.py``).
"""

import numpy as np

from repro.caches.hierarchy import CacheHierarchy
from repro.caches.mshr import MSHRFile
from repro.caches.stats import (
    ClassifiedRegion,
    HIT_MSHR,
    MISS_CAPACITY,
    MISS_COLD,
)
from repro.cpu.interval import IntervalCoreModel
from repro.cpu.prefetch import StridePrefetcher
from repro.sampling.base import StrategyBase, region_timing
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

    # -- scalar reference --------------------------------------------------

    def _simulate_region_scalar(self, window, hierarchy, prefetcher,
                                seen_lines):
        """Cycle-level region simulation over the warmed hierarchy, one
        access at a time; codes cold misses from ``seen_lines``, which
        it updates."""
        lines = np.asarray(window.lines)
        pcs = np.asarray(window.pcs)
        instr = window.rel_instr()
        mshr = MSHRFile(self.processor_config.mshrs_l1d,
                        window=self.mshr_window)
        outcomes = []
        outcome_instr = []
        llc_hits = 0

        for position, (line, pc, rel_instr) in enumerate(
                zip(lines.tolist(), pcs.tolist(), instr.tolist())):
            first_touch = line not in seen_lines
            seen_lines.add(line)
            if hierarchy.l1d.access(line):
                continue
            if hierarchy.llc.access(line):
                llc_hits += 1
                continue
            if mshr.lookup(line, position):
                outcomes.append(HIT_MSHR)
                outcome_instr.append(rel_instr)
                continue
            outcome = MISS_COLD if first_touch else MISS_CAPACITY
            mshr.allocate(line, position)
            outcomes.append(outcome)
            outcome_instr.append(rel_instr)
            if prefetcher is not None:
                for target in prefetcher.train(
                        pc, line, is_present=hierarchy.llc.contains):
                    hierarchy.llc.insert(target)
        return ClassifiedRegion(lines.shape[0], outcomes, outcome_instr,
                                llc_hits)

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
        _, l1_mask, _ = hierarchy.l1d.warm_profile(lines)
        candidates = np.flatnonzero(~l1_mask)
        llc_hits, llc_mask, _ = hierarchy.llc.warm_profile(
            lines[candidates])
        misses = candidates[~llc_mask]
        cold = (index.lines.first_positions(lines[misses])
                == window.lo + misses)

        mshr = MSHRFile(self.processor_config.mshrs_l1d,
                        window=self.mshr_window)
        mshr_hit = mshr.walk(lines[misses], misses,
                             np.ones(misses.shape[0], dtype=bool))
        outcomes = np.where(cold, MISS_COLD, MISS_CAPACITY).astype(np.int8)
        outcomes[mshr_hit] = HIT_MSHR
        return ClassifiedRegion(lines.shape[0], outcomes, instr[misses],
                                llc_hits)


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
        #: Whether regions take the batch path; chosen once per run.
        self.batch = self.hierarchy.batch_path(self.prefetcher)
        #: Lines accessed so far, for the scalar reference's cold-miss
        #: codes; the batch path reads first accesses from the index.
        self.seen_lines = None if self.batch else set()
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
        strategy = self.strategy
        seen_lines = self.seen_lines
        # Functional warming across the gap (the expensive part).
        machine.functional_warm(
            self.hierarchy, spec.warmup_start, spec.warming_start)
        if not self.batch:
            gap = context.gap_window(spec)
            seen_lines.update(np.unique(np.asarray(gap.lines)).tolist())
        # Detailed warming: detailed simulation that also warms caches
        # (cost charged at the paper's 30 k instructions).
        machine.meter.detailed(spec.paper_warming_instructions)
        warming = context.warming_window(spec)
        if not self.batch:
            seen_lines.update(np.unique(np.asarray(warming.lines)).tolist())
        self.hierarchy.warm(np.asarray(warming.lines))

        machine.detailed(spec.region_start, spec.region_end)
        region = context.region_window(spec)
        if self.batch:
            classified = strategy._simulate_region_batch(
                region, self.hierarchy, machine.index)
        else:
            classified = strategy._simulate_region_scalar(
                region, self.hierarchy, self.prefetcher, seen_lines)
        timing = region_timing(strategy.core_model, context, spec,
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
