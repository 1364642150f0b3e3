"""The Analyst pass: detailed evaluation with DSW-predicted warming.

Per Figure 4 the Analyst does not fast-forward: it receives the
full-system state from Explorer-N at the start of the detailed-warming
window, performs the 30 k-instruction detailed warming (which builds the
lukewarm cache and warms pipeline/predictor state), then simulates the
detailed region cycle-accurately, consulting the Figure 3 classifier for
every memory request that escapes the lukewarm state (Section 3.2).
Because the Analyst's only work is warming + detailed simulation, extra
Analysts for design-space exploration are nearly free (Section 6.4.2).
"""

import numpy as np

from repro.caches.cache import SetAssocCache
from repro.sampling.base import StrategyBase
from repro.sampling.classify import RegionFrontEnd, WarmingClassifier
from repro.sampling.results import RegionResult
from repro.statmodel.assoc import StrideDetector


class AnalystPass(StrategyBase):
    """Detailed-region evaluation for one cache/processor configuration."""

    name = "analyst"

    def __init__(self, machine, hierarchy_config, processor_config=None,
                 prefetcher_factory=None, mshr_window=24, seed=0,
                 context=None):
        super().__init__(processor_config)
        self.machine = machine
        self.hierarchy_config = hierarchy_config
        self.prefetcher_factory = prefetcher_factory
        self.mshr_window = mshr_window
        self.seed = seed
        #: Shared :class:`~repro.core.context.ExecutionContext`; without
        #: one, windows are sliced off the machine's own trace.
        self.context = context

    def _window(self, instr_lo, instr_hi):
        if self.context is not None:
            return self.context.window(instr_lo, instr_hi)
        return self.machine.access_window(instr_lo, instr_hi)

    def new_front_end(self):
        """A :class:`~repro.sampling.classify.RegionFrontEnd` for one
        region, to share among the Analysts with this Analyst's L1: its
        own L1 and the fresh stride detector each region starts from."""
        return RegionFrontEnd(
            SetAssocCache(self.hierarchy_config.l1d, seed=self.seed),
            StrideDetector())

    def run_region(self, spec, capacity_predictor, front_end=None):
        """Evaluate one region given the DSW capacity predictor.

        ``front_end`` (from :meth:`new_front_end`) shares the region's L1
        and stride work with other Analysts of the same L1; this
        Analyst still charges its full detailed warming.
        """
        machine = self.machine
        machine.switch_state()      # receive state from Explorer-N

        classifier = WarmingClassifier(
            self.hierarchy_config,
            capacity_predictor=capacity_predictor,
            stride_detector=StrideDetector(),
            mshrs=self.processor_config.mshrs_l1d,
            mshr_window=self.mshr_window,
            seed=self.seed,
            prefetcher=(self.prefetcher_factory()
                        if self.prefetcher_factory else None),
            front_end=front_end,
        )
        machine.meter.detailed(spec.paper_warming_instructions)
        l1_warming = self._window(spec.l1_warming_start, spec.region_start)
        warming = self._window(spec.warming_start, spec.region_start)
        classifier.warm_detailed(np.asarray(l1_warming.lines),
                                 np.asarray(warming.lines))

        machine.detailed(spec.region_start, spec.region_end)
        region = self._window(spec.region_start, spec.region_end)
        classified = classifier.classify_region(
            np.asarray(region.lines),
            np.asarray(region.pcs),
            region.rel_instr(),
        )
        machine.switch_state()

        timing = self.region_timing(self.context or machine, spec,
                                    classified)
        return RegionResult(
            index=spec.index,
            n_instructions=spec.region_end - spec.region_start,
            stats=classified.stats,
            timing=timing,
        )
