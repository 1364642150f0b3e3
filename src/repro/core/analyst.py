"""The Analyst pass: detailed evaluation with statistically predicted warming.

Per Figure 4 the Analyst does not fast-forward: it receives the
full-system state from Explorer-N at the start of the detailed-warming
window, performs the 30 k-instruction detailed warming (which builds the
lukewarm cache and warms pipeline/predictor state), then simulates the
detailed region cycle-accurately, consulting the Figure 3 classifier for
every memory request that escapes the lukewarm state (Section 3.2).
Because the Analyst's only work is warming + detailed simulation, extra
Analysts for design-space exploration are nearly free (Section 6.4.2).

It is the one region evaluator of both statistical-warming strategies:
DeLorean, its design-space sweep and NaiveDSW hand it the DSW capacity
predictor and a fresh stride detector per region; CoolSim hands it its
per-PC predictor and the detector it carries across regions.  Windows
and branch counts come from the pass's
:class:`~repro.core.context.ExecutionContext`.

An Analyst keeps one classifier — one lukewarm hierarchy and one MSHR
file — for its whole life and empties it in place at each region, so an
extra configuration of a sweep allocates its LLC once, not per region.
"""

import numpy as np

from repro.caches.cache import SetAssocCache
from repro.cpu.config import ProcessorConfig
from repro.cpu.interval import IntervalCoreModel
from repro.sampling.base import region_timing
from repro.sampling.classify import RegionFrontEnd, WarmingClassifier
from repro.sampling.results import RegionResult
from repro.statmodel.assoc import StrideDetector


class AnalystPass:
    """Detailed-region evaluation for one cache/processor configuration."""

    name = "analyst"

    def __init__(self, context, machine, hierarchy_config,
                 processor_config=None, prefetcher_factory=None,
                 mshr_window=24):
        self.processor_config = processor_config or ProcessorConfig()
        self.core_model = IntervalCoreModel(self.processor_config)
        #: The run's :class:`~repro.core.context.ExecutionContext`.
        self.context = context
        self.machine = machine
        self.hierarchy_config = hierarchy_config
        self.prefetcher_factory = prefetcher_factory
        #: Every region's classifier: :meth:`run_region` restarts it.
        self.classifier = WarmingClassifier(
            hierarchy_config, capacity_predictor=None,
            mshrs=self.processor_config.mshrs_l1d, mshr_window=mshr_window,
            seed=context.seed)

    def new_front_end(self):
        """A :class:`~repro.sampling.classify.RegionFrontEnd` for one
        region, to share among the Analysts with this Analyst's L1: its
        own L1 and the fresh stride detector each region starts from."""
        return RegionFrontEnd(
            SetAssocCache(self.hierarchy_config.l1d, seed=self.context.seed),
            StrideDetector())

    def run_region(self, spec, capacity_predictor, front_end=None,
                   stride_detector=None):
        """Evaluate one region given a capacity predictor.

        ``front_end`` (from :meth:`new_front_end`) shares the region's L1
        and stride work with other Analysts of the same L1; this
        Analyst still charges its full detailed warming.
        ``stride_detector`` carries stride history into the region (a
        fresh detector when None).
        """
        context = self.context
        machine = self.machine
        machine.switch_state()      # receive state from Explorer-N

        classifier = self.classifier
        classifier.start_region(
            capacity_predictor,
            stride_detector=(stride_detector if stride_detector is not None
                             else StrideDetector()),
            prefetcher=(self.prefetcher_factory()
                        if self.prefetcher_factory else None),
            front_end=front_end,
        )
        machine.meter.detailed(spec.paper_warming_instructions)
        l1_warming = context.l1_warming_window(spec)
        warming = context.warming_window(spec)
        classifier.warm_detailed(np.asarray(l1_warming.lines),
                                 np.asarray(warming.lines))

        machine.detailed(spec.region_start, spec.region_end)
        region = context.region_window(spec)
        classified = classifier.classify_region(
            np.asarray(region.lines),
            np.asarray(region.pcs),
            region.rel_instr(),
        )
        machine.switch_state()

        timing = region_timing(self.core_model, context, spec, classified)
        return RegionResult(
            index=spec.index,
            n_instructions=spec.region_end - spec.region_start,
            stats=classified.stats,
            timing=timing,
        )
