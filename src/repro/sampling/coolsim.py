"""CoolSim: randomized statistical warming (the state-of-the-art baseline).

Nikoleris et al. (SAMOS 2016).  Between regions the workload runs under
virtualization at near-native speed while *randomly selected* memory
locations get watchpoints; each watchpoint runs until the location's next
access, yielding one reuse-distance sample attributed to the reusing load
PC (Section 2.3).  The per-PC reuse distributions then predict, for each
detailed-region access that escapes the lukewarm cache, whether a warm
cache would have hit.  Each detailed region runs through
:class:`~repro.core.analyst.AnalystPass`, DeLorean's Analyst, on the
profiling machine: the per-PC predictor and a stride detector carried
across regions and gap profiling are all that differ.

The paper's best CoolSim configuration uses an adaptive schedule: one
sample per 40 k memory instructions for the first 75 % of the gap, one
per 20 k for the next 20 %, one per 10 k for the final 5 % (Section 6).

The run's :class:`~repro.sampling.plan.SamplingPlan` sets the collected
density, the paper-scale charges and which dangling samples are cold.
"""

import numpy as np

from repro.caches.stats import HIT_WARMING, MISS_CAPACITY
from repro.sampling.base import StrategyBase
from repro.sampling.results import StrategyResult
from repro.statmodel.assoc import StrideDetector
from repro.statmodel.perpc import PerPCReuseStats
from repro.vff.costmodel import CostMeter
from repro.vff.watchpoint import count_samples

#: The paper's adaptive schedule: (fraction of gap, samples per memory
#: instruction at paper scale).
ADAPTIVE_SCHEDULE = (
    (0.75, 1.0 / 40_000),
    (0.20, 1.0 / 20_000),
    (0.05, 1.0 / 10_000),
)


class CoolSim(StrategyBase):
    """Randomized statistical warming with adaptive watchpoint sampling."""

    name = "CoolSim"

    def __init__(self, processor_config=None, schedule=ADAPTIVE_SCHEDULE):
        super().__init__(processor_config)
        self.schedule = tuple(schedule)
        if abs(sum(f for f, _ in self.schedule) - 1.0) > 1e-9:
            raise ValueError("schedule fractions must sum to 1")

    def begin(self, context, plan, hierarchy_config):
        """Start a refinable run (``refine`` per region, ``result`` at
        any watermark); :meth:`run` is the same steps back to back."""
        return CoolSimRun(self, context, plan, hierarchy_config)

    # -- profiling -------------------------------------------------------------

    def _profile_gap(self, context, machine, spec, stats, stride_detector,
                     rng, plan):
        """Sample reuse distances in ``[warmup_start, region_start)``,
        reading trace data from ``context``, profiling on ``machine``
        and projecting with the run's ``plan``."""
        trace = context.trace
        machine.fast_forward(spec.warmup_start, spec.region_start)
        gap = spec.region_start - spec.warmup_start
        region_access_lo, _ = trace.access_range(
            spec.region_start, spec.region_end)

        # The schedule's segments draw their samples in order; the
        # segments tile the gap, so the sorted draws concatenate into
        # one sorted batch.
        segments = []
        segment_start = spec.warmup_start
        for fraction, density in self.schedule:
            segment_end = min(spec.region_start,
                              segment_start + int(round(gap * fraction)))
            lo, hi = trace.access_range(segment_start, segment_end)
            expected = plan.coolsim_expected(hi - lo, density)
            n_samples = int(rng.poisson(expected)) if expected > 0 else 0
            if n_samples > 0:
                segments.append(np.sort(rng.integers(lo, hi,
                                                     size=n_samples)))
            segment_start = segment_end
        positions = np.concatenate(segments or [np.empty(0, np.int64)])
        collected = positions.shape[0]

        # One pass resolves the gap's samples; the per-PC statistics
        # are order-free and the stride detector sees the reuses in
        # sample order.
        batch = machine.watchpoints.resolve_samples(
            positions, region_access_lo,
            plan.coolsim_keeps_dangling(
                spec, np.asarray(trace.mem_instr[positions])),
            plan)
        found = batch.reuses >= 0
        reuses = batch.reuses[found]
        stride_detector.observe_many(trace.mem_pc[reuses],
                                     trace.mem_line[reuses])
        # A cold sample counts for the PC that set it.
        owners = np.where(found, batch.reuses, positions)
        stats.add_many(trace.mem_pc[owners[batch.kept]],
                       batch.distances[batch.kept])
        count_samples("coolsim.samples", *batch.tally())
        sample_weight = plan.coolsim_sample_weight()
        machine.meter.watchpoint_setups(
            collected * sample_weight, scaled=False)
        machine.meter.watchpoint_stops(
            batch.projected_stops * sample_weight, scaled=False)
        return collected

    # -- prediction -------------------------------------------------------------

    def _capacity_predictor(self, stats, rng):
        """Per-PC probabilistic miss prediction (Bernoulli draw)."""

        def predict(pc, line, effective_llc_lines):
            probability = stats.miss_probability(pc, effective_llc_lines)
            if rng.random() < probability:
                return MISS_CAPACITY
            return HIT_WARMING

        return predict


class CoolSimRun:
    """Refinable CoolSim execution state.

    The per-PC reuse statistics, the stride detector and the single
    ``coolsim`` RNG stream (consumed by gap sampling *and* the
    classifier's Bernoulli draws, strictly in region order) are carried
    across :meth:`refine` calls, so an incremental run over a live feed
    consumes byte-for-byte the draws a batch run over the same prefix
    consumes.
    """

    def __init__(self, strategy, context, plan, hierarchy_config):
        # Deferred import: repro.core imports repro.sampling, so a
        # top-level import of repro.core.analyst would close a cycle.
        from repro.core.analyst import AnalystPass

        self.strategy = strategy
        self.context = context
        self.plan = plan
        self.meter = CostMeter(scale=plan.scale)
        self.machine = context.machine(self.meter)
        self.stats = PerPCReuseStats()
        self.stride_detector = StrideDetector()
        self.rng = context.rng("coolsim")
        self.predictor = strategy._capacity_predictor(self.stats, self.rng)
        self.analyst = AnalystPass(
            context, self.machine, hierarchy_config,
            processor_config=strategy.processor_config)
        self.regions = []
        self.collected_model = 0

    def refine(self, spec):
        """Profile one gap and simulate its detailed region."""
        self.collected_model += self.strategy._profile_gap(
            self.context, self.machine, spec, self.stats,
            self.stride_detector, self.rng, self.plan)
        self.regions.append(self.analyst.run_region(
            spec, self.predictor, stride_detector=self.stride_detector))
        return self.regions[-1]

    def result(self, plan):
        """The :class:`StrategyResult` over the regions refined so far
        (meter snapshotted, safe to keep across further refinement)."""
        meter = CostMeter(params=self.meter.params, scale=self.meter.scale)
        meter.ledger.merge(self.meter.ledger)
        return StrategyResult(
            strategy=self.strategy.name,
            workload=self.context.workload.name,
            regions=list(self.regions),
            meter=meter,
            paper_equivalent_instructions=plan.paper_equivalent_instructions,
            extras={
                "collected_reuse_distances":
                    plan.coolsim_paper_samples(self.collected_model),
                "collected_model_samples": self.collected_model,
                "pcs_sampled": self.stats.n_pcs,
            },
        )
