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

Scaling notes (DESIGN.md §6): sampling *densities* are defined per paper
memory instruction; on a scaled trace we boost the collected density by
``density_boost`` so the estimator sees enough samples, while cost and
reported sample counts are charged/projected at the paper-equivalent
density.
"""

import numpy as np

from repro import kernels
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

    def __init__(self, processor_config=None, schedule=ADAPTIVE_SCHEDULE,
                 density_boost=400.0, density_calibration=2.5,
                 max_stops_per_watchpoint=64, min_pc_samples=8,
                 mshr_window=24):
        super().__init__(processor_config)
        self.schedule = tuple(schedule)
        if abs(sum(f for f, _ in self.schedule) - 1.0) > 1e-9:
            raise ValueError("schedule fractions must sum to 1")
        self.density_boost = float(density_boost)
        #: The paper's schedule description yields ~13.5 k samples per gap,
        #: but Figure 6 reports ~34 k collected reuse distances per region
        #: for CoolSim; this factor calibrates sampling volume to the
        #: measured figure (restarted/concurrent watchpoints).
        self.density_calibration = float(density_calibration)
        #: Real RSW implementations bound the cost of a watchpoint whose
        #: reuse never arrives: after this many page stops it is abandoned.
        self.max_stops_per_watchpoint = int(max_stops_per_watchpoint)
        self.min_pc_samples = int(min_pc_samples)
        self.mshr_window = mshr_window

    def begin(self, context, plan, hierarchy_config):
        """Start a refinable run (``refine`` per region, ``result`` at
        any watermark); :meth:`run` is the same steps back to back."""
        return CoolSimRun(self, context, plan, hierarchy_config)

    # -- profiling -------------------------------------------------------------

    def _profile_gap(self, context, machine, spec, stats, stride_detector,
                     rng, footprint_scale):
        """Sample reuse distances in ``[warmup_start, region_start)``,
        reading trace data from ``context`` and profiling on
        ``machine``."""
        trace = context.trace
        machine.fast_forward(spec.warmup_start, spec.region_start)
        gap = spec.region_start - spec.warmup_start
        region_access_lo, _ = trace.access_range(
            spec.region_start, spec.region_end)

        # Stop-cost projection (DESIGN.md §6): a *found* reuse's wait and
        # page-stop count are footprint-driven and scale-invariant; a
        # *dangling* watchpoint waits out the remaining gap, whose paper
        # equivalent is `scale * footprint_scale` times the model count,
        # bounded by the abandonment threshold.
        scale = machine.meter.scale
        footprint = footprint_scale
        sample_weight = scale / self.density_boost  # paper samples per model sample

        # The schedule's segments draw their samples in order; the
        # segments tile the gap, so the sorted draws concatenate into
        # one sorted batch.
        segments = []
        segment_start = spec.warmup_start
        for fraction, density in self.schedule:
            density = density * self.density_calibration
            segment_end = min(spec.region_start,
                              segment_start + int(round(gap * fraction)))
            lo, hi = trace.access_range(segment_start, segment_end)
            n_accesses = hi - lo
            expected = n_accesses * density * self.density_boost
            n_samples = int(rng.poisson(expected)) if expected > 0 else 0
            if n_samples > 0:
                segments.append(np.sort(rng.integers(lo, hi,
                                                     size=n_samples)))
            segment_start = segment_end
        positions = np.concatenate(segments or [np.empty(0, np.int64)])
        collected = positions.shape[0]

        cap = self.max_stops_per_watchpoint
        # A watchpoint still pending at the region boundary is only
        # evidence of a *long* reuse if it was set early; late samples
        # are censored by the boundary and recording them as cold would
        # inflate the fallback distribution's miss tail.
        gap_mid = (spec.warmup_start + spec.region_start) // 2
        if kernels.get_backend() != "scalar":
            # One batched pass resolves the gap's samples; the per-PC
            # statistics are order-free and the stride detector sees
            # the reuses in sample order.
            batch = machine.watchpoints.resolve_samples(
                positions, region_access_lo,
                np.asarray(trace.mem_instr[positions]) < gap_mid,
                cap, scale, footprint)
            projected_stops = batch.projected_stops
            found = batch.reuses >= 0
            reuses = batch.reuses[found]
            stride_detector.observe_many(trace.mem_pc[reuses],
                                         trace.mem_line[reuses])
            # A cold sample counts for the PC that set it.
            owners = np.where(found, batch.reuses, positions)
            stats.add_many(trace.mem_pc[owners[batch.kept]],
                           batch.distances[batch.kept])
            tally = batch.tally()
        else:
            projected_stops = 0.0
            resolved = dangling = 0
            for pos in positions.tolist():
                reuse_pos, stops = machine.watchpoints.await_next_reuse(
                    int(trace.mem_line[pos]), pos, region_access_lo)
                if reuse_pos >= 0:
                    projected_stops += min(stops, cap)
                    distance = reuse_pos - pos - 1
                    pc = int(trace.mem_pc[reuse_pos])
                    stats.add(pc, distance)
                    stride_detector.observe(pc, int(
                        trace.mem_line[reuse_pos]))
                    resolved += 1
                else:
                    projected_stops += min(stops * scale * footprint, cap)
                    if trace.mem_instr[pos] < gap_mid:
                        stats.add(int(trace.mem_pc[pos]), -1)
                        dangling += 1
            tally = (resolved, dangling, collected - resolved - dangling)
        count_samples("coolsim.samples", *tally)
        machine.meter.watchpoint_setups(
            collected * sample_weight, scaled=False)
        machine.meter.watchpoint_stops(
            projected_stops * sample_weight, scaled=False)
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
        self.footprint_scale = plan.footprint_scale
        self.meter = CostMeter(scale=plan.scale)
        self.machine = context.machine(self.meter)
        self.stats = PerPCReuseStats(min_samples=strategy.min_pc_samples)
        self.stride_detector = StrideDetector()
        self.rng = context.rng("coolsim")
        self.predictor = strategy._capacity_predictor(self.stats, self.rng)
        self.analyst = AnalystPass(
            context, self.machine, hierarchy_config,
            processor_config=strategy.processor_config,
            mshr_window=strategy.mshr_window)
        self.regions = []
        self.collected_model = 0

    def refine(self, spec):
        """Profile one gap and simulate its detailed region."""
        self.collected_model += self.strategy._profile_gap(
            self.context, self.machine, spec, self.stats,
            self.stride_detector, self.rng, self.footprint_scale)
        self.regions.append(self.analyst.run_region(
            spec, self.predictor, stride_detector=self.stride_detector))
        return self.regions[-1]

    def result(self, plan):
        """The :class:`StrategyResult` over the regions refined so far
        (meter snapshotted, safe to keep across further refinement)."""
        meter = CostMeter(params=self.meter.params, scale=self.meter.scale)
        meter.ledger.merge(self.meter.ledger)
        paper_equivalent_samples = (
            self.collected_model / self.strategy.density_boost * plan.scale)
        return StrategyResult(
            strategy=self.strategy.name,
            workload=self.context.workload.name,
            regions=list(self.regions),
            meter=meter,
            paper_equivalent_instructions=plan.paper_equivalent_instructions,
            extras={
                "collected_reuse_distances": paper_equivalent_samples,
                "collected_model_samples": self.collected_model,
                "pcs_sampled": self.stats.n_pcs,
            },
        )
