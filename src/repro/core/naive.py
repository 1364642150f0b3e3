"""Naive directed statistical warming — the ablation for Time Traveling.

Section 3.3 ("RSW versus DSW") argues that DSW *without* time traveling
is no faster than RSW: key-cacheline watchpoints must stay armed for the
entire warm-up interval (only the last reuse matters), so a single
profiling pass takes every page stop of every key line across the whole
gap — "the overhead for collecting them in a naive implementation is
high".  Time traveling exists precisely to avoid this.

This strategy implements that naive design: one process, watchpoints on
all key cachelines for the whole warm-up interval (plus the same
vicinity sampling), then the identical DSW classification.  Accuracy
therefore matches DeLorean; only the cost differs — which is the point
of the ablation benchmark.
"""

from repro.core.scout import ScoutPass
from repro.core.vicinity import DEFAULT_DENSITY, VicinitySampler
from repro.core.warming import DirectedCapacityPredictor
from repro.core.analyst import AnalystPass
from repro.sampling.base import StrategyBase
from repro.sampling.results import StrategyResult
from repro.statmodel.histogram import ReuseHistogram
from repro.vff.costmodel import CostMeter


class NaiveDirectedWarming(StrategyBase):
    """DSW with single-pass full-gap directed profiling (no TT)."""

    name = "NaiveDSW"

    def __init__(self, processor_config=None,
                 vicinity_density=DEFAULT_DENSITY):
        super().__init__(processor_config)
        self.vicinity_density = float(vicinity_density)

    def begin(self, context, plan, hierarchy_config):
        """Start a refinable run (``refine`` per region, ``result`` at
        any watermark); :meth:`run` is the same steps back to back."""
        return NaiveDirectedWarmingRun(self, context, plan,
                                       hierarchy_config)


class NaiveDirectedWarmingRun:
    """Refinable NaiveDSW execution state.

    Three per-pass machines (scout, profile, analyst) and the single
    ``naive-dsw`` vicinity RNG are carried across :meth:`refine` calls;
    each call is exactly one iteration of the batch region loop, so the
    incremental path consumes the identical RNG draws and charges the
    identical per-pass ledgers as a from-scratch run on the same prefix.
    """

    def __init__(self, strategy, context, plan, hierarchy_config):
        self.strategy = strategy
        self.context = context
        self.plan = plan
        self.meter = CostMeter(scale=plan.scale)
        # Two logical phases of the same process: identify key lines
        # (requires a first pass to the region), then profile the entire
        # gap with all key-line watchpoints armed.
        self.scout_machine = context.machine(self.meter.fork())
        self.profile_machine = context.machine(self.meter.fork())
        self.analyst_machine = context.machine(self.meter.fork())
        self.scout = ScoutPass(context, self.scout_machine)
        rng = context.rng("naive-dsw")
        self.sampler = VicinitySampler(
            self.profile_machine, plan, density=strategy.vicinity_density,
            rng=rng, naive=True)
        self.analyst = AnalystPass(
            context, self.analyst_machine, hierarchy_config,
            processor_config=strategy.processor_config)
        self.regions = []
        self.total_stops = 0

    def refine(self, spec):
        """Scout, profile and analyze one region."""
        context = self.context
        report = self.scout.run_region(spec)

        gap_lo = context.window(spec.warmup_start,
                                spec.region_start).lo
        watched = sorted(report.key_first_access)
        profile = self.profile_machine.watchpoints.profile_window(
            watched, gap_lo, report.region_access_lo)
        # Watchpoints stay armed across the whole paper-scale gap:
        # charge the full window's stop traffic (footprint-projected,
        # like the Explorers' charges).
        paper_gap = self.plan.paper_gap(spec)
        projection = self.plan.stop_projection(paper_gap,
                                               spec.gap_instructions)
        self.profile_machine.meter.fast_forward(paper_gap, scaled=False)
        self.profile_machine.meter.watchpoint_setups(len(watched),
                                                     scaled=False)
        self.profile_machine.meter.watchpoint_stops(
            profile.total_stops * projection, scaled=False)
        self.total_stops += profile.total_stops

        vicinity = ReuseHistogram()
        self.sampler.sample_window(
            vicinity, gap_lo, report.region_access_lo,
            report.region_access_lo,
            paper_window_instructions=paper_gap,
            model_window_instructions=spec.gap_instructions)

        # The gap profile covers the warming window: its last access
        # wins.
        distances = report.key_reuse_distances(
            {**report.warming_resolved, **profile.last_access})
        predictor = DirectedCapacityPredictor(distances, vicinity)
        self.regions.append(self.analyst.run_region(spec, predictor))
        return self.regions[-1]

    def result(self, plan):
        """The :class:`StrategyResult` over the regions refined so far
        (per-pass ledgers merged into a fresh meter, scout first)."""
        merged = CostMeter(params=self.meter.params, scale=plan.scale)
        for machine in (self.scout_machine, self.profile_machine,
                        self.analyst_machine):
            merged.ledger.merge(machine.meter.ledger)
        return StrategyResult(
            strategy=self.strategy.name,
            workload=self.context.workload.name,
            regions=list(self.regions),
            meter=merged,
            paper_equivalent_instructions=plan.paper_equivalent_instructions,
            extras={"watchpoint_stops_model": self.total_stops},
        )
