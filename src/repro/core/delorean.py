"""DeLorean: the full time-traveling sampled-simulation strategy.

Orchestrates the Figure 4 pipeline for every detailed region:

1. **Scout** fast-forwards ahead and records the key cachelines;
2. **Explorer-1..N** go back in time and collect the key reuse distances
   (plus vicinity samples) with progressively deeper directed profiling;
3. **Analyst** performs the detailed simulation, classifying every memory
   request with directed statistical warming (Figure 3).

Each pass is modeled as its own gem5/KVM process with its own cost
ledger; regions are processed in pipelined fashion, so the run's
wall-clock follows the pipeline recurrence of
:func:`~repro.core.pipeline.pipeline_schedule` rather than the sum of all
passes — this is how the reduction in profiling work becomes the 5.7x
speedup over CoolSim and the 126 MIPS headline.

:class:`DeLoreanRun` runs every Analyst.  It refines a tuple of
hierarchy configurations: per region one predictor feeds one Analyst
per configuration, and the Analysts with one L1 configuration share
that region's L1 and stride work (one
:class:`~repro.sampling.classify.RegionFrontEnd`).  A design-space sweep
(:class:`~repro.core.dse.DesignSpaceExploration`) is such a run over
several configurations; :class:`DeLorean` is the one-configuration
case.  A live run (:meth:`DeLorean.begin`) refines the region's
Scout/Explorer warm-up there too.  A batch run first records or replays
the plan's warm-up bundle through
:class:`~repro.core.warmup.WarmupPipeline`, which refines the same
warm-up loop over every region, then refines a :class:`DeLoreanRun` fed
from that bundle.  With an artifact ``store`` attached the bundle (which
is microarchitecture-independent) is persisted on first computation and
replayed bit-identically for any later run of the same workload/plan/seed
at a different LLC configuration — only the Analysts re-execute.
"""

import numpy as np

from repro.core.analyst import AnalystPass
from repro.core.explorer import DEFAULT_EXPLORERS
from repro.core.pipeline import pipeline_schedule
from repro.core.vicinity import DEFAULT_DENSITY
from repro.core.warmup import IncrementalWarmup, WarmupPipeline
from repro.cpu.prefetch import StridePrefetcher
from repro.sampling.base import StrategyBase
from repro.sampling.results import StrategyResult
from repro.vff.costmodel import CostMeter, TimeLedger


class DeLorean(StrategyBase):
    """Directed statistical warming through time traveling."""

    name = "DeLorean"
    #: Label of the vicinity samplers' shared RNG stream (it also keys
    #: the warm-up bundle in the store).
    vicinity_rng = "delorean-vicinity"

    def __init__(self, processor_config=None, explorer_specs=DEFAULT_EXPLORERS,
                 vicinity_density=DEFAULT_DENSITY, vicinity_boost=200.0,
                 prefetcher=False, mshr_window=24):
        super().__init__(processor_config)
        self.explorer_specs = tuple(explorer_specs)
        self.vicinity_density = float(vicinity_density)
        self.vicinity_boost = float(vicinity_boost)
        self.prefetcher_enabled = prefetcher
        self.mshr_window = mshr_window

    def run(self, workload, plan, hierarchy_config, index=None, seed=0,
            store=None, context=None):
        context = self.context_for(workload, index=index, seed=seed,
                                   store=store, context=context)
        return self._sweep(context, plan, (hierarchy_config,)).result(plan)

    def begin(self, context, plan, hierarchy_config):
        """Start a refinable run (``refine`` per region, ``result`` at
        any watermark).

        Unlike :meth:`run` this never consults the warm-up bundle store
        — a live feed is by definition ahead of any recorded prefix —
        so each ``refine`` runs the region's warm-up passes
        (:class:`~repro.core.warmup.IncrementalWarmup`, the loop a
        recording batch run refines) before its Analyst.
        """
        return DeLoreanRun(self, context, plan, (hierarchy_config,))

    def _sweep(self, context, plan, hierarchy_configs):
        """Record or replay the plan's warm-up bundle, then refine a
        :class:`DeLoreanRun` fed from it over every region."""
        bundle = WarmupPipeline(
            self.vicinity_rng, context, plan, self.explorer_specs,
            self.vicinity_density, self.vicinity_boost,
            CostMeter(scale=plan.scale)).run_all()
        run = DeLoreanRun(self, context, plan, hierarchy_configs,
                          bundle=bundle)
        for spec in plan.regions():
            run.refine(spec)
        return run

    def _analyst(self, context, hierarchy_config, machine):
        return AnalystPass(
            context, machine, hierarchy_config,
            processor_config=self.processor_config,
            prefetcher_factory=((lambda: StridePrefetcher(n_streams=8))
                                if self.prefetcher_enabled else None),
            mshr_window=self.mshr_window,
        )

    def _assemble_result(self, run, plan):
        """Aggregate the run's :class:`~repro.core.warmup.WarmupBundle`
        and its (one) Analyst's output into the result."""
        bundle = run.bundle()
        key_counts = []
        engaged = []
        resolved_by_totals = np.zeros(len(self.explorer_specs),
                                      dtype=np.int64)
        warming_resolved_total = 0
        cold_total = 0
        key_collected_total = 0
        stops_true = 0
        stops_false = 0
        for warm in bundle.regions:
            key_counts.append(warm.n_key_lines)
            engaged.append(warm.engaged)
            resolved_by_totals += np.asarray(warm.resolved_by,
                                             dtype=np.int64)
            warming_resolved_total += warm.n_warming_resolved
            cold_total += warm.n_unresolved
            key_collected_total += warm.n_key_collected
            stops_true += warm.true_stops
            stops_false += warm.false_stops

        vicinity_paper = bundle.vicinity_paper
        vicinity_model = bundle.vicinity_model
        analyst_detailed = (run.analysts[0].machine.meter.ledger
                            .seconds_by_category.get("detailed", 0.0))
        warm_ledgers = bundle.pass_ledgers()
        warming_seconds = (
            warm_ledgers[0].total_seconds
            + sum(ledger.total_seconds for ledger in warm_ledgers[1:]))

        return StrategyResult(
            strategy=self.name,
            workload=run.context.workload.name,
            regions=list(run.regions[0]),
            meter=run.meter(0, plan),
            paper_equivalent_instructions=plan.paper_equivalent_instructions,
            wall_seconds=run.wall_seconds(),
            extras={
                "collected_reuse_distances":
                    key_collected_total + vicinity_paper,
                "key_reuse_distances": key_collected_total,
                "vicinity_paper_equivalent": vicinity_paper,
                "vicinity_model_samples": vicinity_model,
                "key_lines_per_region": key_counts,
                "explorers_engaged": engaged,
                "mean_explorers_engaged": float(np.mean(engaged)),
                "resolved_by_explorer": resolved_by_totals.tolist(),
                "resolved_in_warming": warming_resolved_total,
                "cold_key_lines": cold_total,
                "watchpoint_true_stops": stops_true,
                "watchpoint_false_stops": stops_false,
                "stage_times": [sum(t) for t in run.stage_times()],
                "warming_seconds": warming_seconds,
                "analyst_detailed_seconds": analyst_detailed,
                "warmup_vs_detailed":
                    (warming_seconds / analyst_detailed
                     if analyst_detailed else float("inf")),
            },
        )


class DeLoreanRun:
    """Refinable DeLorean execution state over hierarchy configurations.

    One Analyst per configuration.  :meth:`refine` advances every
    pipeline stage over one region: the Scout/Explorer warm-up once,
    then each Analyst, all fed the region's one predictor.  Given a
    recorded ``bundle`` (the batch path) the run builds no Scout or
    Explorer machines and region ``k``'s warm-up is read from the
    bundle, which covers the whole plan, so such a run is refined over
    every region before its results are read; without one (the live
    path) each ``refine`` runs the region's warm-up passes on an
    :class:`IncrementalWarmup`.
    """

    def __init__(self, strategy, context, plan, hierarchy_configs,
                 bundle=None):
        self.strategy = strategy
        self.context = context
        self.base_meter = CostMeter(scale=plan.scale)
        self.recorded = bundle
        self.warmup = None if bundle is not None else IncrementalWarmup(
            strategy.vicinity_rng, context, strategy.explorer_specs,
            strategy.vicinity_density, strategy.vicinity_boost,
            self.base_meter, plan.footprint_scale)
        self.analysts = [
            strategy._analyst(context, config,
                              context.machine(self.base_meter.fork()))
            for config in hierarchy_configs]
        #: Per configuration, the region results and Analyst seconds.
        self.regions = [[] for _ in self.analysts]
        self.analyst_times = [[] for _ in self.analysts]

    def refine(self, spec):
        """Scout, explore and analyze one region under every
        configuration."""
        if self.recorded is None:
            warm = self.warmup.refine(spec)
        else:
            warm = self.recorded.regions[len(self.regions[0])]
        # One predictor serves every configuration: reuse distance is
        # microarchitecture-independent (Section 3.3).  Likewise the
        # L1 and stride work serves every Analyst with the same L1.
        predictor = warm.predictor()
        front_ends = {}
        for analyst, regions, times in zip(self.analysts, self.regions,
                                           self.analyst_times):
            l1 = analyst.hierarchy_config.l1d
            if l1 not in front_ends:
                front_ends[l1] = analyst.new_front_end()
            ledger = analyst.machine.meter.ledger
            mark = ledger.total_seconds
            regions.append(analyst.run_region(spec, predictor,
                                              front_ends[l1]))
            times.append(ledger.total_seconds - mark)

    def bundle(self):
        """The warm-up bundle snapshot (watermark-publishable)."""
        if self.recorded is not None:
            return self.recorded
        return self.warmup.bundle()

    def stage_times(self):
        """Per-stage lists of per-region seconds, Scout first.  The
        Analysts run concurrently, so the last stage takes each
        region's slowest configuration."""
        return self.bundle().stage_times() + [
            np.max(np.asarray(self.analyst_times), axis=0).tolist()]

    def wall_seconds(self):
        """Pipelined wall-clock of the regions refined so far."""
        return pipeline_schedule(self.stage_times())[1]

    def meter(self, k, plan):
        """Configuration ``k``'s cost meter: every warm-up pass's
        ledger, then its Analyst's, merged into a fresh meter."""
        merged = CostMeter(params=self.base_meter.params, scale=plan.scale,
                           ledger=TimeLedger())
        for ledger in self.bundle().pass_ledgers():
            merged.ledger.merge(ledger)
        merged.ledger.merge(self.analysts[k].machine.meter.ledger)
        return merged

    def result(self, plan):
        """The :class:`StrategyResult` over the regions refined so far."""
        return self.strategy._assemble_result(self, plan)
