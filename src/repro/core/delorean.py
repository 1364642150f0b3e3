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

The Analyst's region step lives in one place, :meth:`DeLoreanRun.refine`.
A live run (:meth:`DeLorean.begin`) refines the region's Scout/Explorer
warm-up there too.  The batch :meth:`DeLorean.run` first records or
replays the plan's warm-up bundle through
:class:`~repro.core.warmup.WarmupPipeline`, which refines the same
warm-up loop over every region, then refines a :class:`DeLoreanRun` fed
from that bundle.  With an artifact ``store`` attached the bundle (which
is microarchitecture-independent) is persisted on first computation and
replayed bit-identically for any later run of the same workload/plan/seed
at a different LLC configuration — only the Analyst re-executes.
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
        bundle = WarmupPipeline(
            "delorean-vicinity", context, plan, self.explorer_specs,
            self.vicinity_density, self.vicinity_boost,
            CostMeter(scale=plan.scale)).run_all()
        run = DeLoreanRun(self, context, plan, hierarchy_config,
                          bundle=bundle)
        for spec in plan.regions():
            run.refine(spec)
        return run.result(plan)

    def begin(self, context, plan, hierarchy_config):
        """Start a refinable run (``refine`` per region, ``result`` at
        any watermark).

        Unlike :meth:`run` this never consults the warm-up bundle store
        — a live feed is by definition ahead of any recorded prefix —
        so each ``refine`` runs the region's warm-up passes
        (:class:`~repro.core.warmup.IncrementalWarmup`, the loop a
        recording batch run refines) before its Analyst.
        """
        return DeLoreanRun(self, context, plan, hierarchy_config)

    def _analyst(self, context, hierarchy_config, machine):
        return AnalystPass(
            machine, hierarchy_config,
            processor_config=self.processor_config,
            prefetcher_factory=((lambda: StridePrefetcher(n_streams=8))
                                if self.prefetcher_enabled else None),
            mshr_window=self.mshr_window,
            seed=context.seed,
            context=context,
        )

    def _assemble_result(self, workload_name, plan, bundle, regions,
                         analyst_times, analyst_ledger, base_meter):
        """Aggregate a :class:`~repro.core.warmup.WarmupBundle` and the
        Analyst output into the result."""
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

        stage_times = bundle.stage_times() + [analyst_times]
        _, wall_seconds = pipeline_schedule(stage_times)

        merged = CostMeter(params=base_meter.params, scale=plan.scale,
                           ledger=TimeLedger())
        warm_ledgers = bundle.pass_ledgers()
        for ledger in warm_ledgers:
            merged.ledger.merge(ledger)
        merged.ledger.merge(analyst_ledger)

        vicinity_paper = bundle.vicinity_paper
        vicinity_model = bundle.vicinity_model
        analyst_detailed = analyst_ledger.seconds_by_category.get(
            "detailed", 0.0)
        warming_seconds = (
            warm_ledgers[0].total_seconds
            + sum(ledger.total_seconds for ledger in warm_ledgers[1:]))

        return StrategyResult(
            strategy=self.name,
            workload=workload_name,
            regions=regions,
            meter=merged,
            paper_equivalent_instructions=plan.paper_equivalent_instructions,
            wall_seconds=wall_seconds,
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
                "stage_times": [sum(t) for t in stage_times],
                "warming_seconds": warming_seconds,
                "analyst_detailed_seconds": analyst_detailed,
                "warmup_vs_detailed":
                    (warming_seconds / analyst_detailed
                     if analyst_detailed else float("inf")),
            },
        )


class DeLoreanRun:
    """Refinable DeLorean execution state.

    :meth:`refine` advances all five pipeline stages over one region and
    :meth:`result` assembles the :class:`StrategyResult` of the regions
    refined so far.  Given a recorded ``bundle`` (the batch path) the
    run builds no Scout or Explorer machines and region ``k``'s warm-up
    is read from the bundle, which covers the whole plan, so such a run
    is refined over every region before :meth:`result`; without one
    (the live path) each ``refine`` runs the region's warm-up passes on
    an :class:`IncrementalWarmup`.
    """

    def __init__(self, strategy, context, plan, hierarchy_config,
                 bundle=None):
        self.strategy = strategy
        self.context = context
        self.base_meter = CostMeter(scale=plan.scale)
        self.recorded = bundle
        self.warmup = None if bundle is not None else IncrementalWarmup(
            "delorean-vicinity", context, strategy.explorer_specs,
            strategy.vicinity_density, strategy.vicinity_boost,
            self.base_meter, plan.footprint_scale)
        self.analyst_machine = context.machine(self.base_meter.fork())
        self.analyst = strategy._analyst(context, hierarchy_config,
                                         self.analyst_machine)
        self.analyst_times = []
        self.regions = []

    def refine(self, spec):
        """Scout, explore and analyze one region."""
        if self.recorded is None:
            warm = self.warmup.refine(spec)
        else:
            warm = self.recorded.regions[len(self.regions)]
        mark = self.analyst_machine.meter.ledger.total_seconds
        self.regions.append(
            self.analyst.run_region(spec, warm.predictor()))
        self.analyst_times.append(
            self.analyst_machine.meter.ledger.total_seconds - mark)
        return self.regions[-1]

    def bundle(self):
        """The warm-up bundle snapshot (watermark-publishable)."""
        if self.recorded is not None:
            return self.recorded
        return self.warmup.bundle()

    def result(self, plan):
        """The :class:`StrategyResult` over the regions refined so far."""
        return self.strategy._assemble_result(
            self.context.workload.name, plan, self.bundle(),
            list(self.regions), list(self.analyst_times),
            self.analyst_machine.meter.ledger, self.base_meter)
