"""Design space exploration: many Analysts, one warm-up (Section 6.4.2).

Key reuse distances are microarchitecture-independent, so a single Scout
and a single set of Explorers can feed any number of parallel Analysts,
each simulating a different cache (or processor) configuration.  The
marginal cost of an extra configuration is just its Analyst — tiny next
to the warm-up work (the paper reports warm-up : detailed time of ~235x
and a marginal cost below 1.05x for 10 parallel Analysts, versus 10x for
rerunning the whole simulation per configuration).  On the host, the
Analysts with one L1 configuration also share each region's L1 and
stride work (one :class:`~repro.sampling.classify.RegionFrontEnd`), so
an extra LLC size runs only its own LLC phase; each Analyst's ledger
still charges its full detailed warming.

With an artifact ``store`` attached the amortization extends across
*calls*: the warm-up products are persisted by
:class:`~repro.core.warmup.WarmupPipeline` on first computation, so a
later sweep over different LLC sizes (or an added configuration point)
replays the recorded warm-up and only its Analysts execute.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.core.analyst import AnalystPass
from repro.core.explorer import DEFAULT_EXPLORERS
from repro.core.pipeline import pipeline_schedule
from repro.core.vicinity import DEFAULT_DENSITY
from repro.core.warmup import WarmupPipeline
from repro.sampling.base import StrategyBase
from repro.sampling.results import StrategyResult
from repro.vff.costmodel import CostMeter, TimeLedger


@dataclass
class DSEReport:
    """Results of one amortized design-space sweep."""

    #: One StrategyResult per explored configuration (same order as input).
    results: list
    #: Pipelined wall-clock of the whole sweep.
    wall_seconds: float
    #: Total core-seconds consumed by the sweep (all passes).
    core_seconds: float
    #: Core-seconds a single-configuration run would consume.
    single_config_core_seconds: float
    extras: dict = field(default_factory=dict)

    @property
    def n_configs(self):
        return len(self.results)

    @property
    def marginal_cost(self):
        """Resource ratio vs a single-configuration run (paper: <1.05x
        for 10 Analysts, vs 10x for independent simulations)."""
        if self.single_config_core_seconds <= 0:
            return float("nan")
        return self.core_seconds / self.single_config_core_seconds

    @property
    def naive_cost(self):
        """Resource ratio of running one full simulation per config."""
        return float(self.n_configs)


class DesignSpaceExploration(StrategyBase):
    """One Scout + one Explorer set feeding N parallel Analysts."""

    name = "DeLorean-DSE"

    def __init__(self, processor_config=None, explorer_specs=DEFAULT_EXPLORERS,
                 vicinity_density=DEFAULT_DENSITY, vicinity_boost=200.0,
                 mshr_window=24):
        super().__init__(processor_config)
        self.explorer_specs = tuple(explorer_specs)
        self.vicinity_density = float(vicinity_density)
        self.vicinity_boost = float(vicinity_boost)
        self.mshr_window = mshr_window

    def run(self, workload, plan, hierarchy_configs, index=None, seed=0,
            store=None, context=None):
        """Sweep ``hierarchy_configs`` from one shared warm-up."""
        if not hierarchy_configs:
            raise ValueError("need at least one configuration")
        context = self.context_for(workload, index=index, seed=seed,
                                   store=store, context=context)
        base_meter = CostMeter(scale=plan.scale)

        bundle = WarmupPipeline(
            "dse-vicinity", context, plan, self.explorer_specs,
            self.vicinity_density, self.vicinity_boost,
            base_meter).run_all()

        analyst_machines = [
            context.machine(base_meter.fork())
            for _ in hierarchy_configs]
        analysts = [
            AnalystPass(machine, config,
                        processor_config=self.processor_config,
                        mshr_window=self.mshr_window, seed=context.seed,
                        context=context)
            for machine, config in zip(analyst_machines, hierarchy_configs)]

        analyst_stage_times = [[] for _ in analysts]
        per_config_regions = [[] for _ in analysts]

        for spec, warm in zip(plan.regions(), bundle.regions):
            # One predictor serves every configuration: reuse distance is
            # microarchitecture-independent (Section 3.3).  Likewise the
            # L1 and stride work serves every Analyst with the same L1.
            predictor = warm.predictor()
            front_ends = {}
            for k, analyst in enumerate(analysts):
                l1 = analyst.hierarchy_config.l1d
                if l1 not in front_ends:
                    front_ends[l1] = analyst.new_front_end()
                mark = analyst_machines[k].meter.ledger.total_seconds
                per_config_regions[k].append(
                    analyst.run_region(spec, predictor, front_ends[l1]))
                analyst_stage_times[k].append(
                    analyst_machines[k].meter.ledger.total_seconds - mark)

        # Analysts run concurrently: the pipeline sees one analyst stage
        # whose per-region time is the slowest configuration's.
        warmup_stage_times = bundle.stage_times()
        analyst_parallel = np.max(
            np.asarray(analyst_stage_times), axis=0).tolist()
        _, wall_seconds = pipeline_schedule(
            [*warmup_stage_times, analyst_parallel])

        warm_ledgers = bundle.pass_ledgers()
        warmup_core = sum(ledger.total_seconds for ledger in warm_ledgers)
        analyst_cores = [m.meter.ledger.total_seconds
                         for m in analyst_machines]
        core_seconds = warmup_core + sum(analyst_cores)
        single_core = warmup_core + analyst_cores[0]

        results = []
        for k, config in enumerate(hierarchy_configs):
            merged = CostMeter(params=base_meter.params, scale=plan.scale,
                               ledger=TimeLedger())
            for ledger in warm_ledgers:
                merged.ledger.merge(ledger)
            merged.ledger.merge(analyst_machines[k].meter.ledger)
            results.append(StrategyResult(
                strategy=self.name,
                workload=workload.name,
                regions=per_config_regions[k],
                meter=merged,
                paper_equivalent_instructions=(
                    plan.paper_equivalent_instructions),
                wall_seconds=wall_seconds,
                extras={"llc_bytes": config.llc.size_bytes},
            ))

        return DSEReport(
            results=results,
            wall_seconds=wall_seconds,
            core_seconds=core_seconds,
            single_config_core_seconds=single_core,
            extras={
                "warmup_core_seconds": warmup_core,
                "analyst_core_seconds": analyst_cores,
            },
        )
