"""Design space exploration: many Analysts, one warm-up (Section 6.4.2).

Key reuse distances are microarchitecture-independent, so a single Scout
and a single set of Explorers can feed any number of parallel Analysts,
each simulating a different cache (or processor) configuration.  The
marginal cost of an extra configuration is just its Analyst — tiny next
to the warm-up work (the paper reports warm-up : detailed time of ~235x
and a marginal cost below 1.05x for 10 parallel Analysts, versus 10x for
rerunning the whole simulation per configuration).

A sweep is a DeLorean run over several configurations: it is refined by
:class:`~repro.core.delorean.DeLoreanRun`, which runs every Analyst and
shares each region's L1 and stride work among the Analysts with one L1
configuration, so on the host an extra LLC size runs only its own LLC
phase (each Analyst's ledger still charges its full detailed
warming).  This module adds the sweep's report: one
:class:`~repro.sampling.results.StrategyResult` per configuration and
the amortization statistics.

With an artifact ``store`` attached the amortization extends across
*calls*: the warm-up products are persisted by
:class:`~repro.core.warmup.WarmupPipeline` on first computation, so a
later sweep over different LLC sizes (or an added configuration point)
replays the recorded warm-up and only its Analysts execute.
"""

from dataclasses import dataclass, field

from repro.core.delorean import DeLorean
from repro.core.explorer import DEFAULT_EXPLORERS
from repro.core.vicinity import DEFAULT_DENSITY
from repro.sampling.results import StrategyResult


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


class DesignSpaceExploration(DeLorean):
    """One Scout + one Explorer set feeding N parallel Analysts."""

    name = "DeLorean-DSE"
    vicinity_rng = "dse-vicinity"

    def __init__(self, processor_config=None, explorer_specs=DEFAULT_EXPLORERS,
                 vicinity_density=DEFAULT_DENSITY):
        super().__init__(processor_config, explorer_specs=explorer_specs,
                         vicinity_density=vicinity_density)

    def begin(self, context, plan, hierarchy_config):
        """A sweep has no refinable (live) form: :meth:`run` it."""
        raise NotImplementedError(
            "DesignSpaceExploration cannot begin a live run; sweep its "
            "configurations with run()")

    def run(self, workload, plan, hierarchy_configs, index=None, seed=0,
            store=None, context=None):
        """Sweep ``hierarchy_configs`` from one shared warm-up."""
        if not hierarchy_configs:
            raise ValueError("need at least one configuration")
        context = self.context_for(workload, index=index, seed=seed,
                                   store=store, context=context)
        run = self._sweep(context, plan, hierarchy_configs)
        wall_seconds = run.wall_seconds()
        warmup_core = sum(ledger.total_seconds
                          for ledger in run.bundle().pass_ledgers())
        analyst_cores = [analyst.machine.meter.ledger.total_seconds
                         for analyst in run.analysts]
        results = [
            StrategyResult(
                strategy=self.name,
                workload=workload.name,
                regions=regions,
                meter=run.meter(k, plan),
                paper_equivalent_instructions=(
                    plan.paper_equivalent_instructions),
                wall_seconds=wall_seconds,
                extras={"llc_bytes": analyst.hierarchy_config.llc.size_bytes},
            )
            for k, (analyst, regions) in enumerate(zip(run.analysts,
                                                       run.regions))]
        return DSEReport(
            results=results,
            wall_seconds=wall_seconds,
            core_seconds=warmup_core + sum(analyst_cores),
            single_config_core_seconds=warmup_core + analyst_cores[0],
            extras={
                "warmup_core_seconds": warmup_core,
                "analyst_core_seconds": analyst_cores,
            },
        )
