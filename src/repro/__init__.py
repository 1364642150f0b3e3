"""repro — DeLorean: Directed Statistical Warming through Time Traveling.

A full reproduction of Nikoleris, Eeckhout, Hagersten & Carlson,
"Directed Statistical Warming through Time Traveling" (MICRO-52, 2019),
as a trace-driven Python library: the DeLorean methodology (directed
statistical warming + time traveling), the SMARTS and CoolSim baselines
it is evaluated against, and every substrate they depend on (synthetic
SPEC-like workloads, cache simulation, statistical cache modeling, a
virtualized-execution cost model, and an interval CPU timing model).

Quickstart::

    from repro import (spec2006_suite, SamplingPlan, paper_hierarchy,
                       Smarts, CoolSim, DeLorean)

    workload = spec2006_suite(n_instructions=2_000_000, names=["mcf"])[0]
    plan = SamplingPlan(n_instructions=2_000_000, n_regions=4)
    config = paper_hierarchy(llc_paper_bytes=8 << 20)

    reference = Smarts().run(workload, plan, config)
    delorean = DeLorean().run(workload, plan, config)
    print(delorean.cpi, reference.cpi, delorean.speedup_over(reference))

See README.md for the system inventory; :mod:`repro.experiments.paper`
holds the paper's numbers, and ``python -m repro all`` prints every
table and figure beside them.
"""

from repro.trace import (
    BenchmarkSpec,
    SPEC2006_NAMES,
    Trace,
    Workload,
    benchmark_spec,
    spec2006_suite,
)
from repro.caches import (
    CacheConfig,
    CacheHierarchy,
    HierarchyConfig,
    SetAssocCache,
    StackDistanceProfiler,
)
from repro.caches.hierarchy import paper_hierarchy
from repro.statmodel import (
    CoRunner,
    ReuseHistogram,
    StatCC,
    StatCache,
    StatStack,
)
from repro.vff import CostMeter, HostCostParameters, TraceIndex, VirtualMachine
from repro.cpu import (
    IntervalCoreModel,
    ProcessorConfig,
    StridePrefetcher,
    TournamentPredictor,
    format_table1,
)
from repro.sampling import (
    CoolSim,
    RegionResult,
    SamplingPlan,
    Smarts,
    StrategyResult,
)
from repro.core import (
    DeLorean,
    DesignSpaceExploration,
    DSEReport,
    NaiveDirectedWarming,
)
from repro.traceio import (
    ImportedWorkload,
    TraceLibrary,
    TraceReader,
    export_trace,
    import_trace,
    read_trace,
    register_workload,
    write_trace,
)

__version__ = "1.0.0"

__all__ = [
    "BenchmarkSpec",
    "SPEC2006_NAMES",
    "Trace",
    "Workload",
    "benchmark_spec",
    "spec2006_suite",
    "CacheConfig",
    "CacheHierarchy",
    "HierarchyConfig",
    "SetAssocCache",
    "StackDistanceProfiler",
    "paper_hierarchy",
    "CoRunner",
    "ReuseHistogram",
    "StatCC",
    "StatCache",
    "StatStack",
    "CostMeter",
    "HostCostParameters",
    "TraceIndex",
    "VirtualMachine",
    "IntervalCoreModel",
    "ProcessorConfig",
    "StridePrefetcher",
    "TournamentPredictor",
    "format_table1",
    "CoolSim",
    "RegionResult",
    "SamplingPlan",
    "Smarts",
    "StrategyResult",
    "DeLorean",
    "DesignSpaceExploration",
    "DSEReport",
    "NaiveDirectedWarming",
    "ImportedWorkload",
    "TraceLibrary",
    "TraceReader",
    "export_trace",
    "import_trace",
    "read_trace",
    "register_workload",
    "write_trace",
    "__version__",
]
