"""The benchmark's three workloads.

Each workload builds its inputs from the seed alone and runs *passes*: a
pass is one complete set of the workload's operations, timed as a user
of the library would wait for it.  Correctness checks run after each
pass, outside the timed sections, on the outputs the pass kept.

* ``batch-quick`` — SMARTS, CoolSim, DeLorean and NaiveDSW back to back
  on the six-benchmark quick set, with a materialized trace and one
  in-RAM argsort index per benchmark shared by the four strategies, and
  the store off.  An op is one strategy run on one benchmark.
* ``dse-sweep`` — a design-space sweep over the ten paper LLC sizes on
  the Figure 14 benchmarks, then a second sweep that replays the
  recorded warm-up bundle from the on-disk store.  An op is one LLC
  configuration of one sweep.
* ``live-feed`` — :class:`~repro.live.LiveRunner` consuming the mcf
  recipe chunk by chunk at the default gap, all four strategies refined
  at every watermark, with the index spilled through a store.  An op is
  one watermark.

Every workload also has a ``tiny`` size: the benchmark's set-up runs a
tiny pass to warm the code paths, and the smoke test runs the tiny size
end to end.
"""

import math
import os
import shutil
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.__main__ import QUICK_NAMES
from repro.caches.hierarchy import paper_hierarchy
from repro.core.context import ExecutionContext
from repro.core.dse import DesignSpaceExploration
from repro.experiments.config import ExperimentConfig
from repro.live import LiveRunner, PrefixWorkload
from repro.live.runner import default_strategies
from repro.store import ArtifactStore
from repro.trace.spec import benchmark_spec
from repro.trace.stream import workload_chunks
from repro.util.units import MIB
from repro.vff.index import TraceIndex

from clock import Clock
from tracing import NULL, timed_iter

#: The Figure 14 benchmark set.
FIG14_NAMES = ("cactusADM", "leslie3d", "lbm")


@dataclass
class PassRecord:
    """What one pass measured, and the outputs its checks need."""

    #: Host seconds the pass took, as a user waits for it (calibration
    #: ticks between ops excluded).
    wall_s: float
    #: Part of ``wall_s`` spent preparing inputs (trace generation and
    #: index build), which per-access costs exclude.
    prep_s: float
    #: ``wall_s`` and ``prep_s`` in ref units, segment by segment.
    wall_ref: float
    prep_ref: float
    #: Trace accesses the strategies processed (the per-access base).
    accesses: int
    #: One host-seconds latency per op.
    op_seconds: list
    #: Each op's latency in ref units (see :mod:`clock`).
    op_ref: list
    #: Median calibration-kernel seconds over the pass: one ref unit.
    unit_s: float
    #: Ops attempted in the pass.
    attempted: int
    #: Counts behind the ratios, for the report.
    base: dict
    #: Host seconds per strategy, summed over benchmarks.
    strategy_s: dict = field(default_factory=dict)
    #: Mean absolute CPI error vs SMARTS per strategy, in percent.
    cpi_err_pct: dict = field(default_factory=dict)
    #: Outputs kept for the correctness checks.
    outputs: dict = field(default_factory=dict)

    @property
    def work_s(self):
        return self.wall_s - self.prep_s

    @property
    def work_ref(self):
        return self.wall_ref - self.prep_ref


def _workload(name, n_instructions, seed, scale):
    """A materialized synthetic workload (the trace builds on first use)."""
    return benchmark_spec(name).workload(
        n_instructions=n_instructions, seed=seed, scale=scale)


def _finite_positive(value):
    return math.isfinite(value) and value > 0


def _signature(result):
    """Everything a strategy result reports, as a comparable value."""
    return (
        result.cpi, result.mpki, result.wall_seconds,
        sorted(result.meter.ledger.seconds_by_category.items()),
        [(region.index, region.n_instructions,
          sorted(region.stats.counts.items()), region.timing.total_cycles)
         for region in result.regions],
    )


def _cpi_error_pct(results):
    """Mean absolute CPI error vs SMARTS per strategy, in percent, over
    ``{(benchmark, strategy): result}``."""
    errors = {}
    for (name, strategy), result in results.items():
        if strategy != "SMARTS":
            reference = results[name, "SMARTS"].cpi
            errors.setdefault(strategy, []).append(
                100.0 * abs(result.cpi - reference) / reference)
    return {strategy: sum(values) / len(values)
            for strategy, values in errors.items()}


# -- batch-quick ------------------------------------------------------------

@dataclass(frozen=True)
class BatchSize:
    names: tuple
    n_instructions: int
    n_regions: int


class BatchQuick:
    """Four strategies over the quick set, offline, store off."""

    name = "batch-quick"
    sizes = {
        "full": BatchSize(tuple(QUICK_NAMES), 6_000_000, 10),
        "tiny": BatchSize(("mcf",), 300_000, 2),
    }

    def __init__(self, seed, size, workdir):
        self.seed = int(seed)
        self.workdir = workdir
        spec = self.sizes[size]
        self.config = ExperimentConfig(
            n_instructions=spec.n_instructions, n_regions=spec.n_regions,
            seed=self.seed, names=spec.names)

    def prepare(self):
        """Nothing to precompute: every check is local to its pass."""

    def setup(self):
        type(self)(self.seed, "tiny", self.workdir).run_pass()

    def run_pass(self, tracer=NULL):
        config = self.config
        plan = config.plan()
        hierarchy = paper_hierarchy(config.llc_paper_bytes,
                                    scale=config.footprint_scale)
        clock = Clock()
        prep = 0.0
        accesses = 0
        op_seconds = []
        prep_laps = []
        op_laps = []
        strategy_s = Counter()
        results = {}
        region_accesses = {}
        clock.begin_pass()
        with tracer.span("pass"):
            for name in config.names:
                start = time.perf_counter()
                workload = _workload(name, config.n_instructions,
                                     config.seed, config.footprint_scale)
                trace = workload.trace
                index = TraceIndex(trace)
                context = ExecutionContext(workload, index=index,
                                           seed=config.seed)
                took = time.perf_counter() - start
                prep += took
                prep_laps.append(clock.lap(took))
                for strategy_name, strategy in default_strategies().items():
                    began = time.perf_counter()
                    with tracer.span("op"):
                        results[name, strategy_name] = strategy.run(
                            workload, plan, hierarchy, seed=config.seed,
                            context=context)
                    took = time.perf_counter() - began
                    op_seconds.append(took)
                    op_laps.append(clock.lap(took))
                    strategy_s[strategy_name] += took
                accesses += trace.n_accesses
                region_accesses[name] = [
                    hi - lo for lo, hi in (
                        trace.access_range(spec.region_start,
                                           spec.region_end)
                        for spec in plan.regions())]
                del context, index, trace
                workload.release()
        refs = clock.refs()
        return PassRecord(
            wall_s=prep + sum(op_seconds), prep_s=prep,
            wall_ref=sum(refs), prep_ref=sum(refs[i] for i in prep_laps),
            accesses=accesses, op_seconds=op_seconds,
            op_ref=[refs[i] for i in op_laps], unit_s=clock.unit_s,
            attempted=len(results),
            base={"benchmarks": len(config.names),
                  "regions": len(config.names) * config.n_regions,
                  "strategies": len(strategy_s)},
            strategy_s=dict(strategy_s),
            cpi_err_pct=_cpi_error_pct(results),
            outputs={"results": results, "region_accesses": region_accesses})

    @staticmethod
    def figures(records):
        """Host seconds per million accesses of each strategy, and each
        strategy's CPI error vs SMARTS."""
        last = records[-1]
        lines = [
            (f"s_per_maccess.{strategy}",
             statistics.median(r.strategy_s[strategy] / (r.accesses / 1e6)
                               for r in records), "s",
             f"per 1M of {last.accesses} accesses, "
             f"{last.base['regions']} regions")
            for strategy in last.strategy_s]
        lines += [
            (f"cpi_err_pct.{strategy}", error, "%",
             f"mean over {last.base['benchmarks']} benchmarks vs SMARTS")
            for strategy, error in last.cpi_err_pct.items()]
        return lines

    @staticmethod
    def check(record):
        """``(op, message)`` per failed check: each region's outcome
        counts sum to its access count, and every CPI is finite and
        positive."""
        failures = []
        region_accesses = record.outputs["region_accesses"]
        for (name, strategy), result in record.outputs["results"].items():
            op = f"{name}/{strategy}"
            expected = region_accesses[name]
            if len(result.regions) != len(expected):
                failures.append((op, f"{len(result.regions)} regions, "
                                     f"plan has {len(expected)}"))
            for region, n_accesses in zip(result.regions, expected):
                total = sum(region.stats.counts.values())
                if total != n_accesses:
                    failures.append((op, f"region {region.index}: outcomes "
                                         f"sum to {total}, region has "
                                         f"{n_accesses} accesses"))
                if not _finite_positive(region.cpi):
                    failures.append((op, f"region {region.index}: CPI "
                                         f"{region.cpi}"))
            if not _finite_positive(result.cpi):
                failures.append((op, f"CPI {result.cpi}"))
        return failures


# -- dse-sweep ----------------------------------------------------------------

@dataclass(frozen=True)
class DseSize:
    names: tuple
    n_instructions: int
    n_regions: int
    llc_paper_bytes: tuple


class DseSweep:
    """A cold LLC sweep, then the same sweep replayed from the store."""

    name = "dse-sweep"
    sizes = {
        "full": DseSize(FIG14_NAMES, 6_000_000, 10,
                        ExperimentConfig().sweep_llc_paper_bytes),
        "tiny": DseSize(("lbm",), 300_000, 2,
                        (1 * MIB, 8 * MIB, 512 * MIB)),
    }

    def __init__(self, seed, size, workdir):
        self.seed = int(seed)
        self.workdir = workdir
        self.spec = self.sizes[size]
        self.config = ExperimentConfig(
            n_instructions=self.spec.n_instructions,
            n_regions=self.spec.n_regions, seed=self.seed,
            sweep_llc_paper_bytes=self.spec.llc_paper_bytes,
            names=self.spec.names)

    def prepare(self):
        """Nothing to precompute: the cold sweep is the reference."""

    def setup(self):
        type(self)(self.seed, "tiny", self.workdir).run_pass()

    def run_pass(self, tracer=NULL):
        config = self.config
        plan = config.plan()
        configs = [paper_hierarchy(size, scale=config.footprint_scale)
                   for size in config.sweep_llc_paper_bytes]
        clock = Clock()
        prep = 0.0
        accesses = 0
        sweep_seconds = []
        prep_laps = []
        sweep_laps = []
        sweeps = []
        clock.begin_pass()
        store_root = tempfile.mkdtemp(prefix="dse-store-", dir=self.workdir)
        try:
            with tracer.span("pass"):
                for name in config.names:
                    start = time.perf_counter()
                    workload = _workload(name, config.n_instructions,
                                         config.seed,
                                         config.footprint_scale)
                    trace = workload.trace
                    index = TraceIndex(trace)
                    took = time.perf_counter() - start
                    prep += took
                    prep_laps.append(clock.lap(took))
                    reports = []
                    for _ in ("cold", "replay"):
                        # A fresh store object has an empty memory tier,
                        # so the replay reads its bundle from disk.
                        store = ArtifactStore(root=store_root, enabled=True)
                        context = ExecutionContext(
                            workload, index=index, store=store,
                            seed=config.seed)
                        began = time.perf_counter()
                        with tracer.span("op"):
                            reports.append(DesignSpaceExploration().run(
                                workload, plan, configs, seed=config.seed,
                                context=context))
                        took = time.perf_counter() - began
                        sweep_seconds.append(took)
                        sweep_laps.append(clock.lap(took))
                    accesses += trace.n_accesses
                    # ``store`` is the replay's: its hits are disk reads.
                    sweeps.append((name, *reports, store.disk_hits))
                    del context, index, trace
                    workload.release()
        finally:
            shutil.rmtree(store_root, ignore_errors=True)
        refs = clock.refs()
        n_configs = len(configs)
        # Every configuration of a sweep costs the same share of it: the
        # Analysts of one sweep run interleaved, region by region.
        return PassRecord(
            wall_s=prep + sum(sweep_seconds), prep_s=prep,
            wall_ref=sum(refs), prep_ref=sum(refs[i] for i in prep_laps),
            accesses=accesses,
            op_seconds=[s / n_configs for s in sweep_seconds],
            op_ref=[refs[i] / n_configs for i in sweep_laps],
            unit_s=clock.unit_s,
            attempted=2 * len(configs) * len(config.names),
            base={"benchmarks": len(config.names), "configs": len(configs),
                  "sweeps": 2 * len(config.names),
                  "regions": config.n_regions},
            outputs={"sweeps": sweeps})

    @staticmethod
    def figures(records):
        """Host seconds per LLC configuration over both sweeps."""
        last = records[-1]
        return [("dse.s_per_config",
                 statistics.median(r.work_s / r.attempted for r in records),
                 "s", f"{last.base['configs']} configs x "
                      f"{last.base['sweeps']} sweeps, "
                      f"{last.accesses} accesses")]

    @staticmethod
    def check(record):
        """``(op, message)`` per failed check: the replayed sweep read
        its warm-up from the store and is bit-identical to the cold
        sweep for each configuration."""
        failures = []
        for name, cold, replay, replay_hits in record.outputs["sweeps"]:
            if len(cold.results) != len(replay.results):
                failures.append((f"{name}/replay",
                                 "sweeps have different config counts"))
            for k, (a, b) in enumerate(zip(cold.results, replay.results)):
                op = f"{name}/replay/config{k}"
                if replay_hits == 0:
                    failures.append((op, "warm-up was not read from the "
                                         "store"))
                elif _signature(a) != _signature(b):
                    failures.append((op, "replayed result differs from "
                                         "the cold sweep"))
        return failures


# -- live-feed ----------------------------------------------------------------

@dataclass(frozen=True)
class LiveSize:
    name: str
    gap_instructions: int
    watermarks: int


class LiveFeed:
    """All four strategies refined per watermark over a generated feed."""

    name = "live-feed"
    sizes = {
        "full": LiveSize("mcf", 600_000, 12),
        "tiny": LiveSize("mcf", 150_000, 2),
    }

    def __init__(self, seed, size, workdir):
        self.seed = int(seed)
        self.workdir = workdir
        self.spec = self.sizes[size]
        self.config = ExperimentConfig(
            n_instructions=self.spec.watermarks * self.spec.gap_instructions,
            n_regions=self.spec.watermarks, seed=self.seed,
            names=(self.spec.name,))
        self.hierarchy = paper_hierarchy(
            self.config.llc_paper_bytes, scale=self.config.footprint_scale)
        #: Batch CPI per strategy over the whole feed (see prepare()).
        self.reference = None

    def _source(self):
        return _workload(self.spec.name, self.config.n_instructions,
                         self.seed, self.config.footprint_scale)

    def prepare(self):
        """Run every strategy from scratch on the whole feed, as batch:
        the final watermark must match these CPIs exactly."""
        source = self._source()
        prefix = PrefixWorkload(source.trace, seed=self.seed)
        plan = self.config.plan()
        self.reference = {
            name: strategy.run(prefix, plan, self.hierarchy,
                               seed=self.seed).cpi
            for name, strategy in default_strategies().items()}
        source.release()

    def setup(self):
        type(self)(self.seed, "tiny", self.workdir).run_pass()

    def run_pass(self, tracer=NULL):
        spec = self.spec
        clock = Clock()
        produced = Counter()
        latencies = []
        final = None
        feed_dir = tempfile.mkdtemp(prefix="live-", dir=self.workdir)
        try:
            store = ArtifactStore(root=os.path.join(feed_dir, "store"),
                                  enabled=True)
            runner = LiveRunner(
                spec.gap_instructions, self.hierarchy, name=spec.name,
                seed=self.seed, store=store, spill_dir=feed_dir,
                footprint_scale=self.config.footprint_scale)
            try:
                chunks = timed_iter(tracer, "trace.generate",
                                    workload_chunks(self._source()),
                                    produced)
                clock.begin_pass()
                with tracer.span("pass"):
                    feed = runner.feed(chunks)
                    while True:
                        began = time.perf_counter()
                        with tracer.span("op"):
                            watermark = next(feed, None)
                        if watermark is None:
                            break
                        took = time.perf_counter() - began
                        latencies.append(took)
                        clock.lap(took)
                        final = watermark
                accesses = runner.builder.n_accesses
                plan = runner.plan_for(spec.watermarks)
            finally:
                runner.close()
        finally:
            shutil.rmtree(feed_dir, ignore_errors=True)
        refs = clock.refs()
        return PassRecord(
            wall_s=sum(latencies), prep_s=produced["trace.generate"],
            wall_ref=sum(refs),
            prep_ref=produced["trace.generate"] / clock.unit_s,
            accesses=accesses, op_seconds=latencies, op_ref=refs,
            unit_s=clock.unit_s,
            attempted=spec.watermarks,
            base={"watermarks": len(latencies),
                  "gap_instructions": spec.gap_instructions,
                  "strategies": len(final.results) if final else 0},
            outputs={"final": final, "plan": plan})

    @staticmethod
    def figures(records):
        """The median watermark latency, with its sample count."""
        samples = [s for r in records for s in r.op_seconds]
        return [("watermark_s.p50", statistics.median(samples), "s",
                 f"{len(samples)} watermarks, max {max(samples):.4f} s")]

    def check(self, record):
        """``(op, message)`` per failed check: the feed reached every
        watermark, and each strategy's CPI at the last one equals the
        batch run on the same prefix."""
        final = record.outputs["final"]
        op = f"watermark {self.spec.watermarks}"
        if final is None or final.watermark != self.spec.watermarks:
            return [(op, "feed ended before the last watermark")]
        if record.outputs["plan"] != self.config.plan():
            return [(op, "live plan differs from the batch plan")]
        failures = []
        for name, cpi in self.reference.items():
            live = final.results[name].cpi if name in final.results else None
            if live != cpi:
                failures.append((op, f"{name} CPI {live} != batch {cpi}"))
        return failures


WORKLOADS = {cls.name: cls for cls in (BatchQuick, DseSweep, LiveFeed)}
