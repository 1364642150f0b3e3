"""The shared Scout + Explorer warm-up: one region loop, with record/replay.

A :class:`~repro.core.delorean.DeLoreanRun` — one DeLorean
configuration or a :class:`~repro.core.dse.DesignSpaceExploration`
sweep over several — spends most of its work in the same place: per
detailed region, a Scout collects the key cachelines and an Explorer
chain collects their reuse distances plus the vicinity distribution.
Everything those passes produce is *microarchitecture-independent*
(Section 3.3) — the cache hierarchy only enters at the Analyst — so the
warm-up products for a workload/plan/seed are reusable across every LLC
configuration of a sweep.

:class:`IncrementalWarmup` is the one region loop: it owns the Scout and
Explorer machines, the shared vicinity RNG, the samplers and the chain,
and advances one region per :meth:`~IncrementalWarmup.refine` call — a
live feed calls it as regions arrive, a batch run calls it over the
whole plan.  :meth:`~IncrementalWarmup.bundle` snapshots the state as a
:class:`WarmupBundle`: per region the key reuse distances, the vicinity
histogram state, the per-pass stage times and the summary statistics,
plus each pass's cost-ledger breakdown and the sampler totals.

:class:`WarmupPipeline` wraps the artifact store around that loop.  On
a miss it refines a fresh :class:`IncrementalWarmup` over the plan's
regions and publishes the bundle; on a hit — the bundle's fingerprint
deliberately excludes the hierarchy — it never builds a machine at all,
and the consumer's results are bit-identical to a recording run's,
because every float that run produced (stage times, ledger categories,
sampler totals) was recorded rather than remodeled.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.core.explorer import ExplorerChain
from repro.core.scout import ScoutPass
from repro.core.vicinity import VicinitySampler
from repro.core.warming import DirectedCapacityPredictor
from repro.sampling.plan import VICINITY_BOOST
from repro.statmodel.histogram import ReuseHistogram
from repro.vff.costmodel import TimeLedger


@dataclass
class RegionWarmup:
    """Everything one region's warm-up passes produced.

    Arrays are stored in the Scout's key order (ascending line id), so a
    replayed predictor iterates identically to a live one.
    """

    #: Key cachelines (Scout order) and their backward reuse distances
    #: (-1 marks a cold line never found in the warm-up interval).
    key_lines: np.ndarray
    key_distances: np.ndarray
    #: Vicinity histogram state (sorted distances, weights, cold mass).
    vicinity_distances: np.ndarray
    vicinity_weights: np.ndarray
    vicinity_cold: float
    #: Summary statistics the strategies aggregate into result extras.
    n_warming_resolved: int
    n_unresolved: int
    engaged: int
    resolved_by: list
    true_stops: int
    false_stops: int
    #: Modeled seconds each warm-up pass (Scout, Explorer-1..N) spent on
    #: this region — the pipeline-schedule stage times.
    stage_seconds: list = field(default_factory=list)

    @property
    def n_key_lines(self):
        return int(self.key_lines.shape[0])

    @property
    def n_key_collected(self):
        """Key lines whose reuse distance was actually found."""
        return int((np.asarray(self.key_distances) >= 0).sum())

    def vicinity_histogram(self):
        return ReuseHistogram.from_state(
            self.vicinity_distances, self.vicinity_weights,
            self.vicinity_cold)

    def predictor(self):
        """The region's DSW capacity predictor, rebuilt from the record.

        Both live and replayed runs construct the predictor from the
        recorded arrays, so the two paths cannot diverge.
        """
        distances = {
            int(line): int(distance)
            for line, distance in zip(self.key_lines.tolist(),
                                      np.asarray(self.key_distances).tolist())
        }
        return DirectedCapacityPredictor(distances,
                                         self.vicinity_histogram())


@dataclass
class WarmupBundle:
    """A full warm-up record: every region plus per-pass cost ledgers."""

    regions: list
    #: Final ``{category: seconds}`` ledger of each warm-up pass, in pass
    #: order (Scout first).
    pass_categories: list
    #: Per-Explorer vicinity sampler totals (sampler order).
    sampler_paper: list
    sampler_model: list

    def stage_times(self):
        """Per-pass lists of per-region stage seconds (Scout first)."""
        return [[region.stage_seconds[k] for region in self.regions]
                for k in range(len(self.pass_categories))]

    def pass_ledgers(self):
        """One :class:`TimeLedger` per warm-up pass, in pass order."""
        ledgers = []
        for categories in self.pass_categories:
            ledger = TimeLedger()
            ledger.seconds_by_category = dict(categories)
            ledgers.append(ledger)
        return ledgers

    @property
    def vicinity_paper(self):
        return sum(self.sampler_paper)

    @property
    def vicinity_model(self):
        return sum(self.sampler_model)


class WarmupPipeline:
    """Record — or replay — the warm-up bundle of a whole plan.

    The pipeline executes on an
    :class:`~repro.core.context.ExecutionContext`: the context supplies
    the trace (possibly memory-mapped), the (possibly spilled) index,
    the artifact store and the seed, so one context threads identically
    through DeLorean (one configuration or a DSE sweep) and the warm-up
    machinery.  The constructor looks the bundle up in the store;
    :meth:`run_all` records it on a miss by refining an
    :class:`IncrementalWarmup` over every region.
    """

    def __init__(self, rng_label, context, plan, explorer_specs,
                 vicinity_density, base_meter):
        self.rng_label = rng_label
        self.context = context
        self.workload = context.workload
        self.plan = plan
        self.explorer_specs = tuple(explorer_specs)
        self.vicinity_density = float(vicinity_density)
        self.base_meter = base_meter
        self.seed = context.seed
        self.store = context.store
        # The address excludes the cache hierarchy on purpose: warm-up
        # products are microarchitecture-independent, so every LLC
        # configuration of a sweep shares one bundle.
        self.key = {
            "artifact": "warmup-bundle",
            "pipeline": rng_label,
            "plan": plan,
            "explorers": list(self.explorer_specs),
            "vicinity_density": self.vicinity_density,
            "vicinity_boost": VICINITY_BOOST,
            "seed": self.seed,
        }
        # Imported traces are addressed purely by content — the registry
        # name is a label, so a rename replays the same bundle.
        # Synthetic keys keep their historical name/seed identity.
        trace_fp = getattr(self.workload, "trace_fingerprint", None)
        if trace_fp is not None:
            self.key["trace_fingerprint"] = trace_fp
        else:
            self.key["workload"] = self.workload.name
            self.key["workload_seed"] = self.workload.seed
        self.bundle = (self.store.load(self.key, label="warmup")
                       if self.store is not None else None)

    def run_all(self):
        """The plan's :class:`WarmupBundle`, replayed or recorded."""
        if self.bundle is None:
            warmup = IncrementalWarmup(
                self.rng_label, self.context, self.explorer_specs,
                self.vicinity_density, self.base_meter, self.plan)
            for spec in self.plan.regions():
                warmup.refine(spec)
            self.bundle = warmup.bundle()
            if self.store is not None:
                self.store.save(self.key, self.bundle, label="warmup")
        return self.bundle


class IncrementalWarmup:
    """The Scout/Explorer region loop, one region per :meth:`refine`.

    Owns the per-pass machines, the shared vicinity RNG, the samplers
    and the Explorer chain.  A live feed refines regions as the feed
    covers them; :meth:`WarmupPipeline.run_all` refines the whole plan
    back to back.  Either way each region is Scouted and then explored
    before the next one starts, so the vicinity samplers consume their
    shared RNG stream strictly region-major, and :meth:`bundle` over a
    prefix of regions equals the bundle a batch run records on that
    prefix.
    """

    def __init__(self, rng_label, context, explorer_specs,
                 vicinity_density, base_meter, plan):
        self.explorer_specs = tuple(explorer_specs)
        self.scout_machine = context.machine(base_meter.fork())
        self.explorer_machines = [context.machine(base_meter.fork())
                                  for _ in self.explorer_specs]
        self.machines = [self.scout_machine] + self.explorer_machines
        rng = context.rng(rng_label)
        self.samplers = [
            VicinitySampler(machine, plan, density=float(vicinity_density),
                            rng=rng)
            for machine in self.explorer_machines]
        self.scout = ScoutPass(context, self.scout_machine)
        self.chain = ExplorerChain(self.explorer_machines, plan,
                                   self.explorer_specs,
                                   vicinity_samplers=self.samplers)
        self.regions = []

    def refine(self, spec):
        """Scout + explore one region; returns its :class:`RegionWarmup`."""
        mark = self.scout_machine.meter.ledger.total_seconds
        report = self.scout.run_region(spec)
        scout_delta = (self.scout_machine.meter.ledger.total_seconds
                       - mark)

        marks = [m.meter.ledger.total_seconds
                 for m in self.explorer_machines]
        vicinity = ReuseHistogram()
        exploration = self.chain.run_region(spec, report, vicinity)
        key_distances = report.key_reuse_distances(exploration.last_access)
        stage_seconds = [scout_delta] + [
            machine.meter.ledger.total_seconds - marks[k]
            for k, machine in enumerate(self.explorer_machines)]

        n_keys = len(key_distances)
        vicinity_distances, vicinity_weights, vicinity_cold = \
            vicinity.state()
        region = RegionWarmup(
            key_lines=np.fromiter(
                key_distances.keys(), np.int64, count=n_keys),
            key_distances=np.fromiter(
                key_distances.values(), np.int64, count=n_keys),
            vicinity_distances=vicinity_distances,
            vicinity_weights=vicinity_weights,
            vicinity_cold=vicinity_cold,
            n_warming_resolved=len(report.warming_resolved),
            n_unresolved=len(exploration.unresolved),
            engaged=exploration.engaged,
            resolved_by=list(exploration.resolved_by),
            true_stops=exploration.true_stops,
            false_stops=exploration.false_stops,
            stage_seconds=stage_seconds,
        )
        self.regions.append(region)
        return region

    def bundle(self):
        """A :class:`WarmupBundle` snapshot of the regions so far."""
        return WarmupBundle(
            regions=list(self.regions),
            pass_categories=[dict(m.meter.ledger.seconds_by_category)
                             for m in self.machines],
            sampler_paper=[s.collected_paper_equivalent
                           for s in self.samplers],
            sampler_model=[s.collected_model for s in self.samplers],
        )
