"""LiveRunner: incremental strategy refinement over an unbounded feed.

The runner consumes :class:`~repro.trace.record.TraceChunk` windows from
any feed and maintains, with bounded resident memory:

* the full prefix, spilled column-by-column through a
  :class:`~repro.traceio.container.TraceStreamWriter`;
* the live index tables, folded chunk-by-chunk by
  :class:`~repro.vff.index.LiveIndexBuilder`;
* one refinable run-state per attached strategy
  (``Strategy.begin(...)``).

Every time the feed crosses a *watermark* — a whole number of
inter-region gaps — the runner seals an index epoch over the exact
prefix, swaps the workload/index proxies to the new snapshot, refines
each strategy by the regions the prefix just completed, and assembles
per-strategy :class:`~repro.sampling.results.StrategyResult`\\ s for the
watermark's :class:`~repro.sampling.plan.SamplingPlan`.

Two invariants make the estimates bit-identical to a from-scratch batch
run on the same prefix (``tests/test_live_equivalence.py``):

* **boundary alignment** — incoming chunks are split at watermark
  boundaries before anything consumes them, so snapshots cut at exactly
  ``k * gap`` instructions regardless of how the producer chunked the
  feed (chunking must be, and is, unobservable);
* **prefix stability** — every query a strategy issues for region ``j``
  is bounded by region ``j``'s coordinates (dangling watchpoints are
  censored at the region boundary in both paths), so region results
  computed against snapshot ``j`` equal the same region computed
  against any longer prefix.

Machines capture their trace/index at construction, so the runner hands
them long-lived proxies whose target is swapped at each watermark.
"""

from dataclasses import dataclass, field, replace

from repro import telemetry
from repro.core.context import ExecutionContext, index_spill_mode
from repro.live import artifacts
from repro.live.feed import split_chunk
from repro.sampling.plan import (
    PAPER_GAP_INSTRUCTIONS,
    PAPER_REGION_INSTRUCTIONS,
    PAPER_WARMING_INSTRUCTIONS,
    SamplingPlan,
)
from repro.store.fingerprint import fingerprint_arrays
from repro.trace.record import Trace
from repro.trace.spec import DEFAULT_SCALE
from repro.traceio.container import TraceStreamWriter
from repro.vff.index import LiveIndexBuilder


def default_strategies():
    """Fresh instances of all four paper strategies, by name."""
    from repro.core.delorean import DeLorean
    from repro.core.naive import NaiveDirectedWarming
    from repro.sampling.coolsim import CoolSim
    from repro.sampling.smarts import Smarts

    return {
        "SMARTS": Smarts(),
        "CoolSim": CoolSim(),
        "DeLorean": DeLorean(),
        "NaiveDSW": NaiveDirectedWarming(),
    }


class _Cell:
    """Mutable holder for the current prefix snapshot."""

    __slots__ = ("value",)

    def __init__(self, value=None):
        self.value = value


class SnapshotProxy:
    """Transparent delegate to whatever snapshot the cell holds now.

    Machines, watchpoint engines and samplers capture their trace/index
    once at construction; handing them this proxy lets the runner swap
    in each watermark's sealed snapshot underneath them.
    """

    __slots__ = ("_cell",)

    def __init__(self, cell):
        object.__setattr__(self, "_cell", cell)

    def __getattr__(self, name):
        target = object.__getattribute__(self, "_cell").value
        if target is None:
            raise RuntimeError(
                "live snapshot not sealed yet (no watermark reached)")
        return getattr(target, name)

    def __repr__(self):
        return f"SnapshotProxy({object.__getattribute__(self, '_cell').value!r})"


class LiveWorkload:
    """The live feed presented as a workload.

    ``name``/``seed`` must match the batch workload they are compared
    against: both feed :func:`~repro.vff.rng.child_rng`, and a
    different name would shift every strategy's RNG stream.
    """

    #: A live feed is by definition streamed, never materialized.
    streaming = True

    def __init__(self, name="live", seed=0):
        self.name = str(name)
        self.seed = int(seed)
        self._cell = _Cell()
        self._proxy = SnapshotProxy(self._cell)

    @property
    def trace(self):
        return self._proxy

    @property
    def trace_fingerprint(self):
        """Content address of the current sealed prefix."""
        trace = self._cell.value
        if trace is None:
            return None
        from repro.traceio.container import trace_fingerprint
        return trace_fingerprint(trace)

    def release(self):
        pass

    def __repr__(self):
        trace = self._cell.value
        state = (f"{trace.n_instructions} instructions sealed"
                 if trace is not None else "no watermark yet")
        return f"LiveWorkload({self.name!r}, {state})"


class PrefixWorkload:
    """A fully materialized feed prefix, presented as a workload.

    The differential harness runs from-scratch batch strategies over
    this to pin the incremental path; ``name``/``seed`` mirror the live
    run's so both draw identical RNG streams.
    """

    streaming = False

    def __init__(self, trace, seed=0):
        self._trace = trace
        self.name = trace.name
        self.seed = int(seed)

    @property
    def trace(self):
        return self._trace

    def release(self):
        pass


@dataclass
class LiveWatermark:
    """Everything one watermark produced."""

    watermark: int                  # completed gaps
    instructions: int               # == watermark * gap
    content_fp: str                 # prefix content fingerprint
    plan: SamplingPlan
    results: dict                   # strategy name -> StrategyResult
    published: dict = field(default_factory=dict)  # kind[:name] -> digest

    def summary(self):
        return {
            "watermark": self.watermark,
            "instructions": self.instructions,
            "content_fp": self.content_fp,
            "results": {name: result.summary()
                        for name, result in self.results.items()},
        }


class LiveRunner:
    """Consume a live feed; refine strategies at every watermark."""

    def __init__(self, gap_instructions, hierarchy_config, strategies=None,
                 name="live", seed=0, store=None, spill=None,
                 region_instructions=PAPER_REGION_INSTRUCTIONS,
                 warming_instructions=PAPER_WARMING_INSTRUCTIONS,
                 paper_gap_instructions=PAPER_GAP_INSTRUCTIONS,
                 footprint_scale=DEFAULT_SCALE, spill_dir=None):
        self.gap_instructions = int(gap_instructions)
        self.hierarchy_config = hierarchy_config
        self.strategies = dict(strategies if strategies is not None
                               else default_strategies())
        # One gap's plan, which every watermark's plan repeats; building
        # it validates the geometry (the gap must cover region + detailed
        # warming) before the feed starts.
        self._gap_plan = SamplingPlan(
            n_instructions=self.gap_instructions, n_regions=1,
            region_instructions=int(region_instructions),
            warming_instructions=int(warming_instructions),
            paper_gap_instructions=int(paper_gap_instructions),
            footprint_scale=float(footprint_scale))

        self.workload = LiveWorkload(name=name, seed=seed)
        self._index_cell = _Cell()
        self.store = store
        self.context = ExecutionContext(
            self.workload, index=SnapshotProxy(self._index_cell),
            store=store, seed=seed)

        mode = spill if spill is not None else index_spill_mode()
        # A streaming workload: "auto" and "always" spill beside an
        # enabled store, "never" keeps the index tables on the heap.
        index_dir = None
        if store is not None and store.enabled and mode != "never":
            index_dir = spill_dir if spill_dir is not None else store.root
        self.writer = TraceStreamWriter(spill_dir=spill_dir)
        self.builder = LiveIndexBuilder(index_dir)
        self.lineage = artifacts.live_lineage(
            self.workload.name, self.workload.seed, self._gap_plan,
            hierarchy_config, self.strategies)
        self.runs = None
        self.watermark = 0
        self._n_refined = 0

    # -- plan geometry -------------------------------------------------------

    def plan_for(self, watermark):
        """The sampling plan of the ``watermark * gap`` prefix.

        Same-gap plans nest: plan ``k``'s regions are the first ``k``
        regions of any larger plan, and the paper-projection ``scale``
        is watermark-invariant — which is what lets run-state carried
        across watermarks serve every plan along the way.
        """
        watermark = int(watermark)
        if watermark <= 0:
            raise ValueError("watermark must be positive")
        return replace(self._gap_plan,
                       n_instructions=watermark * self.gap_instructions,
                       n_regions=watermark)

    # -- feeding -------------------------------------------------------------

    def feed(self, chunks):
        """Consume ``chunks``; yield a :class:`LiveWatermark` at every
        completed gap boundary (feed tail beyond the last boundary is
        absorbed and waits for the next one)."""
        gap = self.gap_instructions
        for chunk in chunks:
            if chunk.instr_hi == chunk.instr_lo:
                continue
            edges = range(((chunk.instr_lo // gap) + 1) * gap,
                          chunk.instr_hi, gap)
            for piece in split_chunk(chunk, edges):
                self.writer.append(piece)
                self.builder.append(piece)
                telemetry.counter("live.chunks")
                if piece.instr_hi % gap == 0:
                    yield self._advance(piece.instr_hi // gap)

    def run(self, chunks):
        """Drain the feed; the list of all watermarks reached."""
        with telemetry.span("phase.live", rss=True,
                            benchmark=self.workload.name):
            return list(self.feed(chunks))

    # -- watermark machinery -------------------------------------------------

    def _advance(self, watermark):
        with telemetry.span("phase.live.watermark", rss=True,
                            benchmark=self.workload.name):
            views = dict(self.writer.snapshot_views())
            content_fp = fingerprint_arrays(views)
            trace = Trace(name=self.workload.name, **views)
            index = self.builder.seal(trace)
            self.workload._cell.value = trace
            self._index_cell.value = index

            plan = self.plan_for(watermark)
            if self.runs is None:
                self.runs = {
                    name: strategy.begin(self.context, plan,
                                         self.hierarchy_config)
                    for name, strategy in self.strategies.items()}
            for spec in plan.regions()[self._n_refined:]:
                for run in self.runs.values():
                    run.refine(spec)
                self._n_refined += 1
            results = {name: run.result(plan)
                       for name, run in self.runs.items()}
            self.watermark = watermark
            telemetry.counter("live.watermarks")

            published = self._publish(watermark, content_fp, results)
        return LiveWatermark(
            watermark=watermark,
            instructions=watermark * self.gap_instructions,
            content_fp=content_fp,
            plan=plan,
            results=results,
            published=published,
        )

    def _publish(self, watermark, content_fp, results):
        published = {}
        if self.store is None or not self.store.enabled:
            return published
        for name, result in results.items():
            digest = self.store.save(
                artifacts.live_key("result", self.lineage, watermark,
                                   content_fp, strategy=name),
                result,
                label=artifacts.live_label("result", self.lineage,
                                           watermark))
            if digest is not None:
                published[f"result:{name}"] = digest
        for name, run in self.runs.items():
            bundle = getattr(run, "bundle", None)
            if bundle is None:
                continue
            digest = self.store.save(
                artifacts.live_key("warmup", self.lineage, watermark,
                                   content_fp, strategy=name),
                bundle(),
                label=artifacts.live_label("warmup", self.lineage,
                                           watermark))
            if digest is not None:
                published[f"warmup:{name}"] = digest
        return published

    # -- lifecycle -----------------------------------------------------------

    def close(self):
        """Release spill files and mapped views."""
        self._index_cell.value = None
        self.workload._cell.value = None
        self.builder.close()
        self.writer.close()
        self.context.release()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
