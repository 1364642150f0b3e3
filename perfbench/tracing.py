"""Spans and counts recorded from outside the program.

The benchmark never edits the program under test.  In a traced run,
:func:`instrument` replaces selected public methods and functions of the
``repro`` modules with thin wrappers; each call records a span (layer
name, start, end, parent span, pass id) and, where the layer produces
work counts, adds them at the same boundary.  The originals are put back
when the ``with`` block ends, so untraced passes in the same process run
the unmodified code.

Spans stay in memory and are written out once, at the end of the run
(:func:`write_spans`).  A layer's *self* time is its spans' durations
minus the parts covered by their direct child spans.
"""

import contextlib
import functools
import json
import os
import time
from collections import Counter, defaultdict


class NullTracer:
    """Stands in for a tracer in untraced passes: records nothing."""

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, n=1):
        pass


NULL = NullTracer()


class Tracer:
    """In-memory span and count recorder for one benchmark run."""

    def __init__(self):
        #: The pass the next spans belong to (set by the run loop).
        self.run_id = None
        #: ``[name, start, end, parent index, run id]`` per span.
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._open = Counter()

    def begin(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.run_id])
        self._stack.append(index)
        self._open[name] += 1
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        self._open[self.spans[index][0]] -= 1

    def is_open(self, name):
        return self._open[name] > 0

    @contextlib.contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, name, n=1):
        self.counts[name] += n


def timed_iter(tracer, name, iterable, totals):
    """Iterate ``iterable``, timing each step.

    Each ``next()`` is a ``name`` span on ``tracer``; its duration is
    also added to ``totals[name]``, so untraced passes can subtract the
    producer's time without any wrapper inside the program.
    """
    iterator = iter(iterable)
    while True:
        start = time.perf_counter()
        with tracer.span(name):
            try:
                item = next(iterator)
            except StopIteration:
                totals[name] += time.perf_counter() - start
                return
        totals[name] += time.perf_counter() - start
        yield item


def _wrap(tracer, layer, function, after):
    """A wrapper recording one ``layer`` span per outermost call.

    ``layer`` may be a callable of the call's arguments returning the
    layer name.  A call made while the same layer is already open (a
    load that delegates to another load) runs unrecorded, so a layer's
    time is never counted twice.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        name = layer(*args, **kwargs) if callable(layer) else layer
        if tracer.is_open(name):
            return function(*args, **kwargs)
        index = tracer.begin(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(tracer, result, *args, **kwargs)
        return result

    return wrapper


# -- counts recorded at layer boundaries ----------------------------------

def _count_key_lines(tracer, report, *args, **kwargs):
    tracer.count("core.scout.key_lines", report.n_key_lines)


def _count_exploration(tracer, result, chain, region_spec, scout_report,
                       *args, **kwargs):
    tracer.count("core.explorer.engaged", result.engaged)
    tracer.count("core.explorer.stops_true", result.true_stops)
    tracer.count("core.explorer.stops_false", result.false_stops)
    tracer.count("core.explorer.key_lines", scout_report.n_key_lines)
    tracer.count("core.explorer.key_lines_collected",
                 len(result.last_access))


def _count_samples(counter):
    def after(tracer, n_samples, *args, **kwargs):
        tracer.count(counter, int(n_samples))
    return after


#: ``AccessStats`` outcome label -> per-layer counter suffix.
OUTCOMES = {
    "lukewarm_hit": "hit_lukewarm",
    "warming_hit": "hit_warming",
    "mshr_hit": "hit_mshr",
    "capacity_miss": "miss_capacity",
    "cold_miss": "miss_cold",
    "conflict_miss": "miss_conflict",
}


def _count_outcomes(tracer, classified, *args, **kwargs):
    for label, suffix in OUTCOMES.items():
        tracer.count(f"sampling.classify.{suffix}",
                     classified.stats.counts.get(label, 0))
    tracer.count("sampling.classify.residual", len(classified.outcomes))


def _count_lookup(tracer, result, *args, **kwargs):
    tracer.count("store.hits" if result is not None else "store.misses")


def _count_bytes(tracer, path, *args, **kwargs):
    try:
        tracer.count("store.bytes_written", os.path.getsize(path))
    except OSError:
        pass


def _warmup_layer(pipeline, *args, **kwargs):
    return "core.warmup" if pipeline.bundle is None else "core.warmup.replay"


def _patch_table():
    """``(owner, attribute, layer, after)`` for every traced boundary."""
    from repro.core.analyst import AnalystPass
    from repro.core.delorean import DeLoreanRun
    from repro.core.explorer import ExplorerChain
    from repro.core.naive import NaiveDirectedWarmingRun
    from repro.core.scout import ScoutPass
    from repro.core.vicinity import VicinitySampler
    from repro.core.warmup import IncrementalWarmup, WarmupPipeline
    from repro.cpu.interval import IntervalCoreModel
    from repro.live import runner as live_runner
    from repro.sampling.classify import WarmingClassifier
    from repro.sampling.coolsim import CoolSim, CoolSimRun
    from repro.sampling.smarts import SmartsRun
    from repro.store.disk import DiskStore
    from repro.store.store import ArtifactStore
    from repro.trace import phases
    from repro.traceio import container
    from repro.vff.index import LiveIndexBuilder, TraceIndex
    from repro.vff.machine import VirtualMachine
    from repro.vff.watchpoint import WatchpointEngine

    return [
        (phases, "build_trace", "trace.generate", None),
        (TraceIndex, "__init__", "vff.index.build", None),
        (LiveIndexBuilder, "append", "vff.index.append", None),
        (LiveIndexBuilder, "seal", "vff.index.seal", None),
        (VirtualMachine, "functional_warm", "vff.machine.functional_warm",
         None),
        (WatchpointEngine, "profile_window", "vff.watchpoint.profile", None),
        (SmartsRun, "refine", "sampling.smarts.region", None),
        (CoolSimRun, "refine", "sampling.coolsim.region", None),
        (CoolSim, "_profile_gap", "sampling.coolsim.profile_gap",
         _count_samples("sampling.coolsim.samples")),
        (NaiveDirectedWarmingRun, "refine", "core.naive.region", None),
        (DeLoreanRun, "refine", "core.delorean.region", None),
        (WarmupPipeline, "run_all", _warmup_layer, None),
        (IncrementalWarmup, "refine", "core.warmup", None),
        (ScoutPass, "run_region", "core.scout", _count_key_lines),
        (ExplorerChain, "plan_regions", "core.explorer.plan", None),
        (ExplorerChain, "run_region", "core.explorer", _count_exploration),
        (VicinitySampler, "sample_window", "core.vicinity",
         _count_samples("core.vicinity.samples")),
        (AnalystPass, "run_region", "core.analyst", None),
        (WarmingClassifier, "warm_detailed", "sampling.classify.warm", None),
        (WarmingClassifier, "classify_region", "sampling.classify.region",
         _count_outcomes),
        (IntervalCoreModel, "region_timing", "cpu.interval", None),
        (ArtifactStore, "load_digest", "store.load", _count_lookup),
        (ArtifactStore, "load_mapped", "store.load", _count_lookup),
        (ArtifactStore, "save", "store.save", None),
        (ArtifactStore, "save_arrays", "store.save_arrays", None),
        (DiskStore, "_publish", "store.publish", _count_bytes),
        (live_runner, "fingerprint_arrays", "store.fingerprint", None),
        (container, "fingerprint_arrays", "store.fingerprint", None),
        (container.TraceStreamWriter, "append", "traceio.writer.append",
         None),
        (container.TraceStreamWriter, "snapshot_views",
         "traceio.writer.snapshot", None),
    ]


#: Every layer whose time the traced run reports, in report order.
LAYERS = (
    "trace.generate",
    "vff.index.build",
    "vff.index.append",
    "vff.index.seal",
    "vff.machine.functional_warm",
    "vff.watchpoint.profile",
    "sampling.smarts.region",
    "sampling.coolsim.region",
    "sampling.coolsim.profile_gap",
    "core.naive.region",
    "core.delorean.region",
    "core.warmup",
    "core.warmup.replay",
    "core.scout",
    "core.explorer.plan",
    "core.explorer",
    "core.vicinity",
    "core.analyst",
    "sampling.classify.warm",
    "sampling.classify.region",
    "cpu.interval",
    "store.load",
    "store.save",
    "store.save_arrays",
    "store.publish",
    "store.fingerprint",
    "traceio.writer.append",
    "traceio.writer.snapshot",
)


#: Counters the traced run reports besides the per-layer times.
COUNTS = (
    "sampling.coolsim.samples",
    "core.scout.key_lines",
    "core.explorer.engaged",
    "core.explorer.stops_true",
    "core.explorer.stops_false",
    "core.vicinity.samples",
    "sampling.classify.hit_lukewarm",
    "sampling.classify.hit_warming",
    "sampling.classify.hit_mshr",
    "sampling.classify.miss_capacity",
    "sampling.classify.miss_cold",
    "sampling.classify.miss_conflict",
    "sampling.classify.residual",
    "store.hits",
    "store.misses",
    "store.bytes_written",
)

#: Ratios the traced run reports: name -> (numerator, denominator).
RATIOS = {
    "core.explorer.resolved_ratio": ("core.explorer.key_lines_collected",
                                     "core.explorer.key_lines"),
    "store.hit_ratio": ("store.hits", "store.lookups"),
}


@contextlib.contextmanager
def instrument(tracer):
    """Wrap every boundary of :func:`_patch_table` while the block runs."""
    saved = []
    try:
        for owner, attribute, layer, after in _patch_table():
            original = (vars(owner)[attribute] if isinstance(owner, type)
                        else getattr(owner, attribute))
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(tracer, layer, original, after))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def layer_times(spans):
    """``({layer: wall seconds}, {layer: self seconds})`` over ``spans``."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    wall = defaultdict(float)
    own = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        wall[name] += end - start
        own[name] += end - start - covered[index]
    return wall, own


def write_spans(path, tracer, metadata):
    """Write every span and count of ``tracer`` as one JSON document."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    wall, own = layer_times(tracer.spans)
    document = {
        **metadata,
        "spans": [{"name": name, "start": start, "end": end,
                   "parent": parent, "run": run}
                  for name, start, end, parent, run in tracer.spans],
        "counts": dict(tracer.counts),
        "layers": {name: {"wall_s": wall[name], "self_s": own[name]}
                   for name in sorted(wall)},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
