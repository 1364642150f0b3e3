"""Kernel-equivalence property tests: native backend vs. scalar reference.

Every compiled kernel and every numpy batch path that engages under the
native backend must be *bit-identical* to the per-access scalar
implementation: hits, misses, distances, per-access masks, final cache
state, classifier outcomes and side-band state (MSHR, stride detector,
predictor call sequence).  Randomized traces come from all the address
engines in :mod:`repro.trace.engines`, and caches cover LRU and the
non-LRU policies (which share one code path — the dispatch must hand
them to it unchanged under either backend).  The loader tests build the
extension in child processes against a private cache root.
"""

import itertools
import json
import os
import subprocess
import sys
import sysconfig
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.caches.cache import CacheConfig, SetAssocCache
from repro.caches.hierarchy import CacheHierarchy, HierarchyConfig
from repro.caches.stack import (
    reuse_and_stack_distances,
    reuse_and_stack_distances_scalar,
)
from repro.caches.stats import (
    HIT_WARMING,
    LABELS,
    MISS_CAPACITY,
    MISS_COLD,
)
from repro.core.coherence import (
    CacheTopology,
    KeyAccessOrigin,
    ThreadAwareCapacityPredictor,
)
from repro.core.warming import COLD_DISTANCE, DirectedCapacityPredictor
from repro.kernels import native
from repro.caches.hierarchy import paper_hierarchy
from repro.sampling.classify import RegionFrontEnd, WarmingClassifier
from repro.sampling.coolsim import CoolSim
from repro.sampling.plan import SamplingPlan
from repro.statmodel.assoc import StrideDetector
from repro.statmodel.histogram import ReuseHistogram
from repro.trace.engines import (
    MultiWorkingSetEngine,
    PointerChaseEngine,
    SequentialEngine,
    StridedEngine,
    UniformWorkingSetEngine,
    WorkingSetComponent,
)
from repro.util.units import CACHELINE_SHIFT, PAGE_SHIFT
from repro.vff.index import TraceIndex
from repro.vff.watchpoint import WatchpointEngine
from tests.conftest import make_small_workload
from tests.test_record import make_trace


def engine_traces(seed, n):
    """One line stream per address-engine family, ``n`` accesses each."""
    rng = np.random.default_rng(seed)
    arena = np.arange(400, dtype=np.int64) + (1 << 20)
    uniform = UniformWorkingSetEngine(arena[:96], n_pcs=4)
    zipf = UniformWorkingSetEngine(arena[:200], n_pcs=4, zipf_a=0.8)
    sequential = SequentialEngine(arena[:128])
    strided = StridedEngine(arena[:256], stride_lines=8)
    chase = PointerChaseEngine(arena[:160], np.random.default_rng(seed + 1))
    mixture = MultiWorkingSetEngine([
        WorkingSetComponent(UniformWorkingSetEngine(arena[:64]), 0.6),
        WorkingSetComponent(SequentialEngine(arena[64:320]), 0.4,
                            pc_base=8),
    ])
    for engine in (uniform, zipf, sequential, strided, chase, mixture):
        lines, pcs = engine.generate(rng, n)
        yield type(engine).__name__, lines, pcs


def scalar_reference_warm(config, pre, lines):
    """Per-access reference run returning (cache, hits, mask, occupancy)."""
    cache = SetAssocCache(config)
    cache.warm_scalar(pre)
    cache.hits = cache.misses = 0
    mask = np.zeros(len(lines), dtype=bool)
    occupancy = np.zeros(len(lines), dtype=np.int64)
    for i, line in enumerate(lines.tolist()):
        occupancy[i] = cache.set_occupancy(line)
        mask[i] = cache.access(line)
    return cache, cache.hits, mask, occupancy


class TestWarmKernel:
    @pytest.mark.parametrize("assoc,n_sets", [(1, 4), (2, 8), (4, 4),
                                              (8, 16), (16, 2)])
    def test_bit_identical_across_engines(self, assoc, n_sets):
        config = CacheConfig(n_sets * assoc * 64, assoc=assoc)
        for name, lines, _ in engine_traces(seed=assoc * 97 + n_sets, n=600):
            pre = lines[:150]
            batch = lines[150:]
            ref, ref_hits, ref_mask, ref_occ = scalar_reference_warm(
                config, pre, batch)
            for backend in kernels.BACKENDS:
                with kernels.use_backend(backend):
                    cache = SetAssocCache(config)
                    cache.warm_scalar(pre)
                    hits, mask, occ = cache.warm_profile(batch)
                assert hits == ref_hits, (name, backend)
                assert np.array_equal(mask, ref_mask), (name, backend)
                assert np.array_equal(occ, ref_occ), (name, backend)
                assert cache._sets == ref._sets, (name, backend)

    def test_randomized_small_cases(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            n_sets = int(rng.choice([1, 2, 4, 8]))
            assoc = int(rng.choice([1, 2, 3, 5, 8]))
            pool = n_sets * assoc * int(rng.integers(1, 5))
            config = CacheConfig(n_sets * assoc * 64, assoc=assoc)
            pre = rng.integers(0, pool, int(rng.integers(0, 80)))
            batch = rng.integers(0, pool, int(rng.integers(0, 300)))
            ref, ref_hits, ref_mask, ref_occ = scalar_reference_warm(
                config, pre, batch)
            for backend in kernels.BACKENDS:
                with kernels.use_backend(backend):
                    cache = SetAssocCache(config)
                    cache.warm_scalar(pre)
                    hits, mask, occ = cache.warm_profile(batch)
                assert (hits, cache._sets) == (ref_hits, ref._sets), backend
                assert np.array_equal(mask, ref_mask), backend
                assert np.array_equal(occ, ref_occ), backend

    def test_dispatch_equivalence_all_policies(self):
        rng = np.random.default_rng(5)
        lines = rng.integers(0, 256, 4000)
        for policy in ("lru", "random", "tree-plru", "nmru"):
            config = CacheConfig(16 * 1024, assoc=4, policy=policy)
            results = {}
            for backend in kernels.BACKENDS:
                with kernels.use_backend(backend):
                    cache = SetAssocCache(config, seed=3)
                    results[backend] = (cache.warm(lines),
                                        sorted(cache.resident_lines()))
            for backend in kernels.BACKENDS:
                assert results[backend] == results["scalar"], (policy,
                                                                backend)

    def test_empty_and_tiny_batches(self):
        config = CacheConfig(1024, assoc=2)
        cache = SetAssocCache(config)
        assert native.warm_lru(cache._sets, np.empty(0, dtype=np.int64),
                               cache._mask, 2) == (0, None, None)
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                cache = SetAssocCache(config)
                assert cache.warm(np.empty(0, dtype=np.int64)) == (0, 0)
                hits, mask, occ = cache.warm_profile(np.asarray([7]))
            assert hits == 0 and not mask[0] and occ[0] == 0, backend
            assert cache._sets[7 & cache._mask] == [7], backend


class TestHierarchyKernel:
    def test_two_phase_matches_interleaved_loop(self):
        config = HierarchyConfig(
            l1d=CacheConfig(2 * 1024, assoc=2),
            l1i=CacheConfig(2 * 1024, assoc=2),
            llc=CacheConfig(16 * 1024, assoc=8),
        )
        for name, lines, _ in engine_traces(seed=23, n=3000):
            counts = {}
            for backend in kernels.BACKENDS:
                with kernels.use_backend(backend):
                    hierarchy = CacheHierarchy(config)
                    counts[backend] = (
                        hierarchy.warm(lines),
                        hierarchy.l1d._sets, hierarchy.llc._sets,
                        hierarchy.l1d.hits, hierarchy.llc.hits,
                    )
            for backend in kernels.BACKENDS:
                assert counts[backend] == counts["scalar"], (name, backend)


def stack_distances_by_backend(lines):
    """``reuse_and_stack_distances`` under every backend."""
    out = {}
    for backend in kernels.BACKENDS:
        with kernels.use_backend(backend):
            out[backend] = reuse_and_stack_distances(lines)
    return out


class TestStackKernel:
    def test_bit_identical_across_engines(self):
        for name, lines, _ in engine_traces(seed=31, n=1200):
            r_ref, s_ref = reuse_and_stack_distances_scalar(lines)
            for backend, (r, s) in stack_distances_by_backend(lines).items():
                assert np.array_equal(r_ref, r), (name, backend)
                assert np.array_equal(s_ref, s), (name, backend)

    def test_randomized_and_edges(self):
        rng = np.random.default_rng(17)
        cases = [np.empty(0, dtype=np.int64), np.asarray([5]),
                 np.asarray([5, 5, 5]), np.arange(130)[::-1].copy()]
        for _ in range(80):
            n = int(rng.integers(0, 400))
            cases.append(rng.integers(0, max(1, int(rng.integers(1, 60))), n))
        for lines in cases:
            r_ref, s_ref = reuse_and_stack_distances_scalar(lines)
            for backend, (r, s) in stack_distances_by_backend(lines).items():
                assert np.array_equal(r_ref, r), backend
                assert np.array_equal(s_ref, s), backend

    def test_dispatch_honours_backend(self):
        lines = np.random.default_rng(0).integers(0, 30, 500)
        with kernels.use_backend("scalar"):
            scalar = reuse_and_stack_distances(lines)
        with kernels.use_backend("native"):
            compiled = reuse_and_stack_distances(lines)
        assert np.array_equal(scalar[1], compiled[1])


def bernoulli_predictor(seed):
    """A stateful RNG predictor: any divergence in the *sequence* of
    predictor calls between backends changes every later draw."""
    rng = np.random.default_rng(seed)

    def predict(pc, line, effective_llc_lines):
        return MISS_CAPACITY if rng.random() < 0.35 else HIT_WARMING

    return predict


def directed_predictor(lines, seed, max_distance=5000):
    """A DSW predictor over the footprint of ``lines``: most lines get a
    reuse distance on either side of the LLC size, some are cold and
    some are not key lines at all (unknown)."""
    rng = np.random.default_rng(seed)
    footprint = np.unique(lines)
    keys = footprint[rng.random(footprint.shape[0]) < 0.9]
    distances = rng.integers(0, max_distance, keys.shape[0])
    distances[rng.random(keys.shape[0]) < 0.1] = COLD_DISTANCE
    vicinity = ReuseHistogram()
    vicinity.add_many(rng.integers(0, 120, 140).tolist())
    for _ in range(60):
        vicinity.add_cold()
    return DirectedCapacityPredictor(
        dict(zip(keys.tolist(), distances.tolist())), vicinity)


#: Capacity predictors the classifier kernels are checked with: a
#: stateful per-call one and the batch-capable DSW one.
PREDICTORS = {
    "bernoulli": lambda lines, seed: bernoulli_predictor(seed),
    "directed": directed_predictor,
}


def classify_traces(seed, n):
    """The engine traces plus a long strided sweep that the warm-up
    window never covers, so its residuals meet the stride-limited
    capacity (and the full-capacity recheck)."""
    yield from engine_traces(seed, n)
    k = np.arange(n, dtype=np.int64)
    yield "StridedSweep", (1 << 20) + 2 * k, np.zeros(n, dtype=np.int64)


def predictor_state(predictor):
    """The DSW predictor's counters (the per-call one has none)."""
    return (getattr(predictor, "lookups", None),
            getattr(predictor, "unknown_lines", None))


def classify_once(lines, pcs, instr, hierarchy_config, mshrs=4,
                  mshr_window=24, seed=0, predictor="bernoulli"):
    classifier = WarmingClassifier(
        hierarchy_config,
        capacity_predictor=PREDICTORS[predictor](lines, seed + 1),
        stride_detector=StrideDetector(),
        mshrs=mshrs, mshr_window=mshr_window, seed=seed)
    classifier.warm_detailed(lines[:400], lines[250:400])
    region = classifier.classify_region(lines[400:], pcs[400:], instr[400:])
    return classifier, region


class TestClassifyKernel:
    HIERARCHY = HierarchyConfig(
        l1d=CacheConfig(1024, assoc=2),
        l1i=CacheConfig(1024, assoc=2),
        llc=CacheConfig(4 * 1024, assoc=4),
    )
    #: An LLC the engines' footprints fit in, so residuals reach the
    #: predictor instead of ending as full-set conflict misses.
    ROOMY = HierarchyConfig(
        l1d=CacheConfig(1024, assoc=2),
        l1i=CacheConfig(1024, assoc=2),
        llc=CacheConfig(64 * 1024, assoc=8),
    )

    def test_bit_identical_across_engines(self):
        for name, lines, pcs in classify_traces(seed=47, n=2400):
            instr = np.arange(lines.shape[0], dtype=np.int64) * 3
            for hierarchy, predictor in itertools.product(
                    (self.HIERARCHY, self.ROOMY), PREDICTORS):
                outputs = {}
                for backend in kernels.BACKENDS:
                    with kernels.use_backend(backend):
                        classifier, region = classify_once(
                            lines, pcs, instr, hierarchy, seed=13,
                            predictor=predictor)
                        assert region.outcomes.dtype == np.int8
                        assert region.stats.total == lines.shape[0] - 400
                        outputs[backend] = (
                            region.stats.counts, region.outcomes.tolist(),
                            region.outcome_instr.tolist(), region.llc_hits,
                            classifier.lukewarm.llc._sets,
                            classifier.lukewarm.l1d._sets,
                            classifier.mshr._outstanding,
                            classifier.stride_detector._deltas,
                            classifier.stride_detector._last_line,
                            predictor_state(classifier.capacity_predictor),
                        )
                for backend in kernels.BACKENDS:
                    assert outputs[backend] == outputs["scalar"], \
                        (name, hierarchy.llc.size_bytes, predictor, backend)

    def test_directed_predictor_covers_every_decision(self):
        """The engine sweep above reaches every DSW branch: warming
        hits, capacity and cold misses, unknown lines, and the
        full-capacity recheck of stride-limited capacity misses."""
        seen = {}
        unknown = extra_lookups = 0
        for name, lines, pcs in classify_traces(seed=47, n=2400):
            instr = np.arange(lines.shape[0], dtype=np.int64) * 3
            classifier, region = classify_once(
                lines, pcs, instr, self.ROOMY, seed=13,
                predictor="directed")
            for outcome, count in region.stats.counts.items():
                seen[outcome] = seen.get(outcome, 0) + count
            predictor = classifier.capacity_predictor
            unknown += predictor.unknown_lines
            # Every call beyond one per predicted outcome is a recheck.
            extra_lookups += predictor.lookups - sum(
                region.stats.counts[LABELS[o]]
                for o in (HIT_WARMING, MISS_CAPACITY, MISS_COLD))
        assert all(seen[LABELS[o]]
                   for o in (HIT_WARMING, MISS_CAPACITY, MISS_COLD))
        assert unknown > 0 and extra_lookups > 0

    def test_mshr_hit_exercises_block_replay(self):
        # Engineer a delayed hit: tiny caches, line 0 misses, its LLC set
        # is flooded within the MSHR window, then 0 returns — non-resident
        # but outstanding, so it must skip the LLC fetch.  In the two-set
        # variant, odd lines after the break land in the other, non-full
        # set, so the DSW predictor is asked about them in the replayed
        # block only (its counters would show a double count).
        one_set = HierarchyConfig(
            l1d=CacheConfig(128, assoc=2),
            l1i=CacheConfig(128, assoc=2),
            llc=CacheConfig(256, assoc=4),
        )
        two_sets = HierarchyConfig(
            l1d=CacheConfig(128, assoc=2),
            l1i=CacheConfig(128, assoc=2),
            llc=CacheConfig(512, assoc=4),
        )
        vicinity = ReuseHistogram()
        vicinity.add_many([0, 1, 1, 2, 3, 5, 8])
        # Line 0 is cold (it allocates an MSHR); 16 is unknown.
        distances = {0: COLD_DISTANCE, 4: 2, 8: 50, 12: 1, 20: 3,
                     2: 1, 6: 2, 1: 2, 3: 40, 5: COLD_DISTANCE}
        cases = [
            (one_set, [0, 4, 8, 12, 16, 0, 4, 20, 0],
             lambda: bernoulli_predictor(2)),
            (one_set, [0, 4, 8, 12, 16, 0, 4, 20, 0],
             lambda: DirectedCapacityPredictor(distances, vicinity)),
            (two_sets, [0, 2, 4, 6, 8, 0, 1, 3, 5, 7, 0],
             lambda: DirectedCapacityPredictor(distances, vicinity)),
        ]

        def make(config, factory, front_end=None):
            return WarmingClassifier(
                config, capacity_predictor=factory(),
                stride_detector=StrideDetector(), mshrs=8, mshr_window=24,
                front_end=front_end)

        def classify(classifier, lines):
            lines = np.asarray(lines, dtype=np.int64)
            region = classifier.classify_region(
                lines, np.zeros(len(lines), dtype=np.int64),
                np.arange(len(lines), dtype=np.int64))
            return (
                region.stats.counts, region.outcomes.tolist(),
                region.outcome_instr.tolist(), region.llc_hits,
                classifier.lukewarm.llc._sets,
                classifier.mshr._outstanding,
                predictor_state(classifier.capacity_predictor),
            )

        for case, (config, lines, factory) in enumerate(cases):
            outputs = {}
            for backend in kernels.BACKENDS:
                with kernels.use_backend(backend):
                    outputs[backend] = classify(make(config, factory), lines)
            assert outputs["scalar"][0]["mshr_hit"] >= 1, case
            for backend in kernels.BACKENDS:
                assert outputs[backend] == outputs["scalar"], \
                    (case, backend)

        # Both LLCs sit behind one L1, so one front end can serve both
        # classifications of a region, as it serves a DSE sweep.  The
        # warming fills the L1 and, through its misses, seeds the LLC;
        # both classifiers warm before either classifies, so a front end
        # that re-warmed its L1 would feed the second LLC nothing.
        assert one_set.l1d == two_sets.l1d
        directed = cases[1][2]
        warming = np.asarray([30, 31], dtype=np.int64)
        for _, lines, _ in cases[1:]:
            for backend in kernels.BACKENDS:
                with kernels.use_backend(backend):
                    front = RegionFrontEnd(SetAssocCache(one_set.l1d),
                                           StrideDetector())
                    runs = {}
                    for label, front_end in (("shared", front),
                                             ("unshared", None)):
                        classifiers = [make(config, directed, front_end)
                                       for config in (one_set, two_sets)]
                        for classifier in classifiers:
                            classifier.warm_detailed(warming)
                        runs[label] = [classify(classifier, lines)
                                       for classifier in classifiers]
                assert runs["shared"] == runs["unshared"], (lines, backend)
                assert all(out[0]["mshr_hit"] >= 1 for out in runs["shared"])

    def test_warm_detailed_tail_split(self):
        # The former dead-conditional path: an empty LLC tail must warm
        # the L1 with the whole window and leave the LLC untouched.
        classifier = WarmingClassifier(
            self.HIERARCHY, capacity_predictor=bernoulli_predictor(0))
        window = np.arange(64, dtype=np.int64)
        classifier.warm_detailed(window, window[:0])
        assert classifier.lukewarm.l1d.hits + classifier.lukewarm.l1d.misses \
            == 64
        assert classifier.lukewarm.llc.hits == 0
        assert classifier.lukewarm.llc.misses == 0


class TestWatchpointKernel:
    def test_profile_window_matches_scalar(self):
        workload = make_small_workload(seed=8, n_instructions=40_000)
        index = TraceIndex(workload.trace)
        engine = WatchpointEngine(index)
        rng = np.random.default_rng(2)
        n_accesses = workload.trace.n_accesses
        for _ in range(20):
            lo = int(rng.integers(0, n_accesses - 1))
            hi = int(rng.integers(lo, n_accesses))
            watched = rng.choice(workload.trace.mem_line, size=40)
            watched = np.concatenate((watched, [10**9]))   # never accessed
            profiles = {}
            for backend in kernels.BACKENDS:
                with kernels.use_backend(backend):
                    p = engine.profile_window(watched, lo, hi)
                    profiles[backend] = (p.last_access, p.unresolved,
                                        p.true_stops, p.false_stops)
            for backend in kernels.BACKENDS:
                assert profiles[backend] == profiles["scalar"], backend


class TestExplorerPlanBatch:
    """The Explorer chain's one walk: per region, level by level."""

    def _scouted(self, seed=41, n_instructions=90_000, n_regions=3):
        from repro.core.context import ExecutionContext
        from repro.core.scout import ScoutPass

        workload = make_small_workload(seed=seed,
                                       n_instructions=n_instructions)
        plan = SamplingPlan(n_instructions=n_instructions,
                            n_regions=n_regions)
        index = TraceIndex(workload.trace)
        region_specs = list(plan.regions())
        context = ExecutionContext(workload, index=index)
        scout = ScoutPass(context, context.machine())
        reports = [scout.run_region(spec) for spec in region_specs]
        return workload, index, region_specs, reports

    def test_plan_regions_matches_profile_window_chain(self):
        from repro.core.explorer import DEFAULT_EXPLORERS, ExplorerChain
        from repro.vff.machine import VirtualMachine

        workload, index, region_specs, reports = self._scouted()
        chain = ExplorerChain(
            [VirtualMachine(workload.trace, index=index)
             for _ in DEFAULT_EXPLORERS],
            SamplingPlan(n_instructions=90_000, n_regions=3))
        outputs = {}
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                planned = chain.plan_regions(region_specs, reports)
                # Replay the pending walk with per-level profile_window
                # calls and check each planned profile against it.
                for i, (region_spec, report) in enumerate(
                        zip(region_specs, reports)):
                    pending = sorted(report.unresolved_after_warming)
                    for k, (machine, spec) in enumerate(
                            zip(chain.machines, chain.specs)):
                        if not pending:
                            assert planned[i][k] is None, (backend, i, k)
                            continue
                        lo, hi, _ = chain._window(spec, region_spec,
                                                  machine.trace)
                        ref = machine.watchpoints.profile_window(
                            pending, lo, hi)
                        p = planned[i][k]
                        assert p is not None, (backend, i, k)
                        assert (p.last_access, p.unresolved, p.true_stops,
                                p.false_stops) == \
                            (ref.last_access, ref.unresolved,
                             ref.true_stops, ref.false_stops), \
                            (backend, i, k)
                        pending = list(ref.unresolved)
                outputs[backend] = [
                    [(None if p is None else
                      (p.last_access, p.unresolved, p.true_stops,
                       p.false_stops)) for p in row] for row in planned]
        for backend in kernels.BACKENDS:
            assert outputs[backend] == outputs["scalar"], backend

    def test_delorean_identical_across_backends(self):
        """The Explorer walk is identical on every backend."""
        from repro.core import DeLorean
        from repro.core.context import ExecutionContext

        results = {}
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                workload = make_small_workload(seed=43,
                                               n_instructions=90_000)
                plan = SamplingPlan(n_instructions=90_000, n_regions=3)
                context = ExecutionContext(workload, seed=3)
                r = DeLorean().run(workload, plan,
                                   paper_hierarchy(8 << 20),
                                   context=context)
                results[backend] = (
                    r.cpi, r.mpki, r.total_seconds,
                    repr(sorted(r.extras.items())),
                    [(repr(sorted(reg.stats.counts.items())),
                      reg.timing.total_cycles) for reg in r.regions])
                context.release()
        for backend in kernels.BACKENDS:
            assert results[backend] == results["scalar"], backend

    def test_dse_sweep_identical_across_backends(self):
        """A whole sweep is identical on every backend: on ``native``
        the Analysts with one L1 share each region's front end, on
        ``scalar`` each classifies on its own caches."""
        from repro.core import DesignSpaceExploration
        from repro.core.context import ExecutionContext

        configs = [paper_hierarchy(size << 20, l1_scale=l1_scale)
                   for size in (8, 64) for l1_scale in (0.25, 0.5)]
        reports = {}
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                workload = make_small_workload(seed=43,
                                               n_instructions=90_000)
                plan = SamplingPlan(n_instructions=90_000, n_regions=3)
                context = ExecutionContext(workload, seed=3)
                report = DesignSpaceExploration().run(
                    workload, plan, configs, context=context)
                reports[backend] = (
                    report.wall_seconds, report.core_seconds,
                    report.single_config_core_seconds,
                    repr(sorted(report.extras.items())),
                    [(r.cpi, r.mpki, r.wall_seconds,
                      r.meter.ledger.as_dict(),
                      repr(sorted(r.extras.items())),
                      [(repr(sorted(reg.stats.counts.items())),
                        reg.timing.total_cycles) for reg in r.regions])
                     for r in report.results])
                context.release()
        for backend in kernels.BACKENDS:
            assert reports[backend] == reports["scalar"], backend

    def test_naive_dsw_identical_across_backends(self):
        """Whole-gap vicinity sampling resolves in one batch per region
        on native; every observable equals the per-sample loop's."""
        from repro.core import NaiveDirectedWarming
        from repro.core.context import ExecutionContext

        results = {}
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                workload = make_small_workload(seed=43,
                                               n_instructions=90_000)
                plan = SamplingPlan(n_instructions=90_000, n_regions=3)
                context = ExecutionContext(workload, seed=3)
                r = NaiveDirectedWarming().run(
                    workload, plan, paper_hierarchy(8 << 20),
                    context=context)
                results[backend] = (
                    r.cpi, r.mpki, r.total_seconds,
                    r.meter.ledger.as_dict(),
                    repr(sorted(r.extras.items())),
                    [(repr(sorted(reg.stats.counts.items())),
                      reg.timing.total_cycles, repr(reg.extras))
                     for reg in r.regions])
                context.release()
        for backend in kernels.BACKENDS:
            assert results[backend] == results["scalar"], backend


class TestGapProfileKernel:
    """The batched RSW primitive behind CoolSim's gap profiling."""

    def test_successors_and_ranks_brute_force(self):
        """The lines' successors and the pages' ranks a build makes, on
        every backend, against a per-access walk."""
        for name, lines, _ in engine_traces(seed=71, n=500):
            trace = make_trace(list(range(len(lines))), lines,
                               n_instructions=len(lines))
            last_seen = {}
            seen_count = {}
            expected_succ = np.full(lines.shape[0], -1, dtype=np.int64)
            expected_ranks = np.empty(lines.shape[0], dtype=np.int64)
            for i, line in enumerate(lines.tolist()):
                if line in last_seen:
                    expected_succ[last_seen[line]] = i
                last_seen[line] = i
                page = line >> (PAGE_SHIFT - CACHELINE_SHIFT)
                expected_ranks[i] = seen_count.get(page, 0)
                seen_count[page] = expected_ranks[i] + 1
            for backend in kernels.BACKENDS:
                with kernels.use_backend(backend):
                    index = TraceIndex(trace)
                assert np.array_equal(index.lines.successors,
                                      expected_succ), (name, backend)
                assert np.array_equal(index.pages.ranks,
                                      expected_ranks), (name, backend)

    def test_batch_await_reuse_matches_scalar(self):
        workload = make_small_workload(seed=12, n_instructions=50_000)
        index = TraceIndex(workload.trace)
        engine = WatchpointEngine(index)
        rng = np.random.default_rng(4)
        n_accesses = workload.trace.n_accesses
        for _ in range(25):
            limit = int(rng.integers(1, n_accesses + 1))
            positions = np.sort(rng.integers(0, limit, size=60))
            reuse, stops = engine.await_next_reuse_many(positions, limit)
            for k, pos in enumerate(positions.tolist()):
                line = int(workload.trace.mem_line[pos])
                ref = engine.await_next_reuse(line, pos, limit)
                assert ref == (reuse[k], stops[k]), (limit, pos)

    def test_batch_await_reuse_empty(self):
        workload = make_small_workload(seed=12, n_instructions=40_000)
        index = TraceIndex(workload.trace)
        reuse, stops = index.batch_await_reuse(
            np.empty(0, dtype=np.int64), 100)
        assert reuse.size == 0 and stops.size == 0

    def test_coolsim_gap_profiling_bit_identical(self):
        workload = make_small_workload(seed=3, n_instructions=120_000)
        plan = SamplingPlan(n_instructions=120_000, n_regions=3)
        hierarchy = paper_hierarchy(8 << 20)
        outputs = {}
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                result = CoolSim().run(workload, plan, hierarchy,
                                       index=TraceIndex(workload.trace),
                                       seed=2)
                outputs[backend] = (
                    result.cpi, result.mpki, result.total_seconds,
                    result.extras, result.meter.ledger.as_dict(),
                    [(r.stats.counts, r.timing.total_cycles)
                     for r in result.regions],
                )
        for backend in kernels.BACKENDS:
            assert outputs[backend] == outputs["scalar"], backend


class TestBackendRegistry:
    def test_set_and_restore(self):
        original = kernels.get_backend()
        previous = kernels.set_backend("scalar")
        assert previous == original
        assert kernels.get_backend() == "scalar"
        with kernels.use_backend("native"):
            assert kernels.requested_backend() == "native"
            assert kernels.get_backend() == (
                "native" if kernels.native_available() else "scalar")
        assert kernels.get_backend() == "scalar"
        kernels.set_backend(original)

    def test_rejects_unknown(self):
        # "vector" was the numpy backend; it is an unknown name now.
        for name in ("cuda", "vector"):
            with pytest.raises(ValueError, match="scalar.*native"):
                kernels.set_backend(name)


class TestSmartsRegionKernel:
    """The two-phase SMARTS region path vs. the per-access scalar loop."""

    def _run(self, backend, seed=13):
        from repro.sampling.smarts import Smarts

        workload = make_small_workload(seed=seed, n_instructions=90_000)
        plan = SamplingPlan(n_instructions=90_000, n_regions=4)
        index = TraceIndex(workload.trace)
        with kernels.use_backend(backend):
            return Smarts().run(workload, plan, paper_hierarchy(8 << 20),
                                index=index, seed=2)

    def test_bit_identical_across_backends(self):
        a = self._run("scalar")
        for backend in kernels.BACKENDS:
            b = self._run(backend)
            assert a.cpi == b.cpi and a.mpki == b.mpki, backend
            for left, right in zip(a.regions, b.regions):
                assert left.stats.counts == right.stats.counts
                assert left.timing.total_cycles == right.timing.total_cycles
                assert left.timing.cpi == right.timing.cpi
            assert a.meter.ledger.as_dict() == b.meter.ledger.as_dict()

    def test_region_outcome_streams_identical(self):
        """Outcome/instruction streams — not just the counts.  The
        scalar leg labels cold misses from the set of lines seen, the
        native leg from each line's first access in the index."""
        from repro.caches.stats import MISS_COLD
        from repro.core.context import ExecutionContext
        from repro.sampling.smarts import Smarts

        workload = make_small_workload(seed=17, n_instructions=60_000)
        plan = SamplingPlan(n_instructions=60_000, n_regions=3)
        index = TraceIndex(workload.trace)
        streams = {}
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                context = ExecutionContext(workload, index=index, seed=2)
                strategy = Smarts()
                hierarchy = CacheHierarchy(paper_hierarchy(8 << 20), seed=2)
                seen = set() if backend == "scalar" else None
                records = []
                for spec in plan.regions():
                    gap = context.window(spec.warmup_start,
                                         spec.region_start)
                    if seen is not None:
                        seen.update(
                            np.unique(np.asarray(gap.lines)).tolist())
                    hierarchy.warm(np.asarray(gap.lines))
                    region = context.region_window(spec)
                    if seen is None:
                        classified = strategy._simulate_region_batch(
                            region, hierarchy, index)
                    else:
                        classified = strategy._simulate_region_scalar(
                            region, hierarchy, None, seen)
                    assert classified.outcomes.dtype == np.int8
                    assert (classified.stats.total
                            == np.asarray(region.lines).shape[0])
                    records.append((classified.outcomes.tolist(),
                                    classified.outcome_instr.tolist(),
                                    classified.llc_hits,
                                    classified.stats.counts))
                streams[backend] = records
        # Cold misses after the first region exercise the labels across
        # region boundaries.
        assert any(MISS_COLD in outcomes
                   for outcomes, *_ in streams["scalar"][1:])
        for backend in kernels.BACKENDS:
            assert streams[backend] == streams["scalar"], backend

    def test_regions_must_be_refined_in_order(self):
        from repro.core.context import ExecutionContext
        from repro.sampling.smarts import Smarts

        workload = make_small_workload(seed=17, n_instructions=60_000)
        plan = SamplingPlan(n_instructions=60_000, n_regions=3)
        context = ExecutionContext(workload, seed=2)
        run = Smarts().begin(context, plan, paper_hierarchy(8 << 20))
        first, second, _ = plan.regions()
        with pytest.raises(ValueError, match="in order"):
            run.refine(second)
        run.refine(first)
        run.refine(second)
        context.release()

    def test_prefetcher_falls_back_to_scalar(self):
        """With a prefetcher the batch region path must not engage (and
        results stay backend-independent by falling back)."""
        from repro.sampling.smarts import Smarts

        workload = make_small_workload(seed=19, n_instructions=60_000)
        plan = SamplingPlan(n_instructions=60_000, n_regions=2)
        index = TraceIndex(workload.trace)
        results = {}
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                results[backend] = Smarts(prefetcher=True).run(
                    workload, plan, paper_hierarchy(8 << 20),
                    index=index, seed=2)
        for backend in kernels.BACKENDS:
            assert results[backend].cpi == results["scalar"].cpi, backend
            assert [r.stats.counts for r in results[backend].regions] == \
                [r.stats.counts for r in results["scalar"].regions], backend


class TestScoutVicinityBatch:
    """Batched Scout warming resolution and vicinity sampling vs scalar."""

    def test_scout_reports_identical(self):
        from repro.core.context import ExecutionContext
        from repro.core.scout import ScoutPass

        workload = make_small_workload(seed=23, n_instructions=60_000)
        plan = SamplingPlan(n_instructions=60_000, n_regions=3)
        context = ExecutionContext(workload, index=TraceIndex(workload.trace))
        reports = {}
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                scout = ScoutPass(context, context.machine())
                reports[backend] = [scout.run_region(spec)
                                    for spec in plan.regions()]
        for backend in kernels.BACKENDS:
            for a, b in zip(reports["scalar"], reports[backend]):
                assert a.key_first_access == b.key_first_access, backend
                assert a.warming_resolved == b.warming_resolved, backend
                assert (a.region_access_lo, a.region_access_hi) == \
                    (b.region_access_lo, b.region_access_hi), backend

    def test_vicinity_sampling_identical(self):
        from repro.core.vicinity import VicinitySampler
        from repro.statmodel.histogram import ReuseHistogram
        from repro.vff.machine import VirtualMachine

        workload = make_small_workload(seed=29, n_instructions=60_000)
        index = TraceIndex(workload.trace)
        n_accesses = workload.trace.n_accesses
        outputs = {}
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                machine = VirtualMachine(workload.trace, index=index)
                sampler = VicinitySampler(
                    machine, SamplingPlan(n_instructions=60_000,
                                          n_regions=3),
                    density=2.5e-4, rng=np.random.default_rng(7))
                histogram = ReuseHistogram()
                taken = sampler.sample_window(
                    histogram, n_accesses // 8, n_accesses // 2,
                    (3 * n_accesses) // 4,
                    paper_window_instructions=5e6,
                    model_window_instructions=30_000)
                outputs[backend] = (
                    taken,
                    histogram.state()[0].tolist(),
                    histogram.state()[1].tolist(),
                    histogram.state()[2],
                    machine.meter.ledger.as_dict(),
                    sampler.collected_model,
                    sampler.collected_paper_equivalent,
                )
        for backend in kernels.BACKENDS:
            assert outputs[backend] == outputs["scalar"], backend


requires_native = pytest.mark.skipif(
    not kernels.native_available(),
    reason="the compiled kernel extension cannot be built on this host")


@requires_native
class TestNativeBackend:
    """The compiled backend: direct kernels, dispatch, no bailout."""

    def test_warm_lru_matches_scalar_reference(self):
        for assoc, n_sets in [(1, 4), (2, 8), (4, 4), (8, 16), (16, 2)]:
            config = CacheConfig(n_sets * assoc * 64, assoc=assoc)
            for name, lines, _ in engine_traces(seed=assoc * 53 + n_sets,
                                                n=600):
                pre = lines[:150]
                batch = lines[150:]
                ref, ref_hits, ref_mask, ref_occ = scalar_reference_warm(
                    config, pre, batch)
                nat = SetAssocCache(config)
                nat.warm_scalar(pre)
                hits, mask, occ = native.warm_lru(
                    nat._sets, batch, nat._mask, assoc,
                    want_access_info=True)
                assert hits == ref_hits, name
                assert np.array_equal(mask, ref_mask), name
                assert np.array_equal(occ, ref_occ), name
                assert nat._sets == ref._sets, name

    def test_no_bailout_on_thrash(self):
        """A thrash pattern (every reuse has a long set-local window)
        resolves natively with bit-identical results; the compiled loop
        has no bailout into the scalar path."""
        config = CacheConfig(2048, assoc=2)
        lines = np.tile(np.arange(2048, dtype=np.int64), 5)
        outputs = {}
        for backend in ("scalar", "native"):
            with kernels.use_backend(backend):
                cache = SetAssocCache(config)
                outputs[backend] = (cache.warm(lines), cache._sets)
        assert outputs["native"] == outputs["scalar"]

    def test_stack_distances_match_scalar(self):
        rng = np.random.default_rng(41)
        cases = [np.empty(0, dtype=np.int64), np.asarray([5]),
                 np.asarray([5, 5, 5]), np.arange(130)[::-1].copy()]
        for name, lines, _ in engine_traces(seed=59, n=900):
            cases.append(lines)
        for _ in range(40):
            n = int(rng.integers(0, 400))
            cases.append(rng.integers(0, max(1, int(rng.integers(1, 60))),
                                      n))
        for lines in cases:
            r_ref, s_ref = reuse_and_stack_distances_scalar(lines)
            r_nat, s_nat = native.reuse_and_stack_distances_native(lines)
            assert np.array_equal(r_ref, r_nat)
            assert np.array_equal(s_ref, s_nat)

    def test_hierarchy_fused_loop_counters(self):
        """The fused C loop must update the same counters as the scalar
        interleaved loop — including the per-cache hit/miss tallies."""
        config = HierarchyConfig(
            l1d=CacheConfig(2 * 1024, assoc=2),
            l1i=CacheConfig(2 * 1024, assoc=2),
            llc=CacheConfig(16 * 1024, assoc=8),
        )
        lines = np.random.default_rng(13).integers(0, 700, 5000)
        counts = {}
        for backend in ("scalar", "native"):
            with kernels.use_backend(backend):
                hierarchy = CacheHierarchy(config)
                counts[backend] = (
                    hierarchy.warm(lines),
                    hierarchy.l1d.hits, hierarchy.l1d.misses,
                    hierarchy.llc.hits, hierarchy.llc.misses,
                    hierarchy.l1_hits, hierarchy.llc_hits,
                    hierarchy.mem_misses,
                )
        assert counts["native"] == counts["scalar"]


def thread_aware_predictor(lines, seed):
    """A coherence-aware predictor over the footprint of ``lines``: a
    per-call predictor (no key table) whose remote writers turn some
    accesses into coherence misses."""
    rng = np.random.default_rng(seed)
    footprint = np.unique(lines)
    keys = footprint[rng.random(footprint.shape[0]) < 0.9].tolist()
    distances = rng.integers(0, 400, len(keys))
    distances[rng.random(len(keys)) < 0.1] = COLD_DISTANCE
    writers = rng.integers(-1, 3, len(keys))
    origins = {
        line: KeyAccessOrigin(int(distance),
                              None if writer < 0 else int(writer),
                              bool(rng.random() < 0.5))
        for line, distance, writer in zip(keys, distances.tolist(),
                                          writers.tolist())}
    vicinity = ReuseHistogram()
    vicinity.add_many(rng.integers(0, 40, 60).tolist())
    return ThreadAwareCapacityPredictor(
        origins, vicinity, CacheTopology({0: 0, 1: 0, 2: 1}),
        reader_thread=0)


#: Every kind of predictor the compiled LLC phase meets: the DSW key
#: table (with stack distances around a tiny LLC's size), a stateful
#: per-call draw, and a per-call coherence predictor.
KERNEL_PREDICTORS = {
    "bernoulli": PREDICTORS["bernoulli"],
    "directed": lambda lines, seed: directed_predictor(lines, seed,
                                                       max_distance=60),
    "thread-aware": thread_aware_predictor,
}


def kernel_predictor_state(predictor):
    """Every counter a predictor keeps, wrapped ones included."""
    base = getattr(predictor, "_base", None)
    return (predictor_state(predictor),
            getattr(predictor, "coherence_misses", None),
            getattr(predictor, "constructive_hits", None),
            None if base is None else predictor_state(base))


def classifier_state(classifier):
    """The lukewarm caches, MSHR file and stride detector, in order."""
    llc, mshr = classifier.lukewarm.llc, classifier.mshr
    return (
        [list(entries) for entries in llc._sets], llc.hits, llc.misses,
        classifier.lukewarm.l1d._sets,
        list(mshr._outstanding.items()), mshr.mshr_hits, mshr.allocations,
        mshr.allocation_failures,
        classifier.stride_detector._deltas,
        classifier.stride_detector._last_line,
    )


@requires_native
class TestClassifyLLCKernel:
    """``native.classify_llc``: the vector path's whole LLC phase."""

    @settings(max_examples=200, deadline=None)
    @given(n_sets=st.sampled_from([1, 2, 4]), assoc=st.integers(1, 4),
           mshrs=st.integers(1, 8), window=st.integers(1, 30),
           predictor=st.sampled_from(sorted(KERNEL_PREDICTORS)),
           warm=st.integers(0, 24), stride=st.sampled_from([2, 3, 4]),
           seed=st.integers(0, 2 ** 16), n=st.integers(1, 120))
    def test_matches_scalar_reference(self, n_sets, assoc, mshrs, window,
                                      predictor, warm, stride, seed, n):
        # A full set stays full, so the predictor is asked only while
        # the (barely warmed) LLC fills.  Pc 0 mostly strides, and the
        # detector comes trained on its stride (as CoolSim carries one
        # across regions), so its first misses already meet the
        # stride-limited capacity and the full-capacity recheck.
        rng = np.random.default_rng(seed)
        footprint = int(rng.integers(2, 3 * n_sets * assoc + 6))
        lines = rng.integers(0, footprint, warm + n)
        pcs = np.where(rng.random(lines.shape[0]) < 0.6, 0,
                       rng.integers(1, 3, lines.shape[0]))
        walk = pcs == 0
        lines[walk] = np.arange(np.count_nonzero(walk)) * stride % (
            4 * footprint)
        lines += 1 << 20
        instr = np.arange(lines.shape[0], dtype=np.int64) * 2
        # A one-line L1: nearly every access reaches the LLC.
        hierarchy = HierarchyConfig(
            l1d=CacheConfig(64, assoc=1), l1i=CacheConfig(64, assoc=1),
            llc=CacheConfig(n_sets * assoc * 64, assoc=assoc))
        outputs = {}
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                detector = StrideDetector()
                detector.observe_many(np.zeros(6, dtype=np.int64),
                                      np.arange(6) * stride)
                classifier = WarmingClassifier(
                    hierarchy,
                    capacity_predictor=KERNEL_PREDICTORS[predictor](
                        lines, seed),
                    stride_detector=detector, mshrs=mshrs,
                    mshr_window=window)
                classifier.warm_detailed(lines[:warm])
                region = classifier.classify_region(
                    lines[warm:], pcs[warm:], instr[warm:])
                outputs[backend] = (
                    region.stats.counts, region.outcomes.tolist(),
                    region.outcome_instr.tolist(), region.llc_hits,
                    classifier_state(classifier),
                    kernel_predictor_state(classifier.capacity_predictor),
                )
        assert outputs["native"] == outputs["scalar"]

    def test_one_kernel_call_per_region(self, monkeypatch):
        """A vector-path region's LLC phase is one ``classify_llc``
        call: no LLC warm pass and no MSHR walk."""
        calls = {"classify": 0, "mshr_walk": 0, "llc_warm": 0}
        real_classify, real_warm = native.classify_llc, native.warm_lru

        def classify_spy(*args):
            calls["classify"] += 1
            return real_classify(*args)

        def walk_spy(*args):
            calls["mshr_walk"] += 1
            raise AssertionError("the classifier walked the MSHRs")

        _, lines, pcs = next(engine_traces(seed=3, n=2400))
        instr = np.arange(lines.shape[0], dtype=np.int64)
        with kernels.use_backend("native"):
            classifier = WarmingClassifier(
                TestClassifyKernel.HIERARCHY,
                capacity_predictor=directed_predictor(lines, 1),
                stride_detector=StrideDetector())
            classifier.warm_detailed(lines[:400], lines[250:400])

            def warm_spy(sets, *args, **kwargs):
                calls["llc_warm"] += sets is classifier.lukewarm.llc._sets
                return real_warm(sets, *args, **kwargs)

            monkeypatch.setattr(native, "classify_llc", classify_spy)
            monkeypatch.setattr(native, "mshr_walk", walk_spy)
            monkeypatch.setattr(native, "warm_lru", warm_spy)
            region = classifier.classify_region(lines[400:], pcs[400:],
                                                instr[400:])
        assert region.stats.counts["mshr_hit"] + region.stats.counts[
            "capacity_miss"] > 0
        assert calls == {"classify": 1, "mshr_walk": 0, "llc_warm": 0}

    def test_raising_predictor_leaves_state(self):
        """A predictor that raises mid-region propagates, and the LLC
        sets (their list objects too), its counters and the MSHRs stay
        as they were before the region."""
        rng = np.random.default_rng(5)
        lines = rng.integers(0, 4000, 900) + (1 << 20)
        pcs = np.zeros(lines.shape[0], dtype=np.int64)
        instr = np.arange(lines.shape[0], dtype=np.int64)
        draws = {"left": 40}

        def predict(pc, line, effective_llc_lines):
            draws["left"] -= 1
            if draws["left"] < 0:
                raise RuntimeError("predictor failed")
            return MISS_CAPACITY if line % 3 else HIT_WARMING

        with kernels.use_backend("native"):
            classifier = WarmingClassifier(
                TestClassifyKernel.ROOMY, capacity_predictor=predict,
                stride_detector=StrideDetector(), mshrs=8, mshr_window=400)
            classifier.warm_detailed(lines[:100])
            classifier.classify_region(lines[100:130], pcs[100:130],
                                       instr[100:130])
            assert classifier.mshr.occupancy > 0
            before = classifier_state(classifier)[:8]
            objects = list(classifier.lukewarm.llc._sets)
            with pytest.raises(RuntimeError, match="predictor failed"):
                classifier.classify_region(lines[130:], pcs[130:],
                                           instr[130:])
        assert draws["left"] < 0
        assert classifier_state(classifier)[:8] == before
        assert all(now is then for now, then in
                   zip(classifier.lukewarm.llc._sets, objects))


@requires_native
class TestSetView:
    """The cache kernels decode and write back only the sets their
    batch reaches."""

    #: Garbage no decoder accepts: more lines than the ways, not ints.
    POISON = ("not a line", 1 << 70, None)

    def poisoned(self, sets, reached):
        """Poison every set outside ``reached``; their list objects."""
        lists = {}
        for k in range(len(sets)):
            if k not in reached:
                sets[k] = list(self.POISON)
                lists[k] = sets[k]
        return lists

    def assert_untouched(self, sets, lists):
        for k, entries in lists.items():
            assert sets[k] is entries
            assert entries == list(self.POISON)

    @pytest.mark.parametrize("n_sets", [8, 4096])
    def test_warm_lru_skips_unreached_sets(self, n_sets):
        # 8 sets take the view indexed by set, 4096 the hashed one.
        config = CacheConfig(n_sets * 2 * 64, assoc=2)
        lines = np.asarray([0, 1, 0, n_sets + 1, 2 * n_sets + 1, 1],
                           dtype=np.int64)
        reference = SetAssocCache(config)
        reference.warm_scalar(lines)
        ref_counts = reference.warm_profile(lines[::-1].copy())
        cache = SetAssocCache(config)
        lists = self.poisoned(cache._sets, reached={0, 1})
        with kernels.use_backend("native"):
            cache.warm(lines)
            hits, mask, occupancy = cache.warm_profile(lines[::-1].copy())
        assert (hits, mask.tolist(), occupancy.tolist()) == (
            ref_counts[0], ref_counts[1].tolist(), ref_counts[2].tolist())
        assert cache._sets[:2] == reference._sets[:2]
        self.assert_untouched(cache._sets, lists)

    def test_warm_hierarchy_skips_unreached_sets(self):
        config = HierarchyConfig(
            l1d=CacheConfig(2 * 2 * 64, assoc=2),
            l1i=CacheConfig(2 * 2 * 64, assoc=2),
            llc=CacheConfig(1024 * 4 * 64, assoc=4))
        lines = np.asarray([0, 2, 4, 6, 0, 3, 1024, 2048], dtype=np.int64)
        reference = CacheHierarchy(config)
        with kernels.use_backend("scalar"):
            reference.warm(lines)
        hierarchy = CacheHierarchy(config)
        lists = self.poisoned(hierarchy.llc._sets, reached={0, 2, 3, 4, 6})
        with kernels.use_backend("native"):
            hierarchy.warm(lines)
        assert hierarchy.l1d._sets == reference.l1d._sets
        for k in (0, 2, 3, 4, 6):
            assert hierarchy.llc._sets[k] == reference.llc._sets[k]
        self.assert_untouched(hierarchy.llc._sets, lists)

    def test_classify_llc_skips_unreached_sets(self):
        config = HierarchyConfig(
            l1d=CacheConfig(64, assoc=1), l1i=CacheConfig(64, assoc=1),
            llc=CacheConfig(2048 * 2 * 64, assoc=2))
        lines = np.asarray([5, 7, 5, 2053, 7, 5], dtype=np.int64)
        with kernels.use_backend("native"):
            classifier = WarmingClassifier(
                config, capacity_predictor=bernoulli_predictor(0))
            lists = self.poisoned(classifier.lukewarm.llc._sets,
                                  reached={5, 7})
            region = classifier.classify_region(
                lines, np.zeros(6, dtype=np.int64),
                np.arange(6, dtype=np.int64))
        assert region.stats.total == 6
        self.assert_untouched(classifier.lukewarm.llc._sets, lists)


class TestNativeFallback:
    """An extension that cannot be built degrades to scalar, never an
    error."""

    @pytest.fixture(autouse=True)
    def unavailable(self, monkeypatch):
        monkeypatch.setattr(native, "_resolved", True)
        monkeypatch.setattr(native, "_native", None)
        monkeypatch.setattr(native, "_cause", "NativeBuildError: no cc")
        monkeypatch.setattr(kernels, "_native_fallback_reported", False)

    def test_resolves_to_scalar_with_one_warning(self):
        with kernels.use_backend("native"):
            with pytest.warns(RuntimeWarning,
                              match=r"\(NativeBuildError: no cc\)"):
                assert kernels.get_backend() == "scalar"
            assert kernels.requested_backend() == "native"
            # Warn-once: later resolutions stay silent.
            import warnings as warnings_module
            with warnings_module.catch_warnings():
                warnings_module.simplefilter("error")
                assert kernels.get_backend() == "scalar"

    def test_fallback_counted_in_telemetry(self, monkeypatch, tmp_path):
        from repro import telemetry

        session = telemetry.TelemetrySession(
            "counters", sink_dir=str(tmp_path))
        monkeypatch.setattr(telemetry, "_session", session)
        with kernels.use_backend("native"):
            with pytest.warns(RuntimeWarning):
                kernels.get_backend()
            kernels.get_backend()
        assert session.counters.get("kernel.native.unavailable") == 1

    def test_set_backend_native_never_raises(self, monkeypatch):
        monkeypatch.setattr(kernels, "_native_fallback_reported", True)
        previous = kernels.set_backend("native")
        try:
            assert kernels.get_backend() == "scalar"
            # Dispatch sites keep working on the scalar path.
            cache = SetAssocCache(CacheConfig(1024, assoc=2))
            cache.warm(np.arange(32, dtype=np.int64))
        finally:
            kernels.set_backend(previous)


#: Seconds a child may take to build and probe the extension.
BUILD_WAIT_S = 300

#: Child-process probe: resolve the default backend and report what ran
#: and what telemetry recorded about the build.
PROBE = textwrap.dedent("""
    import json, warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        from repro import kernels, telemetry
        backend = kernels.get_backend()
    session = telemetry.session()
    print(json.dumps({
        "backend": backend,
        "warnings": [str(w.message) for w in caught
                     if w.category is RuntimeWarning],
        "unavailable": session.counters.get("kernel.native.unavailable", 0),
        "built": session.counters.get("kernel.native.built", 0),
        "timed_builds": session.timers.get("kernel.native.build", [0])[0],
    }))
""")


@requires_native
class TestNativeLoader:
    """First-use build of the extension, in child processes that share a
    private cache root and count compiler runs through a logging CC."""

    @pytest.fixture
    def env(self, tmp_path):
        log = tmp_path / "cc.log"
        wrapper = tmp_path / "cc-logged"
        wrapper.write_text(
            "#!/bin/sh\n"
            f"case \" $* \" in *\" -c \"*) echo compile >> '{log}';; esac\n"
            f"exec {sysconfig.get_config_var('CC')} \"$@\"\n")
        wrapper.chmod(0o755)
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(REPRO_CACHE_DIR=str(tmp_path / "cache"), CC=str(wrapper),
                   REPRO_TELEMETRY="counters")
        return env

    @staticmethod
    def compiles(tmp_path):
        log = tmp_path / "cc.log"
        return len(log.read_text().split()) if log.exists() else 0

    @staticmethod
    def kernel_files(env):
        root = os.path.join(env["REPRO_CACHE_DIR"], "kernels")
        return sorted(os.path.relpath(os.path.join(d, f), root)
                      for d, _, files in os.walk(root) for f in files)

    @staticmethod
    def probe(env, script=PROBE):
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=BUILD_WAIT_S)
        return json.loads(out.stdout)

    def test_first_use_builds_one_file(self, env, tmp_path):
        assert self.probe(env) == {"backend": "native", "warnings": [],
                                   "unavailable": 0, "built": 1,
                                   "timed_builds": 1}
        assert self.compiles(tmp_path) == 1
        suffix = sysconfig.get_config_var("EXT_SUFFIX")
        key_dir = os.path.join(env["REPRO_CACHE_DIR"], "kernels",
                               native.build_key())
        assert os.listdir(key_dir) == ["_native" + suffix]
        assert self.kernel_files(env) == sorted([
            os.path.join(native.build_key(), "_native" + suffix),
            native.build_key() + ".lock"])

    def test_second_process_reuses_the_build(self, env, tmp_path):
        self.probe(env)
        files = self.kernel_files(env)
        report = self.probe(env)
        assert (report["backend"], report["built"]) == ("native", 0)
        assert report["timed_builds"] == 0
        assert self.compiles(tmp_path) == 1
        assert self.kernel_files(env) == files

    def test_concurrent_first_use_compiles_once(self, env, tmp_path):
        # Three at once: more than a 2-vCPU host has cores.
        children = [subprocess.Popen([sys.executable, "-c", PROBE], env=env,
                                     stdout=subprocess.PIPE, text=True)
                    for _ in range(3)]
        outputs = [child.communicate(timeout=BUILD_WAIT_S)[0]
                   for child in children]
        assert [child.returncode for child in children] == [0, 0, 0]
        assert [json.loads(out)["backend"] for out in outputs] == \
            ["native"] * 3
        assert self.compiles(tmp_path) == 1

    def test_no_compiler_falls_back_to_scalar(self, env):
        env["CC"] = "false"
        report = self.probe(env)
        assert report["backend"] == "scalar"
        assert (report["unavailable"], report["built"]) == (1, 0)
        [warning] = report["warnings"]
        assert "CompileError" in warning and "'scalar'" in warning
        assert self.kernel_files(env) == []

    def test_new_key_builds_a_new_directory(self, env, tmp_path):
        self.probe(env)
        edited = tmp_path / "_native.c"
        with open(native.SOURCE, "rb") as handle:
            edited.write_bytes(handle.read() + b"\n/* edited */\n")
        script = ("from repro.kernels import native\n"
                  f"native.SOURCE = {str(edited)!r}\n" + PROBE)
        assert self.probe(env, script)["backend"] == "native"
        assert self.compiles(tmp_path) == 2
        keys = {path.split(os.sep)[0] for path in self.kernel_files(env)
                if os.sep in path}
        assert len(keys) == 2 and native.build_key() in keys

    def test_vector_backend_is_rejected(self, env):
        env["REPRO_KERNEL_BACKEND"] = "vector"
        out = subprocess.run([sys.executable, "-c", "import repro.kernels"],
                             env=env, capture_output=True, text=True)
        assert out.returncode != 0
        assert ("REPRO_KERNEL_BACKEND must be one of ('scalar', 'native'), "
                "got 'vector'") in out.stderr
        assert self.kernel_files(env) == []

