"""Watermark-equivalence differential harness for live feeds.

The contract under test: at *every* watermark, the incremental
estimates a :class:`~repro.live.runner.LiveRunner` produces over an
unbounded feed are **bit-identical** to a from-scratch batch run of the
same strategy over the same prefix — for all four strategies, all
three index spill modes, and degenerate chunkings (one instruction per
chunk, one chunk bigger than the whole feed).  The kernel-backend axis
comes from the pytest session pin (``--backend``): CI runs this file
under scalar and native.

Bounded-RSS checks ride in a child process: the live path's transient
heap must stay far below a materialized batch build while the feed
grows by millions of accesses.
"""

import io
import multiprocessing
import os
import resource
import time

import numpy as np
import pytest

from conftest import make_small_workload

from repro.caches.hierarchy import paper_hierarchy
from repro.core.context import ExecutionContext
from repro.core.delorean import DeLorean
from repro.core.explorer import DEFAULT_EXPLORERS
from repro.core.warmup import WarmupPipeline
from repro.live import (
    LiveRunner,
    PrefixWorkload,
    chunk_trace,
    prefix_trace,
    read_frames,
    split_chunk,
    write_frame,
)
from repro.live import artifacts
from repro.live.runner import default_strategies
from repro.sampling.plan import SamplingPlan
from repro.store import ArtifactStore
from repro.trace.engines import (
    MultiWorkingSetEngine,
    SequentialEngine,
    UniformWorkingSetEngine,
    WorkingSetComponent,
)
from repro.trace.phases import PhaseSpec
from repro.trace.record import trace_from_chunks
from repro.trace.stream import generate_chunks
from repro.traceio.container import trace_fingerprint
from repro.vff.costmodel import CostMeter

SEED = 7
GAP = 40_000
TAIL = 5_000
N_WATERMARKS = 2
CHUNK = 9_001          # deliberately straddles every watermark boundary
HIERARCHY = paper_hierarchy()


def _identity(result):
    """Byte-level identity of a StrategyResult (same as the stream
    harness): any drift in stats, timing, ledgers or extras shows."""
    return (result.cpi, result.mpki, result.total_seconds,
            repr(sorted(result.extras.items())),
            [(repr(sorted(r.stats.counts.items())),
              r.timing.total_cycles) for r in result.regions])


def _batch_identities(trace, watermark, plan_kwargs=None,
                      strategies=None):
    """Fresh from-scratch batch runs over the exact watermark prefix."""
    kwargs = dict(region_instructions=10_000, warming_instructions=30_000)
    kwargs.update(plan_kwargs or {})
    gap = kwargs.pop("gap", GAP)
    plan = SamplingPlan(n_instructions=watermark * gap,
                        n_regions=watermark, **kwargs)
    prefix = prefix_trace(trace, watermark * gap)
    out = {}
    for name, strategy in (strategies or default_strategies()).items():
        workload = PrefixWorkload(prefix, seed=SEED)
        out[name] = _identity(strategy.run(workload, plan, HIERARCHY,
                                           seed=SEED))
    return out


@pytest.fixture(scope="module")
def full_trace():
    return make_small_workload(
        n_instructions=N_WATERMARKS * GAP + TAIL, name="small",
        seed=3).trace


@pytest.fixture(scope="module")
def batch_reference(full_trace):
    """identity[(watermark, strategy)] from from-scratch batch runs.

    Computed once: the existing stream-equivalence suite already pins
    batch results invariant across spill modes and backends, so one
    reference serves every live configuration.
    """
    reference = {}
    for watermark in range(1, N_WATERMARKS + 1):
        for name, ident in _batch_identities(full_trace,
                                             watermark).items():
            reference[(watermark, name)] = ident
    return reference


class TestWatermarkEquivalence:
    """Live incremental == from-scratch batch, at every watermark."""

    @pytest.mark.parametrize("spill_mode", ["auto", "always", "never"])
    def test_live_matches_batch_at_every_watermark(
            self, spill_mode, tmp_path, monkeypatch, full_trace,
            batch_reference):
        monkeypatch.setenv("REPRO_INDEX_SPILL", spill_mode)
        store = ArtifactStore(root=tmp_path / "cache", enabled=True)
        with LiveRunner(GAP, HIERARCHY, name="small", seed=SEED,
                        store=store, spill=spill_mode) as runner:
            watermarks = runner.run(chunk_trace(full_trace, CHUNK))
        assert [w.watermark for w in watermarks] == [1, 2]
        for w in watermarks:
            # The snapshot is the exact instruction-aligned prefix,
            # regardless of where the producer cut its chunks.
            assert w.instructions == w.watermark * GAP
            assert w.content_fp == trace_fingerprint(
                prefix_trace(full_trace, w.instructions))
            for name in default_strategies():
                assert (_identity(w.results[name])
                        == batch_reference[(w.watermark, name)]), \
                    (spill_mode, w.watermark, name)

    def test_scout_only_delorean_matches_batch(self, full_trace):
        """DeLorean without Explorers (no Explorer coverage) refines
        live bit-identically to its batch prefix runs."""
        def strategies():
            return {"DeLorean": DeLorean(explorer_specs=())}

        with LiveRunner(GAP, HIERARCHY, name="small", seed=SEED,
                        strategies=strategies()) as runner:
            watermarks = runner.run(chunk_trace(full_trace, CHUNK))
        assert [w.watermark for w in watermarks] == [1, 2]
        for w in watermarks:
            reference = _batch_identities(full_trace, w.watermark,
                                          strategies=strategies())
            assert w.results["DeLorean"].extras["resolved_by_explorer"] \
                == []
            assert _identity(w.results["DeLorean"]) == \
                reference["DeLorean"], w.watermark

    def test_plans_nest_across_watermarks(self, tmp_path, full_trace):
        with LiveRunner(GAP, HIERARCHY, name="small", seed=SEED) \
                as runner:
            watermarks = runner.run(chunk_trace(full_trace, CHUNK))
        first, second = (w.plan for w in watermarks)
        assert second.regions()[:1] == first.regions()
        assert second.scale == first.scale
        assert second.footprint_scale == first.footprint_scale

    def test_results_snapshot_survives_refinement(self, full_trace):
        """A watermark's results must not mutate when later regions
        refine the shared run-state (meters are snapshotted)."""
        with LiveRunner(GAP, HIERARCHY, name="small", seed=SEED) \
                as runner:
            watermarks = runner.run(chunk_trace(full_trace, CHUNK))
            early = {name: _identity(result)
                     for name, result in watermarks[0].results.items()}
        for name, ident in early.items():
            assert _identity(watermarks[0].results[name]) == ident


def _bundle_fields(bundle):
    """Every field of a warm-up bundle, as comparable plain values."""
    regions = [
        (region.key_lines.tolist(), region.key_distances.tolist(),
         region.vicinity_distances.tolist(),
         region.vicinity_weights.tolist(), region.vicinity_cold,
         region.stage_seconds, region.n_warming_resolved,
         region.n_unresolved, region.engaged, region.resolved_by,
         region.true_stops, region.false_stops)
        for region in bundle.regions]
    return (regions, bundle.pass_categories, bundle.sampler_paper,
            bundle.sampler_model)


class TestWarmupBundleEquivalence:
    """The bundle live publishes == the bundle a batch run records."""

    def test_published_bundle_matches_batch_record(self, tmp_path,
                                                   full_trace):
        store = ArtifactStore(root=tmp_path / "live", enabled=True)
        with LiveRunner(GAP, HIERARCHY, name="small", seed=SEED,
                        store=store,
                        strategies={"DeLorean": DeLorean()}) as runner:
            watermarks = runner.run(chunk_trace(full_trace, CHUNK))
            lineage = runner.lineage
        assert [w.watermark for w in watermarks] == [1, 2]
        for w in watermarks:
            published = store.load(artifacts.live_key(
                "warmup", lineage, w.watermark, w.content_fp,
                strategy="DeLorean"))
            assert published is not None
            assert len(published.regions) == w.watermark

            batch_store = ArtifactStore(
                root=tmp_path / f"batch{w.watermark}", enabled=True)
            plan = SamplingPlan(n_instructions=w.instructions,
                                n_regions=w.watermark,
                                region_instructions=10_000,
                                warming_instructions=30_000)
            workload = PrefixWorkload(
                prefix_trace(full_trace, w.instructions), seed=SEED)
            strategy = DeLorean()
            strategy.run(workload, plan, HIERARCHY, seed=SEED,
                         store=batch_store)
            # A pipeline with the batch run's key reads its record back.
            recorded = WarmupPipeline(
                "delorean-vicinity",
                ExecutionContext(workload, seed=SEED, store=batch_store),
                plan, strategy.explorer_specs, strategy.vicinity_density,
                CostMeter(scale=plan.scale)).bundle
            assert recorded is not None
            assert _bundle_fields(published) == _bundle_fields(recorded), \
                w.watermark


TINY_GAP = 1_000
TINY_PLAN = {"gap": TINY_GAP, "region_instructions": 500,
             "warming_instructions": 600}


class TestChunkingEdges:
    """chunk=1 and chunk > n must be unobservable in every watermark."""

    @pytest.fixture(scope="class")
    def tiny_trace(self):
        return make_small_workload(
            n_instructions=2 * TINY_GAP + 300, name="tiny", seed=3,
            hot_lines=16, cold_lines=64).trace

    @pytest.fixture(scope="class")
    def tiny_reference(self, tiny_trace):
        return {
            (watermark, name): ident
            for watermark in (1, 2)
            for name, ident in _batch_identities(
                tiny_trace, watermark, TINY_PLAN).items()}

    @pytest.mark.parametrize("chunk", [1, 317, 1 << 30],
                             ids=["one-instr", "straddling", "gt-n"])
    def test_chunking_is_unobservable(self, chunk, tiny_trace,
                                      tiny_reference):
        with LiveRunner(TINY_GAP, HIERARCHY, name="tiny", seed=SEED,
                        region_instructions=500,
                        warming_instructions=600) as runner:
            watermarks = runner.run(chunk_trace(tiny_trace, chunk))
        assert [w.watermark for w in watermarks] == [1, 2]
        for w in watermarks:
            assert w.content_fp == trace_fingerprint(
                prefix_trace(tiny_trace, w.instructions))
            for name in default_strategies():
                assert (_identity(w.results[name])
                        == tiny_reference[(w.watermark, name)]), \
                    (chunk, w.watermark, name)


class TestFeedFraming:
    """The pipe wire format and chunk surgery."""

    def _chunks(self, trace, size=700):
        return list(chunk_trace(trace, size))

    def test_frame_roundtrip(self, full_trace):
        chunks = self._chunks(full_trace)
        buffer = io.BytesIO()
        for chunk in chunks:
            write_frame(buffer, chunk)
        buffer.seek(0)
        back = list(read_frames(buffer))
        rebuilt = trace_from_chunks(back, name=full_trace.name)
        assert trace_fingerprint(rebuilt) == trace_fingerprint(full_trace)

    def test_torn_frame_is_loud(self, full_trace):
        buffer = io.BytesIO()
        for chunk in self._chunks(full_trace)[:2]:
            write_frame(buffer, chunk)
        torn = io.BytesIO(buffer.getvalue()[:-7])
        with pytest.raises(EOFError):
            list(read_frames(torn))

    def test_torn_header_is_loud(self, full_trace):
        buffer = io.BytesIO()
        write_frame(buffer, self._chunks(full_trace)[0])
        torn = io.BytesIO(buffer.getvalue() + b"RLF1\x00")
        with pytest.raises(EOFError):
            list(read_frames(torn))

    def test_bad_magic_is_loud(self):
        with pytest.raises(ValueError):
            list(read_frames(io.BytesIO(b"NOPE" + b"\x00" * 8)))

    def test_empty_feed_is_clean_eof(self):
        assert list(read_frames(io.BytesIO(b""))) == []

    def test_split_chunk_reassembles(self, full_trace):
        rng = np.random.default_rng(11)
        for chunk in self._chunks(full_trace, 4_000)[:5]:
            edges = rng.integers(chunk.instr_lo - 5, chunk.instr_hi + 5,
                                 size=6)
            pieces = split_chunk(chunk, edges)
            assert pieces[0].instr_lo == chunk.instr_lo
            assert pieces[-1].instr_hi == chunk.instr_hi
            for left, right in zip(pieces[:-1], pieces[1:]):
                assert left.instr_hi == right.instr_lo
            for column in ("kind", "mem_instr", "mem_line", "mem_pc",
                           "mem_store", "branch_instr", "branch_mispred"):
                rebuilt = np.concatenate(
                    [getattr(piece, column) for piece in pieces])
                assert np.array_equal(rebuilt, getattr(chunk, column)), \
                    column


class TestWatermarkArtifacts:
    """Watermark-versioned publication and superseded reclamation."""

    def test_label_roundtrip(self):
        lineage = "ab" * 32
        label = artifacts.live_label("result", lineage, 7)
        assert artifacts.parse_live_label(label) == ("result",
                                                     lineage[:12], 7)
        assert artifacts.parse_live_label("warm-bundle") is None
        assert artifacts.parse_live_label(None) is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            artifacts.live_key("bogus", "ab" * 32, 1, "cd" * 32)

    def test_strategy_options_separate_lineages(self, tmp_path,
                                                full_trace):
        """Runners differing only in a strategy's options never share
        store keys: each stored result loads back as its own run's."""
        store = ArtifactStore(root=tmp_path / "cache", enabled=True)
        runs = []
        for explorers in (DEFAULT_EXPLORERS, DEFAULT_EXPLORERS[:1]):
            with LiveRunner(GAP, HIERARCHY, name="small", seed=SEED,
                            store=store, spill="never",
                            strategies={"DeLorean": DeLorean(
                                explorer_specs=explorers)}) as runner:
                runs.append((runner.lineage, runner.run(
                    chunk_trace(full_trace, CHUNK))))
        assert runs[0][0] != runs[1][0]
        assert (_identity(runs[0][1][-1].results["DeLorean"])
                != _identity(runs[1][1][-1].results["DeLorean"]))
        for lineage, watermarks in runs:
            for w in watermarks:
                loaded = store.load(artifacts.live_key(
                    "result", lineage, w.watermark, w.content_fp,
                    strategy="DeLorean"))
                assert loaded is not None
                assert _identity(loaded) == \
                    _identity(w.results["DeLorean"]), w.watermark

    def test_publish_and_supersede(self, tmp_path, full_trace):
        store = ArtifactStore(root=tmp_path / "cache", enabled=True)
        with LiveRunner(GAP, HIERARCHY, name="small", seed=SEED,
                        store=store, spill="always",
                        strategies={"SMARTS":
                                    default_strategies()["SMARTS"]}) \
                as runner:
            watermarks = runner.run(chunk_trace(full_trace, CHUNK))
            lineage = runner.lineage
        # Every watermark published its result...
        for w in watermarks:
            key = artifacts.live_key("result", lineage, w.watermark,
                                     w.content_fp, strategy="SMARTS")
            loaded = store.load(key)
            assert loaded is not None
            assert _identity(loaded) == _identity(w.results["SMARTS"])
        census = artifacts.watermark_census(store)
        assert {kind for kind, _ in census} == {"result"}
        for entries in census.values():
            assert sorted(wm for wm, _, _ in entries) == [1, 2]
        # ...and the sweep keeps exactly the top watermark per lineage.
        removed, reclaimed = artifacts.sweep_superseded(store)
        assert removed == 1 and reclaimed > 0
        for entries in artifacts.watermark_census(store).values():
            assert [wm for wm, _, _ in entries] == [2]
        # Idempotent once clean.
        assert artifacts.sweep_superseded(store) == (0, 0)
        # The surviving result still loads.
        top = watermarks[-1]
        assert store.load(artifacts.live_key(
            "result", lineage, top.watermark, top.content_fp,
            strategy="SMARTS")) is not None

    def test_spilled_epochs_stay_in_the_builder(self, tmp_path, full_trace):
        """With a store and ``spill="always"`` every watermark's index is
        mapped from the builder's spill, never published: the store
        holds results and warm-up bundles only.  The builder's scratch
        holds the live segments' positions and the two live columns,
        no successors copy: the epoch's successors are the live column
        itself."""
        store = ArtifactStore(root=tmp_path / "cache", enabled=True)
        with LiveRunner(GAP, HIERARCHY, name="small", seed=SEED,
                        store=store, spill="always") as runner:
            for w in runner.feed(chunk_trace(full_trace, CHUNK)):
                index = runner.context.index
                assert index.mapped, w.watermark
                assert "index" not in w.published, w.published
                scratch = list((tmp_path / "cache").glob("live-index-*"))
                assert len(scratch) == 1
                # Merged like a binary counter: one whole-prefix segment
                # at watermarks 1 and 2.
                segment = f"segment0-{index.trace.n_accesses}"
                assert sorted(path.name for path in scratch[0].iterdir()) \
                    == ["lines_succ.bin", "pages_rank.bin",
                        f"{segment}-lines_positions.npy",
                        f"{segment}-pages_positions.npy"]
                assert index.build_stats.n_segments == 1
                assert index.lines.successors.filename == str(
                    scratch[0] / "lines_succ.bin")
        census = artifacts.watermark_census(store)
        assert {kind for kind, _ in census} == {"result", "warmup"}
        assert not list((tmp_path / "cache").glob("live-*"))


# -- bounded RSS over an unbounded feed ---------------------------------------
#
# Child processes (spawn) so every configuration starts from a clean
# slate; deadline handling is deterministic — the parent polls the
# queue with a generous per-poll timeout and only fails once the child
# is actually dead, never on a slow-CI stopwatch.

RSS_GAP = 625_000
RSS_WATERMARKS = 4
RSS_CHUNK = 1 << 17
RSS_MEM_FRACTION = 0.4


def _peak_rss_kb():
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _rss_phases(n_instructions):
    arena = np.arange(1 << 15, dtype=np.int64) + (1 << 16)
    engine = MultiWorkingSetEngine([
        WorkingSetComponent(
            UniformWorkingSetEngine(arena[:2048], n_pcs=24), 0.7),
        WorkingSetComponent(SequentialEngine(arena[2048:], n_pcs=8),
                            0.3, pc_base=24),
    ])
    return [PhaseSpec("big", n_instructions, engine,
                      mem_fraction=RSS_MEM_FRACTION,
                      branch_fraction=0.1)]


def _child_live(queue, workdir, n_watermarks):
    import tracemalloc

    # Seal transients are O(REPRO_INDEX_CHUNK); the default (1 << 20
    # accesses) exceeds this feed, which would make them O(feed) here
    # and mask the bound the sublinear check is after.
    os.environ["REPRO_INDEX_CHUNK"] = str(1 << 17)
    tracemalloc.start()
    store = ArtifactStore(root=os.path.join(workdir, "cache"),
                          enabled=True)
    n_instructions = n_watermarks * RSS_GAP
    with LiveRunner(RSS_GAP, HIERARCHY, name="rss-live", seed=5,
                    store=store, spill="always") as runner:
        watermarks = runner.run(generate_chunks(
            _rss_phases(n_instructions), seed=5, name="rss-live",
            chunk_instructions=RSS_CHUNK))
        queue.put({
            "heap_peak": tracemalloc.get_traced_memory()[1],
            "rss_kb": _peak_rss_kb(),
            "watermarks": [w.watermark for w in watermarks],
            "n_accesses": runner.workload._cell.value.n_accesses,
            "cpi": {name: result.cpi
                    for name, result in watermarks[-1].results.items()},
        })


def _child_batch(queue, workdir, n_watermarks):
    import tracemalloc

    from repro.trace.phases import build_trace

    tracemalloc.start()
    n_instructions = n_watermarks * RSS_GAP
    trace = build_trace(_rss_phases(n_instructions), seed=5,
                        name="rss-live")
    plan = SamplingPlan(n_instructions=n_instructions,
                        n_regions=n_watermarks)
    cpi = {}
    for name, strategy in default_strategies().items():
        workload = PrefixWorkload(trace, seed=5)
        cpi[name] = strategy.run(workload, plan, HIERARCHY, seed=5).cpi
    queue.put({
        "heap_peak": tracemalloc.get_traced_memory()[1],
        "rss_kb": _peak_rss_kb(),
        "n_accesses": trace.n_accesses,
        "cpi": cpi,
    })


#: Hard ceiling for one measurement child (the slowest takes ~25s on an
#: unloaded machine); a child that blows it is killed and reported
#: loudly instead of hanging the suite.
MEASURE_DEADLINE_SECONDS = 540


def _measure(target, workdir, *args):
    context = multiprocessing.get_context("spawn")
    queue = context.Queue()
    process = context.Process(target=target,
                              args=(queue, str(workdir)) + args)
    process.start()
    deadline = time.monotonic() + MEASURE_DEADLINE_SECONDS
    payload = None
    while payload is None:
        try:
            payload = queue.get(timeout=2.0)
        except Exception:
            if not process.is_alive():
                process.join()
                raise RuntimeError(
                    f"{target.__name__} exited {process.exitcode} "
                    "without a payload") from None
            if time.monotonic() >= deadline:
                process.kill()
                process.join()
                raise RuntimeError(
                    f"{target.__name__} still running after "
                    f"{MEASURE_DEADLINE_SECONDS}s; killed") from None
    process.join()
    assert process.exitcode == 0, target.__name__
    return payload


@pytest.mark.slow
class TestBoundedRSSLive:
    """The live path's transient heap stays bounded while the feed
    grows without bound (≥1M accesses; the acceptance fixture)."""

    def test_live_heap_bounded_vs_batch(self, tmp_path):
        live = _measure(_child_live, tmp_path / "live", RSS_WATERMARKS)
        batch = _measure(_child_batch, tmp_path / "batch",
                         RSS_WATERMARKS)
        assert live["watermarks"] == list(range(1, RSS_WATERMARKS + 1))
        assert live["n_accesses"] == batch["n_accesses"]
        assert live["n_accesses"] >= 900_000
        # Same estimates out of both paths...
        assert live["cpi"] == batch["cpi"]
        # ...with the live transient heap far below the materialized
        # batch build (which holds trace + index tables in RAM at once).
        assert live["heap_peak"] < batch["heap_peak"] / 2, (live, batch)

    def test_live_heap_sublinear_in_feed_length(self, tmp_path):
        short = _measure(_child_live, tmp_path / "short", 2)
        long = _measure(_child_live, tmp_path / "long", 4)
        assert long["n_accesses"] >= 2 * 0.95 * short["n_accesses"]
        # Doubling the feed must not come close to doubling the heap:
        # transients are O(chunk + unique keys), not O(feed).
        assert long["heap_peak"] < short["heap_peak"] * 1.5, \
            (short, long)
