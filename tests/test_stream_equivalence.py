"""Differential harness for fully streaming workloads.

Locks down the two bounded-memory pipelines this repo grew around the
streaming execution core:

* **chunked synthetic generation** (`repro.trace.stream.generate_chunks`)
  must be bit-identical to the monolithic `build_trace` for any seed,
  phase mix and chunk size — including chunk = 1 and chunk > n;
* **chunk-granular import** (`repro.traceio.ingest`) must produce
  containers bit-identical (content *and* manifest fingerprint) to the
  materialized import path, for every external format and chunk size;
* a **spilled synthetic run** (`SyntheticStreamWorkload` + spilled
  index) must be bit-identical to the materialized run across all four
  strategies and all three `REPRO_INDEX_SPILL` modes;
* peak transient memory of the chunked paths must stay well below the
  materialized builds on a ≥1M-access fixture (child-process
  measurements: tracemalloc heap peak, plus the VmHWM child-RSS
  technique from ``benchmarks/bench_stream.py``).

The whole file runs under both kernel backends via the session-level
``--backend`` pin in ``conftest.py``.  Generation is compared across
backends explicitly: every chunked and isolated-phase case runs on the
numpy generator (``scalar``, the reference) and again on the C draws
(``native``), against the reference's monolithic trace.
"""

import math
import multiprocessing
import os
import resource
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.core import DeLorean, NaiveDirectedWarming
from repro.core.context import ExecutionContext
from repro.caches.hierarchy import paper_hierarchy
from repro.sampling.coolsim import CoolSim
from repro.sampling.plan import SamplingPlan
from repro.sampling.smarts import Smarts
from repro.store import ArtifactStore
from repro.store.fingerprint import fingerprint, fingerprint_arrays
from repro.trace.engines import (
    MultiWorkingSetEngine,
    PointerChaseEngine,
    SequentialEngine,
    StridedEngine,
    UniformWorkingSetEngine,
    WorkingSetComponent,
)
from repro.trace.phases import PhaseSpec, build_trace
from repro.trace.record import trace_from_chunks
from repro.trace.spec import benchmark_spec
from repro.trace.stream import (
    fast_forward_engines,
    generate_chunks,
    generate_phase_chunks,
    workload_chunks,
)
from repro.traceio.container import (
    TraceStreamWriter,
    read_manifest,
    read_trace,
    trace_arrays,
    trace_fingerprint,
    write_trace,
)
from repro.traceio.formats import export_trace, import_trace
from repro.traceio.ingest import import_trace_streamed
from repro.traceio.reader import TraceReader
from repro.util.rng import child_rng

TRACE_FIELDS = ("kind", "mem_instr", "mem_line", "mem_pc", "mem_store",
                "branch_instr", "branch_mispred")


def assert_traces_equal(expected, got):
    for field in TRACE_FIELDS:
        a = np.asarray(getattr(expected, field))
        b = np.asarray(getattr(got, field))
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field


def scalar_trace(phases, seed, name):
    """The numpy generator's monolithic trace: the reference that every
    backend's chunked output must equal."""
    with kernels.use_backend("scalar"):
        return build_trace(phases, seed=seed, name=name)


def require_backend(backend):
    """Skip loudly when ``backend`` is native and cannot be built."""
    if backend == "native" and not kernels.native_available():
        pytest.skip("compiled kernel extension (repro.kernels._native) "
                    "could not be built: "
                    f"{kernels.native.unavailable_cause()}")


def rich_phases(arena_lines=4096, n_a=5_000, n_b=3_000):
    """A phase mix exercising every engine kind, reweighting and an
    empty phase — the hard cases for chunk-size invariance."""
    arena = np.arange(arena_lines, dtype=np.int64) + (1 << 14)
    mixture = MultiWorkingSetEngine([
        WorkingSetComponent(
            UniformWorkingSetEngine(arena[:512], n_pcs=6), 0.45),
        WorkingSetComponent(
            UniformWorkingSetEngine(arena[512:1024], n_pcs=4, zipf_a=1.2),
            0.2, pc_base=6),
        WorkingSetComponent(
            StridedEngine(arena[1024:2048], stride_lines=8, n_pcs=4),
            0.15, pc_base=10),
        WorkingSetComponent(
            PointerChaseEngine(arena[2048:3072], child_rng(9, "perm"),
                               n_pcs=4), 0.1, pc_base=14),
        WorkingSetComponent(
            SequentialEngine(arena[3072:], n_pcs=2), 0.1, pc_base=18),
    ])
    return [
        PhaseSpec("warm", n_a, mixture, mem_fraction=0.4,
                  branch_fraction=0.12, mispredict_rate=0.05),
        PhaseSpec("idle", 0, mixture),
        PhaseSpec("drift", n_b, mixture.reweighted({0: 0.0, 4: 0.5}),
                  mem_fraction=0.3, branch_fraction=0.2,
                  store_fraction=0.55),
    ]


class TestChunkedGeneration:
    """generate_chunks on ``backend`` == the scalar build_trace, bit for
    bit, at every chunk size."""

    backend = "scalar"

    @pytest.fixture(autouse=True)
    def _generation_backend(self):
        require_backend(self.backend)
        with kernels.use_backend(self.backend):
            yield

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("chunk", [1, 313, 5_000, 1 << 20])
    def test_rich_mix_bit_identical(self, seed, chunk):
        reference = scalar_trace(rich_phases(), seed=seed, name="mix")
        got = trace_from_chunks(
            generate_chunks(rich_phases(), seed=seed, name="mix",
                            chunk_instructions=chunk), name="mix")
        assert_traces_equal(reference, got)

    @pytest.mark.parametrize("name", ["povray", "mcf", "bwaves"])
    @pytest.mark.parametrize("chunk", [1_009, 1 << 20])
    def test_spec_benchmarks(self, name, chunk):
        spec = benchmark_spec(name)
        with kernels.use_backend("scalar"):
            reference = spec.workload(n_instructions=40_000, seed=3).trace
        workload = spec.workload(n_instructions=40_000, seed=3)
        got = trace_from_chunks(
            workload_chunks(workload, chunk_instructions=chunk),
            name=name)
        assert_traces_equal(reference, got)

    def test_degenerate_mixes(self):
        arena = np.arange(64, dtype=np.int64)
        engine = UniformWorkingSetEngine(arena, n_pcs=3)
        for phase in (
            PhaseSpec("nomem", 2_000, engine, mem_fraction=0.0,
                      branch_fraction=0.3),
            PhaseSpec("nobranch", 2_000, engine, mem_fraction=0.5,
                      branch_fraction=0.0),
            PhaseSpec("allmem", 2_000, engine, mem_fraction=1.0,
                      branch_fraction=0.0, store_fraction=1.0),
        ):
            reference = scalar_trace([phase], seed=7, name="edge")
            got = trace_from_chunks(
                generate_chunks([phase], seed=7, name="edge",
                                chunk_instructions=173), name="edge")
            assert_traces_equal(reference, got)

    def test_empty_phase_list(self):
        assert list(generate_chunks([], seed=1)) == []
        got = trace_from_chunks(generate_chunks([], seed=1))
        assert got.n_instructions == 0

    def test_seeds_diverge(self):
        a = trace_from_chunks(generate_chunks(rich_phases(), seed=1))
        b = trace_from_chunks(generate_chunks(rich_phases(), seed=2))
        assert not np.array_equal(a.mem_line, b.mem_line)


class TestNativeChunkedGeneration(TestChunkedGeneration):
    """The same cases on the C draws, against the numpy reference."""

    backend = "native"

    def test_native_draws_are_used(self, monkeypatch):
        # The equivalence above must not pass with both sides running
        # numpy: every C entry point of generation is reached.
        calls = {}
        for entry in ("draw_kinds", "count_below", "mixture_choice",
                      "mixture_scatter"):
            original = getattr(kernels.native, entry)

            def spy(*args, _entry=entry, _original=original, **kwargs):
                calls[_entry] = calls.get(_entry, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(kernels.native, entry, spy)
        trace_from_chunks(generate_chunks(rich_phases(), seed=3,
                                          chunk_instructions=1_000))
        assert set(calls) == {"draw_kinds", "count_below",
                              "mixture_choice", "mixture_scatter"}, calls
        # ...and none of them on the reference.
        calls.clear()
        with kernels.use_backend("scalar"):
            trace_from_chunks(generate_chunks(rich_phases(), seed=3,
                                              chunk_instructions=1_000))
        assert calls == {}


def _recipe_phases(draw_params):
    """Two phases over one shared mixture (the second reweighted), from
    Hypothesis-drawn parameters; fresh engines on every call."""
    (fractions, weights, zipf_a, stride, n_a, n_b, nested_weight) = \
        draw_params
    arena = np.arange(3_000, dtype=np.int64) + (1 << 12)
    nested = MultiWorkingSetEngine([
        WorkingSetComponent(
            UniformWorkingSetEngine(arena[2_500:2_600], n_pcs=2),
            nested_weight),
        WorkingSetComponent(SequentialEngine(arena[2_600:2_700], n_pcs=3),
                            1.0, pc_base=2),
    ])
    engines = [
        UniformWorkingSetEngine(arena[:300], n_pcs=5),
        UniformWorkingSetEngine(arena[300:700], n_pcs=3, zipf_a=zipf_a),
        StridedEngine(arena[700:1_600], stride_lines=stride, n_pcs=4,
                      round_robin_pcs=True),
        PointerChaseEngine(arena[1_600:2_000], child_rng(4, "chase"),
                           n_pcs=2),
        UniformWorkingSetEngine(arena[2_000:2_500], n_pcs=2),
        nested,
    ]
    pc_base = np.cumsum([0] + [e.n_pcs for e in engines[:-1]])
    mixture = MultiWorkingSetEngine([
        WorkingSetComponent(engine, weight, pc_base=int(base))
        for engine, weight, base in zip(engines, weights, pc_base)])
    (mem_a, branch_a, store_a, rate_a), (mem_b, branch_b, store_b,
                                         rate_b) = fractions
    return [
        PhaseSpec("a", n_a, mixture, mem_fraction=mem_a,
                  branch_fraction=branch_a, store_fraction=store_a,
                  mispredict_rate=rate_a),
        PhaseSpec("b", n_b, mixture.reweighted({0: 0.0, 4: weights[0]}),
                  mem_fraction=mem_b, branch_fraction=branch_b,
                  store_fraction=store_b, mispredict_rate=rate_b),
    ]


_unit = st.one_of(st.sampled_from([0.0, 1.0]),
                  st.floats(0.0, 1.0, allow_nan=False))


@st.composite
def _phase_fractions(draw):
    mem = draw(_unit)
    branch = draw(st.one_of(st.just(0.0), st.just(1.0 - mem),
                            st.floats(0.0, 1.0 - mem)))
    if mem + branch > 1:                 # 1 - mem rounded up
        branch = 0.0
    return mem, branch, draw(_unit), draw(_unit)


_recipes = st.tuples(
    st.tuples(_phase_fractions(), _phase_fractions()),
    # Weights: zero-weight components included, never all zero in
    # either phase (the second moves component 0's weight to 4).
    st.lists(st.sampled_from([0.0, 0.05, 0.3, 1.0]), min_size=6,
             max_size=6).filter(
        lambda w: sum(w) > 0 and sum(w[1:4]) + w[0] + w[5] > 0),
    st.floats(0.6, 1.6),
    st.sampled_from([1, 3, 8]),
    st.integers(1, 1_500),
    st.integers(0, 1_200),
    st.sampled_from([0.0, 0.4]),
)


@settings(max_examples=30, deadline=None)
@given(params=_recipes, seed=st.integers(0, 2**32 - 1),
       chunk=st.sampled_from([1, 211, 1 << 20]))
def test_native_generation_equals_reference_on_random_recipes(
        params, seed, chunk):
    """Random recipes — fractions at 0 and 1, zero-weight components,
    uniform, Zipf, strided with round-robin PCs, chase and a nested
    mixture, two phases sharing engines through ``reweighted`` — give
    the scalar trace on native at chunk 1, a prime and beyond ``n``."""
    require_backend("native")
    reference = scalar_trace(_recipe_phases(params), seed=seed, name="r")
    with kernels.use_backend("native"):
        got = trace_from_chunks(generate_chunks(
            _recipe_phases(params), seed=seed, name="r",
            chunk_instructions=chunk), name="r")
    assert_traces_equal(reference, got)


class TestStreamedContainer:
    """The streaming writer's container equals the materialized one."""

    def test_manifest_and_content_match_write_trace(self, tmp_path):
        reference = build_trace(rich_phases(), seed=11, name="x")
        materialized = write_trace(reference, tmp_path / "mat.trace.npz",
                                   name="x", source={"via": "ram"})
        with TraceStreamWriter() as writer:
            writer.extend(generate_chunks(rich_phases(), seed=11, name="x",
                                          chunk_instructions=777))
            streamed = writer.write_container(
                tmp_path / "st.trace.npz", name="x", source={"via": "ram"})
        assert streamed == materialized
        got = read_trace(tmp_path / "st.trace.npz", verify=True)
        assert_traces_equal(reference, got)
        reader = TraceReader(str(tmp_path / "st.trace.npz"))
        assert reader.streaming
        assert_traces_equal(reference,
                            trace_from_chunks(reader.iter_chunks(1_000)))
        reader.close()

    def test_fingerprint_arrays_matches_monolithic(self):
        trace = build_trace(rich_phases(n_a=800, n_b=400), seed=2)
        arrays = trace_arrays(trace)
        assert fingerprint_arrays(arrays) == fingerprint(arrays)
        assert fingerprint_arrays(arrays) == trace_fingerprint(trace)

    def test_writer_rejects_gaps_and_disagreements(self):
        chunks = list(generate_chunks(rich_phases(n_a=600, n_b=0), seed=1,
                                      chunk_instructions=200))
        with TraceStreamWriter() as writer:
            writer.append(chunks[0])
            with pytest.raises(ValueError, match="expected"):
                writer.append(chunks[2])
        bad = chunks[0]
        bad.kind = bad.kind.copy()
        bad.kind[:] = 0                      # ALU everywhere, views kept
        with TraceStreamWriter() as writer:
            with pytest.raises(ValueError, match="disagree"):
                writer.append(bad)


class TestParallelExport:
    """Pool-parallel phase generation == the serial walk, bit for bit."""

    @staticmethod
    def _isolated_against_scalar_serial(backend):
        # Engines shared by both phases: the sequential component's
        # circular cursor is the serial state a worker must
        # fast-forward through, and the mixture's choice and count
        # blocks are walked on ``backend`` too.
        require_backend(backend)

        def make_phases():
            arena = np.arange(256, dtype=np.int64)
            engine = MultiWorkingSetEngine([
                WorkingSetComponent(
                    SequentialEngine(arena[:128], n_pcs=2), 0.6),
                WorkingSetComponent(
                    UniformWorkingSetEngine(arena[128:], n_pcs=3), 0.4,
                    pc_base=2),
            ])
            return [
                PhaseSpec("a", 3_000, engine, mem_fraction=0.5,
                          branch_fraction=0.1),
                PhaseSpec("b", 2_000, engine.reweighted({1: 0.1}),
                          mem_fraction=0.4, branch_fraction=0.1),
            ]

        with kernels.use_backend("scalar"):
            serial = [c for c in generate_chunks(
                make_phases(), seed=9, name="x", chunk_instructions=700)
                if c.instr_lo >= 3_000]
        with kernels.use_backend(backend):
            fresh = make_phases()
            fast_forward_engines(fresh, 1, 9, name="x",
                                 chunk_instructions=700)
            isolated = list(generate_phase_chunks(
                fresh[1], 1, 9, name="x", chunk_instructions=700,
                instr_offset=3_000))
        assert len(serial) == len(isolated)
        for expected, got in zip(serial, isolated):
            assert expected.instr_lo == got.instr_lo
            assert expected.instr_hi == got.instr_hi
            for field in TRACE_FIELDS:
                assert np.array_equal(getattr(expected, field),
                                      getattr(got, field)), field

    def test_isolated_phase_matches_serial_slice(self):
        self._isolated_against_scalar_serial("scalar")

    def test_isolated_native_phase_matches_scalar_serial_slice(self):
        self._isolated_against_scalar_serial("native")

    @pytest.mark.parametrize("name", ["povray", "calculix"])
    def test_parallel_chunks_bit_identical(self, name):
        from repro.trace.parallel import parallel_phase_chunks
        from repro.trace.spec import DEFAULT_SCALE

        workload = benchmark_spec(name).workload(
            n_instructions=60_000, seed=3)
        got = trace_from_chunks(parallel_phase_chunks(
            name, 60_000, 3, DEFAULT_SCALE,
            chunk_instructions=9_000, jobs=3), name=name)
        assert_traces_equal(workload.trace, got)

    def test_cli_jobs_fingerprint_identical(self, tmp_path):
        from repro.traceio.cli import synth_main

        serial = tmp_path / "serial.trace.npz"
        parallel = tmp_path / "parallel.trace.npz"
        assert synth_main([
            "export", "calculix", "--instructions", "60000",
            "--chunk", "9000", "--out", str(serial)]) == 0
        assert synth_main([
            "export", "calculix", "--instructions", "60000",
            "--chunk", "9000", "--jobs", "3", "--out",
            str(parallel)]) == 0
        assert (read_manifest(serial)["fingerprint"]
                == read_manifest(parallel)["fingerprint"])


class TestChunkedImport:
    """Chunk-granular import == materialized import, all formats."""

    @pytest.fixture(scope="class")
    def fixture_trace(self):
        return build_trace(rich_phases(n_a=6_000, n_b=2_000), seed=13,
                           name="imp")

    @pytest.mark.parametrize("fmt", ["champsim", "lackey", "csv"])
    @pytest.mark.parametrize("chunk", [173, 4_096, 1 << 20])
    def test_bit_identical_containers(self, fmt, chunk, tmp_path,
                                      fixture_trace):
        src = tmp_path / f"fx.{fmt}"
        export_trace(fixture_trace, src, fmt)
        reference = import_trace(src, fmt)
        manifest = import_trace_streamed(
            src, fmt, tmp_path / "st.trace.npz", name="fx",
            chunk_instructions=chunk)
        got = read_trace(tmp_path / "st.trace.npz", verify=True)
        assert_traces_equal(reference, got)
        assert manifest["fingerprint"] == trace_fingerprint(reference)
        assert manifest == read_manifest(tmp_path / "st.trace.npz")

    def test_chunk_one(self, tmp_path):
        trace = build_trace(rich_phases(n_a=300, n_b=0), seed=4)
        src = tmp_path / "tiny.csv"
        export_trace(trace, src, "csv")
        manifest = import_trace_streamed(src, "csv",
                                         tmp_path / "one.trace.npz",
                                         chunk_instructions=1)
        assert manifest["fingerprint"] == \
            trace_fingerprint(import_trace(src, "csv"))

    def test_import_is_single_pass_over_events(self, tmp_path,
                                               monkeypatch,
                                               fixture_trace):
        """The fused importer never re-spills event columns: one parse
        batch per instruction window is the only pass over the event
        stream, one PC-intern window per access window the only second
        pass, and no chunk goes through the stream writer."""
        from repro import telemetry
        from repro.telemetry.core import TelemetrySession

        src = tmp_path / "fx.csv"
        export_trace(fixture_trace, src, "csv")
        session = TelemetrySession("counters")
        monkeypatch.setattr(telemetry, "_session", session)
        import_trace_streamed(src, "csv", tmp_path / "fused.trace.npz",
                              chunk_instructions=1_024)
        counters = session.counters
        assert counters.get("ingest.parse_batches", 0) == math.ceil(
            fixture_trace.n_instructions / 1_024)
        assert counters.get("ingest.intern_chunks", 0) == math.ceil(
            fixture_trace.n_accesses / 1_024)
        assert counters.get("stream.writer.chunks", 0) == 0

    def test_malformed_input_leaves_no_container(self, tmp_path,
                                                 fixture_trace):
        from repro.traceio.formats import TraceImportError

        src = tmp_path / "trunc.champsim"
        export_trace(fixture_trace, src, "champsim")
        with open(src, "r+b") as handle:     # shear off half a record
            handle.truncate(os.path.getsize(src) - 17)
        out = tmp_path / "bad.trace.npz"
        with pytest.raises(TraceImportError, match="truncated"):
            import_trace_streamed(src, "champsim", out,
                                  chunk_instructions=512)
        assert not out.exists()
        assert not (tmp_path / "bad.trace.json").exists()


class TestSyntheticStreamWorkload:
    """The materialize=False face: spilled blob, verified on open."""

    def test_bit_identical_and_mapped(self, tmp_path):
        store = ArtifactStore(root=tmp_path / "cache", enabled=True)
        spec = benchmark_spec("gobmk")
        reference = spec.workload(n_instructions=50_000, seed=6).trace
        workload = spec.workload(n_instructions=50_000, seed=6,
                                 materialize=False, store=store,
                                 chunk_instructions=7_000)
        assert_traces_equal(reference, workload.trace)
        assert isinstance(workload.trace.mem_line, np.memmap)
        assert workload.trace_fingerprint == trace_fingerprint(reference)
        workload.release()
        # Second open must hit the published blob, not regenerate.
        saves = store.saves
        reopened = spec.workload(n_instructions=50_000, seed=6,
                                 materialize=False, store=store)
        assert_traces_equal(reference, reopened.trace)
        assert store.saves == saves
        reopened.release()

    def test_verify_on_open_regenerates_on_bad_provenance(self, tmp_path):
        store = ArtifactStore(root=tmp_path / "cache", enabled=True)
        spec = benchmark_spec("hmmer")
        workload = spec.workload(n_instructions=30_000, seed=2,
                                 materialize=False, store=store)
        reference = workload.trace
        fp = workload.trace_fingerprint
        workload.release()
        # Poison the *disk* manifest: wrong spec fingerprint (a stale
        # generator revision).  The disk tier is write-once, so the
        # poison must go through delete-then-save, exactly like the
        # repair path itself.
        _, manifest_key = workload._store_keys()
        poisoned = dict(workload.manifest, spec_fingerprint="stale")
        assert store.delete(manifest_key)
        store.save(manifest_key, poisoned, label="synthetic-trace")
        store.memory.clear()
        assert store.load(manifest_key)["spec_fingerprint"] == "stale"
        # Opening must refuse the poisoned provenance and regenerate...
        saves = store.saves
        again = spec.workload(n_instructions=30_000, seed=2,
                              materialize=False, store=store)
        assert_traces_equal(reference, again.trace)
        assert again.trace_fingerprint == fp
        assert store.saves > saves, "regeneration never ran"
        again.release()
        # ...and the regeneration must *repair* the store: a third open
        # (fresh memory tier, same disk) serves the blob without
        # another regeneration.
        store.memory.clear()
        saves = store.saves
        third = spec.workload(n_instructions=30_000, seed=2,
                              materialize=False, store=store)
        assert_traces_equal(reference, third.trace)
        assert store.saves == saves, "repair did not persist"
        third.release()

    def test_storeless_spill_path(self, tmp_path):
        spec = benchmark_spec("namd")
        reference = spec.workload(n_instructions=20_000, seed=1).trace
        workload = spec.workload(n_instructions=20_000, seed=1,
                                 materialize=False, store=None)
        assert_traces_equal(reference, workload.trace)
        spill_dir = workload._writer._spill.directory
        assert os.path.isdir(spill_dir)
        workload.release()
        assert not os.path.isdir(spill_dir)


def _result_identity(result):
    return (result.cpi, result.mpki, result.total_seconds,
            repr(sorted(result.extras.items())),
            [(repr(sorted(r.stats.counts.items())),
              r.timing.total_cycles) for r in result.regions])


STRATEGIES = {
    "SMARTS": Smarts,
    "CoolSim": CoolSim,
    "DeLorean": DeLorean,
    "NaiveDSW": NaiveDirectedWarming,
}


class TestStrategyEquivalence:
    """Streamed synthetic runs == materialized runs, all four
    strategies, all three spill modes."""

    N_INSTRUCTIONS = 120_000
    SEED = 1

    @pytest.fixture(scope="class")
    def reference_results(self):
        spec = benchmark_spec("bwaves")
        workload = spec.workload(n_instructions=self.N_INSTRUCTIONS,
                                 seed=self.SEED)
        plan = SamplingPlan(n_instructions=self.N_INSTRUCTIONS,
                            n_regions=3)
        hierarchy = paper_hierarchy(8 << 20)
        results = {}
        for name, strategy in STRATEGIES.items():
            context = ExecutionContext(workload, seed=self.SEED)
            results[name] = _result_identity(strategy().run(
                workload, plan, hierarchy, context=context))
            context.release()
        return results

    @pytest.mark.parametrize("spill_mode", ["auto", "always", "never"])
    def test_streamed_matches_materialized(self, spill_mode, tmp_path,
                                           monkeypatch,
                                           reference_results):
        monkeypatch.setenv("REPRO_INDEX_SPILL", spill_mode)
        store = ArtifactStore(root=tmp_path / "cache", enabled=True)
        spec = benchmark_spec("bwaves")
        plan = SamplingPlan(n_instructions=self.N_INSTRUCTIONS,
                            n_regions=3)
        hierarchy = paper_hierarchy(8 << 20)
        for name, strategy in STRATEGIES.items():
            workload = spec.workload(n_instructions=self.N_INSTRUCTIONS,
                                     seed=self.SEED, materialize=False,
                                     store=store,
                                     chunk_instructions=17_000)
            context = ExecutionContext(workload, store=store,
                                       seed=self.SEED)
            result = strategy().run(workload, plan, hierarchy,
                                    context=context)
            assert _result_identity(result) == reference_results[name], \
                (name, spill_mode)
            if spill_mode == "always":
                assert context.index.mapped, name
            context.release()


# -- bounded-RSS regression ---------------------------------------------------
#
# Child processes (spawn) measure tracemalloc heap peaks and VmHWM so
# each configuration starts from a clean slate; the techniques — and the
# "peak transient stays O(chunk + unique keys)" bound they check — come
# from benchmarks/bench_stream.py.

RSS_ACCESSES = 1_000_000
RSS_MEM_FRACTION = 0.4
RSS_CHUNK = 1 << 18


def _peak_rss_kb():
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _rss_phases():
    n_instructions = int(RSS_ACCESSES / RSS_MEM_FRACTION)
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


def _child_generate_materialized(queue, workdir):
    import tracemalloc

    tracemalloc.start()
    trace = build_trace(_rss_phases(), seed=5, name="rss")
    write_trace(trace, os.path.join(workdir, "mat.trace.npz"), name="rss")
    queue.put({"heap_peak": tracemalloc.get_traced_memory()[1],
               "rss_kb": _peak_rss_kb(),
               "n_accesses": trace.n_accesses})


def _child_generate_streamed(queue, workdir):
    import tracemalloc

    tracemalloc.start()
    with TraceStreamWriter() as writer:
        writer.extend(generate_chunks(_rss_phases(), seed=5, name="rss",
                                      chunk_instructions=RSS_CHUNK))
        manifest = writer.write_container(
            os.path.join(workdir, "st.trace.npz"), name="rss")
    queue.put({"heap_peak": tracemalloc.get_traced_memory()[1],
               "rss_kb": _peak_rss_kb(),
               "n_accesses": manifest["n_accesses"],
               "fingerprint": manifest["fingerprint"]})


def _child_import_materialized(queue, workdir):
    import tracemalloc

    tracemalloc.start()
    trace = import_trace(os.path.join(workdir, "fixture.champsim"),
                         "champsim")
    write_trace(trace, os.path.join(workdir, "imat.trace.npz"),
                name="fixture")
    queue.put({"heap_peak": tracemalloc.get_traced_memory()[1],
               "rss_kb": _peak_rss_kb(),
               "n_accesses": trace.n_accesses})


def _child_import_streamed(queue, workdir):
    import tracemalloc

    tracemalloc.start()
    manifest = import_trace_streamed(
        os.path.join(workdir, "fixture.champsim"), "champsim",
        os.path.join(workdir, "ist.trace.npz"), name="fixture",
        chunk_instructions=RSS_CHUNK)
    queue.put({"heap_peak": tracemalloc.get_traced_memory()[1],
               "rss_kb": _peak_rss_kb(),
               "n_accesses": manifest["n_accesses"],
               "fingerprint": manifest["fingerprint"]})


#: Hard ceiling for one measurement child (generous: the slowest child
#: takes ~30s on an unloaded machine).  A child that blows it is killed
#: and reported loudly instead of hanging the suite forever.
MEASURE_DEADLINE_SECONDS = 540


def _measure(target, workdir):
    context = multiprocessing.get_context("spawn")
    queue = context.Queue()
    process = context.Process(target=target, args=(queue, str(workdir)))
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
class TestBoundedRSS:
    """Chunked peaks must land far below the materialized builds on a
    ≥1M-access fixture (the acceptance bound of this harness)."""

    def test_synthetic_generation_bounded(self, tmp_path):
        materialized = _measure(_child_generate_materialized, tmp_path)
        streamed = _measure(_child_generate_streamed, tmp_path)
        assert streamed["n_accesses"] == materialized["n_accesses"]
        assert streamed["n_accesses"] >= RSS_ACCESSES * 0.95
        # Same bits out of both pipelines…
        assert streamed["fingerprint"] == trace_fingerprint(
            read_trace(tmp_path / "mat.trace.npz"))
        # …at a fraction of the transient memory.
        assert streamed["heap_peak"] < materialized["heap_peak"] / 2, \
            (streamed, materialized)
        assert streamed["rss_kb"] < materialized["rss_kb"], \
            (streamed, materialized)

    def test_chunked_import_bounded(self, tmp_path):
        trace = build_trace(_rss_phases(), seed=5, name="rss")
        export_trace(trace, tmp_path / "fixture.champsim", "champsim")
        expected = trace_fingerprint(trace)
        del trace
        materialized = _measure(_child_import_materialized, tmp_path)
        streamed = _measure(_child_import_streamed, tmp_path)
        assert streamed["n_accesses"] == materialized["n_accesses"]
        assert streamed["n_accesses"] >= RSS_ACCESSES * 0.95
        assert streamed["fingerprint"] == expected
        assert streamed["heap_peak"] < materialized["heap_peak"] / 2, \
            (streamed, materialized)
        assert streamed["rss_kb"] < materialized["rss_kb"], \
            (streamed, materialized)
