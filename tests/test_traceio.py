"""Trace I/O subsystem tests: container round trips, importer fixtures,
streaming equivalence, and end-to-end fidelity through DeLorean.

The fidelity contract under test is the acceptance criterion of the
subsystem: a trace exported to *any* external format and re-imported is
byte-identical (the importers' normalization — PC interning, cacheline
normalization, predictor-synthesized branch outcomes — is exactly
inverted by the exporters), and a streamed (memory-mapped, bounded
chunk budget) replay of a container matches full materialization
bit-for-bit, including through a complete DeLorean run.
"""

import dataclasses
import json
import os
import zipfile

import numpy as np
import pytest

from repro.caches.hierarchy import paper_hierarchy
from repro.core.delorean import DeLorean
from repro.core.naive import NaiveDirectedWarming
from repro.experiments import ExperimentConfig, SuiteRunner
from repro.sampling.coolsim import CoolSim
from repro.sampling.smarts import Smarts
from repro.sampling.plan import SamplingPlan
from repro.store import ArtifactStore
from repro.trace.phases import PhaseSpec, build_trace
from repro.trace.record import Kind, Trace, TraceChunk, trace_from_chunks
from repro.trace.engines import (
    MultiWorkingSetEngine,
    PointerChaseEngine,
    SequentialEngine,
    StridedEngine,
    UniformWorkingSetEngine,
    WorkingSetComponent,
)
from repro.traceio import (
    ImportedWorkload,
    TraceFormatError,
    TraceImportError,
    TraceLibrary,
    TraceReader,
    TraceStreamWriter,
    export_trace,
    import_trace,
    import_trace_streamed,
    read_manifest,
    read_trace,
    register_workload,
    resolve_workload,
    synthesize_mispredicts,
    trace_fingerprint,
    unregister_workload,
    write_trace,
)
from repro.traceio.container import (
    container_manifest,
    manifest_path,
    publish_container,
    trace_arrays,
)
from repro.traceio.formats import CHAMPSIM_DTYPE
from repro.vff.index import TraceIndex
from tests.conftest import make_small_workload

ARRAY_NAMES = ("kind", "mem_instr", "mem_line", "mem_pc", "mem_store",
               "branch_instr", "branch_mispred")


def assert_traces_identical(a, b, context=""):
    for name in ARRAY_NAMES:
        left, right = np.asarray(getattr(a, name)), np.asarray(
            getattr(b, name))
        assert left.dtype == right.dtype, (context, name)
        assert np.array_equal(left, right), (context, name)


def random_trace(seed, n_instructions=8_000):
    """A randomized multi-engine trace (one per seed) for property tests."""
    rng = np.random.default_rng(seed)
    arena = np.arange(600, dtype=np.int64) + (1 << 18)
    engine = MultiWorkingSetEngine([
        WorkingSetComponent(
            UniformWorkingSetEngine(arena[:96], n_pcs=5), 0.5),
        WorkingSetComponent(
            SequentialEngine(arena[96:256]), 0.2, pc_base=5),
        WorkingSetComponent(
            StridedEngine(arena[256:448], stride_lines=4), 0.15, pc_base=9),
        WorkingSetComponent(
            PointerChaseEngine(arena[448:], np.random.default_rng(seed + 1)),
            0.15, pc_base=13),
    ])
    phase = PhaseSpec(
        "main", n_instructions, engine,
        mem_fraction=float(rng.uniform(0.2, 0.6)),
        branch_fraction=float(rng.uniform(0.02, 0.25)),
        mispredict_rate=float(rng.uniform(0.0, 0.15)),
        store_fraction=float(rng.uniform(0.0, 0.6)),
    )
    return build_trace([phase], seed=seed, name=f"rand{seed}")


def result_identity(result):
    """Everything observable about a StrategyResult, exactly."""
    return (
        result.strategy,
        result.cpi,
        result.mpki,
        result.total_seconds,
        result.extras,
        result.meter.ledger.as_dict(),
        [(r.stats.counts, r.timing.total_cycles, r.timing.cpi)
         for r in result.regions],
    )


# -- native container --------------------------------------------------------

class TestContainer:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_round_trip_byte_identical(self, tmp_path, seed):
        trace = random_trace(seed)
        path = tmp_path / f"t{seed}.trace.npz"
        manifest = write_trace(trace, path)
        loaded = read_trace(path, verify=True)
        assert_traces_identical(trace, loaded, f"seed={seed}")
        assert manifest["n_instructions"] == trace.n_instructions
        assert manifest["n_accesses"] == trace.n_accesses
        assert manifest["footprint_bytes"] == trace.footprint_bytes()
        assert manifest["fingerprint"] == trace_fingerprint(loaded)

    def test_round_trip_compressed(self, tmp_path):
        trace = random_trace(7)
        path = tmp_path / "c.trace.npz"
        manifest = write_trace(trace, path, compress=True)
        assert manifest["compressed"]
        loaded = read_trace(path, verify=True)
        assert_traces_identical(trace, loaded)

    def test_fingerprint_deterministic_across_writes(self, tmp_path):
        trace = random_trace(9)
        m1 = write_trace(trace, tmp_path / "a.trace.npz")
        m2 = write_trace(trace, tmp_path / "b.trace.npz")
        assert m1["fingerprint"] == m2["fingerprint"]

    def test_empty_branch_view(self, tmp_path):
        trace = random_trace(11)
        no_branches = Trace(
            kind=np.where(trace.kind == Kind.BRANCH,
                          np.uint8(Kind.ALU), trace.kind),
            mem_instr=trace.mem_instr, mem_line=trace.mem_line,
            mem_pc=trace.mem_pc, mem_store=trace.mem_store,
            branch_instr=np.empty(0, dtype=np.int64),
            branch_mispred=np.empty(0, dtype=bool), name="nb")
        path = tmp_path / "nb.trace.npz"
        write_trace(no_branches, path)
        loaded = read_trace(path)
        assert loaded.branch_instr.size == 0

    def test_missing_sidecar_rejected(self, tmp_path):
        trace = random_trace(5)
        path = tmp_path / "t.trace.npz"
        write_trace(trace, path)
        (tmp_path / "t.trace.json").unlink()
        with pytest.raises(TraceFormatError, match="manifest"):
            read_trace(path)

    def test_future_version_rejected(self, tmp_path):
        trace = random_trace(5)
        path = tmp_path / "t.trace.npz"
        manifest = write_trace(trace, path)
        manifest["format_version"] = 99
        with open(manifest_path(path), "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(TraceFormatError, match="newer"):
            read_manifest(path)

    def test_manifest_npz_mismatch_refused(self, tmp_path):
        # A crash while force-replacing a container can pair one
        # generation's manifest with the other's arrays; readers must
        # refuse rather than serve data under the wrong fingerprint.
        old = random_trace(51, n_instructions=4_000)
        new = random_trace(52, n_instructions=6_000)
        path = tmp_path / "t.trace.npz"
        write_trace(old, path)
        stale_sidecar = (tmp_path / "t.trace.json").read_bytes()
        write_trace(new, path)
        (tmp_path / "t.trace.json").write_bytes(stale_sidecar)
        with pytest.raises(TraceFormatError, match="does not match"):
            read_trace(path)
        with pytest.raises(TraceFormatError, match="does not match"):
            TraceReader(path).trace()

    def test_verify_catches_tampering(self, tmp_path):
        trace = random_trace(5)
        path = tmp_path / "t.trace.npz"
        manifest = write_trace(trace, path)
        manifest["fingerprint"] = "0" * 64
        with open(manifest_path(path), "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(TraceFormatError, match="fingerprint"):
            read_trace(path, verify=True)


def _bad_branch_view(trace, defect):
    """``trace`` with one defect in its branch view; kind stream kept."""
    branch_instr = trace.branch_instr.copy()
    branch_mispred = trace.branch_mispred
    if defect == "past-end":
        branch_instr[-1] = trace.n_instructions
    elif defect == "unsorted":
        branch_instr[[0, 1]] = branch_instr[[1, 0]]
    else:               # one branch of the kind stream missing its row
        branch_instr, branch_mispred = branch_instr[:-1], branch_mispred[:-1]
    return dataclasses.replace(trace, branch_instr=branch_instr,
                               branch_mispred=branch_mispred)


@pytest.mark.parametrize("defect", ["past-end", "unsorted", "count"])
def test_bad_branch_view_rejected_on_write_and_read(tmp_path, defect):
    """One column check guards every writer and reader, branch view
    included."""
    bad = _bad_branch_view(random_trace(31), defect)
    arrays = trace_arrays(bad)
    with pytest.raises(ValueError, match="branch view"):
        write_trace(bad, tmp_path / "w.trace.npz")
    with TraceStreamWriter() as writer, \
            pytest.raises(ValueError, match="branch view"):
        writer.append(TraceChunk(instr_lo=0, instr_hi=bad.n_instructions,
                                 **arrays))
    # Published unchecked, as a damaged or foreign container would be.
    path = tmp_path / "bad.trace.npz"
    publish_container(path, arrays, container_manifest(arrays, "bad"))
    with pytest.raises(ValueError, match="branch view"):
        read_trace(path)
    with TraceReader(path) as reader, \
            pytest.raises(ValueError, match="branch view"):
        reader.materialize()


# -- streaming reader --------------------------------------------------------

class TestTraceReader:
    def test_mmap_views_match_materialized(self, tmp_path):
        trace = random_trace(21)
        path = tmp_path / "t.trace.npz"
        write_trace(trace, path)
        with TraceReader(path) as reader:
            assert reader.streaming
            assert_traces_identical(trace, reader.trace(), "mmap")
            assert_traces_identical(trace, reader.materialize(), "ram")

    def test_compressed_falls_back_to_buffered(self, tmp_path):
        trace = random_trace(22)
        path = tmp_path / "t.trace.npz"
        write_trace(trace, path, compress=True)
        reader = TraceReader(path)
        assert not reader.streaming
        assert_traces_identical(trace, reader.trace(), "compressed")

    def test_chunk_replay_identical_under_budget(self, tmp_path):
        trace = random_trace(23)
        path = tmp_path / "t.trace.npz"
        write_trace(trace, path)
        reader = TraceReader(path)
        total_bytes = sum(
            np.asarray(getattr(trace, name)).nbytes for name in ARRAY_NAMES)
        budget = max(512, total_bytes // 10)    # well below the trace
        parts = {name: [] for name in ARRAY_NAMES}
        chunks = 0
        hi_seen = 0
        for chunk in reader.iter_chunks(max_bytes=budget):
            assert chunk.instr_lo == hi_seen
            hi_seen = chunk.instr_hi
            # The budget is statistical (sized from average densities);
            # locally dense windows may exceed it modestly.
            assert chunk.nbytes() <= 2 * budget
            for name in ARRAY_NAMES:
                parts[name].append(getattr(chunk, name))
            chunks += 1
        assert hi_seen == trace.n_instructions
        assert chunks > 5
        for name in ARRAY_NAMES:
            dtype = np.asarray(getattr(trace, name)).dtype
            joined = (np.concatenate(parts[name]) if parts[name]
                      else np.empty(0, dtype))
            assert np.array_equal(joined, np.asarray(getattr(trace, name))), \
                name

    def test_chunk_to_trace_validates(self, tmp_path):
        trace = random_trace(24)
        path = tmp_path / "t.trace.npz"
        write_trace(trace, path)
        for chunk in TraceReader(path).iter_chunks(chunk_instructions=1111):
            window = chunk.to_trace()
            assert window.n_instructions == chunk.n_instructions
            assert window.n_accesses == chunk.n_accesses


# -- importers: hand-built fixtures ------------------------------------------

class TestZip64Members:
    """Every streamed npz member is written zip64, so a member past
    ``zipfile.ZIP64_LIMIT`` publishes.  The limit (2 GiB) is patched
    down to 64 KiB here; a 32-bit member header fails at close once
    its member passes it."""

    LIMIT = 1 << 16

    @pytest.fixture
    def trace(self, monkeypatch):
        monkeypatch.setattr(zipfile, "ZIP64_LIMIT", self.LIMIT)
        trace = random_trace(3, n_instructions=60_000)
        assert trace.mem_line.nbytes > self.LIMIT
        return trace

    def assert_container(self, path, trace, streaming):
        with zipfile.ZipFile(path) as archive:
            assert max(info.file_size
                       for info in archive.infolist()) > self.LIMIT
        assert read_manifest(path)["fingerprint"] == trace_fingerprint(trace)
        with TraceReader(str(path)) as reader:
            assert reader.streaming == streaming
            assert_traces_identical(trace, reader.trace())

    @pytest.mark.parametrize("compress", [False, True])
    def test_write_trace(self, tmp_path, trace, compress):
        path = tmp_path / "w.trace.npz"
        write_trace(trace, path, compress=compress)
        self.assert_container(path, trace, streaming=not compress)

    def test_stream_writer(self, tmp_path, trace):
        source = tmp_path / "src.trace.npz"
        write_trace(trace, source)
        path = tmp_path / "s.trace.npz"
        with TraceReader(str(source)) as reader, \
                TraceStreamWriter() as writer:
            writer.extend(reader.iter_chunks(7_000))
            writer.write_container(path, name=trace.name)
        self.assert_container(path, trace, streaming=True)

    def test_streamed_import(self, tmp_path, trace):
        source = tmp_path / "src.csv"
        export_trace(trace, source, "csv")
        path = tmp_path / "i.trace.npz"
        import_trace_streamed(source, "csv", path, chunk_instructions=7_000)
        self.assert_container(path, import_trace(source, "csv"),
                              streaming=True)

    def test_store_blob(self, tmp_path, trace):
        store = ArtifactStore(root=tmp_path, enabled=True)
        arrays = trace_arrays(trace)
        key = {"artifact": "zip64-demo"}
        assert store.save_arrays(key, arrays, label="spill") == \
            store.digest(key)
        views = store.load_mapped(key)
        for name, expected in arrays.items():
            assert isinstance(views[name], np.memmap), name
            assert np.array_equal(np.asarray(views[name]), expected), name


def champsim_record(ip=0, is_branch=0, taken=0, src=(), dest=()):
    record = np.zeros(1, dtype=CHAMPSIM_DTYPE)
    record["ip"] = ip
    record["is_branch"] = is_branch
    record["branch_taken"] = taken
    for slot, addr in enumerate(src):
        record["src_mem"][0, slot] = addr
    for slot, addr in enumerate(dest):
        record["dest_mem"][0, slot] = addr
    return record.tobytes()


class TestChampSimImporter:
    def test_expansion_and_normalization(self, tmp_path):
        path = tmp_path / "t.champsim"
        blob = b"".join([
            champsim_record(ip=0x400, src=(0x1000, 0x2040)),   # two loads
            champsim_record(ip=0x408, src=(0x1000,), dest=(0x3000,)),
            champsim_record(ip=0x410, is_branch=1, taken=1),
            champsim_record(ip=0x418),                         # ALU
        ])
        path.write_bytes(blob)
        trace = import_trace(path, "champsim")
        assert trace.kind.tolist() == [
            Kind.LOAD, Kind.LOAD, Kind.LOAD, Kind.STORE, Kind.BRANCH,
            Kind.ALU]
        assert trace.mem_line.tolist() == [
            0x1000 >> 6, 0x2040 >> 6, 0x1000 >> 6, 0x3000 >> 6]
        assert trace.mem_store.tolist() == [False, False, False, True]
        # PC interning: 0x400 -> 0, 0x408 -> 1 (sorted-unique order).
        assert trace.mem_pc.tolist() == [0, 0, 1, 1]
        assert trace.branch_instr.tolist() == [4]
        expected = synthesize_mispredicts([0x410], [True])
        assert trace.branch_mispred.tolist() == expected.tolist()

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "t.champsim"
        path.write_bytes(champsim_record(ip=1, src=(64,)) + b"\x00" * 17)
        with pytest.raises(TraceImportError, match="truncated"):
            import_trace(path, "champsim")

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "t.champsim"
        path.write_bytes(b"")
        with pytest.raises(TraceImportError, match="empty"):
            import_trace(path, "champsim")

    def test_gzip_transparent(self, tmp_path):
        import gzip
        path = tmp_path / "t.champsim.gz"
        with gzip.open(path, "wb") as handle:
            handle.write(champsim_record(ip=0x1, src=(0x40,)))
        trace = import_trace(path, "champsim")
        assert trace.n_accesses == 1 and trace.mem_line.tolist() == [1]


class TestLackeyImporter:
    def test_instruction_grouping(self, tmp_path):
        path = tmp_path / "t.lackey"
        path.write_text(
            "==123== banner noise\n"
            "I  400100,3\n"
            " L 1000,8\n"
            "I  400108,3\n"            # no operands -> ALU
            "I  400110,3\n"
            " M 2040,8\n"              # modify -> load then store
            "B  400118,1\n"
            " S 3000,4\n"              # standalone store, pc context kept
        )
        trace = import_trace(path, "lackey")
        assert trace.kind.tolist() == [
            Kind.LOAD, Kind.ALU, Kind.LOAD, Kind.STORE, Kind.BRANCH,
            Kind.STORE]
        assert trace.mem_line.tolist() == [
            0x1000 >> 6, 0x2040 >> 6, 0x2040 >> 6, 0x3000 >> 6]
        # raw pcs 0x400100/0x400110 interned in sorted order; the
        # standalone store inherits the last I context (0x400110).
        assert trace.mem_pc.tolist() == [0, 1, 1, 1]
        assert trace.branch_instr.tolist() == [4]

    def test_plain_lackey_has_no_branches(self, tmp_path):
        path = tmp_path / "t.lackey"
        path.write_text("I  400100,1\n L 1000,8\n")
        trace = import_trace(path, "lackey")
        assert trace.branch_instr.size == 0

    @pytest.mark.parametrize("line,match", [
        ("X 1000,8\n", "unrecognized"),
        (" L zz,8\n", "bad hex"),
        ("B 400100,2\n", "taken 0|1"),
        ("I 400100\nextra tokens here\n", "unrecognized"),
    ])
    def test_malformed_rejected(self, tmp_path, line, match):
        path = tmp_path / "t.lackey"
        path.write_text(line)
        with pytest.raises(TraceImportError):
            import_trace(path, "lackey")

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "t.lackey"
        path.write_text("==1== only banners\n")
        with pytest.raises(TraceImportError, match="empty"):
            import_trace(path, "lackey")


class TestCsvImporter:
    def test_schema(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "kind,addr,pc,taken\n"
            "L,0x1000,0x400,\n"
            "store,8256,1032,\n"       # decimal accepted, long kind names
            "A,,,\n"
            "B,,0x410,1\n"
        )
        trace = import_trace(path, "csv")
        assert trace.kind.tolist() == [
            Kind.LOAD, Kind.STORE, Kind.ALU, Kind.BRANCH]
        assert trace.mem_line.tolist() == [0x1000 >> 6, 8256 >> 6]
        assert trace.mem_pc.tolist() == [0, 1]
        assert trace.branch_mispred.shape == (1,)

    @pytest.mark.parametrize("row,match", [
        ("Q,0x10,,\n", "unknown kind"),
        ("L,,0x4,\n", "without addr"),
        ("L,nope,0x4,\n", "bad addr"),
        ("B,,0x4,maybe\n", "taken 0|1"),
        ("L,-64,0x4,\n", "64-bit"),
    ])
    def test_malformed_rejected(self, tmp_path, row, match):
        path = tmp_path / "t.csv"
        path.write_text("kind,addr,pc,taken\n" + row)
        with pytest.raises(TraceImportError, match=match):
            import_trace(path, "csv")

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("kind,addr,pc,taken\n")
        with pytest.raises(TraceImportError, match="empty"):
            import_trace(path, "csv")

    def test_zero_padded_decimal_accepted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("L,000128,007,\nS,0X80,0x08,\n")
        trace = import_trace(path, "csv")
        assert trace.mem_line.tolist() == [128 >> 6, 0x80 >> 6]


# -- export/import fidelity --------------------------------------------------

class TestRoundTripFidelity:
    @pytest.mark.parametrize("fmt", ["champsim", "lackey", "csv"])
    def test_export_import_byte_identical(self, tmp_path, fmt):
        """Every external format inverts normalization exactly —
        including the predictor-synthesized branch outcomes."""
        workload = make_small_workload(seed=5, n_instructions=60_000,
                                       name="fid")
        trace = workload.trace
        path = tmp_path / f"t.{fmt}"
        export_trace(trace, path, fmt)
        reimported = import_trace(path, fmt, name="fid")
        assert_traces_identical(trace, reimported, fmt)

    @pytest.mark.parametrize("seed", [31, 32])
    def test_randomized_round_trips(self, tmp_path, seed):
        """Traces with *sparse* PC ids round-trip up to interning: the
        importer compresses raw PCs to dense ids (an order-preserving
        bijection — per-PC grouping, and therefore simulation outcomes,
        are unchanged); every other array is byte-identical."""
        trace = random_trace(seed)
        _, dense_pc = np.unique(trace.mem_pc, return_inverse=True)
        for fmt in ("champsim", "lackey", "csv"):
            path = tmp_path / f"r{seed}.{fmt}"
            export_trace(trace, path, fmt)
            reimported = import_trace(path, fmt, name=trace.name)
            for name in ARRAY_NAMES:
                if name == "mem_pc":
                    continue
                assert np.array_equal(np.asarray(getattr(trace, name)),
                                      np.asarray(getattr(reimported, name))), \
                    (fmt, seed, name)
            assert np.array_equal(reimported.mem_pc,
                                  dense_pc.astype(np.int32)), (fmt, seed)
            # Idempotence: a second export/import cycle is exact.
            again = tmp_path / f"r{seed}b.{fmt}"
            export_trace(reimported, again, fmt)
            assert_traces_identical(
                reimported, import_trace(again, fmt, name=trace.name),
                f"{fmt} seed={seed} idempotence")

    def test_delorean_bit_identical_through_export_cycle(self, tmp_path):
        """Acceptance: export -> re-import -> DeLorean == in-memory run."""
        workload = make_small_workload(seed=5, n_instructions=60_000,
                                       name="fid")
        trace = workload.trace
        plan = SamplingPlan(n_instructions=60_000, n_regions=3)
        hierarchy = paper_hierarchy(8 << 20)
        index = TraceIndex(trace)
        reference = result_identity(
            DeLorean().run(workload, plan, hierarchy, index=index, seed=1))

        path = tmp_path / "t.champsim"
        export_trace(trace, path, "champsim")
        container = tmp_path / "fid.trace.npz"
        write_trace(import_trace(path, "champsim", name="fid"), container)
        imported = ImportedWorkload("fid", container)
        result = result_identity(DeLorean().run(
            imported, plan, hierarchy, index=TraceIndex(imported.trace),
            seed=1))
        assert result == reference

    def test_delorean_streaming_equals_materialized(self, tmp_path):
        """Acceptance: the chunk-budgeted/mmapped reader replays a trace
        with results identical to full materialization."""
        workload = make_small_workload(seed=8, n_instructions=60_000,
                                       name="stream")
        container = tmp_path / "s.trace.npz"
        write_trace(workload.trace, container)
        plan = SamplingPlan(n_instructions=60_000, n_regions=3)
        hierarchy = paper_hierarchy(8 << 20)

        streamed = ImportedWorkload("stream", container, streaming=True)
        materialized = ImportedWorkload("stream", container, streaming=False)
        assert isinstance(np.asarray(streamed.trace.mem_line), np.ndarray)
        a = DeLorean().run(streamed, plan, hierarchy,
                           index=TraceIndex(streamed.trace), seed=1)
        b = DeLorean().run(materialized, plan, hierarchy,
                           index=TraceIndex(materialized.trace), seed=1)
        assert result_identity(a) == result_identity(b)


# -- library / registry / runner ---------------------------------------------

class TestLibraryAndRegistry:
    def test_add_idempotent_and_conflict(self, tmp_path):
        library = TraceLibrary(root=tmp_path / "lib")
        trace = random_trace(41)
        m1 = library.add(trace, name="one")
        m2 = library.add(trace, name="one")          # same content: no-op
        assert m1["fingerprint"] == m2["fingerprint"]
        other = random_trace(42)
        with pytest.raises(FileExistsError, match="force"):
            library.add(other, name="one")
        library.add(other, name="one", force=True)
        assert library.manifest("one")["fingerprint"] == \
            trace_fingerprint(other)
        assert library.names() == ["one"]
        assert library.remove("one")
        assert library.names() == []

    def test_name_validation(self, tmp_path):
        library = TraceLibrary(root=tmp_path)
        with pytest.raises(ValueError, match="invalid trace name"):
            library.path("../escape")
        with pytest.raises(ValueError, match="invalid trace name"):
            library.add(random_trace(1), name="a/b")

    def test_register_rejects_spec_shadowing(self):
        workload = make_small_workload(name="mcf")
        with pytest.raises(ValueError, match="shadows"):
            register_workload(workload)

    def test_library_rejects_spec_shadowing(self, tmp_path):
        library = TraceLibrary(root=tmp_path)
        with pytest.raises(ValueError, match="shadows"):
            library.add(random_trace(47), name="mcf")

    def test_handplaced_spec_container_never_resolves(self, tmp_path,
                                                      monkeypatch):
        # A container written around the guard (old version, manual
        # copy) must not shadow the calibrated synthetic benchmark.
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
        library = TraceLibrary()
        write_trace(random_trace(48), library.path("mcf"), name="mcf")
        assert resolve_workload("mcf") is None
        from repro.traceio import workload_fingerprint
        assert workload_fingerprint("mcf") is None

    def test_resolve_prefers_registry_then_library(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
        assert resolve_workload("nosuch") is None
        library = TraceLibrary()
        library.add(random_trace(43), name="fromdisk")
        resolved = resolve_workload("fromdisk")
        assert isinstance(resolved, ImportedWorkload)
        registered = make_small_workload(name="fromdisk", n_instructions=500)
        register_workload(registered)
        try:
            assert resolve_workload("fromdisk") is registered
        finally:
            unregister_workload("fromdisk")

    def test_suite_runner_runs_imported_and_warm_starts(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
        workload = make_small_workload(seed=5, n_instructions=60_000,
                                       name="ext")
        TraceLibrary().add(workload.trace, name="ext")
        config = ExperimentConfig(n_instructions=60_000, n_regions=3,
                                  names=("ext",))
        store = ArtifactStore(root=tmp_path / "store", enabled=True)
        runner = SuiteRunner(config, store=store)
        result = runner.run("ext", "DeLorean")

        reference = DeLorean().run(
            workload, SamplingPlan(n_instructions=60_000, n_regions=3),
            paper_hierarchy(8 << 20), index=TraceIndex(workload.trace),
            seed=config.seed)
        assert result_identity(result) == result_identity(reference)

        warm = SuiteRunner(config, store=ArtifactStore(
            root=tmp_path / "store", enabled=True))
        replayed = warm.run("ext", "DeLorean")
        assert warm.store.disk_hits > 0
        assert result_identity(replayed) == result_identity(result)

    def test_imported_store_keys_are_content_addressed(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
        workload = make_small_workload(seed=5, n_instructions=60_000,
                                       name="keyed")
        TraceLibrary().add(workload.trace, name="keyed")
        config = ExperimentConfig(n_instructions=60_000, n_regions=3,
                                  names=("keyed",))
        store = ArtifactStore(root=tmp_path / "store", enabled=True)
        runner = SuiteRunner(config, store=store)
        key = runner._result_store_key("keyed", "DeLorean", 8 << 20, {})
        assert key["trace_fingerprint"] == trace_fingerprint(workload.trace)
        assert "benchmark" not in key       # the name is only a label
        # Synthetic benchmarks keep their historical (name-keyed) address.
        synthetic = runner._result_store_key("mcf", "DeLorean", 8 << 20, {})
        assert "trace_fingerprint" not in synthetic
        assert synthetic["benchmark"] == "mcf"
        # Same content under another name: identical store address, so a
        # renamed/re-imported trace warm-starts from existing artifacts.
        TraceLibrary().add(workload.trace, name="renamed")
        renamed = runner._result_store_key("renamed", "DeLorean", 8 << 20, {})
        assert runner.store.digest(renamed) == runner.store.digest(key)

    def test_ls_survives_interrupted_import(self, tmp_path, capsys):
        library = TraceLibrary(root=tmp_path / "lib")
        library.add(random_trace(45), name="good")
        # An interrupted import: container npz without its sidecar.
        orphan = library.path("orphan")
        import shutil
        shutil.copy(library.path("good"), orphan)
        assert library.names() == ["good"]       # orphan invisible
        assert not library.contains("orphan")

    def test_is_process_local_overrides_library(self, tmp_path,
                                                monkeypatch):
        from repro.traceio import is_process_local
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
        TraceLibrary().add(random_trace(46), name="both")
        assert not is_process_local("both")
        registered = make_small_workload(name="both", n_instructions=500)
        register_workload(registered)
        try:
            # Registered names must never fan out to pool workers, even
            # when a same-named (different!) container exists on disk.
            assert is_process_local("both")
        finally:
            unregister_workload("both")

    def test_memo_not_stale_after_replacing_registration(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
        config = ExperimentConfig(n_instructions=60_000, n_regions=3,
                                  names=("swapped",))
        runner = SuiteRunner(config, store=ArtifactStore(enabled=False))
        first = make_small_workload(seed=5, n_instructions=60_000,
                                    name="swapped")
        register_workload(first)
        try:
            a = runner.run("swapped", "SMARTS")
            second = make_small_workload(seed=6, n_instructions=60_000,
                                         name="swapped")
            register_workload(second, replace=True)
            # No runner.release(): the active-workload cache itself must
            # notice the replaced registration.
            b = runner.run("swapped", "SMARTS")
        finally:
            unregister_workload("swapped")
        # Different trace content under the same name: the memo must
        # miss, not serve the first workload's result.
        assert result_identity(a) != result_identity(b)

    def test_release_reopens_lazily(self, tmp_path):
        container = tmp_path / "r.trace.npz"
        trace = random_trace(44)
        write_trace(trace, container)
        workload = ImportedWorkload("r", container)
        first = workload.trace
        workload.release()
        assert workload._trace is None
        assert_traces_identical(first, workload.trace)


# -- streaming execution core ------------------------------------------------

class TestStreamingExecutionCore:
    """Acceptance for the bounded-memory execution core: every strategy,
    run on a streamed (memory-mapped) container — with the index spilled
    through the store and served as memory maps — produces bit-identical
    StrategyResults to the fully materialized path."""

    def _container(self, tmp_path, name="stream", seed=8):
        workload = make_small_workload(seed=seed, n_instructions=60_000,
                                       name=name)
        container = tmp_path / f"{name}.trace.npz"
        write_trace(workload.trace, container)
        return container

    @pytest.mark.parametrize("strategy_cls", [
        pytest.param(cls, id=cls.name)
        for cls in (Smarts, CoolSim, DeLorean, NaiveDirectedWarming)])
    def test_streaming_equals_materialized_all_strategies(
            self, tmp_path, strategy_cls):
        container = self._container(tmp_path)
        plan = SamplingPlan(n_instructions=60_000, n_regions=3)
        hierarchy = paper_hierarchy(8 << 20)

        streamed = ImportedWorkload("stream", container, streaming=True)
        materialized = ImportedWorkload("stream", container,
                                        streaming=False)
        a = strategy_cls().run(streamed, plan, hierarchy,
                               index=TraceIndex(streamed.trace), seed=1)
        b = strategy_cls().run(materialized, plan, hierarchy,
                               index=TraceIndex(materialized.trace),
                               seed=1)
        assert result_identity(a) == result_identity(b)

    def test_spilled_index_run_bit_identical(self, tmp_path):
        """DeLorean on a streamed trace + store-spilled mmap index ==
        the fully materialized, in-RAM-index run."""
        from repro.core.context import ExecutionContext

        container = self._container(tmp_path, name="spilled")
        plan = SamplingPlan(n_instructions=60_000, n_regions=3)
        hierarchy = paper_hierarchy(8 << 20)
        store = ArtifactStore(root=tmp_path / "store", enabled=True)

        materialized = ImportedWorkload("spilled", container,
                                        streaming=False)
        reference = result_identity(DeLorean().run(
            materialized, plan, hierarchy,
            index=TraceIndex(materialized.trace), seed=1))

        streamed = ImportedWorkload("spilled", container, streaming=True)
        context = ExecutionContext(streamed, store=store, seed=1,
                                   spill="auto")
        result = DeLorean().run(streamed, plan, hierarchy, context=context)
        assert context.index.mapped
        assert result_identity(result) == reference
        context.release()

    def test_suite_runner_streaming_mode(self, tmp_path, monkeypatch):
        """run_matrix on an imported workload spills the index, matches
        the materialized reference, and releases every mapping."""
        import gc

        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
        monkeypatch.setenv("REPRO_INDEX_SPILL", "auto")
        container_trace = make_small_workload(
            seed=8, n_instructions=60_000, name="matrixed").trace
        TraceLibrary().add(container_trace, name="matrixed")

        store = ArtifactStore(root=tmp_path / "store", enabled=True)
        config = ExperimentConfig(n_instructions=60_000, n_regions=2,
                                  names=("matrixed",))
        runner = SuiteRunner(config, store=store)
        matrix = runner.run_matrix(("SMARTS", "DeLorean"))
        # ``_index`` (not ``.index``): reading it never builds one.
        assert runner._active_context._index is not None
        assert runner._active_context._index.mapped

        materialized = ImportedWorkload(
            "matrixed", TraceLibrary().path("matrixed"), streaming=False)
        plan = SamplingPlan(n_instructions=60_000, n_regions=2)
        reference = DeLorean().run(
            materialized, plan, paper_hierarchy(config.llc_paper_bytes),
            index=TraceIndex(materialized.trace), seed=config.seed)
        assert result_identity(matrix["DeLorean"]["matrixed"]) == \
            result_identity(reference)

        runner.release()
        materialized.release()
        gc.collect()
        if os.path.exists("/proc/self/maps"):
            with open("/proc/self/maps") as handle:
                maps = handle.read()
            assert "matrixed.trace.npz" not in maps
            assert ".blob" not in maps

    def test_release_closes_worker_opened_readers(self, tmp_path,
                                                  monkeypatch):
        """Regression: release() after a run_matrix over imported
        workloads leaks no zip-member mmaps (container or index blob)."""
        import gc

        if not os.path.exists("/proc/self/maps"):
            pytest.skip("needs /proc/self/maps to observe mappings")
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
        monkeypatch.setenv("REPRO_INDEX_SPILL", "auto")
        for seed, name in ((8, "leak-a"), (9, "leak-b")):
            TraceLibrary().add(
                make_small_workload(seed=seed, n_instructions=30_000,
                                    name=name).trace, name=name)
        store = ArtifactStore(root=tmp_path / "store", enabled=True)
        config = ExperimentConfig(n_instructions=30_000, n_regions=2,
                                  names=("leak-a", "leak-b"))
        runner = SuiteRunner(config, store=store)
        # Two imported workloads: the mid-matrix workload switch must
        # close the first one's reader and mapped index, and release()
        # the last one's.
        runner.run_matrix(("DeLorean",))
        runner.release()
        gc.collect()
        with open("/proc/self/maps") as handle:
            maps = handle.read()
        assert "leak-a.trace.npz" not in maps
        assert "leak-b.trace.npz" not in maps
        assert ".blob" not in maps


# -- tailing an appended container --------------------------------------------


class _FakeTime:
    """Deterministic clock/sleep pair for tail_chunks: time only moves
    when the reader sleeps, and scheduled actions fire on exact poll
    counts — no wall-clock racing, ever."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = 0
        self.actions = {}          # poll count -> callable

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps += 1
        self.now += seconds
        action = self.actions.pop(self.sleeps, None)
        if action is not None:
            action()


class TestTailReader:
    """Resume/refresh/tail semantics over an atomically republished
    container (the ``live tail`` transport)."""

    def _publish_prefix(self, tmp_path, full, n):
        from repro.live import prefix_trace
        path = tmp_path / "feed.trace.npz"
        write_trace(prefix_trace(full, n, name=full.name), path)
        return path

    def test_resume_skips_consumed_prefix(self, tmp_path):
        full = random_trace(21)
        cut = 3_000
        path = self._publish_prefix(tmp_path, full, cut)
        reader = TraceReader(path)
        first = list(reader.iter_chunks(chunk_instructions=1_024))
        assert first[-1].instr_hi == cut
        # The producer atomically republishes a longer generation...
        write_trace(full, path)
        reader.refresh()
        rest = list(reader.iter_chunks(chunk_instructions=1_024,
                                       instr_lo=cut))
        assert rest[0].instr_lo == cut
        assert rest[-1].instr_hi == full.n_instructions
        rebuilt = trace_from_chunks(first + rest, name=full.name)
        assert_traces_identical(rebuilt, full, "resumed tail")

    def test_resume_at_exact_tail_yields_nothing(self, tmp_path):
        full = random_trace(22)
        path = self._publish_prefix(tmp_path, full, full.n_instructions)
        reader = TraceReader(path)
        n = full.n_instructions
        assert list(reader.iter_chunks(instr_lo=n)) == []

    def test_resume_beyond_tail_is_loud(self, tmp_path):
        full = random_trace(23)
        path = self._publish_prefix(tmp_path, full, 2_000)
        reader = TraceReader(path)
        with pytest.raises(ValueError, match="stale generation"):
            list(reader.iter_chunks(instr_lo=2_001))
        with pytest.raises(ValueError):
            list(reader.iter_chunks(instr_lo=-1))

    def test_tail_follows_republished_container(self, tmp_path):
        full = random_trace(24)
        cut = 3_000
        path = self._publish_prefix(tmp_path, full, cut)
        fake = _FakeTime()
        # Republish the full trace on the third poll.
        fake.actions[3] = lambda: write_trace(full, path)
        reader = TraceReader(path)
        chunks = list(reader.tail_chunks(chunk_instructions=1_024,
                                         poll_interval=0.5,
                                         idle_timeout=2.0,
                                         clock=fake.clock,
                                         sleep=fake.sleep))
        rebuilt = trace_from_chunks(chunks, name=full.name)
        assert_traces_identical(rebuilt, full, "tailed")
        # ...and the idle deadline was reset by the growth: without the
        # reset the 2.0s timeout (deadline 2.0) would stop at poll 4;
        # the suffix at poll 3 pushes it to 1.5 + 2.0 = 3.5 → poll 7.
        assert fake.sleeps == 7

    def test_tail_idle_timeout_is_deterministic(self, tmp_path):
        full = random_trace(25)
        path = self._publish_prefix(tmp_path, full, 2_000)
        fake = _FakeTime()
        reader = TraceReader(path)
        chunks = list(reader.tail_chunks(chunk_instructions=1_024,
                                         poll_interval=0.5,
                                         idle_timeout=2.0,
                                         clock=fake.clock,
                                         sleep=fake.sleep))
        assert chunks[-1].instr_hi == 2_000
        # deadline = first idle check + 2.0s, checked before each
        # 0.5s poll: the fake clock pins the count exactly.
        assert fake.sleeps == 4

    def test_tail_retries_through_torn_republish(self, tmp_path):
        full = random_trace(26)
        cut = 3_000
        path = self._publish_prefix(tmp_path, full, cut)
        sidecar = manifest_path(path)
        stale_manifest = sidecar.read_bytes() if hasattr(sidecar, "read_bytes") \
            else open(sidecar, "rb").read()

        def tear():
            # New npz paired with the *old* generation's sidecar — the
            # torn state a crash mid-replace leaves behind.
            write_trace(full, path)
            good = open(manifest_path(path), "rb").read()
            with open(manifest_path(path), "wb") as handle:
                handle.write(stale_manifest)
            self._good_manifest = good

        def heal():
            with open(manifest_path(path), "wb") as handle:
                handle.write(self._good_manifest)

        fake = _FakeTime()
        fake.actions[2] = tear
        fake.actions[4] = heal
        reader = TraceReader(path)
        chunks = list(reader.tail_chunks(chunk_instructions=1_024,
                                         poll_interval=0.5,
                                         idle_timeout=3.0,
                                         clock=fake.clock,
                                         sleep=fake.sleep))
        rebuilt = trace_from_chunks(chunks, name=full.name)
        assert_traces_identical(rebuilt, full, "healed tail")
