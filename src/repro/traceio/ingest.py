"""Streamed trace import: parse → normalize-in-flight → container.

The bounded-memory pipeline behind ``trace import`` and ``trace convert
--to native``, fused into a single pass over the event stream:

1. **Parse + normalize pass.**  :func:`~repro.traceio.formats.parse_events`
   yields bounded batches of aligned event arrays; each batch is
   normalized *in flight* — addresses collapse to cachelines,
   instruction views derive from the kind stream at a running offset,
   and the branch stream replays through one persistent tournament
   predictor (sequential, so per-batch replay is bit-identical to one
   call) — and the resulting canonical columns spill straight to the
   container's column files (:class:`~repro.traceio.spill.ArraySpill`).
   Only the raw memory PCs also spill as an *event* column, because
   their dense ids depend on the complete distinct-PC table; the
   distinct PCs are merged chunk-by-chunk alongside (O(unique PCs)
   state).
2. **Intern pass.**  The merged PCs are written to a spill file and
   memory-mapped back; the raw PC spill re-reads in bounded windows and
   interns against the table (``searchsorted`` — bit-identical to the
   in-RAM ``np.unique`` interning) into the one canonical column pass 1
   could not produce.

The container publishes directly from the pass-1 spill via
:func:`~repro.traceio.container.publish_container`, under the manifest
:func:`~repro.traceio.container.container_manifest` builds from the
spilled columns.  Peak transient memory is O(chunk + unique PCs +
unique lines); the canonical arrays never exist in RAM.  The
differential harness asserts the container is bit-identical to
``write_trace(import_trace(...))``, the in-RAM reference, for every
format and chunk size, and the telemetry counters pin the fusion:
``ingest.parse_batches`` counts the single event pass,
``ingest.intern_chunks`` the PC-only second pass, and the writer's
``stream.writer.chunks`` stays at zero.
"""

import os
import shutil
import tempfile

import numpy as np

from repro import telemetry
from repro.cpu.branch import TournamentPredictor
from repro.reliability.cleanup import register_scratch, unregister_scratch
from repro.cpu.config import ProcessorConfig
from repro.trace.record import Kind
from repro.traceio.container import (
    TRACE_ARRAYS,
    container_manifest,
    publish_container,
)
from repro.traceio.formats import (
    DEFAULT_IMPORT_CHUNK,
    TraceImportError,
    _default_name,
    parse_events,
    synthesize_mispredicts,
)
from repro.traceio.spill import ArraySpill, UniqueAccumulator
from repro.util.units import CACHELINE_SHIFT


def import_trace_streamed(path, fmt, out_path, name=None, source=None,
                          chunk_instructions=None, compress=False,
                          spill_dir=None, config=None):
    """Import an external trace into a container with bounded memory.

    The produced container (npz + manifest sidecar at ``out_path``) is
    bit-identical in content and fingerprint to
    ``write_trace(import_trace(path, fmt))``.  Returns the manifest.
    ``spill_dir`` names the *parent* for the scratch directory; the
    scratch itself is always removed, success or failure.  The default
    parent is the output container's directory — same filesystem as the
    trace being built, where the system temp dir is commonly a
    RAM-backed tmpfs that would defeat the bounded-memory point.
    """
    chunk = max(1, int(chunk_instructions or DEFAULT_IMPORT_CHUNK))
    name = name or _default_name(path)
    with telemetry.span("phase.ingest", rss=True, trace=name, fmt=fmt):
        return _import_trace_streamed(
            path, fmt, out_path, name, source, chunk, compress,
            spill_dir, config)


def _import_trace_streamed(path, fmt, out_path, name, source, chunk,
                           compress, spill_dir, config):
    if spill_dir is None:
        spill_dir = os.path.dirname(os.path.abspath(out_path))
    os.makedirs(spill_dir, exist_ok=True)

    # Registered for sweep-on-exit: a SIGTERM mid-import must not leak
    # gigabytes of spilled columns next to the output container.
    scratch = register_scratch(
        tempfile.mkdtemp(prefix="trace-import-", dir=spill_dir))
    try:
        # The canonical column set spills directly; the raw memory PCs
        # are the only event column written to disk (their dense ids
        # need the complete distinct-PC table, known only after the
        # parse pass).
        canonical = ArraySpill(
            dict((name_, dtype) for name_, dtype in TRACE_ARRAYS),
            directory=os.path.join(scratch, "canonical"))
        raw_pcs = ArraySpill({"mem_pc": np.uint64},
                             directory=os.path.join(scratch, "events"))
        pcs = UniqueAccumulator(np.uint64)
        predictor = TournamentPredictor(config or ProcessorConfig())
        offset = 0           # running instruction count
        n_mem = 0            # LOAD|STORE entries in the kind stream
        n_branches = 0       # BRANCH entries in the kind stream
        n_mem_events = 0     # memory operand rows the parser yielded
        n_branch_events = 0  # branch rows the parser yielded
        aligned = True
        for batch in parse_events(path, fmt, chunk):
            telemetry.counter("ingest.parse_batches")
            kind = np.asarray(batch["kind"], dtype=np.uint8)
            mem_pos = np.flatnonzero(
                (kind == Kind.LOAD) | (kind == Kind.STORE))
            branch_pos = np.flatnonzero(kind == Kind.BRANCH)
            n_mem += mem_pos.shape[0]
            n_branches += branch_pos.shape[0]
            n_mem_events += len(batch["mem_addr"])
            n_branch_events += len(batch["branch_pc"])
            pcs.add(batch["mem_pc"])
            # Event batches are aligned by the parser contract (each
            # batch's operand rows pair with its own kind entries).  A
            # misaligned batch cannot be normalized; keep draining the
            # parser so the count diagnostics below see the full totals.
            if (len(batch["mem_addr"]) != mem_pos.shape[0]
                    or len(batch["branch_pc"]) != branch_pos.shape[0]):
                aligned = False
            if not aligned:
                offset += kind.shape[0]
                continue
            addr = np.asarray(batch["mem_addr"], dtype=np.uint64)
            canonical.append("kind", kind)
            canonical.append("mem_instr", mem_pos.astype(np.int64) + offset)
            canonical.append("mem_line",
                             (addr >> CACHELINE_SHIFT).astype(np.int64))
            canonical.append("mem_store", kind[mem_pos] == Kind.STORE)
            canonical.append("branch_instr",
                             branch_pos.astype(np.int64) + offset)
            canonical.append("branch_mispred", synthesize_mispredicts(
                batch["branch_pc"], batch["branch_taken"],
                predictor=predictor))
            raw_pcs.append("mem_pc", batch["mem_pc"])
            offset += kind.shape[0]

        if n_mem_events != n_mem:
            raise TraceImportError(
                f"{n_mem_events} memory operands for "
                f"{n_mem} memory instructions")
        if n_branch_events != n_branches:
            raise TraceImportError(
                f"{n_branch_events} branch records for "
                f"{n_branches} branch instructions")
        if not aligned:
            raise TraceImportError(
                "event batches misaligned with their kind streams "
                "(parser yielded operand rows across batch boundaries)")

        # The interning table serves pass 2 from disk; pass 2 touches
        # only the raw-PC spill, in bounded windows.
        table = _spill_pc_table(pcs.table(), scratch)
        del pcs
        raw_views = raw_pcs.views()
        for lo in range(0, n_mem, chunk):
            telemetry.counter("ingest.intern_chunks")
            window = np.asarray(raw_views["mem_pc"][lo:lo + chunk],
                                dtype=np.uint64)
            canonical.append(
                "mem_pc", np.searchsorted(table, window).astype(np.int32))

        views = canonical.views()
        manifest = container_manifest(views, name, source=source,
                                      compressed=compress)
        return publish_container(out_path, views, manifest)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        unregister_scratch(scratch)


def _spill_pc_table(pc_table, directory):
    """Write the sorted-unique PC ids to disk; a memory-mapped view."""
    if pc_table.size == 0:
        return np.empty(0, dtype=np.uint64)
    path = os.path.join(directory, "pc_table.npy")
    table = np.lib.format.open_memmap(path, mode="w+", dtype=np.uint64,
                                      shape=pc_table.shape)
    table[:] = pc_table
    table.flush()
    return np.lib.format.open_memmap(path, mode="r")
