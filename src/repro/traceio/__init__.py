"""Trace I/O: external trace ingestion and out-of-core streaming.

The paper evaluates DeLorean on real SPEC CPU2006 traces under gem5;
this subsystem opens the reproduction to arbitrary real-world workloads:

* **formats** (:mod:`repro.traceio.formats`): one event parser per
  external format (ChampSim binary, Valgrind-Lackey/gem5 text, generic
  CSV) behind one dispatch, ``parse_events``, plus the exporters.
  ``import_trace`` normalizes a whole file in RAM into the canonical
  :class:`~repro.trace.record.Trace` arrays — cacheline normalization,
  PC interning, and deterministic ``branch_mispred`` synthesis through
  the Table 1 tournament predictor — and is the in-RAM reference;
* the **streamed importer** (:mod:`repro.traceio.ingest`), the one
  pipeline behind ``trace import``: parse batches are normalized in
  flight and spill to disk, PCs intern in a second bounded pass, and
  the container assembles with O(chunk + unique keys) peak memory —
  bit-identical to ``write_trace(import_trace(...))``;
* the **native container** (:mod:`repro.traceio.container`) persists a
  trace as a versioned npz plus JSON manifest (content fingerprint,
  footprint, instruction/access counts), so an import is a one-time
  cost.  One manifest builder (``container_manifest``) and one writer
  serve every producer, and one column check (``Trace.validate``,
  ``TraceChunk.validate``) guards every write and read;
* the **streaming reader** (:mod:`repro.traceio.reader`) memory-maps a
  container for out-of-core random access and bounded-budget chunk
  iteration — the path for traces larger than RAM; ``read_trace`` is
  its materializing case;
* the **registry** (:mod:`repro.traceio.workload`) plugs imported
  traces into the Workload machinery: the suite runner resolves
  imported names before the synthetic SPEC specs, so DeLorean, the
  warm-up pipeline, ``run_matrix`` and DSE consume them unchanged.

CLI: ``python -m repro trace import|info|convert|ls`` and
``python -m repro synth export`` (chunk-wise synthetic containers).
"""

from repro.traceio.container import (
    TRACE_FORMAT_VERSION,
    TraceFormatError,
    TraceStreamWriter,
    container_manifest,
    read_manifest,
    read_trace,
    trace_fingerprint,
    write_trace,
)
from repro.traceio.formats import (
    FORMAT_NAMES,
    TraceImportError,
    export_trace,
    import_trace,
    synthesize_mispredicts,
)
from repro.traceio.ingest import import_trace_streamed
from repro.traceio.reader import TraceChunk, TraceReader
from repro.traceio.workload import (
    ImportedWorkload,
    TraceLibrary,
    default_trace_dir,
    is_process_local,
    register_workload,
    registered_names,
    resolve_workload,
    unregister_workload,
    workload_fingerprint,
)

__all__ = [
    "TRACE_FORMAT_VERSION",
    "TraceFormatError",
    "TraceStreamWriter",
    "container_manifest",
    "read_manifest",
    "read_trace",
    "trace_fingerprint",
    "write_trace",
    "FORMAT_NAMES",
    "TraceImportError",
    "export_trace",
    "import_trace",
    "import_trace_streamed",
    "synthesize_mispredicts",
    "TraceChunk",
    "TraceReader",
    "ImportedWorkload",
    "TraceLibrary",
    "default_trace_dir",
    "is_process_local",
    "register_workload",
    "registered_names",
    "resolve_workload",
    "unregister_workload",
    "workload_fingerprint",
]
