"""Parallel synthetic export: phases fan out on the resilient pool.

``python -m repro synth export --jobs N`` generates a workload's phases
concurrently.  Every RNG stream in
:func:`repro.trace.stream.generate_phase_chunks` is keyed by
``(seed, name, index, phase.name)`` alone, and each phase's global
instruction offset is the summed length of its predecessors, known
upfront from the spec.  The one piece of genuinely serial state —
circular engines shared across phases carry a deterministic stream
cursor — is replayed cheaply per worker
(:func:`~repro.trace.stream.fast_forward_engines`: RNG walks only, no
address gathers).  A pool worker therefore generates exactly the chunk
stream its phase would contribute to the serial walk, and the
reassembled container is bit-identical (same fingerprint) to the
``--jobs 1`` export.

Workers spill their phase's columns to disk
(:class:`~repro.traceio.spill.ArraySpill` — one raw file per column,
opened with truncation, so a retried attempt overwrites a torn
predecessor); only row counts cross the process boundary.  The parent
memory-maps the spilled columns and re-chunks them in phase order for
the streaming writer, so peak memory stays O(chunk), same as serial.

Phases run on the resilient pool the matrix runner also uses
(:func:`repro.reliability.pool.run_rounds`): per-task deadlines
(``REPRO_TASK_TIMEOUT``), bounded retries with deterministic backoff
(``REPRO_TASK_RETRIES`` / ``REPRO_RETRY_BACKOFF``), worker-kill on a
hung task, and crash/abort distinction — aborted collateral retries for
free.  The export raises :class:`PhaseGenerationError` once every phase
has completed or exhausted its budget, naming each failed phase.
Workers visit the shared ``pool.task`` fault seam, so the chaos harness
exercises this fan-out with the same spec grammar as the runner's.
"""

import os
import shutil
import tempfile

import numpy as np

from repro import telemetry
from repro.reliability.cleanup import register_scratch, unregister_scratch
from repro.reliability.faults import active_plan, inject, visit_task_seam
from repro.reliability.pool import run_rounds
from repro.reliability.report import MatrixReport
from repro.trace.stream import (
    DEFAULT_CHUNK_INSTRUCTIONS,
    fast_forward_engines,
    generate_phase_chunks,
    workload_chunks,
)

#: The spilled phase columns — exactly a TraceChunk's array fields, in
#: the canonical container dtypes.
PHASE_COLUMNS = {
    "kind": np.uint8,
    "mem_instr": np.int64,
    "mem_line": np.int64,
    "mem_pc": np.int32,
    "mem_store": np.bool_,
    "branch_instr": np.int64,
    "branch_mispred": np.bool_,
}


class PhaseGenerationError(RuntimeError):
    """A phase task exhausted its retry budget (or returned bad data)."""


def _spill_phase_worker(benchmark, n_instructions, seed, scale, index,
                        chunk, instr_offset, phase_dir, fault_spec=None):
    """Generate one phase and spill its chunk columns (worker process).

    Module-level so it pickles.  The workload is rebuilt from the spec
    parameters — the spec is deterministic, so the phase list matches
    the parent's — and the phase streams through the same
    :func:`generate_phase_chunks` the serial path uses.  The spill
    opens with truncation, so a retry after a mid-write crash starts
    clean.  Returns ``(index, rows)`` with the per-column row counts.
    """
    from repro.trace.spec import benchmark_spec
    from repro.traceio.spill import ArraySpill

    if fault_spec is not None:
        inject(fault_spec)
    visit_task_seam(f"{benchmark}[{index}]", "entry")
    telemetry.counter("pool.task.started")
    workload = benchmark_spec(benchmark).workload(
        n_instructions=n_instructions, seed=seed, scale=scale)
    phases = list(workload._phase_factory())
    phase = phases[index]
    # Engines shared with earlier phases carry deterministic stream
    # cursors; replay the predecessors' consumption (RNG-only) so this
    # phase starts exactly where the serial walk would have it.
    fast_forward_engines(phases, index, workload.seed,
                         name=workload.name, chunk_instructions=chunk)
    os.makedirs(phase_dir, exist_ok=True)
    spill = ArraySpill(PHASE_COLUMNS, directory=phase_dir)
    for piece in generate_phase_chunks(
            phase, index, workload.seed, name=workload.name,
            chunk_instructions=chunk, instr_offset=instr_offset):
        for column in PHASE_COLUMNS:
            spill.append(column, getattr(piece, column))
    rows = {column: spill.rows(column) for column in PHASE_COLUMNS}
    spill.close()                 # flush only: the parent owns the dir
    telemetry.counter("pool.task.completed")
    visit_task_seam(f"{benchmark}[{index}]", "exit")
    telemetry.flush()
    return index, rows


def parallel_phase_chunks(benchmark, n_instructions, seed, scale,
                          chunk_instructions=DEFAULT_CHUNK_INSTRUCTIONS,
                          jobs=2, spill_parent=None):
    """Yield the workload's TraceChunk stream, phases generated in
    parallel.

    Bit-identical to ``workload_chunks(spec.workload(...))`` at the
    same ``chunk_instructions`` — same windows, same arrays — so the
    container a streaming writer builds from it carries the same
    fingerprint.  Single-phase workloads (or ``jobs <= 1``) fall back
    to the serial generator; nothing is spilled twice.
    """
    from repro.trace.spec import benchmark_spec

    chunk = max(1, int(chunk_instructions))
    workload = benchmark_spec(benchmark).workload(
        n_instructions=n_instructions, seed=seed, scale=scale)
    tasks = []                    # (index, global offset, length)
    instr_offset = 0
    for index, phase in enumerate(workload._phase_factory()):
        if phase.n_instructions > 0:
            tasks.append((index, instr_offset, phase.n_instructions))
        instr_offset += phase.n_instructions
    if int(jobs) <= 1 or len(tasks) <= 1:
        yield from workload_chunks(workload, chunk_instructions=chunk)
        return

    scratch = register_scratch(tempfile.mkdtemp(
        prefix="synth-parallel-", dir=spill_parent))
    try:
        rows_by_index = _dispatch_phases(
            benchmark, n_instructions, seed, scale, chunk, int(jobs),
            tasks, scratch)
        for index, offset, length in tasks:
            yield from _phase_windows(
                os.path.join(scratch, f"phase-{index}"),
                rows_by_index[index], offset, length, chunk, index)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        unregister_scratch(scratch)


def _dispatch_phases(benchmark, n_instructions, seed, scale, chunk, jobs,
                     tasks, scratch):
    """The phase tasks on the resilient pool; ``{index: rows}``."""
    plan = active_plan()
    fault_spec = plan.spec if plan is not None else None

    def submit(pool, index, offset):
        return pool.submit(
            _spill_phase_worker, benchmark, n_instructions, seed, scale,
            index, chunk, offset, os.path.join(scratch, f"phase-{index}"),
            fault_spec)

    report = MatrixReport()
    done = run_rounds({index: offset for index, offset, _ in tasks},
                      report, submit, jobs, seed, site="synth.export")
    failed = []
    for index in report.failed:
        record = report.tasks[index]
        failed.append(f"phase {index} of {benchmark!r} failed "
                      f"{record.attempts} times "
                      f"(last: {record.failures[-1].message})")
    if failed:
        raise PhaseGenerationError("; ".join(failed))
    return {index: rows for index, (_, rows) in done.items()}


def _phase_windows(phase_dir, rows, offset, length, chunk, index):
    """Re-chunk one spilled phase into TraceChunks, memory-mapped.

    The spilled ``mem_instr``/``branch_instr`` columns are sorted
    (global ids, ascending within the phase), so each window's rows are
    one ``searchsorted`` slice; nothing is copied until the writer
    appends.
    """
    from repro.trace.record import TraceChunk

    if rows["kind"] != length:
        raise PhaseGenerationError(
            f"phase {index} spilled {rows['kind']} instructions, "
            f"expected {length}")
    views = {}
    for column, dtype in PHASE_COLUMNS.items():
        n = rows[column]
        views[column] = (
            np.empty(0, dtype=dtype) if n == 0 else
            np.memmap(os.path.join(phase_dir, column + ".bin"),
                      mode="r", dtype=dtype, shape=(n,)))
    mem = views["mem_instr"]
    branch = views["branch_instr"]
    for lo in range(0, length, chunk):
        glo = offset + lo
        ghi = offset + min(length, lo + chunk)
        m0, m1 = np.searchsorted(mem, (glo, ghi))
        b0, b1 = np.searchsorted(branch, (glo, ghi))
        telemetry.counter("synth.parallel.chunks")
        yield TraceChunk(
            instr_lo=glo,
            instr_hi=ghi,
            kind=views["kind"][glo - offset:ghi - offset],
            mem_instr=mem[m0:m1],
            mem_line=views["mem_line"][m0:m1],
            mem_pc=views["mem_pc"][m0:m1],
            mem_store=views["mem_store"][m0:m1],
            branch_instr=branch[b0:b1],
            branch_mispred=views["branch_mispred"][b0:b1],
        )
