"""Trace record types.

A :class:`Trace` is a materialized dynamic execution: a per-instruction
kind stream plus a compact *memory-access view* (one row per load/store)
and a *branch view*.  Reuse distances in the paper are counted in memory
accesses while windows (regions, warm-up intervals, explorer reaches) are
expressed in instructions; the trace therefore keeps, for every memory
access, the index of the instruction that issued it, and offers
``searchsorted``-based conversion between the two coordinate systems.
"""

from dataclasses import dataclass

import numpy as np

from repro.util.units import CACHELINE_SHIFT


class Kind:
    """Instruction kind codes used in :attr:`Trace.kind`."""

    ALU = 0
    LOAD = 1
    STORE = 2
    BRANCH = 3


@dataclass
class Trace:
    """A materialized instruction/memory trace.

    Attributes
    ----------
    kind:
        ``uint8`` array, one entry per instruction (:class:`Kind` codes).
    mem_instr:
        ``int64`` array: instruction index of each memory access, ascending.
    mem_line:
        ``int64`` array: cacheline address (byte address >> 6) per access.
    mem_pc:
        ``int32`` array: static PC id of the load/store per access.
    mem_store:
        ``bool`` array: True for stores.
    branch_instr:
        ``int64`` array: instruction index of each branch.
    branch_mispred:
        ``bool`` array: True if the branch mispredicts under the modeled
        (identically-warmed) predictor.  Materializing the outcome keeps
        branch behaviour identical across warming strategies, so CPI
        differences trace back to cache-miss classification only.
    """

    kind: np.ndarray
    mem_instr: np.ndarray
    mem_line: np.ndarray
    mem_pc: np.ndarray
    mem_store: np.ndarray
    branch_instr: np.ndarray
    branch_mispred: np.ndarray
    name: str = "trace"

    @property
    def n_instructions(self):
        """Total dynamic instruction count."""
        return int(self.kind.shape[0])

    @property
    def n_accesses(self):
        """Total dynamic memory-access count."""
        return int(self.mem_instr.shape[0])

    def validate(self):
        """Check internal consistency; raises ``ValueError`` on corruption."""
        check_columns(self, 0, self.n_instructions)

    # -- coordinate conversion -------------------------------------------

    def access_range(self, instr_lo, instr_hi):
        """Memory-access index range for instructions ``[instr_lo, instr_hi)``.

        Returns ``(lo, hi)`` such that ``mem_instr[lo:hi]`` are exactly the
        accesses issued by that instruction window.
        """
        lo = int(np.searchsorted(self.mem_instr, instr_lo, side="left"))
        hi = int(np.searchsorted(self.mem_instr, instr_hi, side="left"))
        return lo, hi

    def branch_range(self, instr_lo, instr_hi):
        """Branch index range for instructions ``[instr_lo, instr_hi)``."""
        lo = int(np.searchsorted(self.branch_instr, instr_lo, side="left"))
        hi = int(np.searchsorted(self.branch_instr, instr_hi, side="left"))
        return lo, hi

    def instructions_between_accesses(self, access_lo, access_hi):
        """Instruction count spanned by accesses ``[access_lo, access_hi)``."""
        if access_hi <= access_lo:
            return 0
        return int(self.mem_instr[access_hi - 1] - self.mem_instr[access_lo]) + 1

    # -- summary statistics ----------------------------------------------

    def unique_lines(self, access_lo=0, access_hi=None):
        """Number of unique cachelines touched by an access range."""
        if access_hi is None:
            access_hi = self.n_accesses
        window = self.mem_line[access_lo:access_hi]
        return int(np.unique(window).size)

    def footprint_bytes(self):
        """Total unique-data footprint of the trace in bytes."""
        return self.unique_lines() << CACHELINE_SHIFT

    def mem_fraction(self):
        """Fraction of instructions that are loads or stores."""
        if self.n_instructions == 0:
            return 0.0
        return self.n_accesses / self.n_instructions


@dataclass
class TraceChunk:
    """One bounded window of a streamed trace.

    The unit both producers and consumers of chunked traces speak: the
    synthetic chunk generator (:func:`repro.trace.stream.generate_chunks`),
    the chunked container reader
    (:meth:`repro.traceio.reader.TraceReader.iter_chunks`), the stream
    writer and the live runner all emit/accept it.  Access/branch
    coordinates are *absolute* (trace-global); use :meth:`to_trace` for a
    self-contained window with local coordinates.
    """

    instr_lo: int
    instr_hi: int
    kind: np.ndarray
    mem_instr: np.ndarray
    mem_line: np.ndarray
    mem_pc: np.ndarray
    mem_store: np.ndarray
    branch_instr: np.ndarray
    branch_mispred: np.ndarray

    @property
    def n_instructions(self):
        return self.instr_hi - self.instr_lo

    @property
    def n_accesses(self):
        return int(self.mem_instr.shape[0])

    def nbytes(self):
        """Materialized size of this chunk."""
        return sum(a.nbytes for a in (
            self.kind, self.mem_instr, self.mem_line, self.mem_pc,
            self.mem_store, self.branch_instr, self.branch_mispred))

    def validate(self):
        """Check the window's columns; raises ``ValueError`` on corruption."""
        check_columns(self, self.instr_lo, self.instr_hi)

    def to_trace(self, name="chunk"):
        """A standalone, validated Trace of this window (local coords)."""
        trace = Trace(
            kind=self.kind,
            mem_instr=self.mem_instr - self.instr_lo,
            mem_line=self.mem_line,
            mem_pc=self.mem_pc,
            mem_store=self.mem_store,
            branch_instr=self.branch_instr - self.instr_lo,
            branch_mispred=self.branch_mispred,
            name=name,
        )
        trace.validate()
        return trace


def check_columns(columns, instr_lo, instr_hi):
    """The one consistency check of the canonical columns.

    ``columns`` (a :class:`Trace` or a :class:`TraceChunk`) must cover
    the instruction window ``[instr_lo, instr_hi)``: one kind entry per
    instruction, and memory and branch views that are sorted, inside the
    window, as long as their kind counts and aligned with their payload
    columns.  Raises ``ValueError`` on the first violation.
    """
    kind = columns.kind
    if kind.shape[0] != instr_hi - instr_lo:
        raise ValueError(
            f"kind stream has {kind.shape[0]} entries for a "
            f"{instr_hi - instr_lo}-instruction window")
    n_mem = (int(np.count_nonzero(kind == Kind.LOAD))
             + int(np.count_nonzero(kind == Kind.STORE)))
    n_branch = int(np.count_nonzero(kind == Kind.BRANCH))
    for view, count, label in ((columns.mem_instr, n_mem, "memory"),
                               (columns.branch_instr, n_branch, "branch")):
        if view.size and (view[0] < instr_lo or view[-1] >= instr_hi):
            raise ValueError(f"{label} view outside the instruction window")
        if np.any(view[1:] < view[:-1]):
            raise ValueError(f"{label} view not sorted by instruction")
        if view.shape[0] != count:
            raise ValueError(f"kind stream and {label} view disagree")
    for attr in ("mem_line", "mem_pc", "mem_store"):
        if getattr(columns, attr).shape != columns.mem_instr.shape:
            raise ValueError(f"{attr} length mismatch")
    if columns.branch_mispred.shape != columns.branch_instr.shape:
        raise ValueError("branch view length mismatch")


def trace_from_chunks(chunks, name="trace"):
    """Concatenate :class:`TraceChunk` windows into a validated Trace.

    Chunks must arrive in order and cover the trace contiguously from
    instruction 0 (what :func:`repro.trace.stream.generate_chunks` and
    :meth:`~repro.traceio.reader.TraceReader.iter_chunks` yield).  This
    is the materializing consumer: :func:`~repro.trace.phases.build_trace`
    concatenates its one-chunk-per-phase stream with it, and
    differential tests use it to compare chunked producers.
    """
    parts = {field: [] for field in (
        "kind", "mem_instr", "mem_line", "mem_pc", "mem_store",
        "branch_instr", "branch_mispred")}
    expected_lo = 0
    for chunk in chunks:
        if chunk.instr_lo != expected_lo:
            raise ValueError(
                f"chunk starts at instruction {chunk.instr_lo}, "
                f"expected {expected_lo}")
        expected_lo = chunk.instr_hi
        for field in parts:
            parts[field].append(getattr(chunk, field))

    def _cat(field, dtype):
        arrays = parts[field]
        if not arrays:
            return np.empty(0, dtype=dtype)
        # A lone part (one phase of build_trace) is taken as it is.
        whole = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        return whole.astype(dtype, copy=False)

    trace = Trace(
        kind=_cat("kind", np.uint8),
        mem_instr=_cat("mem_instr", np.int64),
        mem_line=_cat("mem_line", np.int64),
        mem_pc=_cat("mem_pc", np.int32),
        mem_store=_cat("mem_store", bool),
        branch_instr=_cat("branch_instr", np.int64),
        branch_mispred=_cat("branch_mispred", bool),
        name=name,
    )
    trace.validate()
    return trace
