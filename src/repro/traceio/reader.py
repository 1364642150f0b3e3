"""Chunked, out-of-core reading of native trace containers.

``TraceReader`` opens a container written by
:func:`~repro.traceio.container.publish_container` without
materializing it: each npz member stored uncompressed is memory-mapped
*in place* by :func:`~repro.store.serialize.member_view`, the mapper
the store's spilled blobs use too (the member's ``.npy`` payload is
located inside the zip and wrapped in a read-only ``np.memmap``), so a
:class:`~repro.trace.record.Trace` built over those views has the full
random-access API while the OS pages data in and out on demand.

For strictly bounded-memory sequential consumers, ``iter_chunks`` walks
the trace in instruction windows sized to a byte budget; each chunk is a
small, fully materialized window with both coordinate systems intact —
that is the truly out-of-core path.  Full *strategy* runs stream the
trace arrays, and their :class:`~repro.core.context.ExecutionContext`
builds a bounded :class:`~repro.vff.index.TraceIndex` for a streamed
trace (memory-mapped from the store when one is enabled).

Compressed containers (``compress=True`` at write time) cannot be
mapped; the reader transparently falls back to buffered loads and
``streaming`` reports ``False``.
"""

import io
import time
import zipfile

import numpy as np

from repro.reliability.faults import raise_io_fault
from repro.store.serialize import member_view
from repro.traceio.container import (
    TRACE_ARRAYS,
    TraceFormatError,
    read_manifest,
)
from repro.trace.record import Trace, TraceChunk

#: Default ``iter_chunks`` budget: the worst-case bytes a single chunk
#: may materialize.
DEFAULT_CHUNK_BYTES = 8 * 1024 * 1024

#: Bytes per row of the access view (instr + line + pc + store flag).
_ACCESS_ROW_BYTES = 8 + 8 + 4 + 1
#: Bytes per row of the branch view (instr + mispredict flag).
_BRANCH_ROW_BYTES = 8 + 1


class TraceReader:
    """Out-of-core access to one native trace container."""

    def __init__(self, path):
        self.path = str(path)
        self.manifest = read_manifest(self.path)
        self._views = None
        self._streaming = None

    # -- raw views -----------------------------------------------------------

    def _open(self):
        if self._views is not None:
            return self._views
        views = {}
        streaming = True
        try:
            raise_io_fault("reader.open")
            archive = zipfile.ZipFile(self.path)
        except (OSError, zipfile.BadZipFile) as exc:
            raise TraceFormatError(f"cannot open container {self.path!r}: "
                                   f"{exc}")
        with archive:
            for name, dtype in TRACE_ARRAYS:
                member = name + ".npy"
                try:
                    info = archive.getinfo(member)
                except KeyError:
                    raise TraceFormatError(
                        f"container {self.path!r} is missing {member!r}")
                if info.compress_type == zipfile.ZIP_STORED:
                    try:
                        view = member_view(self.path, info)
                    except ValueError as exc:
                        raise TraceFormatError(str(exc))
                else:
                    with archive.open(member) as handle:
                        view = np.lib.format.read_array(
                            io.BytesIO(handle.read()), allow_pickle=False)
                    streaming = False
                if view.dtype != np.dtype(dtype):
                    view = view.astype(dtype)
                declared = self.manifest["arrays"].get(name, {})
                if list(view.shape) != declared.get("shape"):
                    # A crash (or a racing reader) during a force-replace
                    # can pair one generation's manifest with the other's
                    # npz; serving that silently would poison every
                    # fingerprint-addressed artifact downstream.
                    raise TraceFormatError(
                        f"container {self.path!r} does not match its "
                        f"manifest ({name} is {list(view.shape)}, manifest "
                        f"says {declared.get('shape')}); re-run the import")
                views[name] = view
        self._views = views
        self._streaming = streaming
        return views

    @property
    def streaming(self):
        """True when every array is a zero-copy memory map."""
        self._open()
        return self._streaming

    def arrays(self):
        """The raw (possibly memory-mapped) canonical array views."""
        return dict(self._open())

    # -- whole-trace access --------------------------------------------------

    def trace(self, validate=True):
        """A Trace over the mapped views (out-of-core random access).

        ``validate=False`` skips :meth:`Trace.validate` — whose
        sortedness/consistency scans read *every* array end-to-end,
        faulting the whole container into memory.  Streaming consumers
        pass False: the import validated the trace once, and
        :meth:`_open` still cross-checks every member's shape against
        the manifest on each open.
        """
        views = self._open()
        trace = Trace(name=self.manifest["name"], **views)
        if validate:
            trace.validate()
        return trace

    def materialize(self):
        """A validated, fully in-memory copy of the trace."""
        views = self._open()
        arrays = {name: np.array(view, copy=True)
                  for name, view in views.items()}
        trace = Trace(name=self.manifest["name"], **arrays)
        trace.validate()
        return trace

    # -- chunked streaming ---------------------------------------------------

    def chunk_instructions_for(self, max_bytes):
        """Instruction-window length whose *average* chunk materializes
        ``max_bytes`` (densities from the manifest).  Windows denser
        than the trace average exceed the budget by their local density
        ratio — the bound is statistical, not per-chunk."""
        n_instr = max(1, int(self.manifest["n_instructions"]))
        per_instr = (
            1.0
            + _ACCESS_ROW_BYTES * self.manifest["n_accesses"] / n_instr
            + _BRANCH_ROW_BYTES * self.manifest["n_branches"] / n_instr)
        return max(1, int(max_bytes / per_instr))

    def iter_chunks(self, chunk_instructions=None,
                    max_bytes=DEFAULT_CHUNK_BYTES, instr_lo=0):
        """Yield :class:`TraceChunk` windows covering the whole trace.

        Only one chunk is materialized at a time; everything else stays
        on disk.  ``chunk_instructions`` pins the window length
        directly, otherwise it is derived from ``max_bytes`` and the
        manifest's access/branch densities.

        ``instr_lo`` resumes mid-container: chunks start there instead
        of at 0, so a tailing consumer that stopped on the old tail —
        including the boundary case where its last chunk ended *exactly*
        at the tail — picks up only the appended suffix after
        :meth:`refresh`.  An ``instr_lo`` beyond the container raises
        (the consumed position cannot exceed the trace; seeing it means
        the reader opened an older generation of a replaced container).
        """
        views = self._open()
        if chunk_instructions is None:
            chunk_instructions = self.chunk_instructions_for(max_bytes)
        chunk_instructions = max(1, int(chunk_instructions))
        n = int(self.manifest["n_instructions"])
        instr_lo = int(instr_lo)
        if instr_lo < 0 or instr_lo > n:
            raise ValueError(
                f"resume position {instr_lo} outside container "
                f"[0, {n}] — stale generation of {self.path!r}?")
        mem_instr = views["mem_instr"]
        branch_instr = views["branch_instr"]
        for lo in range(instr_lo, n, chunk_instructions):
            hi = min(n, lo + chunk_instructions)
            a_lo = int(np.searchsorted(mem_instr, lo, side="left"))
            a_hi = int(np.searchsorted(mem_instr, hi, side="left"))
            b_lo = int(np.searchsorted(branch_instr, lo, side="left"))
            b_hi = int(np.searchsorted(branch_instr, hi, side="left"))
            yield TraceChunk(
                instr_lo=lo,
                instr_hi=hi,
                kind=np.array(views["kind"][lo:hi], copy=True),
                mem_instr=np.array(mem_instr[a_lo:a_hi], copy=True),
                mem_line=np.array(views["mem_line"][a_lo:a_hi], copy=True),
                mem_pc=np.array(views["mem_pc"][a_lo:a_hi], copy=True),
                mem_store=np.array(views["mem_store"][a_lo:a_hi], copy=True),
                branch_instr=np.array(branch_instr[b_lo:b_hi], copy=True),
                branch_mispred=np.array(views["branch_mispred"][b_lo:b_hi],
                                        copy=True),
            )

    def tail_chunks(self, chunk_instructions=None,
                    max_bytes=DEFAULT_CHUNK_BYTES, instr_lo=0,
                    poll_interval=0.05, idle_timeout=None,
                    clock=time.monotonic, sleep=time.sleep):
        """Follow a container that a producer keeps republishing.

        Yields every chunk of the current generation from ``instr_lo``,
        then polls: when the container grows (an appender atomically
        replaced it with a longer trace), refreshes and yields only the
        new suffix.  Ends after ``idle_timeout`` seconds without growth
        (None follows forever).  A torn mid-replace state — sidecar and
        npz from different generations — surfaces as
        :class:`TraceFormatError` from the open; it is retried on the
        next poll rather than propagated, because the very next publish
        step resolves it.

        ``clock``/``sleep`` are injectable so tests drive the deadline
        deterministically instead of racing wall time.
        """
        consumed = int(instr_lo)
        deadline = None
        while True:
            try:
                for chunk in self.iter_chunks(
                        chunk_instructions, max_bytes, instr_lo=consumed):
                    consumed = chunk.instr_hi
                    deadline = None
                    yield chunk
            except TraceFormatError:
                # Mid-replace tear (or we mapped a stale generation):
                # drop everything and retry against the next publish.
                pass
            if idle_timeout is not None:
                now = clock()
                if deadline is None:
                    deadline = now + idle_timeout
                elif now >= deadline:
                    return
            sleep(poll_interval)
            try:
                self.refresh()
            except TraceFormatError:
                # Sidecar mid-write; keep the old manifest and retry.
                self.close()

    # -- lifecycle -----------------------------------------------------------

    def refresh(self):
        """Re-read the manifest and drop cached views.

        After an appender republishes the container (same path, longer
        trace) the cached manifest under-reports the length and the old
        memmaps point at the replaced inode; a tailing consumer calls
        this before resuming ``iter_chunks`` from its consumed
        position.
        """
        self.close()
        self.manifest = read_manifest(self.path)

    def close(self):
        """Drop every view (unmaps the file once consumers release it)."""
        self._views = None
        self._streaming = None

    def __enter__(self):
        self._open()
        return self

    def __exit__(self, *exc):
        self.close()
