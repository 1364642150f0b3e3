"""Native on-disk trace container: versioned npz + JSON sidecar manifest.

A container is two files next to each other::

    <stem>.trace.npz    the seven canonical Trace arrays (zip of .npy)
    <stem>.trace.json   the manifest: format version, content fingerprint,
                        instruction/access/branch counts, footprint

The npz is written *uncompressed* by default so the streaming
:class:`~repro.traceio.reader.TraceReader` can memory-map each member
in place (``compress=True`` trades that for a smaller file; the reader
then falls back to buffered member reads).  Every member is written
zip64, so a trace with an array past 2 GiB publishes.  The manifest's
``fingerprint`` is the canonical SHA-256 of the array contents (the same
encoding the artifact store uses for addressing), so two imports of the
same trace — on different machines, weeks apart — agree byte-for-byte.
"""

import json
import os
import shutil
import tempfile

import numpy as np

from repro import telemetry
from repro.reliability.cleanup import register_scratch, unregister_scratch
from repro.store.fingerprint import fingerprint, fingerprint_arrays
from repro.store.serialize import write_arrays_stream
from repro.trace.record import Kind, Trace
from repro.traceio.spill import ArraySpill, UniqueAccumulator
from repro.util.units import CACHELINE_SHIFT

#: Version of the on-disk layout.  Bump on any change to the array set,
#: their dtypes, or manifest semantics; readers refuse newer containers.
TRACE_FORMAT_VERSION = 1

#: The canonical arrays, in manifest order, with their storage dtypes.
TRACE_ARRAYS = (
    ("kind", np.uint8),
    ("mem_instr", np.int64),
    ("mem_line", np.int64),
    ("mem_pc", np.int32),
    ("mem_store", np.bool_),
    ("branch_instr", np.int64),
    ("branch_mispred", np.bool_),
)


class TraceFormatError(ValueError):
    """A container (or its manifest) is malformed or from the future."""


def manifest_path(path):
    """The JSON sidecar path for a container at ``path``."""
    path = str(path)
    if path.endswith(".npz"):
        return path[: -len(".npz")] + ".json"
    return path + ".json"


def trace_arrays(trace):
    """The canonical ``{name: array}`` mapping of a trace (storage dtypes)."""
    return {
        name: np.ascontiguousarray(getattr(trace, name), dtype=dtype)
        for name, dtype in TRACE_ARRAYS
    }


def trace_fingerprint(trace):
    """Content address of a trace: canonical SHA-256 over its arrays."""
    return fingerprint(trace_arrays(trace))


def _assemble_manifest(name, content_fingerprint, n_instructions,
                       n_accesses, n_branches, n_pcs, unique_lines,
                       shapes, source, compressed):
    """The one assembly of the manifest dict — materialized and
    streamed writers feed it their scalars, so the format cannot
    silently drift between the two paths."""
    return {
        "format": "repro-trace",
        "format_version": TRACE_FORMAT_VERSION,
        "name": str(name),
        "fingerprint": content_fingerprint,
        "n_instructions": int(n_instructions),
        "n_accesses": int(n_accesses),
        "n_branches": int(n_branches),
        "n_pcs": int(n_pcs),
        "unique_lines": int(unique_lines),
        "footprint_bytes": int(unique_lines) << CACHELINE_SHIFT,
        "mem_fraction": (n_accesses / n_instructions
                         if n_instructions else 0.0),
        "compressed": bool(compressed),
        "source": source,
        "arrays": {
            array_name: {"dtype": np.dtype(dtype).str,
                         "shape": [int(shapes[array_name])]}
            for array_name, dtype in TRACE_ARRAYS
        },
    }


def build_manifest(trace, name=None, source=None, compressed=False):
    """The manifest dictionary for ``trace`` (no I/O)."""
    arrays = trace_arrays(trace)
    return _assemble_manifest(
        name=name if name is not None else trace.name,
        content_fingerprint=fingerprint(arrays),
        n_instructions=trace.n_instructions,
        n_accesses=trace.n_accesses,
        n_branches=arrays["branch_instr"].shape[0],
        n_pcs=(int(arrays["mem_pc"].max()) + 1
               if arrays["mem_pc"].size else 0),
        unique_lines=trace.unique_lines(),
        shapes={array_name: array.shape[0]
                for array_name, array in arrays.items()},
        source=source,
        compressed=compressed,
    )


def write_manifest_sidecar(sidecar, manifest):
    """Atomically (re)write a manifest sidecar — the one encoding of the
    manifest-on-disk format, shared by fresh writes and library
    adoption renames."""
    tmp = str(sidecar) + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, sidecar)


def publish_container(path, views, manifest):
    """Atomically publish canonical array ``views`` under a prebuilt
    ``manifest``; returns the manifest.

    The one container writer (:func:`write_trace`, the chunk writer and
    the fused importer), so the payload layout cannot drift between
    them.  Array data is copied from the views (typically spill
    memmaps) in bounded buffers by
    :func:`~repro.store.serialize.write_arrays_stream`, compressed when
    the manifest says so.  Mirrors the disk store: temp file +
    ``os.replace``, so a crashed import never leaves a half-written
    container behind.  The sidecar lands *first*: on a fresh import a
    crash between the two leaves an orphan manifest (invisible,
    harmless) rather than an unlistable npz.  When *replacing* a
    container, a crash in the window pairs the new manifest with the
    old npz — readers detect that via the manifest's array shapes and
    refuse loudly rather than serve mismatched data.
    """
    path = str(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    write_manifest_sidecar(manifest_path(path), manifest)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as handle:
            write_arrays_stream(
                handle,
                {array_name: views[array_name]
                 for array_name, _ in TRACE_ARRAYS},
                compress=manifest["compressed"])
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    os.replace(tmp, path)
    return manifest


def write_trace(trace, path, name=None, source=None, compress=False):
    """Persist ``trace`` as a native container at ``path``.

    Returns the manifest dictionary (also written to the JSON sidecar).
    ``source`` is free-form provenance recorded verbatim (e.g. the
    external file and format an importer consumed).
    """
    trace.validate()
    manifest = build_manifest(trace, name=name, source=source,
                              compressed=compress)
    return publish_container(path, trace_arrays(trace), manifest)


class TraceStreamWriter:
    """Accumulate :class:`~repro.trace.record.TraceChunk` windows into a
    native container (or a mappable array set) with bounded memory.

    Chunks spill column-by-column to disk as they arrive; summary
    statistics (counts, unique-line footprint, PC range) and the
    validation scans that :meth:`Trace.validate` would run are folded
    incrementally, so the canonical arrays never exist in RAM at once.
    ``finish``/:meth:`write_container` fingerprints the spilled columns
    in bounded batches (:func:`fingerprint_arrays` — bit-identical to
    the in-RAM :func:`trace_fingerprint`) and streams them into the
    uncompressed npz layout the memory-mapped reader expects.
    """

    def __init__(self, spill_dir=None):
        # ``spill_dir`` names the *parent* for an owned scratch
        # directory (always removed by close()).  Callers producing
        # large traces pass a parent on the same filesystem as the
        # output — the system default temp dir is commonly a RAM-backed
        # tmpfs, which would defeat the bounded-memory point.
        if spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)
        self._scratch = register_scratch(
            tempfile.mkdtemp(prefix="trace-writer-", dir=spill_dir))
        self._spill = ArraySpill(dict(
            (name, dtype) for name, dtype in TRACE_ARRAYS),
            directory=self._scratch)
        self.n_instructions = 0
        self.n_accesses = 0
        self.n_branches = 0
        self._max_pc = -1
        self._unique_lines = UniqueAccumulator(np.int64)
        self._views = None

    def append(self, chunk):
        """Validate and spill one chunk (must follow its predecessor)."""
        telemetry.counter("stream.writer.chunks")
        if self._views is not None:
            raise ValueError("writer already finished")
        if chunk.instr_lo != self.n_instructions:
            raise ValueError(
                f"chunk starts at instruction {chunk.instr_lo}, "
                f"expected {self.n_instructions}")
        if chunk.kind.shape[0] != chunk.instr_hi - chunk.instr_lo:
            raise ValueError(
                f"kind stream has {chunk.kind.shape[0]} entries for a "
                f"{chunk.instr_hi - chunk.instr_lo}-instruction window")
        mem_instr = np.asarray(chunk.mem_instr, dtype=np.int64)
        branch_instr = np.asarray(chunk.branch_instr, dtype=np.int64)
        for view, label in ((mem_instr, "memory access"),
                            (branch_instr, "branch")):
            if view.size and (view[0] < chunk.instr_lo
                              or view[-1] >= chunk.instr_hi):
                raise ValueError(f"{label} outside its chunk window")
            if np.any(np.diff(view) < 0):
                raise ValueError(f"{label} view not sorted")
        n_mem = int(np.count_nonzero(
            (chunk.kind == Kind.LOAD) | (chunk.kind == Kind.STORE)))
        if n_mem != mem_instr.shape[0]:
            raise ValueError("kind stream and memory view disagree")
        n_branch = int(np.count_nonzero(chunk.kind == Kind.BRANCH))
        if n_branch != branch_instr.shape[0]:
            raise ValueError("kind stream and branch view disagree")
        for attr in ("mem_line", "mem_pc", "mem_store"):
            if getattr(chunk, attr).shape != mem_instr.shape:
                raise ValueError(f"{attr} length mismatch")
        if chunk.branch_mispred.shape != branch_instr.shape:
            raise ValueError("branch view length mismatch")

        self._spill.append("kind", chunk.kind)
        self._spill.append("mem_instr", mem_instr)
        self._spill.append("mem_line", chunk.mem_line)
        self._spill.append("mem_pc", chunk.mem_pc)
        self._spill.append("mem_store", chunk.mem_store)
        self._spill.append("branch_instr", branch_instr)
        self._spill.append("branch_mispred", chunk.branch_mispred)

        self.n_instructions = int(chunk.instr_hi)
        self.n_accesses += n_mem
        self.n_branches += n_branch
        if chunk.mem_pc.size:
            self._max_pc = max(self._max_pc, int(chunk.mem_pc.max()))
        self._unique_lines.add(chunk.mem_line)

    def extend(self, chunks):
        """Append every chunk of an iterable; returns self (chaining)."""
        for chunk in chunks:
            self.append(chunk)
        return self

    def views(self):
        """The canonical arrays as read-only spill memmaps (finishes
        appending; the views die with :meth:`close`)."""
        if self._views is None:
            self._views = self._spill.views()
        return self._views

    def snapshot_views(self):
        """Read-only memmap views of the rows accumulated *so far*.

        Unlike :meth:`views` this does not finish the writer: appending
        may continue afterwards.  The live pipeline uses this to
        materialize the prefix trace at a watermark while the feed keeps
        growing; the views (like :meth:`views`'s) die with
        :meth:`close`.
        """
        if self._views is not None:
            return self._views
        return self._spill.snapshot_views()

    def manifest(self, name, source=None, compressed=False):
        """The manifest for the accumulated trace (no further I/O).

        Field-for-field what :func:`build_manifest` produces for the
        materialized equivalent — both feed :func:`_assemble_manifest` —
        including the content fingerprint (streamed from the spill).
        """
        views = self.views()
        return _assemble_manifest(
            name=name,
            content_fingerprint=fingerprint_arrays(views),
            n_instructions=self.n_instructions,
            n_accesses=self.n_accesses,
            n_branches=self.n_branches,
            n_pcs=self._max_pc + 1,
            unique_lines=self._unique_lines.table().shape[0],
            shapes={array_name: view.shape[0]
                    for array_name, view in views.items()},
            source=source,
            compressed=compressed,
        )

    def write_container(self, path, name=None, source=None,
                        compress=False):
        """Publish the accumulated trace as a native container.

        Same atomicity and layout as :func:`write_trace`; array data is
        copied from the spill files in bounded buffers.  Returns the
        manifest.
        """
        name = name if name is not None else "trace"
        manifest = self.manifest(name, source=source, compressed=compress)
        return publish_container(path, self.views(), manifest)

    def close(self):
        """Drop the spill files (invalidates served views)."""
        self._views = None
        self._spill.close()
        shutil.rmtree(self._scratch, ignore_errors=True)
        unregister_scratch(self._scratch)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_manifest(path):
    """Load and validate the manifest of the container at ``path``."""
    sidecar = manifest_path(path)
    try:
        with open(sidecar) as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise TraceFormatError(
            f"no manifest sidecar at {sidecar!r} (re-run 'trace import', "
            "or pass the .npz written by repro.traceio.write_trace)")
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"corrupt manifest {sidecar!r}: {exc}")
    if manifest.get("format") != "repro-trace":
        raise TraceFormatError(f"{sidecar!r} is not a repro-trace manifest")
    version = manifest.get("format_version")
    if not isinstance(version, int) or version > TRACE_FORMAT_VERSION:
        raise TraceFormatError(
            f"container format v{version} is newer than this library "
            f"understands (v{TRACE_FORMAT_VERSION})")
    return manifest


def read_trace(path, verify=False):
    """Materialize the container at ``path`` as an in-memory Trace.

    ``verify=True`` recomputes the content fingerprint and raises on a
    mismatch with the manifest (integrity check after a copy or a
    suspicious import).
    """
    manifest = read_manifest(path)
    with np.load(path, allow_pickle=False) as archive:
        members = set(archive.files)
        missing = [name for name, _ in TRACE_ARRAYS if name not in members]
        if missing:
            raise TraceFormatError(
                f"container {path!r} is missing arrays: {missing}")
        arrays = {
            name: np.ascontiguousarray(archive[name], dtype=dtype)
            for name, dtype in TRACE_ARRAYS
        }
    for name, _ in TRACE_ARRAYS:
        declared = manifest["arrays"].get(name, {}).get("shape")
        if list(arrays[name].shape) != declared:
            raise TraceFormatError(
                f"container {path!r} does not match its manifest "
                f"({name} is {list(arrays[name].shape)}, manifest says "
                f"{declared}); re-run the import")
    trace = Trace(name=manifest["name"], **arrays)
    trace.validate()
    if verify and fingerprint(trace_arrays(trace)) != manifest["fingerprint"]:
        raise TraceFormatError(
            f"container {path!r} does not match its manifest fingerprint")
    return trace
