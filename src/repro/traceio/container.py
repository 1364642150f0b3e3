"""Native on-disk trace container: versioned npz + JSON sidecar manifest.

A container is two files next to each other::

    <stem>.trace.npz    the seven canonical Trace arrays (zip of .npy)
    <stem>.trace.json   the manifest: format version, content fingerprint,
                        instruction/access/branch counts, footprint

Every container is written by one writer (:func:`publish_container`)
under a manifest from one builder (:func:`container_manifest`), whether
the columns come from an in-RAM trace (:func:`write_trace`), a chunk
stream (:class:`TraceStreamWriter`) or the streamed importer.  Columns
are checked before they are written and after they are read by the one
column check behind :meth:`Trace.validate` and
:meth:`TraceChunk.validate`, which covers both the memory and the
branch view.

The npz is written *uncompressed* by default so the streaming
:class:`~repro.traceio.reader.TraceReader` can memory-map each member
in place (``compress=True`` trades that for a smaller file; the reader
then falls back to buffered member reads); :func:`read_trace` is that
reader's materializing case.  Every member is written zip64, so a trace
with an array past 2 GiB publishes.  The manifest's ``fingerprint`` is
the canonical SHA-256 of the array contents (the same encoding the
artifact store uses for addressing), so two imports of the same trace —
on different machines, weeks apart — agree byte-for-byte.
"""

import json
import os
import shutil
import tempfile

import numpy as np

from repro import telemetry
from repro.reliability.cleanup import register_scratch, unregister_scratch
from repro.store.fingerprint import fingerprint_arrays
from repro.store.serialize import write_arrays_stream
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
    return fingerprint_arrays(trace_arrays(trace))


#: Access rows scanned per window by :func:`container_manifest`.
_MANIFEST_WINDOW_ROWS = 1 << 18


def container_manifest(views, name, source=None, compressed=False):
    """The manifest of the canonical column ``views`` (writes nothing).

    The one manifest builder: :func:`write_trace`, the chunk writer,
    the streamed importer and the store-backed synthetic workload all
    call it, so the format cannot drift between them.  ``views`` maps
    exactly the :data:`TRACE_ARRAYS` names to one-dimensional arrays of
    their storage dtypes (spill memmaps or in-RAM arrays).  Every field is
    computed from the columns in bounded windows: the fingerprint with
    :func:`fingerprint_arrays`, the PC range from a windowed max of
    ``mem_pc`` and the footprint from a
    :class:`~repro.traceio.spill.UniqueAccumulator` over ``mem_line``.
    """
    n_instructions = int(views["kind"].shape[0])
    n_accesses = int(views["mem_instr"].shape[0])
    max_pc = None
    lines = UniqueAccumulator(np.int64)
    for lo in range(0, n_accesses, _MANIFEST_WINDOW_ROWS):
        hi = lo + _MANIFEST_WINDOW_ROWS
        window_max = int(views["mem_pc"][lo:hi].max())
        max_pc = window_max if max_pc is None else max(max_pc, window_max)
        lines.add(views["mem_line"][lo:hi])
    unique_lines = int(lines.table().shape[0])
    return {
        "format": "repro-trace",
        "format_version": TRACE_FORMAT_VERSION,
        "name": str(name),
        "fingerprint": fingerprint_arrays(views),
        "n_instructions": n_instructions,
        "n_accesses": n_accesses,
        "n_branches": int(views["branch_instr"].shape[0]),
        "n_pcs": max_pc + 1 if max_pc is not None else 0,
        "unique_lines": unique_lines,
        "footprint_bytes": unique_lines << CACHELINE_SHIFT,
        "mem_fraction": (n_accesses / n_instructions
                         if n_instructions else 0.0),
        "compressed": bool(compressed),
        "source": source,
        "arrays": {
            array_name: {"dtype": np.dtype(dtype).str,
                         "shape": [int(views[array_name].shape[0])]}
            for array_name, dtype in TRACE_ARRAYS
        },
    }


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
    the streamed importer), so the payload layout cannot drift between
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
    arrays = trace_arrays(trace)
    manifest = container_manifest(
        arrays, name if name is not None else trace.name, source=source,
        compressed=compress)
    return publish_container(path, arrays, manifest)


class TraceStreamWriter:
    """Accumulate :class:`~repro.trace.record.TraceChunk` windows into a
    native container (or a mappable array set) with bounded memory.

    Each chunk is validated (:meth:`TraceChunk.validate`, the check
    behind :meth:`Trace.validate`) and spills column-by-column to disk,
    so the canonical arrays never exist in RAM at once.
    :meth:`write_container` builds the manifest from the spilled columns
    in bounded windows (:func:`container_manifest`) and streams them
    into the uncompressed npz layout the memory-mapped reader expects.
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
        self._views = None

    def append(self, chunk):
        """Validate and spill one chunk (must follow its predecessor).

        A finished writer (after :meth:`views`) refuses through its
        closed spill columns.
        """
        telemetry.counter("stream.writer.chunks")
        if chunk.instr_lo != self.n_instructions:
            raise ValueError(
                f"chunk starts at instruction {chunk.instr_lo}, "
                f"expected {self.n_instructions}")
        chunk.validate()
        for name, _ in TRACE_ARRAYS:
            self._spill.append(name, getattr(chunk, name))
        self.n_instructions = int(chunk.instr_hi)

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

    def write_container(self, path, name=None, source=None,
                        compress=False):
        """Publish the accumulated trace as a native container.

        Same atomicity and layout as :func:`write_trace`; array data is
        copied from the spill files in bounded buffers.  Returns the
        manifest.
        """
        views = self.views()
        manifest = container_manifest(
            views, name if name is not None else "trace", source=source,
            compressed=compress)
        return publish_container(path, views, manifest)

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

    :meth:`TraceReader.materialize
    <repro.traceio.reader.TraceReader.materialize>` plus, with
    ``verify=True``, a recomputed content fingerprint that must match
    the manifest's (integrity check after a copy or a suspicious
    import).
    """
    from repro.traceio.reader import TraceReader

    with TraceReader(path) as reader:
        trace = reader.materialize()
        if verify and trace_fingerprint(trace) != \
                reader.manifest["fingerprint"]:
            raise TraceFormatError(
                f"container {path!r} does not match its manifest "
                "fingerprint")
    return trace
