"""Artifact codecs: compressed bytes <-> Python objects.

Two wire formats cover every artifact the store persists:

* ``pkl`` — zlib-compressed pickle, what :func:`encode` produces for
  everything ``ArtifactStore.save`` is given
  (:class:`~repro.sampling.results.StrategyResult`,
  :class:`~repro.core.dse.DSEReport`, warm-up bundles, manifests):
  these are the same plain dataclass graphs the process-parallel runner
  already ships between workers;
* ``npzm`` — a mapping of numpy arrays stored as an *uncompressed* npz
  whose members can be memory-mapped in place inside the blob file.
  This is the spillable-index and synthetic-trace format: tables are
  streamed into the blob without ever holding the payload in RAM
  (:func:`write_arrays_stream`) and served back as read-only
  ``np.memmap`` views (:func:`mapped_arrays`), so queries page data in
  on demand; :func:`decode` is its in-RAM fallback.  Native trace
  containers are written and mapped by the same two functions
  (:func:`write_arrays_stream`, :func:`member_view`), and every
  streamed member is zip64, so a table past 2 GiB publishes.

Stores written by earlier versions may still hold ``npz`` blobs
(compressed array mappings, labelled ``trace-index``).  Nothing decodes
them: ``cache ls``/``verify`` read only their headers and checksums, a
load that meets one (or any kind outside :data:`KINDS`) reads a miss
without quarantining it, and ``cache clear`` removes them.

Blobs only ever come from the local cache directory this process (or a
sibling worker) wrote, so pickle is acceptable; treat a cache directory
like any other writable local state.
"""

import io
import mmap
import pickle
import zipfile
import zlib

import numpy as np

try:
    from numpy.lib.array_utils import byte_bounds
except ImportError:                      # numpy < 2
    from numpy import byte_bounds

KIND_NPZ_MAPPED = "npzm"
KIND_PICKLE = "pkl"
#: The kinds :func:`decode` reads.
KINDS = (KIND_NPZ_MAPPED, KIND_PICKLE)


def encode(obj):
    """Serialize ``obj``; returns ``(kind, payload_bytes)``."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return KIND_PICKLE, zlib.compress(payload, 6)


def decode(kind, payload):
    """Inverse of :func:`encode` (and in-RAM fallback for ``npzm``)."""
    if kind == KIND_NPZ_MAPPED:
        with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
            return {name: archive[name] for name in archive.files}
    if kind == KIND_PICKLE:
        return pickle.loads(zlib.decompress(payload))
    raise ValueError(f"unknown artifact kind {kind!r}")


# -- streamed / memory-mapped npz --------------------------------------------

#: The ``madvise`` advice that unmaps resident pages; None where the
#: platform has no ``madvise``.
_MADV_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)


def release_pages(array):
    """Unmap the resident pages of a read-only memory-mapped ``array``.

    Every page read through an ``np.memmap`` stays mapped into the
    process, so streaming a mapped column grows RSS by the whole column
    although the heap stays bounded.  ``madvise(MADV_DONTNEED)`` drops
    those pages; a later read faults them back in from the page cache,
    so the data never changes.  Only maps opened with mode ``"r"`` are
    released (a writable or copy-on-write map may hold changes that
    live only in its pages), and nothing happens where the platform
    lacks ``MADV_DONTNEED``.
    """
    mapping = getattr(array, "_mmap", None)
    if (_MADV_DONTNEED is None or mapping is None or array.size == 0
            or getattr(array, "mode", None) != "r"):
        return
    base = np.frombuffer(mapping, dtype=np.uint8).ctypes.data
    low, high = byte_bounds(array)
    start = (low - base) // mmap.PAGESIZE * mmap.PAGESIZE
    mapping.madvise(_MADV_DONTNEED, start, high - base - start)


def write_arrays_stream(handle, arrays, compress=False):
    """Stream ``arrays`` into ``handle`` as an npz, uncompressed unless
    ``compress``.

    The one npz member writer: store blobs and native trace containers
    both go through it.  ``handle`` may already hold a prefix (the blob
    magic + header); zip readers locate the archive from its
    end-of-central-directory record, so a prefixed archive round-trips.
    Arrays may themselves be ``np.memmap`` views over spill files —
    ``write_array`` walks them buffer-by-buffer, and each read-only
    map's pages are released once its member is written
    (:func:`release_pages`), so peak heap stays bounded by the I/O
    buffer and peak RSS by the largest member, not the table.  Every
    member is written zip64 (``force_zip64``, as ``numpy.savez`` does):
    its size is unknown when its header goes out, and a 32-bit header
    fails at close once the member passes ``zipfile.ZIP64_LIMIT``
    (2 GiB).
    """
    compression = zipfile.ZIP_DEFLATED if compress else zipfile.ZIP_STORED
    with zipfile.ZipFile(handle, "w", compression,
                         allowZip64=True) as archive:
        for name, array in arrays.items():
            array = np.asanyarray(array)
            with archive.open(name + ".npy", "w",
                              force_zip64=True) as member:
                np.lib.format.write_array(member, array,
                                          allow_pickle=False)
            release_pages(array)


def member_view(path, info):
    """Read-only memmap of one stored (uncompressed) npz member of a
    (possibly prefixed) zip; raises ``ValueError`` on a malformed one."""
    with open(path, "rb") as handle:
        handle.seek(info.header_offset)
        local = handle.read(30)
        if len(local) < 30 or local[:4] != b"PK\x03\x04":
            raise ValueError(f"bad zip local header in {path!r}")
        name_len = int.from_bytes(local[26:28], "little")
        extra_len = int.from_bytes(local[28:30], "little")
        handle.seek(info.header_offset + 30 + name_len + extra_len)
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
        else:
            raise ValueError(f"unsupported npy version {version}")
        offset = handle.tell()
    if int(np.prod(shape)) == 0:
        return np.empty(shape, dtype=dtype)
    return np.memmap(path, mode="r", dtype=dtype, shape=shape,
                     offset=offset, order="F" if fortran else "C")


def mapped_arrays(path, payload_offset):
    """Memory-mapped views of every member of an ``npzm`` blob.

    ``payload_offset`` marks where the zip archive starts inside the
    blob file (after the store's magic + JSON header).  Members that
    were (unexpectedly) compressed are loaded into RAM instead, so the
    result is always usable.  ``zipfile`` reports ``header_offset``
    relative to the archive start it inferred from the central
    directory; for a prefixed archive that inference already absorbs the
    prefix, so offsets are absolute file positions.
    """
    views = {}
    with open(path, "rb") as handle:
        handle.seek(payload_offset)
        with zipfile.ZipFile(handle) as archive:
            for info in archive.infolist():
                if not info.filename.endswith(".npy"):
                    continue
                name = info.filename[:-len(".npy")]
                if info.compress_type == zipfile.ZIP_STORED:
                    views[name] = member_view(path, info)
                else:
                    with archive.open(info) as member:
                        views[name] = np.lib.format.read_array(
                            io.BytesIO(member.read()), allow_pickle=False)
    return views
