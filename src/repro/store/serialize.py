"""Artifact codecs: compressed bytes <-> Python objects.

Three wire formats cover every artifact the store can persist:

* ``npz`` — a flat mapping of numpy arrays (``numpy.savez_compressed``),
  chosen by :func:`encode` for any dict of arrays passed to
  ``ArtifactStore.save``: exact round-trips, no pickling overhead.  No
  pipeline artifact is saved this way; stores written by earlier
  versions still hold ``trace-index`` blobs in it;
* ``npzm`` — the same mapping stored as an *uncompressed* npz whose
  members can be memory-mapped in place inside the blob file.  This is
  the spillable-index format: tables are streamed into the blob without
  ever holding the payload in RAM (:func:`write_arrays_stream`) and
  served back as read-only ``np.memmap`` views
  (:func:`mapped_arrays`), so queries page data in on demand;
* ``pkl`` — zlib-compressed pickle for everything else
  (:class:`~repro.sampling.results.StrategyResult`,
  :class:`~repro.core.dse.DSEReport`, warm-up bundles): these are the
  same plain dataclass graphs the process-parallel runner already ships
  between workers.

Blobs only ever come from the local cache directory this process (or a
sibling worker) wrote, so pickle is acceptable; treat a cache directory
like any other writable local state.
"""

import io
import pickle
import zipfile
import zlib

import numpy as np

KIND_NPZ = "npz"
KIND_NPZ_MAPPED = "npzm"
KIND_PICKLE = "pkl"


def is_array_mapping(obj):
    """True for the non-empty dict-of-ndarrays shapes the npz codec
    handles (also used by the memory tier's byte accounting)."""
    return (isinstance(obj, dict) and bool(obj)
            and all(isinstance(v, np.ndarray) for v in obj.values()))


def encode(obj):
    """Serialize ``obj``; returns ``(kind, payload_bytes)``."""
    if is_array_mapping(obj):
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **obj)
        return KIND_NPZ, buffer.getvalue()
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return KIND_PICKLE, zlib.compress(payload, 6)


def decode(kind, payload):
    """Inverse of :func:`encode` (and in-RAM fallback for ``npzm``)."""
    if kind in (KIND_NPZ, KIND_NPZ_MAPPED):
        with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
            return {name: archive[name] for name in archive.files}
    if kind == KIND_PICKLE:
        return pickle.loads(zlib.decompress(payload))
    raise ValueError(f"unknown artifact kind {kind!r}")


# -- streamed / memory-mapped npz --------------------------------------------

def write_arrays_stream(handle, arrays):
    """Stream ``arrays`` into ``handle`` as an uncompressed npz.

    ``handle`` may already hold a prefix (the blob magic + header); zip
    readers locate the archive from its end-of-central-directory record,
    so a prefixed archive round-trips.  Arrays may themselves be
    ``np.memmap`` views over spill files — ``write_array`` walks them
    buffer-by-buffer, so peak RAM stays bounded by the I/O buffer, not
    the table size.
    """
    with zipfile.ZipFile(handle, "w", zipfile.ZIP_STORED,
                         allowZip64=True) as archive:
        for name, array in arrays.items():
            with archive.open(name + ".npy", "w") as member:
                np.lib.format.write_array(member, np.asanyarray(array),
                                          allow_pickle=False)


def _member_view(path, info):
    """Read-only memmap of one stored member of a (prefixed) zip."""
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
                    views[name] = _member_view(path, info)
                else:
                    with archive.open(info) as member:
                        views[name] = np.lib.format.read_array(
                            io.BytesIO(member.read()), allow_pickle=False)
    return views
