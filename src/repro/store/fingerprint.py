"""Stable fingerprints for arbitrary experiment keys.

Every artifact in the store is addressed by the SHA-256 of a *canonical
byte encoding* of its key — a nested structure of workload spec,
experiment config, strategy options, and schema version.  The encoding
is deliberately independent of Python hash randomization, dict insertion
order, and process identity, so two processes (or two runs weeks apart)
that build the same experiment produce the same address.

The same canonicalization powers :func:`memo_key`, the in-process
memoization key: unlike ``tuple(sorted(options.items()))`` it accepts
dict-, list- and array-valued options (sorting mixed value types is what
used to raise ``TypeError`` in the suite runner).
"""

import dataclasses
import hashlib
import struct

import numpy as np

from repro.store.serialize import release_pages


def _encode(value, out):
    """Append a canonical, self-delimiting encoding of ``value``."""
    if value is None:
        out += b"N;"
    elif value is True:
        out += b"T;"
    elif value is False:
        out += b"F;"
    elif isinstance(value, int):
        body = str(value).encode()
        out += b"i" + str(len(body)).encode() + b":" + body
    elif isinstance(value, float):
        # Exact bit pattern: 1.0 and 1.0000000000000002 must differ, and
        # the encoding must not depend on repr() precision.
        out += b"f" + struct.pack(">d", value)
    elif isinstance(value, str):
        body = value.encode("utf-8")
        out += b"s" + str(len(body)).encode() + b":" + body
    elif isinstance(value, bytes):
        out += b"b" + str(len(value)).encode() + b":" + value
    elif isinstance(value, (list, tuple)):
        out += b"l" + str(len(value)).encode() + b":"
        for item in value:
            _encode(item, out)
        out += b";"
    elif isinstance(value, dict):
        # Key order must not matter: sort entries by their encoded key.
        entries = []
        for key, item in value.items():
            key_bytes = bytearray()
            _encode(key, key_bytes)
            entries.append((bytes(key_bytes), item))
        entries.sort(key=lambda pair: pair[0])
        out += b"d" + str(len(entries)).encode() + b":"
        for key_bytes, item in entries:
            out += key_bytes
            _encode(item, out)
        out += b";"
    elif isinstance(value, (set, frozenset)):
        encoded = []
        for item in value:
            item_bytes = bytearray()
            _encode(item, item_bytes)
            encoded.append(bytes(item_bytes))
        out += b"S" + str(len(encoded)).encode() + b":"
        for item_bytes in sorted(encoded):
            out += item_bytes
        out += b";"
    elif isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        out += (b"a" + data.dtype.str.encode() + b"|"
                + repr(data.shape).encode() + b"|")
        out += data.tobytes()
        out += b";"
    elif isinstance(value, np.generic):
        _encode(value.item(), out)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        out += b"D" + type(value).__qualname__.encode() + b":"
        fields = {f.name: getattr(value, f.name)
                  for f in dataclasses.fields(value)}
        _encode(fields, out)
        out += b";"
    elif hasattr(value, "cache_key") and callable(value.cache_key):
        out += b"K"
        _encode(value.cache_key(), out)
        out += b";"
    else:
        raise TypeError(
            f"cannot fingerprint {type(value).__name__!r} values; "
            "add a cache_key() method or pass plain data")
    return out


def canonical_bytes(value):
    """The canonical byte encoding of ``value`` (order-stable)."""
    return bytes(_encode(value, bytearray()))


def fingerprint(value):
    """Hex SHA-256 of the canonical encoding — the store address."""
    return hashlib.sha256(canonical_bytes(value)).hexdigest()


def memo_key(value):
    """A hashable, collision-resistant in-process key for ``value``.

    Fingerprints are stable across processes, so the same digest doubles
    as the process-local memoization key; unhashable option values
    (dicts, lists, arrays) are handled uniformly.
    """
    return fingerprint(value)


#: Array elements hashed per batch by :func:`fingerprint_arrays`.
_FP_BATCH_ROWS = 1 << 20


def fingerprint_arrays(arrays, batch_rows=_FP_BATCH_ROWS):
    """``fingerprint({name: array})`` without holding the bytes in RAM.

    Bit-identical to :func:`fingerprint` on the same mapping, but the
    array data is fed to the hash in bounded batches, each contiguous
    batch through its own buffer (only a strided one is copied) — so a
    mapping of ``np.memmap`` views over spill files (a streamed trace
    container in the making) is fingerprinted with no copy.  A
    read-only map's pages are released after each batch
    (:func:`~repro.store.serialize.release_pages`), so both the heap
    and RSS stay bounded by one batch.  Keys must be strings and values
    one-dimensional arrays, which is all the trace/ index pipelines
    ever hash this way.
    """
    entries = []
    for key, array in arrays.items():
        if not isinstance(key, str):
            raise TypeError("fingerprint_arrays requires string keys")
        array = np.asanyarray(array)
        if array.ndim != 1:
            raise TypeError("fingerprint_arrays requires 1-D arrays")
        entries.append((canonical_bytes(key), array))
    entries.sort(key=lambda pair: pair[0])

    hasher = hashlib.sha256()
    hasher.update(b"d" + str(len(entries)).encode() + b":")
    for key_bytes, array in entries:
        hasher.update(key_bytes)
        hasher.update(b"a" + array.dtype.str.encode() + b"|"
                      + repr(array.shape).encode() + b"|")
        for lo in range(0, array.shape[0], batch_rows):
            window = array[lo:lo + batch_rows]
            hasher.update(np.ascontiguousarray(window).data)
            release_pages(window)
        hasher.update(b";")
    hasher.update(b";")
    return hasher.hexdigest()
