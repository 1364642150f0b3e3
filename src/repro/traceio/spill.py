"""Append-only array spill files: bounded-RAM accumulation of columns.

The chunked pipelines (synthetic generation, chunk-granular import) all
share one shape: a producer emits bounded batches of a fixed column set,
and a consumer later needs each column as one contiguous array — for
fingerprinting, container assembly, or memory-mapped serving — without
the column ever living in RAM.  :class:`ArraySpill` is that
accumulator: one raw binary file per column, appended chunk-by-chunk,
served back as read-only ``np.memmap`` views once complete.
"""

import os
import shutil
import tempfile

import numpy as np

from repro.reliability.cleanup import register_scratch, unregister_scratch


class UniqueAccumulator:
    """Amortized sorted-unique merge over chunked key batches.

    Per-chunk ``np.union1d`` against the full accumulated table would
    cost O(chunks x unique) — quadratic over a long ingest.  Batches are
    instead buffered (their per-chunk uniques only) and merged when the
    buffer outgrows the table, so total work is O(n log n) while memory
    stays O(unique + buffer), with the buffer bounded by the table size
    plus one batch.
    """

    def __init__(self, dtype):
        self._table = np.empty(0, dtype=dtype)
        self._pending = []
        self._pending_rows = 0

    def add(self, values):
        if len(values) == 0:
            return
        unique = np.unique(np.asarray(values, dtype=self._table.dtype))
        self._pending.append(unique)
        self._pending_rows += unique.shape[0]
        if self._pending_rows >= max(1 << 20, self._table.shape[0]):
            self._merge()

    def _merge(self):
        if self._pending:
            self._table = np.unique(
                np.concatenate([self._table] + self._pending))
            self._pending = []
            self._pending_rows = 0

    def table(self):
        """The merged sorted-unique array."""
        self._merge()
        return self._table


class ArraySpill:
    """A directory of append-only typed columns.

    Parameters
    ----------
    columns:
        ``{name: dtype}`` of the columns to accumulate.
    directory:
        Where the spill files live.  ``None`` creates (and owns) a fresh
        temporary directory, removed by :meth:`close`.
    """

    def __init__(self, columns, directory=None):
        self.columns = {name: np.dtype(dtype)
                        for name, dtype in dict(columns).items()}
        self._owned = directory is None
        self.directory = (register_scratch(
            tempfile.mkdtemp(prefix="trace-spill-"))
                          if directory is None else str(directory))
        os.makedirs(self.directory, exist_ok=True)
        self._handles = {
            name: open(self._path(name), "wb")
            for name in self.columns
        }
        self._rows = {name: 0 for name in self.columns}

    def _path(self, name):
        return os.path.join(self.directory, name + ".bin")

    def append(self, name, array):
        """Append ``array`` (cast to the column dtype) to one column."""
        handle = self._handles.get(name)
        if handle is None:
            raise ValueError(f"unknown or closed spill column {name!r}")
        data = np.ascontiguousarray(array, dtype=self.columns[name])
        handle.write(data.tobytes())
        self._rows[name] += data.shape[0]

    def rows(self, name):
        """Rows appended to one column so far."""
        return self._rows[name]

    def views(self):
        """Finish writing; read-only memmap views of every column.

        Zero-row columns come back as ordinary empty arrays (a zero-byte
        file cannot be mapped).
        """
        self._flush()
        views = {}
        for name, dtype in self.columns.items():
            if self._rows[name] == 0:
                views[name] = np.empty(0, dtype=dtype)
            else:
                views[name] = np.memmap(self._path(name), mode="r",
                                        dtype=dtype,
                                        shape=(self._rows[name],))
        return views

    def flush(self):
        """Flush every open handle without closing it.

        Makes the rows appended so far durable on disk so that
        :meth:`snapshot_views` (or another reader of the spill files) sees
        them, while the spill stays appendable.
        """
        for handle in self._handles.values():
            if handle is not None:
                handle.flush()

    def snapshot_views(self):
        """Read-only memmap views of the rows appended *so far*.

        Unlike :meth:`views` this does not finish the spill: appending may
        continue afterwards.  Each view is sized to the current row count;
        later appends grow the files underneath without disturbing already
        mapped prefixes (POSIX mmap maps a fixed length).
        """
        self.flush()
        views = {}
        for name, dtype in self.columns.items():
            if self._rows[name] == 0:
                views[name] = np.empty(0, dtype=dtype)
            else:
                views[name] = np.memmap(self._path(name), mode="r",
                                        dtype=dtype,
                                        shape=(self._rows[name],))
        return views

    def _flush(self):
        for name, handle in self._handles.items():
            if handle is not None:
                handle.flush()
                handle.close()
                # None the entry so append()'s closed-column guard fires
                # with its own diagnostic instead of a bare I/O error.
                self._handles[name] = None

    def close(self):
        """Close handles and remove an owned spill directory.

        Any :meth:`views` memmaps become invalid once the files are
        gone — callers copy or re-publish what they need first.
        """
        self._flush()
        if self._owned:
            shutil.rmtree(self.directory, ignore_errors=True)
            unregister_scratch(self.directory)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
