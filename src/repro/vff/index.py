"""Per-line and per-page access-position indices over a trace.

A real DeLorean run discovers reuses by executing with watchpoints; the
trace-driven substitute answers the same questions from a sorted index:
*when was line L last accessed before access position P?* and *how many
accesses hit page G inside a window?* (the stop count a page-protection
watchpoint would have taken).  The index groups the access positions
by key at each granularity, and every query is a binary search.
Every window question — how often, and when last, did these keys occur
in ``[lo, hi)``? — is one :meth:`_PositionIndex.batch_counts_and_last`,
which holds the per-key reference as well as the batched search.
Beside the grouped tables, each granularity keeps the one per-access
table its queries read: the lines' successors and the pages' ranks
(:meth:`TraceIndex.batch_await_reuse`) — eight tables in all.

Two construction paths exist:

* the in-RAM build (``TraceIndex(trace)``) is one compiled call on the
  ``native`` backend (``kernels.native.build_index``): it counts the
  distinct lines in a hash table, sorts only those, and places every
  access in one pass in position order — the fastest build, for
  traces that are RAM-resident anyway;
* the bounded **append/seal** build (:class:`LiveIndexBuilder`) folds
  accesses in windows of ``chunk_accesses`` — grouping each window by
  key through :func:`_group_by_key`, which packs key and position into
  one int64 so that a plain sort yields the stable order — and seals
  the eight tables for the prefix consumed so far.  A live feed seals
  at every watermark; a batch build (:meth:`TraceIndex.build_spilled`,
  and ``TraceIndex(trace)`` under ``scalar`` or without a compiler) is
  one append of the whole trace and one seal, the reference the
  compiled build is tested against.  With a spill directory an epoch
  stays in the builder's spill files as read-only memory maps (a
  spilled batch build is published to the store and served from it,
  :meth:`TraceIndex.open`): queries then touch only the table pages the
  watchpoints direct them to, so a strategy run's resident set scales
  with the sampled regions rather than the trace length.
"""

import os
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro import kernels, telemetry
from repro.reliability.cleanup import register_scratch, unregister_scratch
from repro.util.units import CACHELINE_SHIFT, PAGE_SHIFT

#: Default accesses per construction chunk (~24 MiB of transient arrays
#: at 8-byte keys; override per call or with ``REPRO_INDEX_CHUNK``).
DEFAULT_CHUNK_ACCESSES = 1 << 20

_PAGE_OF_LINE_SHIFT = PAGE_SHIFT - CACHELINE_SHIFT

#: The one per-access table each granularity's queries read.
_PER_ACCESS = {"lines": "successors", "pages": "ranks"}


def _as_int64(array):
    """``array`` as contiguous int64 — without copying when it already
    is (memory-mapped views must be adopted, not materialized)."""
    array = np.asanyarray(array)
    if array.dtype != np.int64 or not array.flags.c_contiguous:
        array = np.ascontiguousarray(array, dtype=np.int64)
    return array


def _own_bytes(window):
    """Bytes ``window`` holds of its own: none when it is a view of the
    feed (a line window of an int64 feed), else its size."""
    return 0 if window.base is not None else window.nbytes


def _group_by_key(keys):
    """Group the positions ``0..n-1`` of ``keys`` by key, stably.

    Returns ``(order, unique, starts, lengths)``: ``order`` is what
    ``np.argsort(keys, kind="stable")`` returns, ``unique`` the distinct
    keys ascending (in ``keys``' dtype), and ``starts``/``lengths`` each
    key's run within ``order``.  The position rides in the low bits of
    one packed int64, ``(key - min) << bits | position``, so a single
    unstable sort yields the stable order.  The packed key must fit in
    63 bits, so it stays non-negative: when the key span ``max - min``
    needs more than ``63 - bits`` bits, the stable argsort runs instead.
    """
    keys = np.asarray(keys)
    n = keys.shape[0]
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, keys[:0].copy(), empty, empty
    bits = (n - 1).bit_length()
    lo = int(keys.min())
    # Python ints: the span of int64 keys may itself overflow int64.
    if int(keys.max()) - lo < 1 << (63 - bits):
        packed = keys.astype(np.int64)
        packed -= lo
        packed <<= bits
        packed |= np.arange(n, dtype=np.int64)
        packed.sort()
        order = packed & ((1 << bits) - 1)
        sorted_keys = packed
        sorted_keys >>= bits              # in place: key - min per slot
    else:
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    lengths = np.diff(starts, append=n)
    return order, keys[order[starts]], starts, lengths


def _insert_keys(keys, unique, *columns):
    """Merge the sorted distinct ``unique`` into the sorted key table.

    Each column is a ``(state, fill)`` pair: a per-key array aligned
    with ``keys`` and the value a newly inserted key starts with.
    Returns the merged keys, the realigned state arrays and the slot of
    every ``unique`` key in the merged table.
    """
    slot = np.searchsorted(keys, unique)
    fresh = slot == keys.shape[0]
    fresh[~fresh] = keys[slot[~fresh]] != unique[~fresh]
    states = [state for state, _ in columns]
    if fresh.any():
        at = slot[fresh]
        keys = np.insert(keys, at, unique[fresh])
        states = [np.insert(state, at, fill) for state, fill in columns]
        slot = np.searchsorted(keys, unique)
    return keys, states, slot


class _PositionIndex:
    """Sorted access positions grouped by key (line or page).

    ``_positions`` lists every access position grouped by key, each
    key's run ascending; ``_keys`` holds the distinct keys ascending and
    ``_starts`` each key's run start in ``_positions`` (plus the access
    count at the end).  Beside them a part carries the one per-access
    table its queries read: the lines' ``successors`` (each access's
    next same-line position, -1 if none) and the pages' ``ranks`` (how
    many same-page accesses precede each access); the other is None.
    """

    @classmethod
    def from_tables(cls, positions, keys, starts, successors=None,
                    ranks=None):
        """Adopt built tables.

        Tables may be memory-mapped views — they are adopted as-is (no
        copy) when already the right dtype, which is what keeps a
        spilled index out of RAM.
        """
        index = cls.__new__(cls)
        index._positions = _as_int64(positions)
        index._keys = np.asanyarray(keys)
        index._starts = _as_int64(starts)
        index.successors = (None if successors is None
                            else _as_int64(successors))
        index.ranks = None if ranks is None else _as_int64(ranks)
        return index

    def positions(self, key):
        """Ascending access positions of ``key`` (empty if unseen)."""
        idx = int(np.searchsorted(self._keys, key))
        if idx >= self._keys.shape[0] or self._keys[idx] != key:
            return np.empty(0, dtype=np.int64)
        return self._positions[self._starts[idx]:self._starts[idx + 1]]

    def count_in(self, key, lo, hi):
        """Number of accesses to ``key`` with position in ``[lo, hi)``."""
        positions = self.positions(key)
        return int(np.searchsorted(positions, hi, side="left")
                   - np.searchsorted(positions, lo, side="left"))

    def last_in(self, key, lo, hi):
        """Largest position of ``key`` in ``[lo, hi)``, or -1."""
        positions = self.positions(key)
        idx = int(np.searchsorted(positions, hi, side="left")) - 1
        if idx < 0 or positions[idx] < lo:
            return -1
        return int(positions[idx])

    def first_in(self, key, lo, hi):
        """Smallest position of ``key`` in ``[lo, hi)``, or -1."""
        positions = self.positions(key)
        idx = int(np.searchsorted(positions, lo, side="left"))
        if idx >= positions.shape[0] or positions[idx] >= hi:
            return -1
        return int(positions[idx])

    def first_positions(self, keys):
        """First access position of each key (-1 for a key never seen).

        One gather, ``positions[starts[slot]]``.  Later accesses never
        change a key's first one, so a prefix index (in RAM, spilled or
        live) answers every key it holds as the whole trace would.
        """
        keys = np.asarray(keys, dtype=np.int64)
        first = np.full(keys.shape[0], -1, dtype=np.int64)
        if keys.shape[0] == 0 or self._keys.shape[0] == 0:
            return first
        slot = np.minimum(np.searchsorted(self._keys, keys),
                          self._keys.shape[0] - 1)
        present = self._keys[slot] == keys
        first[present] = self._positions[self._starts[slot[present]]]
        return first

    def batch_counts_and_last(self, keys, lo, hi):
        """Window counts and last positions for many keys at once.

        The one window query.  Returns ``(counts, last)`` aligned with
        ``keys`` (``-1`` marks a key unseen in the window), equal to
        per-key ``count_in`` / ``last_in`` over ``[lo, hi)``.  That
        per-key loop is the reference: it runs on the ``scalar``
        backend, and for a single key, where two plain searches beat
        the setup of the batched one.  Otherwise one vectorized binary
        search finds both window edges inside every key's position run.
        Either way work and transient memory are O(keys · log run),
        independent of how often a key occurs outside the window; a
        memory-mapped table is read only at the probed entries.
        """
        keys = np.asarray(keys, dtype=np.int64)
        n_keys = keys.shape[0]
        if kernels.get_backend() == "scalar" or n_keys == 1:
            # An inverted window is empty (count_in would return a
            # negative difference).
            counts = [max(0, self.count_in(key, lo, hi))
                      for key in keys.tolist()]
            last = [self.last_in(key, lo, hi) for key in keys.tolist()]
            return (np.asarray(counts, dtype=np.int64),
                    np.asarray(last, dtype=np.int64))
        counts = np.zeros(n_keys, dtype=np.int64)
        last = np.full(n_keys, -1, dtype=np.int64)
        if n_keys == 0 or self._keys.shape[0] == 0 or hi <= lo:
            return counts, last
        slot = np.minimum(np.searchsorted(self._keys, keys),
                          self._keys.shape[0] - 1)
        which = np.flatnonzero(self._keys[slot] == keys)
        starts = self._starts[slot[which]]
        lengths = self._starts[slot[which] + 1] - starts
        # Longest runs first, each key's lower-bound searches for lo and
        # hi side by side: the searches still bisecting are a prefix.
        by_length = np.argsort(-lengths)
        which = which[by_length]
        base = np.repeat(starts[by_length], 2)
        span = np.repeat(lengths[by_length], 2)
        target = np.tile(np.asarray([lo, hi], dtype=np.int64), which.shape[0])
        positions = np.asarray(self._positions)
        active = np.count_nonzero(span > 1)
        while active:
            # Invariant: the edge lies in [base, base + span].
            b, s = base[:active], span[:active]
            half = s >> 1
            np.add(b, half, out=b, where=positions[b + half] < target[:active])
            s -= half
            active = np.count_nonzero(s > 1)
        base += positions[base] < target
        at_lo, at_hi = base[0::2], base[1::2]
        counts[which] = at_hi - at_lo
        seen = at_hi > at_lo
        last[which[seen]] = positions[at_hi[seen] - 1]
        return counts, last


@dataclass
class IndexBuildStats:
    """What a bounded build materialized, for bounded-RSS proofs.

    ``peak_transient_bytes`` is the largest sum of in-RAM temporaries
    any single fold or seal window held at once — the builder's working
    set beyond the (spillable) output tables and the O(unique keys)
    per-key state.  A seal over a previous epoch also holds its pending
    accesses' destinations (O(pending)) while it merges.
    ``table_bytes`` counts the eight sealed tables: four O(accesses)
    ones (each granularity's positions and its one per-access table)
    and the O(unique keys) keys and starts.
    """

    n_accesses: int
    chunk_accesses: int
    n_chunks: int
    peak_transient_bytes: int
    key_state_bytes: int
    table_bytes: int


def default_chunk_accesses():
    """Chunk length from ``REPRO_INDEX_CHUNK`` (accesses), or default.

    A value that is not a positive integer raises ``ValueError`` rather
    than silently meaning the default or a one-access chunk.
    """
    raw = os.environ.get("REPRO_INDEX_CHUNK", "").strip()
    if not raw:
        return DEFAULT_CHUNK_ACCESSES
    try:
        chunk = int(raw)
    except ValueError:
        chunk = 0
    if chunk < 1:
        raise ValueError(
            f"REPRO_INDEX_CHUNK must be a positive integer, got {raw!r}")
    return chunk


class _GrowColumn:
    """Random-write growable int64 column with bounded-RAM option.

    The live builder's successor table needs *random* writes into
    already-appended rows (a key's previous occurrence is patched when
    its next access arrives), which rules out the append-only
    :class:`~repro.traceio.spill.ArraySpill`.  With a ``directory`` the
    column lives in a capacity-doubling memory-mapped file (RSS stays
    bounded by the touched pages); without one it degrades to a
    capacity-doubling heap array.
    """

    def __init__(self, directory=None, name="column", capacity=1 << 12):
        self._directory = directory
        self._path = (os.path.join(directory, name + ".bin")
                      if directory is not None else None)
        self._capacity = max(1, int(capacity))
        self.rows = 0
        self._data = self._allocate(self._capacity)

    def _allocate(self, capacity):
        if self._path is None:
            return np.empty(capacity, dtype=np.int64)
        with open(self._path, "ab") as handle:
            handle.truncate(capacity * 8)
        return np.memmap(self._path, mode="r+", dtype=np.int64,
                         shape=(capacity,))

    def _move(self, capacity):
        old = self._data
        self._data = self._allocate(capacity)
        if self._path is None:
            self._data[:self.rows] = old[:self.rows]
        # A remapped file already holds the previous rows.
        self._capacity = capacity

    def reserve(self, rows):
        """Grow the capacity, doubling, until it holds ``rows``."""
        capacity = self._capacity
        while capacity < rows:
            capacity *= 2
        if capacity > self._capacity:
            self._move(capacity)

    def detach(self):
        """Move heap rows to a fresh buffer, so views taken before stop
        seeing later patches (a spilled epoch keeps a frozen copy of a
        file-backed column instead)."""
        self._move(self._capacity)

    def append(self, values):
        values = np.asarray(values, dtype=np.int64)
        self.reserve(self.rows + values.shape[0])
        self._data[self.rows:self.rows + values.shape[0]] = values
        self.rows += values.shape[0]

    def patch(self, idx, values):
        """Overwrite already-appended rows at ``idx`` with ``values``."""
        self._data[idx] = values

    def view(self, n):
        """Live (mutable-underneath) view of the first ``n`` rows —
        copy or :meth:`detach` before keeping across further appends."""
        return self._data[:n]

    def close(self):
        self._data = None
        if self._path is not None:
            try:
                os.remove(self._path)
            except OSError:
                pass


_NOT_APPENDED = "the prefix snapshot's pending accesses differ from the feed"


def _read_only(table):
    """``table`` reopened read-only when it is a spill map: the writable
    map's pages leave the process with it (shared maps need no flush)."""
    return (np.load(table.filename, mmap_mode="r")
            if isinstance(table, np.memmap) else table)


class LiveIndexBuilder:
    """Bounded append/seal builder of the index tables.

    :meth:`append` folds accesses, ``chunk_accesses`` at a time, into
    merged per-key state (sorted keys, occurrence counts, the counts
    the previous epoch sealed, and the lines' last-occurrence
    positions) plus one live per-access column per granularity, the one
    its queries read: the lines' successors and the pages' ranks.
    :meth:`seal` materializes the eight tables for the prefix consumed
    so far — bit-identical to the compiled in-RAM build of that prefix.
    A batch build is one append and one seal; it is also the in-RAM
    build under the ``scalar`` backend.

    Invariants that make the seal cheap and exact:

    * page *ranks* are prefix-independent (the rank of access ``p``
      within its page's run counts only earlier accesses), so they are
      computed once at append time;
    * line *successors* are appended provisionally (``-1``) and patched
      in place when the line's next access arrives — at a seal taken at
      the stream position every entry is either a real in-prefix
      successor or ``-1``, exactly the batch semantics;
    * the builder keeps no copy of the accesses: a seal reads the ones
      appended since the previous epoch (the *pending* accesses) back
      from the prefix snapshot it is given.  They take the tail slots
      of their key's run, filled by a counting sort window by window
      behind per-key cursors that start past what the previous epoch
      sealed; every cursor must end at its run end, or the snapshot is
      not the appended feed;
    * the previous epoch's positions table fills every other slot (the
      run heads) in order, so that part of a seal is one sequential
      merge over the sorted pending destinations.

    With a ``spill_dir`` the two per-access columns live in growable
    spill files in the builder's scratch (``live-index-*``), and each
    seal writes its epoch there: the position tables and a frozen copy
    of the successors, served read-only (the append-only ranks are a
    view of the live column).  The next seal deletes them once merged,
    so the scratch holds one epoch and the resident set stays O(chunk +
    pending + unique keys) while the feed grows without bound.
    """

    _GRANULARITIES = tuple(_PER_ACCESS)

    def __init__(self, spill_dir=None, chunk_accesses=None):
        self.chunk_accesses = (default_chunk_accesses()
                               if chunk_accesses is None
                               else max(1, int(chunk_accesses)))
        self.n_accesses = 0
        self._scratch = None
        if spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)
            self._scratch = register_scratch(
                tempfile.mkdtemp(prefix="live-index-", dir=spill_dir))
        self._keys = {}
        self._counts = {}
        self._sealed_counts = {}
        self._columns = {}
        for name, table in _PER_ACCESS.items():
            self._keys[name] = np.empty(0, dtype=np.int64)
            self._counts[name] = np.empty(0, dtype=np.int64)
            self._sealed_counts[name] = np.empty(0, dtype=np.int64)
            # Spilled as lines_succ.bin and pages_rank.bin.
            self._columns[name] = _GrowColumn(self._scratch,
                                              f"{name}_{table[:4]}")
        #: Each line's latest position, for patching its successor.
        self._prev_pos = np.empty(0, dtype=np.int64)
        #: Accesses and tables (by name) of the last sealed epoch, and
        #: the spill files it wrote.
        self._n_sealed = 0
        self.sealed = {}
        self._n_epochs = 0
        self._epoch_files = []
        #: True while a heap epoch holds views of the heap columns.
        self._columns_shared = False
        self._peak_transient = 0

    def _hold(self, nbytes):
        """Record a window's temporaries for ``build_stats``."""
        self._peak_transient = max(self._peak_transient, int(nbytes))

    def append(self, chunk):
        """Fold feed accesses (a TraceChunk or a raw line array) into
        the live tables, ``chunk_accesses`` at a time."""
        mem_line = np.asarray(getattr(chunk, "mem_line", chunk))
        m = mem_line.shape[0]
        if m == 0:
            return
        telemetry.counter("live.index.chunks")
        columns = self._columns.values()
        if self._columns_shared:
            # A heap epoch reads these rows; the patches below must not.
            for column in columns:
                column.detach()
            self._columns_shared = False
        n0 = self.n_accesses
        for column in columns:
            column.reserve(n0 + m)
        for lo in range(0, m, self.chunk_accesses):
            lines = np.asarray(mem_line[lo:lo + self.chunk_accesses],
                               dtype=np.int64)
            folded = self._fold("lines", lines, n0 + lo)
            # The page shift is made after the lines fold, for its own.
            pages = lines >> _PAGE_OF_LINE_SHIFT
            folded = max(folded,
                         pages.nbytes + self._fold("pages", pages, n0 + lo))
            self._hold(_own_bytes(lines) + folded)
        self.n_accesses = n0 + m

    def _fold(self, name, keys, n0):
        """Fold one window of ``keys`` starting at stream position
        ``n0``; returns the bytes of the temporaries it held at once."""
        m = keys.shape[0]
        order, unique, run_start, run_count = _group_by_key(keys)
        columns = [(self._counts[name], 0), (self._sealed_counts[name], 0)]
        if name == "lines":
            columns.append((self._prev_pos, -1))
        self._keys[name], states, run_slot = _insert_keys(
            self._keys[name], unique, *columns)
        counts, self._sealed_counts[name] = states[:2]
        self._counts[name] = counts

        if name == "pages":
            # Ranks: prefix count before the window + within-window rank.
            by_key = np.repeat(counts[run_slot] - run_start, run_count)
            by_key += np.arange(m, dtype=np.int64)
        else:
            # Successors: in-window chains now, cross-window patched in
            # place.
            self._prev_pos = prev_pos = states[2]
            run_last = run_start + run_count - 1
            by_key = np.empty(m, dtype=np.int64)
            np.add(order[1:], n0, out=by_key[:-1])
            by_key[run_last] = -1
            prev = prev_pos[run_slot]
            has_prev = prev >= 0
            if np.any(has_prev):
                self._columns[name].patch(prev[has_prev],
                                          n0 + order[run_start[has_prev]])
            prev_pos[run_slot] = n0 + order[run_last]
        column = np.empty(m, dtype=np.int64)
        column[order] = by_key
        self._columns[name].append(column)
        counts[run_slot] += run_count
        # At most three window-sized arrays live at once (the packed
        # sort key or the arange beside order and by_key or the
        # column), and a handful of per-distinct-key ones.
        return 3 * column.nbytes + 8 * unique.nbytes

    def seal(self, trace):
        """Materialize the index for the prefix consumed so far.

        ``trace`` is the prefix snapshot: ``trace.n_accesses`` must
        equal the accesses appended, and the seal reads the accesses
        appended since the previous epoch back from ``trace.mem_line``
        (``ValueError`` if they are not what was appended).  With a
        spill directory the epoch's tables are read-only memory maps of
        the builder's spill files, otherwise heap arrays.  Returns a
        :class:`TraceIndex` bit-identical to a from-scratch build of the
        same prefix, with the epoch's :class:`IndexBuildStats` as its
        ``build_stats``.
        """
        t0 = time.perf_counter()
        n = self.n_accesses
        if int(trace.n_accesses) != n:
            raise ValueError(
                f"prefix snapshot has {trace.n_accesses} accesses, "
                f"builder consumed {n}")
        tables, files = {}, []
        for name in self._GRANULARITIES:
            self._seal_granularity(name, trace.mem_line, tables, files)
        stats = IndexBuildStats(
            n_accesses=n,
            chunk_accesses=self.chunk_accesses,
            n_chunks=-(-(n - self._n_sealed) // self.chunk_accesses),
            peak_transient_bytes=self._peak_transient,
            key_state_bytes=self._prev_pos.nbytes + int(sum(
                self._keys[g].nbytes + self._counts[g].nbytes
                + self._sealed_counts[g].nbytes
                + tables[f"{g}_starts"].nbytes
                for g in self._GRANULARITIES)),
            table_bytes=int(sum(t.nbytes for t in tables.values())))
        # The merges have read the previous epoch; maps still held keep
        # its pages.
        for path in self._epoch_files:
            os.remove(path)
        self._epoch_files = files
        self._n_epochs += 1
        # Heap columns are detached at the next append.
        self._columns_shared = self._scratch is None
        self._sealed_counts = {g: c.copy() for g, c in self._counts.items()}
        self._n_sealed, self.sealed = n, tables
        index = TraceIndex.from_tables(trace, tables)
        index.build_stats = stats
        self._peak_transient = 0
        s = telemetry.session()
        if s is not None:
            s.add_time("live.index.seal", time.perf_counter() - t0)
            s.count("live.index.seals")
        return index

    def _epoch_table(self, table, n, files):
        """A fresh int64 table of ``n`` rows for this epoch: a writable
        map of a new spill file listed in ``files``, else (no spill
        directory, or no rows: an empty file cannot be mapped) heap."""
        if self._scratch is None or not n:
            return np.empty(n, dtype=np.int64)
        path = os.path.join(self._scratch,
                            f"epoch{self._n_epochs}-{table}.npy")
        files.append(path)
        return np.lib.format.open_memmap(path, mode="w+", dtype=np.int64,
                                         shape=(n,))

    def _seal_granularity(self, name, mem_line, tables, files):
        n, n_prev = self.n_accesses, self._n_sealed
        chunk = self.chunk_accesses
        keys_now = self._keys[name]
        sealed = self._sealed_counts[name]
        starts_now = np.zeros(keys_now.shape[0] + 1, dtype=np.int64)
        np.cumsum(self._counts[name], out=starts_now[1:])
        positions = self._epoch_table(f"{name}_positions", n, files)

        # Counting sort: the pending accesses take the tail slots of
        # their key's run in position order, behind per-key cursors.
        cursors = starts_now[:-1] + sealed
        for lo in range(n_prev, n, chunk):
            keys = np.asarray(mem_line[lo:lo + chunk], dtype=np.int64)
            if name == "pages":
                keys = keys >> _PAGE_OF_LINE_SHIFT
            order, unique, run_start, run_count = _group_by_key(keys)
            run_slot = np.searchsorted(keys_now, unique)
            if (run_slot[-1] == keys_now.shape[0]
                    or not np.array_equal(keys_now[run_slot], unique)):
                raise ValueError(_NOT_APPENDED)
            dest = np.repeat(cursors[run_slot] - run_start, run_count)
            dest += np.arange(keys.shape[0], dtype=np.int64)
            order += lo
            positions[dest] = order
            cursors[run_slot] += run_count
            # The page shift (or a converted line window), the packed
            # sort key, order, dest and the arange, and per-distinct-key
            # arrays.
            self._hold(_own_bytes(keys) + 4 * dest.nbytes
                       + 8 * unique.nbytes)
        if not np.array_equal(cursors, starts_now[1:]):
            raise ValueError(_NOT_APPENDED)

        if n_prev:
            # Sequential merge: the previous epoch's table fills every
            # slot the pending accesses did not take, in order.  In
            # grouped order, pending access i of key k lands at i plus
            # the sealed accesses of the keys up to k.
            pending = self._counts[name] - sealed
            dest = np.repeat(np.cumsum(sealed), pending)
            dest += np.arange(n - n_prev, dtype=np.int64)
            prev = self.sealed[f"{name}_positions"]
            taken_lo = 0
            for lo in range(0, n, chunk):
                hi = min(n, lo + chunk)
                taken_hi = int(np.searchsorted(dest, hi))
                taken = np.zeros(hi - lo, dtype=bool)
                taken[dest[taken_lo:taken_hi] - lo] = True
                window = positions[lo:hi]
                window[~taken] = prev[lo - taken_lo:hi - taken_hi]
                taken_lo = taken_hi
            # dest, the mask and its negation, and one window of dest.
            self._hold(dest.nbytes + 10 * min(n, chunk))

        column = self._columns[name].view(n)
        if name == "lines" and self._scratch is not None:
            # Later appends patch the live successors.
            frozen = self._epoch_table("lines_successors", n, files)
            frozen[:] = column
            column = _read_only(frozen)
        tables[f"{name}_keys"] = keys_now
        tables[f"{name}_starts"] = starts_now
        tables[f"{name}_positions"] = _read_only(positions)
        tables[f"{name}_{_PER_ACCESS[name]}"] = column

    def close(self):
        for column in self._columns.values():
            column.close()
        self.sealed = {}
        if self._scratch is not None:
            shutil.rmtree(self._scratch, ignore_errors=True)
            unregister_scratch(self._scratch)
            self._scratch = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class TraceIndex:
    """Line- and page-granularity position indices for one trace."""

    #: Set by :meth:`LiveIndexBuilder.seal` (None for in-RAM builds).
    build_stats = None

    def __init__(self, trace):
        """The in-RAM index of ``trace``: one compiled call on the
        ``native`` backend, else the bounded builder's batch build (one
        append and one seal, heap tables), which is the reference."""
        s = telemetry.session()
        t0 = time.perf_counter() if s is not None else 0.0
        self.trace = trace
        if kernels.get_backend() == "native":
            lines, pages = kernels.native.build_index(
                trace.mem_line, _PAGE_OF_LINE_SHIFT)
            self.lines = _PositionIndex.from_tables(*lines[:3],
                                                    successors=lines[3])
            self.pages = _PositionIndex.from_tables(*pages[:3],
                                                    ranks=pages[3])
        else:
            with LiveIndexBuilder() as builder:
                builder.append(trace.mem_line)
                built = builder.seal(trace)
            self.lines, self.pages = built.lines, built.pages
        if s is not None:
            s.add_time("index.build", time.perf_counter() - t0)

    @classmethod
    def from_tables(cls, trace, tables):
        """An index over built tables (no sorting).

        ``tables`` maps names to the eight tables —
        ``{lines,pages}_{positions,keys,starts}``, ``lines_successors``
        and ``pages_ranks`` — as :meth:`LiveIndexBuilder.seal` and
        :meth:`open` produce them.  Tables are looked up by name, so
        other members (the lines' ranks and pages' successors an older
        spilled index also holds) are ignored.
        """
        index = cls.__new__(cls)
        index.trace = trace
        index.lines, index.pages = (
            _PositionIndex.from_tables(
                tables[f"{name}_positions"], tables[f"{name}_keys"],
                tables[f"{name}_starts"],
                **{table: tables[f"{name}_{table}"]})
            for name, table in _PER_ACCESS.items())
        return index

    # -- spill / memory-mapped mode ---------------------------------------

    @classmethod
    def open(cls, trace, store, key):
        """Open a spilled index as memory-mapped views, or None on miss.

        Queries against the returned index never require the tables in
        RAM: binary searches and gathers touch only the pages they hit.
        """
        tables = store.load_mapped(key, label="trace-index-spill")
        if tables is None:
            return None
        return cls.from_tables(trace, tables)

    @classmethod
    def build_spilled(cls, trace, store, key, chunk_accesses=None):
        """Build (or reopen) an index with bounded transients.

        The build is one :class:`LiveIndexBuilder` append of the whole
        trace and one seal, so peak construction RSS is O(chunk +
        unique keys), not O(accesses).  With an enabled ``store`` the
        builder spills next to it (same filesystem — ``/tmp`` may be
        RAM-backed), and the sealed tables are streamed into an
        uncompressed-npz blob under ``key``, shared by content across
        processes, and served back as read-only memory maps.  With a
        missing or disabled store (or a dropped publish) the tables
        stay on the heap and ``key`` is unused.
        """
        if store is not None:
            existing = cls.open(trace, store, key)
            if existing is not None:
                return existing
        t0 = time.perf_counter()
        spill_dir = store.root if getattr(store, "enabled", False) else None
        with LiveIndexBuilder(spill_dir, chunk_accesses=chunk_accesses) \
                as builder:
            builder.append(trace.mem_line)
            index = builder.seal(trace)
            stats = index.build_stats
            if spill_dir is not None:
                tables = builder.sealed
                store.save_arrays(key, tables, label="trace-index-spill")
                published = store.load_mapped(key, label="trace-index-spill")
                if published is None:
                    # A dropped publish: heap copies outlive the scratch.
                    published = {name: np.array(table)
                                 for name, table in tables.items()}
                index = cls.from_tables(trace, published)
                index.build_stats = stats
        s = telemetry.session()
        if s is not None:
            s.add_time("index.build", time.perf_counter() - t0)
            s.count("index.build.chunks", stats.n_chunks)
            s.event("index.build", asdict(stats))
        return index

    @property
    def mapped(self):
        """True when the position tables are memory-mapped views."""
        return any(isinstance(part._positions, np.memmap)
                   for part in (self.lines, self.pages)
                   if part is not None)

    def close(self):
        """Drop table references so memory-mapped views can unmap.

        The index is unusable afterwards; reopen via :meth:`open`.
        """
        self.lines = None
        self.pages = None

    def page_of_line(self, line):
        """Page number containing ``line``."""
        return int(line) >> (PAGE_SHIFT - CACHELINE_SHIFT)

    def pages_of_lines(self, lines):
        """Unique pages covering an array of lines."""
        lines = np.asarray(lines, dtype=np.int64)
        return np.unique(lines >> (PAGE_SHIFT - CACHELINE_SHIFT))

    def last_access_before(self, line, position):
        """Most recent access to ``line`` strictly before ``position`` (-1 if none)."""
        return self.lines.last_in(line, 0, position)

    def next_access_after(self, line, position):
        """First access to ``line`` strictly after ``position`` (-1 if none)."""
        return self.lines.first_in(line, position + 1, self.trace.n_accesses)

    def batch_await_reuse(self, positions, access_limit):
        """Vectorized RSW primitive over many sampled access positions.

        For each access position ``p`` (the watchpoint is armed on the
        line accessed *at* ``p``), returns ``(reuse, stops)`` matching
        per-sample :meth:`next_access_after` + page-window stop counts:
        ``reuse[i]`` is the line's next access position (-1 if none
        before ``access_limit``) and ``stops[i]`` the page stops taken
        while waiting (final true stop included).  Line successors give
        the reuse in O(1); page *ranks* turn the resolved stop count
        into a rank difference (both endpoints are accesses to the
        page), and dangling watchpoints need one batched count of page
        accesses before the limit.  These two per-access tables, the
        lines' successors and the pages' ranks, are the only ones any
        query reads.
        """
        positions = np.asarray(positions, dtype=np.int64)
        n = positions.shape[0]
        reuse = np.full(n, -1, dtype=np.int64)
        stops = np.zeros(n, dtype=np.int64)
        if n == 0:
            return reuse, stops
        succ = self.lines.successors[positions]
        resolved = (succ >= 0) & (succ < access_limit)
        page_ranks = self.pages.ranks
        reuse[resolved] = succ[resolved]
        stops[resolved] = (page_ranks[succ[resolved]]
                           - page_ranks[positions[resolved]])
        dangling = np.flatnonzero(~resolved)
        if dangling.size:
            # Derive the sampled pages from their lines: a handful of
            # reads, even of a memory-mapped line array.
            pages = (np.asarray(self.trace.mem_line[positions[dangling]],
                                dtype=np.int64) >> _PAGE_OF_LINE_SHIFT)
            unique_pages, inverse = np.unique(pages, return_inverse=True)
            before_limit, _ = self.pages.batch_counts_and_last(
                unique_pages, 0, access_limit)
            stops[dangling] = (before_limit[inverse]
                               - page_ranks[positions[dangling]] - 1)
        return reuse, stops

    def page_stops_in(self, pages, lo, hi):
        """Total accesses landing in ``pages`` within window ``[lo, hi)``.

        This is exactly the number of watchpoint stops a run with those
        pages protected would take over the window.  One window query,
        O(pages · log run): accesses to the pages outside the window
        cost nothing.
        """
        counts, _ = self.pages.batch_counts_and_last(pages, lo, hi)
        return int(counts.sum())

    def window_access_counts(self, lines, lo, hi):
        """Per-line access counts and last access position in a window.

        Batched equivalent of per-line ``count_in`` / ``last_in`` over
        ``[lo, hi)``; lines absent from the window carry a last position
        of ``-1``.  One binary search per line and window edge, so the
        cost is O(lines · log run) however often the lines occur
        outside the window.
        """
        return self.lines.batch_counts_and_last(
            np.asarray(lines, dtype=np.int64), lo, hi)
