"""Per-line and per-page access-position indices over a trace.

A real DeLorean run discovers reuses by executing with watchpoints; the
trace-driven substitute answers the same questions from a sorted index:
*when was line L last accessed before access position P?* and *how many
accesses hit page G inside a window?* (the stop count a page-protection
watchpoint would have taken).  Building the index is one sort per
granularity; every query is a binary search.  Both builders group
positions by key through :func:`_group_by_key`, which packs key and
position into one int64 so that a plain sort yields the stable order.

Two construction paths exist:

* the in-RAM build (``TraceIndex(trace)``) sorts each granularity in
  one go — the fastest build, for traces that are RAM-resident anyway;
* the bounded **append/seal** build (:class:`LiveIndexBuilder`) folds
  accesses in windows of ``chunk_accesses`` and seals the grouped
  tables — *including* the successor and rank tables the batched
  watchpoint kernels need — for the prefix consumed so far.  A live
  feed seals at every watermark; a batch build
  (:meth:`TraceIndex.build_spilled`) is one append of the whole trace
  and one seal.  With a store the tables are written to spill files,
  published as an uncompressed npz and served back as read-only memory
  maps (:meth:`TraceIndex.open`): queries then touch only the table
  pages the watchpoints direct them to, so a strategy run's resident
  set scales with the sampled regions rather than the trace length.
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


def _as_int64(array):
    """``array`` as contiguous int64 — without copying when it already
    is (memory-mapped views must be adopted, not materialized)."""
    array = np.asanyarray(array)
    if array.dtype != np.int64 or not array.flags.c_contiguous:
        array = np.ascontiguousarray(array, dtype=np.int64)
    return array


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
    """Sorted access positions grouped by key (line or page)."""

    def __init__(self, keys):
        keys = np.asarray(keys)
        order, unique, starts, _ = _group_by_key(keys)
        self._positions = order
        self._keys = unique
        self._starts = np.append(starts, keys.shape[0])
        self._successors = None
        self._ranks = None

    @classmethod
    def from_tables(cls, positions, keys, starts, successors, ranks):
        """Adopt sealed tables, skipping the sort.

        Tables may be memory-mapped views — they are adopted as-is (no
        copy) when already the right dtype, which is what keeps a
        spilled index out of RAM.
        """
        index = cls.__new__(cls)
        index._positions = _as_int64(positions)
        index._keys = np.asanyarray(keys)
        index._starts = _as_int64(starts)
        index._successors = _as_int64(successors)
        index._ranks = _as_int64(ranks)
        return index

    def successors(self):
        """Next same-key position for *every* access position (-1 if last).

        The grouped table already stores each key's run contiguously in
        ascending position order, so the successor of a run element is
        its right neighbour; scattering through the (permutation)
        position table turns that into an O(1) lookup per access.  An
        in-RAM sort builds it lazily, once, in a single vectorized pass;
        sealed indices carry it.
        """
        if self._successors is None:
            n = self._positions.shape[0]
            succ_sorted = np.empty(n, dtype=np.int64)
            if n:
                succ_sorted[:-1] = self._positions[1:]
                succ_sorted[-1] = -1
                succ_sorted[self._starts[1:] - 1] = -1   # run boundaries
            successors = np.empty(n, dtype=np.int64)
            successors[self._positions] = succ_sorted
            self._successors = successors
        return self._successors

    def ranks(self):
        """Rank of every access position within its key's run.

        ``ranks()[p]`` is the number of same-key accesses strictly
        before position ``p``; the difference of two same-key ranks is
        therefore the access count between them — the O(1) stop-count
        primitive behind the batched watchpoint kernels.  Lazy like
        :meth:`successors`.
        """
        if self._ranks is None:
            n = self._positions.shape[0]
            lengths = np.diff(self._starts)
            rank_sorted = (np.arange(n, dtype=np.int64)
                           - np.repeat(self._starts[:-1], lengths))
            ranks = np.empty(n, dtype=np.int64)
            ranks[self._positions] = rank_sorted
            self._ranks = ranks
        return self._ranks

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

        Equivalent to per-key ``count_in`` / ``last_in`` over ``[lo,
        hi)``.  Every key's position run is gathered with one
        grouped-arange, masked against the window and reduced.
        Gathering is window-independent (it touches every occurrence of
        every key), so when the gathered runs dwarf the per-key binary
        searches the loop is used instead — results are identical
        either way.  Returns ``(counts, last)`` aligned with ``keys``
        (``-1`` marks a key unseen in the window).
        """
        keys = np.asarray(keys, dtype=np.int64)
        n_keys = keys.shape[0]
        counts = np.zeros(n_keys, dtype=np.int64)
        last = np.full(n_keys, -1, dtype=np.int64)
        if n_keys == 0 or self._keys.shape[0] == 0 or hi <= lo:
            return counts, last
        slot = np.minimum(np.searchsorted(self._keys, keys),
                          self._keys.shape[0] - 1)
        present = self._keys[slot] == keys
        starts = np.where(present, self._starts[slot], 0)
        lengths = np.where(present, self._starts[slot + 1] - starts, 0)
        total = int(lengths.sum())
        if total == 0:
            return counts, last
        if total > 256 * n_keys:
            for k in np.flatnonzero(lengths).tolist():
                run = self._positions[starts[k]:starts[k] + lengths[k]]
                at_hi = int(np.searchsorted(run, hi, side="left"))
                at_lo = int(np.searchsorted(run, lo, side="left"))
                counts[k] = at_hi - at_lo
                if at_hi > at_lo:
                    last[k] = int(run[at_hi - 1])
            return counts, last
        key_of = np.repeat(np.arange(n_keys, dtype=np.int64), lengths)
        cum = np.cumsum(lengths) - lengths
        flat = (np.repeat(starts - cum, lengths)
                + np.arange(total, dtype=np.int64))
        positions = self._positions[flat]
        in_window = (positions >= lo) & (positions < hi)
        matched_key = key_of[in_window]
        counts += np.bincount(matched_key, minlength=n_keys)
        np.maximum.at(last, matched_key, positions[in_window])
        return counts, last


@dataclass
class IndexBuildStats:
    """What a bounded build materialized, for bounded-RSS proofs.

    ``peak_transient_bytes`` is the largest sum of in-RAM temporaries
    any single fold or seal window held at once — the builder's working
    set beyond the (spillable) output tables and the O(unique keys)
    per-key state.  A seal over a previous epoch also holds its pending
    accesses' destinations (O(pending)) while it merges.
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
        seeing later patches (file-backed views are copied by whoever
        keeps them)."""
        if self._path is None:
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


class LiveIndexBuilder:
    """Bounded append/seal builder of the index tables.

    :meth:`append` folds accesses, ``chunk_accesses`` at a time, into
    merged per-key state (sorted keys, occurrence counts, the counts
    the previous epoch sealed, last-occurrence positions) plus live
    successor/rank columns; :meth:`seal` materializes the full grouped
    table set for the prefix consumed so far — bit-identical to the
    in-RAM build of that prefix.  A batch build is one append and one
    seal.

    Invariants that make the seal cheap and exact:

    * *ranks* are prefix-independent (the rank of access ``p`` within
      its key's run counts only earlier accesses), so they are computed
      once at append time;
    * *successors* are appended provisionally (``-1``) and patched in
      place when the key's next access arrives — at a seal taken at the
      stream position every entry is either a real in-prefix successor
      or ``-1``, exactly the batch semantics;
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

    With a store the successor and rank columns live in growable spill
    files and sealed epochs spill through the existing
    ``save_arrays``/``put_stream`` path (the columns stream straight
    into the blob), so the builder's resident set stays O(chunk +
    pending + unique keys) while the feed grows without bound.
    """

    _GRANULARITIES = ("lines", "pages")

    def __init__(self, store=None, spill_dir=None, chunk_accesses=None):
        self.store = store if store is not None and store.enabled else None
        self.chunk_accesses = (default_chunk_accesses()
                               if chunk_accesses is None
                               else max(1, int(chunk_accesses)))
        self.n_accesses = 0
        self._scratch = None
        directory = None
        if self.store is not None or spill_dir is not None:
            parent = spill_dir if spill_dir is not None else self.store.root
            os.makedirs(parent, exist_ok=True)
            self._scratch = register_scratch(
                tempfile.mkdtemp(prefix="live-index-", dir=parent))
            directory = self._scratch
        self._keys = {}
        self._counts = {}
        self._sealed_counts = {}
        self._prev_pos = {}
        self._succ = {}
        self._rank = {}
        for name in self._GRANULARITIES:
            self._keys[name] = np.empty(0, dtype=np.int64)
            self._counts[name] = np.empty(0, dtype=np.int64)
            self._sealed_counts[name] = np.empty(0, dtype=np.int64)
            self._prev_pos[name] = np.empty(0, dtype=np.int64)
            self._succ[name] = _GrowColumn(directory, name + "_succ")
            self._rank[name] = _GrowColumn(directory, name + "_rank")
        #: Accesses and per-granularity positions table of the previous
        #: sealed epoch.
        self._n_sealed = 0
        self._sealed = {}
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
        columns = [*self._succ.values(), *self._rank.values()]
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
            pages = lines >> _PAGE_OF_LINE_SHIFT
            folded = max(self._fold("lines", lines, n0 + lo),
                         self._fold("pages", pages, n0 + lo))
            self._hold(lines.nbytes + pages.nbytes + folded)
        self.n_accesses = n0 + m

    def _fold(self, name, keys, n0):
        """Fold one window of ``keys`` starting at stream position
        ``n0``; returns the bytes of the temporaries it held at once."""
        m = keys.shape[0]
        order, unique, run_start, run_count = _group_by_key(keys)
        self._keys[name], (counts, sealed, prev_pos), run_slot = _insert_keys(
            self._keys[name], unique, (self._counts[name], 0),
            (self._sealed_counts[name], 0), (self._prev_pos[name], -1))
        self._counts[name], self._sealed_counts[name] = counts, sealed
        self._prev_pos[name] = prev_pos

        # Ranks: prefix count before the window + within-window rank.
        by_key = np.repeat(counts[run_slot] - run_start, run_count)
        by_key += np.arange(m, dtype=np.int64)
        column = np.empty(m, dtype=np.int64)
        column[order] = by_key
        self._rank[name].append(column)

        # Successors: in-window chains now, cross-window patched in place.
        run_last = run_start + run_count - 1
        np.add(order[1:], n0, out=by_key[:-1])
        by_key[run_last] = -1
        column[order] = by_key
        self._succ[name].append(column)
        prev = prev_pos[run_slot]
        has_prev = prev >= 0
        if np.any(has_prev):
            self._succ[name].patch(prev[has_prev],
                                   n0 + order[run_start[has_prev]])

        prev_pos[run_slot] = n0 + order[run_last]
        counts[run_slot] += run_count
        # At most three window-sized arrays live at once (the packed
        # sort key or the arange beside order and by_key or the
        # column), and a handful of per-distinct-key ones.
        return 3 * column.nbytes + 8 * unique.nbytes

    def seal(self, trace, key=None, label="live-index"):
        """Materialize the index for the prefix consumed so far.

        ``trace`` is the prefix snapshot: ``trace.n_accesses`` must
        equal the accesses appended, and the seal reads the accesses
        appended since the previous epoch back from ``trace.mem_line``
        (``ValueError`` if they are not what was appended).  With a
        store and ``key`` the tables are published via ``save_arrays``
        and served back memory-mapped, otherwise they stay
        heap-resident.  Returns a :class:`TraceIndex` bit-identical to
        a from-scratch build of the same prefix, with the epoch's
        :class:`IndexBuildStats` as its ``build_stats``.
        """
        t0 = time.perf_counter()
        n = self.n_accesses
        if int(trace.n_accesses) != n:
            raise ValueError(
                f"prefix snapshot has {trace.n_accesses} accesses, "
                f"builder consumed {n}")
        spill_dir = None
        if self.store is not None and key is not None:
            spill_dir = register_scratch(tempfile.mkdtemp(
                prefix="live-seal-", dir=self.store.root))
        try:
            tables = {}
            for name in self._GRANULARITIES:
                self._seal_granularity(name, trace.mem_line, spill_dir,
                                       tables)
            stats = IndexBuildStats(
                n_accesses=n,
                chunk_accesses=self.chunk_accesses,
                n_chunks=-(-(n - self._n_sealed) // self.chunk_accesses),
                peak_transient_bytes=self._peak_transient,
                key_state_bytes=int(sum(
                    self._keys[g].nbytes + self._counts[g].nbytes
                    + self._sealed_counts[g].nbytes
                    + self._prev_pos[g].nbytes
                    + tables[f"{g}_starts"].nbytes
                    for g in self._GRANULARITIES)),
                table_bytes=int(sum(t.nbytes for t in tables.values())))
            index = self._publish(trace, tables, key, label)
        finally:
            if spill_dir is not None:
                shutil.rmtree(spill_dir, ignore_errors=True)
                unregister_scratch(spill_dir)
        index.build_stats = stats
        self._peak_transient = 0
        s = telemetry.session()
        if s is not None:
            s.add_time("live.index.seal", time.perf_counter() - t0)
            s.count("live.index.seals")
        return index

    def _seal_granularity(self, name, mem_line, spill_dir, tables):
        n, n_prev = self.n_accesses, self._n_sealed
        chunk = self.chunk_accesses
        keys_now = self._keys[name]
        sealed = self._sealed_counts[name]
        starts_now = np.zeros(keys_now.shape[0] + 1, dtype=np.int64)
        np.cumsum(self._counts[name], out=starts_now[1:])
        if spill_dir is None or not n:
            positions = np.empty(n, dtype=np.int64)
        else:
            positions = np.lib.format.open_memmap(
                os.path.join(spill_dir, name + "_positions.npy"),
                mode="w+", dtype=np.int64, shape=(n,))

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
            # The line window (or its page shift), the packed sort key,
            # order, dest and the arange, and per-distinct-key arrays.
            self._hold(5 * dest.nbytes + 8 * unique.nbytes)
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
            prev = self._sealed[name]
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

        tables[f"{name}_keys"] = keys_now
        tables[f"{name}_starts"] = starts_now
        tables[f"{name}_positions"] = positions
        tables[f"{name}_successors"] = self._succ[name].view(n)
        tables[f"{name}_ranks"] = self._rank[name].view(n)

    def _publish(self, trace, tables, key, label):
        published = None
        if self.store is not None and key is not None:
            self.store.save_arrays(key, tables, label=label)
            published = self.store.load_mapped(key, label=label)
        if published is not None:
            tables = published
        else:
            # Heap epoch (no store/key, or a dropped publish): copy the
            # spill and file-backed column memmaps, so the epoch
            # survives the spill cleanup and later patches; heap
            # columns are detached at the next append instead.
            tables = {name: (np.array(table) if isinstance(table, np.memmap)
                             else table)
                      for name, table in tables.items()}
            self._columns_shared = True
        for name in self._GRANULARITIES:
            self._sealed[name] = tables[f"{name}_positions"]
            self._sealed_counts[name] = self._counts[name].copy()
        self._n_sealed = self.n_accesses
        return TraceIndex.from_tables(trace, tables)

    def close(self):
        for name in self._GRANULARITIES:
            self._succ[name].close()
            self._rank[name].close()
        self._sealed = {}
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
        s = telemetry.session()
        t0 = time.perf_counter() if s is not None else 0.0
        self.trace = trace
        self.lines = _PositionIndex(trace.mem_line)
        self.pages = _PositionIndex(trace.mem_page)
        if s is not None:
            s.add_time("index.build.sort", time.perf_counter() - t0)

    @classmethod
    def from_tables(cls, trace, tables):
        """An index over sealed tables (no sorting).

        ``tables`` holds five tables per granularity —
        ``{lines,pages}_{positions,keys,starts,successors,ranks}`` — as
        :meth:`LiveIndexBuilder.seal` and :meth:`open` produce them.
        """
        index = cls.__new__(cls)
        index.trace = trace
        index.lines, index.pages = (
            _PositionIndex.from_tables(
                tables[f"{name}_positions"], tables[f"{name}_keys"],
                tables[f"{name}_starts"], tables[f"{name}_successors"],
                tables[f"{name}_ranks"])
            for name in ("lines", "pages"))
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
        tables are constructed in spill files next to it (same
        filesystem — ``/tmp`` may be RAM-backed), streamed into an
        uncompressed-npz blob under ``key`` and served back as
        read-only memory maps.  With a missing or disabled store (or a
        dropped publish) the tables stay on the heap and ``key`` is
        unused.
        """
        if store is not None:
            existing = cls.open(trace, store, key)
            if existing is not None:
                return existing
        t0 = time.perf_counter()
        with LiveIndexBuilder(store, chunk_accesses=chunk_accesses) \
                as builder:
            builder.append(trace.mem_line)
            index = builder.seal(trace, key, label="trace-index-spill")
        s = telemetry.session()
        if s is not None:
            stats = index.build_stats
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
        accesses before the limit.
        """
        positions = np.asarray(positions, dtype=np.int64)
        n = positions.shape[0]
        reuse = np.full(n, -1, dtype=np.int64)
        stops = np.zeros(n, dtype=np.int64)
        if n == 0:
            return reuse, stops
        succ = self.lines.successors()[positions]
        resolved = (succ >= 0) & (succ < access_limit)
        page_ranks = self.pages.ranks()
        reuse[resolved] = succ[resolved]
        stops[resolved] = (page_ranks[succ[resolved]]
                           - page_ranks[positions[resolved]])
        dangling = np.flatnonzero(~resolved)
        if dangling.size:
            # Derive the sampled pages from the line array directly: on a
            # streamed trace ``mem_page`` would materialize an
            # O(accesses) array just to read a handful of entries.
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
        pages protected would take over the window.
        """
        pages = np.asarray(pages)
        if kernels.get_backend() != "scalar" and pages.size > 1:
            counts, _ = self.pages.batch_counts_and_last(pages, lo, hi)
            return int(counts.sum())
        return sum(self.pages.count_in(int(page), lo, hi)
                   for page in pages.tolist())

    def window_access_counts(self, lines, lo, hi):
        """Per-line access counts and last access position in a window.

        Batched equivalent of per-line ``count_in`` / ``last_in`` over
        ``[lo, hi)``; lines absent from the window carry a last position
        of ``-1``.
        """
        return self.lines.batch_counts_and_last(
            np.asarray(lines, dtype=np.int64), lo, hi)
