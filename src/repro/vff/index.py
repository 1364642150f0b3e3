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
  an index of the prefix consumed so far.  A live feed seals at every
  watermark; a batch build (:meth:`TraceIndex.build_spilled`, and
  ``TraceIndex(trace)`` under ``scalar`` or without a compiler) is one
  append of the whole trace and one seal, the reference the compiled
  build is tested against.  With a spill directory an epoch stays in
  the builder's spill files as read-only memory maps (a spilled batch
  build is published to the store and served from it,
  :meth:`TraceIndex.open`): queries then touch only the table pages the
  watchpoints direct them to, so a strategy run's resident set scales
  with the sampled regions rather than the trace length.

A seal writes only what its watermark appended: the grouped tables of
the pending accesses, as one more time-ordered *segment*.  The two
newest segments merge whenever they hold equally many seals (Bentley
and Saxe's logarithmic method), so a live epoch is at most
``floor(log2 k) + 1`` segments after ``k`` seals and each access is
rewritten at most ``ceil(log2 k)`` times.  Every query splits over
time — counts add, the latest last access and the earliest first
access win — so a :class:`_SegmentedIndex` answers as the one-segment
index of its prefix would.  A batch build, the compiled build and an
opened spilled index are one segment, a plain :class:`_PositionIndex`
with the eight tables.  The lines' successors of a live epoch are a
view of the builder's live column: later appends patch an entry that
read -1 to a position past the epoch's end, which
:meth:`TraceIndex.batch_await_reuse` reads as "no successor in this
prefix".
"""

import bisect
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
    """Sorted access positions grouped by key (line or page): one
    segment.

    ``_positions`` lists every access position grouped by key, each
    key's run ascending; ``_keys`` holds the distinct keys ascending and
    ``_starts`` each key's run start in ``_positions`` (plus the access
    count at the end).  Beside them a part carries the one per-access
    table its queries read: the lines' ``successors`` (each access's
    next same-line position, -1 if none) and the pages' ``ranks`` (how
    many same-page accesses precede each access); the other is None.
    A segment of a live epoch (:class:`_SegmentedIndex`) holds the
    positions of its own span of the prefix and no per-access table.
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

    @property
    def mapped(self):
        """True when the positions table is a memory-mapped view."""
        return isinstance(self._positions, np.memmap)

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


class _SegmentedIndex:
    """A live epoch's positions at one granularity, split by time.

    ``segments`` are :class:`_PositionIndex` parts, oldest first;
    segment ``s`` holds the positions in ``[bounds[s], bounds[s + 1])``.
    Every query decomposes over the segments its window overlaps and
    runs the one-segment code on each: counts add, the newest segment
    with a hit gives the last position and the oldest the first.  So
    each answer, on every backend, equals the one the one-segment index
    of the same prefix gives.  ``successors``/``ranks`` are the epoch's
    per-access table, as on a :class:`_PositionIndex`.
    """

    def __init__(self, segments, bounds, successors=None, ranks=None):
        self.segments = list(segments)
        self.bounds = [int(edge) for edge in bounds]
        self.successors = successors
        self.ranks = ranks

    @property
    def mapped(self):
        return any(segment.mapped for segment in self.segments)

    def _spanning(self, lo, hi):
        """The segments holding positions between ``lo`` and ``hi``, in
        either order (an inverted window counts negatively, as
        :meth:`_PositionIndex.count_in` does), oldest first."""
        lo, hi = sorted((int(lo), int(hi)))
        first = max(0, bisect.bisect_right(self.bounds, lo) - 1)
        return self.segments[first:bisect.bisect_left(self.bounds, hi)]

    def positions(self, key):
        return np.concatenate([segment.positions(key)
                               for segment in self.segments])

    def count_in(self, key, lo, hi):
        return sum(segment.count_in(key, lo, hi)
                   for segment in self._spanning(lo, hi))

    def last_in(self, key, lo, hi):
        for segment in reversed(self._spanning(lo, hi)):
            last = segment.last_in(key, lo, hi)
            if last >= 0:
                return last
        return -1

    def first_in(self, key, lo, hi):
        for segment in self._spanning(lo, hi):
            first = segment.first_in(key, lo, hi)
            if first >= 0:
                return first
        return -1

    def first_positions(self, keys):
        """Oldest segment first; a key found there is settled."""
        keys = np.asarray(keys, dtype=np.int64)
        first = np.full(keys.shape[0], -1, dtype=np.int64)
        todo = np.arange(keys.shape[0])
        for segment in self.segments:
            if not todo.size:
                break
            found = segment.first_positions(keys[todo])
            hit = found >= 0
            first[todo[hit]] = found[hit]
            todo = todo[~hit]
        return first

    def batch_counts_and_last(self, keys, lo, hi):
        """Each overlapped segment's window query, summed; the newest
        hit is the largest position, so the last positions combine by
        maximum (-1 loses)."""
        keys = np.asarray(keys, dtype=np.int64)
        counts = np.zeros(keys.shape[0], dtype=np.int64)
        last = np.full(keys.shape[0], -1, dtype=np.int64)
        if hi > lo:
            for segment in self._spanning(lo, hi):
                seg_counts, seg_last = segment.batch_counts_and_last(
                    keys, lo, hi)
                counts += seg_counts
                np.maximum(last, seg_last, out=last)
        return counts, last


def _merge_runs(older, newer, out, chunk):
    """Merge two adjacent segments of one granularity into ``out``.

    Every position of ``older`` precedes every one of ``newer``, so a
    key's merged run is its ``older`` run followed by its ``newer`` run.
    Returns ``(keys, starts, held)``: the merged key table, its run
    starts and the largest transient bytes the merge held.  On the
    ``native`` backend it is one compiled walk of the two key tables
    (``kernels.native.merge_runs``).  The reference, under ``scalar``,
    is the numpy merge: ``newer`` takes the tail slots of each run (a
    scatter) and ``older`` fills the heads in order, over windows of
    whole keys holding at most ``chunk`` rows (a key with more is its
    own window, two contiguous copies).  Either way the transients are
    O(chunk + unique keys).
    """
    if kernels.get_backend() == "native":
        keys, starts = kernels.native.merge_runs(
            (older._positions, older._keys, older._starts),
            (newer._positions, newer._keys, newer._starts), out)
        return keys, starts, keys.nbytes + starts.nbytes
    keys = np.union1d(older._keys, newer._keys)
    at_old = np.searchsorted(keys, older._keys)
    at_new = np.searchsorted(keys, newer._keys)
    head = np.zeros(keys.shape[0], dtype=np.int64)
    head[at_old] = np.diff(older._starts)
    counts = head.copy()
    counts[at_new] += np.diff(newer._starts)
    starts = np.zeros(keys.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    # Where each key's newer run begins.
    tail = starts[:-1] + head
    held = 0
    k = 0
    while k < keys.shape[0]:
        row_lo = int(starts[k])
        k_hi = max(k + 1, int(np.searchsorted(starts, row_lo + chunk,
                                              side="right")) - 1)
        window = out[row_lo:starts[k_hi]]
        o_lo, o_hi = np.searchsorted(at_old, (k, k_hi)).tolist()
        w_lo, w_hi = np.searchsorted(at_new, (k, k_hi)).tolist()
        old = older._positions[older._starts[o_lo]:older._starts[o_hi]]
        runs = newer._starts[w_lo:w_hi + 1]
        new = newer._positions[runs[0]:runs[-1]]
        if k_hi == k + 1:
            window[:old.shape[0]] = old
            window[old.shape[0]:] = new
        else:
            dest = np.repeat(tail[at_new[w_lo:w_hi]] - runs[:-1] - row_lo,
                             np.diff(runs))
            dest += np.arange(runs[0], runs[-1], dtype=np.int64)
            window[dest] = new
            taken = np.zeros(window.shape[0], dtype=bool)
            taken[dest] = True
            window[~taken] = old
            # dest and the arange, the mask and its negation.
            held = max(held, 2 * dest.nbytes + 2 * taken.nbytes)
        k = k_hi
    # keys, the two slot arrays, head, counts, starts and tail.
    return keys, starts, held + 7 * keys.nbytes


@dataclass
class IndexBuildStats:
    """What a bounded build materialized, for bounded-RSS proofs.

    ``peak_transient_bytes`` is the largest sum of in-RAM temporaries
    any single fold, seal or merge window held at once — the builder's
    working set beyond the (spillable) output tables and the O(unique
    keys) per-key state.  ``table_bytes`` counts the epoch's tables:
    each granularity's positions (over all its segments) and its one
    per-access table, O(accesses) each, and the O(unique keys) keys
    and starts of every segment.  ``n_segments`` is how many
    time-ordered segments each granularity of the epoch holds, and
    ``rows_written`` how many position rows the seal wrote per
    granularity: its new segment plus every merge it made.
    """

    n_accesses: int
    chunk_accesses: int
    n_chunks: int
    peak_transient_bytes: int
    key_state_bytes: int
    table_bytes: int
    n_segments: int
    rows_written: int


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

    def append(self, values):
        values = np.asarray(values, dtype=np.int64)
        self.reserve(self.rows + values.shape[0])
        self._data[self.rows:self.rows + values.shape[0]] = values
        self.rows += values.shape[0]

    def patch(self, idx, values):
        """Overwrite already-appended rows at ``idx`` with ``values``."""
        self._data[idx] = values

    def view(self, n):
        """Live view of the first ``n`` rows: later patches show
        through it (until a heap column grows into a new buffer)."""
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


def _remove_files(paths):
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


@dataclass
class _Segment:
    """The accesses ``[lo, hi)`` that ``seals`` seals appended, grouped
    by key at each granularity (``parts``: :class:`_PositionIndex`
    tables without a per-access table), and the spill files holding
    their positions."""

    lo: int
    hi: int
    seals: int
    parts: dict
    files: list


class LiveIndexBuilder:
    """Bounded append/seal builder of the index tables.

    :meth:`append` folds accesses, ``chunk_accesses`` at a time, into
    merged per-key state (sorted keys, occurrence counts, the counts
    the previous epoch sealed, and the lines' last-occurrence
    positions) plus one live per-access column per granularity, the one
    its queries read: the lines' successors and the pages' ranks.
    :meth:`seal` indexes the prefix consumed so far, answering every
    query as the compiled in-RAM build of that prefix does.  A batch
    build is one append and one seal: one segment, whose eight tables
    are bit-identical to the compiled build's.  It is also the in-RAM
    build under the ``scalar`` backend.

    Invariants that make the seal cheap and exact:

    * page *ranks* are prefix-independent (the rank of access ``p``
      within its page's run counts only earlier accesses), so they are
      computed once at append time;
    * line *successors* are appended provisionally (``-1``) and patched
      in place when the line's next access arrives, always to a later
      position: at a seal every entry is a real in-prefix successor or
      ``-1``, exactly the batch semantics, and an entry that later
      appends patch lands past the epoch's end.  So an epoch serves the
      live column itself; it reads an entry at or past its end as
      ``-1``;
    * the builder keeps no copy of the accesses: a seal reads the ones
      appended since the previous epoch (the *pending* accesses) back
      from the prefix snapshot it is given and groups them into a new
      segment by a counting sort, window by window, behind per-key
      cursors; a window key with no pending accesses, or a run that
      would overflow its key's pending count, means the snapshot is not
      the appended feed;
    * segments merge like a binary counter: while the two newest hold
      equally many seals they become one (:func:`_merge_runs`, one
      sequential pass), so over ``k`` seals an access is rewritten at
      most ``ceil(log2 k)`` times after its segment's first write, and
      at most ``floor(log2 k) + 1`` segments are live.

    With a ``spill_dir`` the two per-access columns live in growable
    spill files in the builder's scratch (``live-index-*``), and each
    segment's two positions tables in files there
    (``segment<lo>-<hi>-{lines,pages}_positions.npy``), served
    read-only.  A merge deletes the files of the segments it merged
    (maps a held epoch still has keep their pages), so the scratch
    holds the live segments and the two columns, and the resident set
    stays O(chunk + unique keys) while the feed grows without bound.
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
        #: The live segments, oldest first, and the accesses they hold.
        self._segments = []
        self._n_sealed = 0
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
        n0 = self.n_accesses
        for column in self._columns.values():
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
        """Index the prefix consumed so far.

        ``trace`` is the prefix snapshot: ``trace.n_accesses`` must
        equal the accesses appended, and the seal reads the accesses
        appended since the previous epoch back from ``trace.mem_line``
        (``ValueError``, the builder unchanged, if they are not what was
        appended).  They become one more segment, and the newest
        segments merge while they hold equally many seals.  With a
        spill directory the positions are read-only memory maps of the
        builder's spill files, otherwise heap arrays.  Returns a
        :class:`TraceIndex` that answers every query as a from-scratch
        build of the same prefix, with the epoch's
        :class:`IndexBuildStats` as its ``build_stats``.
        """
        t0 = time.perf_counter()
        n, n_prev = self.n_accesses, self._n_sealed
        if int(trace.n_accesses) != n:
            raise ValueError(
                f"prefix snapshot has {trace.n_accesses} accesses, "
                f"builder consumed {n}")
        rows = 0
        if n > n_prev:
            segments = self._segments
            segments.append(self._new_segment(trace.mem_line))
            self._sealed_counts = {g: c.copy()
                                   for g, c in self._counts.items()}
            self._n_sealed = n
            rows = n - n_prev
            while (len(segments) > 1
                   and segments[-1].seals == segments[-2].seals):
                segments[-2:] = [self._merge(*segments[-2:])]
                rows += segments[-1].hi - segments[-1].lo
        index = self._epoch(trace)
        parts = [part for segment in self._segments
                 for part in segment.parts.values()]
        grouped = sum(part._keys.nbytes + part._starts.nbytes
                      for part in parts)
        index.build_stats = IndexBuildStats(
            n_accesses=n,
            chunk_accesses=self.chunk_accesses,
            n_chunks=-(-(n - n_prev) // self.chunk_accesses),
            peak_transient_bytes=self._peak_transient,
            key_state_bytes=self._prev_pos.nbytes + grouped + int(sum(
                self._keys[g].nbytes + self._counts[g].nbytes
                + self._sealed_counts[g].nbytes
                for g in self._GRANULARITIES)),
            table_bytes=grouped + 2 * 8 * n + int(sum(
                part._positions.nbytes for part in parts)),
            n_segments=len(self._segments),
            rows_written=rows)
        self._peak_transient = 0
        s = telemetry.session()
        if s is not None:
            s.add_time("live.index.seal", time.perf_counter() - t0)
            s.count("live.index.seals")
        return index

    def _epoch(self, trace):
        """The index over the live segments, each granularity with its
        live per-access column: one segment is a plain
        :class:`_PositionIndex`, several a :class:`_SegmentedIndex`."""
        n = self.n_accesses
        bounds = [0] + [segment.hi for segment in self._segments]
        parts = {}
        for name, table in _PER_ACCESS.items():
            column = {table: self._columns[name].view(n)}
            segments = [segment.parts[name] for segment in self._segments]
            if len(segments) > 1:
                parts[name] = _SegmentedIndex(segments, bounds, **column)
                continue
            if segments:
                tables = (segments[0]._positions, segments[0]._keys,
                          segments[0]._starts)
            else:
                # An empty table cannot be a map (an empty file cannot
                # be mapped): no accesses yet is heap arrays.
                tables = (np.empty(0, dtype=np.int64),
                          np.empty(0, dtype=np.int64),
                          np.zeros(1, dtype=np.int64))
            parts[name] = _PositionIndex.from_tables(*tables, **column)
        return TraceIndex._of(trace, parts["lines"], parts["pages"])

    def _table(self, table, lo, hi, files, fill=None):
        """A fresh positions table for the segment ``[lo, hi)``, holding
        ``fill`` when its rows are known up front: a writable map of a
        new spill file listed in ``files``, else heap (``fill`` itself)."""
        rows = hi - lo
        if self._scratch is None:
            return np.empty(rows, dtype=np.int64) if fill is None else fill
        path = os.path.join(self._scratch, f"segment{lo}-{hi}-{table}.npy")
        files.append(path)
        # The file's pages are written (with zeros when the rows come
        # later) before they are mapped: first touches of a hole through
        # a writable map fault a page at a time and cost twice as much.
        with open(path, "wb") as handle:
            np.lib.format.write_array_header_1_0(handle, {
                "descr": np.dtype(np.int64).str, "fortran_order": False,
                "shape": (rows,)})
            if fill is not None:
                handle.write(fill)
            else:
                zeros = np.zeros(min(rows, 1 << 16), dtype=np.int64)
                self._hold(zeros.nbytes)
                for at in range(0, rows, zeros.shape[0]):
                    handle.write(zeros[:rows - at])
        return np.load(path, mmap_mode="r+")

    def _new_segment(self, mem_line):
        """The pending accesses as a segment of one seal; on a
        snapshot that is not the feed its files are removed."""
        lo, hi = self._n_sealed, self.n_accesses
        parts, files = {}, []
        try:
            for name in self._GRANULARITIES:
                parts[name] = self._group_pending(name, mem_line, lo, hi,
                                                  files)
        except BaseException:
            _remove_files(files)
            raise
        return _Segment(lo, hi, 1, parts, files)

    def _group_pending(self, name, mem_line, lo, hi, files):
        """Counting sort of the accesses ``[lo, hi)`` into their keys'
        runs, in position order, behind per-key cursors."""
        pending = self._counts[name] - self._sealed_counts[name]
        present = np.flatnonzero(pending)
        keys = self._keys[name][present]
        starts = np.zeros(keys.shape[0] + 1, dtype=np.int64)
        np.cumsum(pending[present], out=starts[1:])
        ends = starts[1:]
        cursors = starts[:-1].copy()
        table = f"{name}_positions"
        whole = hi - lo <= self.chunk_accesses
        positions = None if whole else self._table(table, lo, hi, files)
        for at in range(lo, hi, self.chunk_accesses):
            window = np.asarray(mem_line[at:at + self.chunk_accesses],
                                dtype=np.int64)
            if name == "pages":
                window = window >> _PAGE_OF_LINE_SHIFT
            order, unique, run_start, run_count = _group_by_key(window)
            run_slot = np.searchsorted(keys, unique)
            if (run_slot[-1] == keys.shape[0]
                    or not np.array_equal(keys[run_slot], unique)
                    or np.any(cursors[run_slot] + run_count
                              > ends[run_slot])):
                raise ValueError(_NOT_APPENDED)
            order += at
            if whole:
                # The window is the whole segment: its grouping is the
                # table (every cursor sits at its own run start).
                positions = self._table(table, lo, hi, files, fill=order)
            else:
                dest = np.repeat(cursors[run_slot] - run_start, run_count)
                dest += np.arange(window.shape[0], dtype=np.int64)
                positions[dest] = order
            cursors[run_slot] += run_count
            # The page shift (or a converted line window), the packed
            # sort key, order, dest and the arange, and per-distinct-key
            # arrays.
            self._hold(_own_bytes(window) + 4 * order.nbytes
                       + 8 * unique.nbytes)
        # The runs hold exactly the pending accesses and none overflowed,
        # so every run is full.
        return _PositionIndex.from_tables(_read_only(positions), keys,
                                          starts)

    def _merge(self, older, newer):
        """``older`` and the adjacent ``newer`` as one segment; the
        merged segments' files are removed."""
        parts, files = {}, []
        try:
            for name in self._GRANULARITIES:
                out = self._table(f"{name}_positions", older.lo, newer.hi,
                                  files)
                keys, starts, held = _merge_runs(
                    older.parts[name], newer.parts[name], out,
                    self.chunk_accesses)
                self._hold(held)
                parts[name] = _PositionIndex.from_tables(_read_only(out),
                                                         keys, starts)
        except BaseException:
            _remove_files(files)
            raise
        # Maps a held epoch keeps still have their pages.
        _remove_files(older.files + newer.files)
        return _Segment(older.lo, newer.hi, older.seals + newer.seals,
                        parts, files)

    def close(self):
        for column in self._columns.values():
            column.close()
        self._segments = []
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
        and ``pages_ranks`` — of one segment, as :meth:`tables` and
        :meth:`open` produce them.  Tables are looked up by name, so
        other members (the lines' ranks and pages' successors an older
        spilled index also holds) are ignored.
        """
        return cls._of(trace, *(
            _PositionIndex.from_tables(
                tables[f"{name}_positions"], tables[f"{name}_keys"],
                tables[f"{name}_starts"],
                **{table: tables[f"{name}_{table}"]})
            for name, table in _PER_ACCESS.items()))

    @classmethod
    def _of(cls, trace, lines, pages):
        index = cls.__new__(cls)
        index.trace, index.lines, index.pages = trace, lines, pages
        return index

    def tables(self):
        """The eight tables of a one-segment index, by name, in the
        order a spilled index's blob holds them."""
        tables = {}
        for name, table in _PER_ACCESS.items():
            part = getattr(self, name)
            tables.update({f"{name}_keys": part._keys,
                           f"{name}_starts": part._starts,
                           f"{name}_positions": part._positions,
                           f"{name}_{table}": getattr(part, table)})
        return tables

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
                tables = index.tables()
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
        return any(part.mapped for part in (self.lines, self.pages)
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
        query reads.  A live epoch's successors are the builder's live
        column, where later appends patch an entry past the epoch's
        end, so ``access_limit`` is clamped to the prefix: an entry at
        or past it reads as no successor.
        """
        positions = np.asarray(positions, dtype=np.int64)
        n = positions.shape[0]
        reuse = np.full(n, -1, dtype=np.int64)
        stops = np.zeros(n, dtype=np.int64)
        if n == 0:
            return reuse, stops
        successors = self.lines.successors
        access_limit = min(int(access_limit), successors.shape[0])
        succ = successors[positions]
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
