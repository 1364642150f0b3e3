"""Limited-associativity model: dominant-stride conflict misses.

Section 3.1.2 (Conflict Misses): some load PCs exhibit a dominant large
stride, so they only ever touch a fraction of the cache sets — e.g. a
512-byte stride with 64-byte lines touches one eighth of the sets.  For
such streams the *effective* cache is correspondingly smaller, and
accesses whose stack distance exceeds the effective capacity are conflict
misses even though the full-capacity model would call them hits.  This is
the "previously proposed limited-associativity model" CoolSim introduced
and DeLorean reuses.
"""

from math import gcd

import numpy as np


def sets_touched_by_stride(stride_lines, n_sets):
    """Number of distinct sets a circular stride-``stride_lines`` stream
    touches in an ``n_sets``-set cache (both in lines/sets)."""
    if stride_lines <= 0:
        raise ValueError("stride must be positive")
    return n_sets // gcd(int(stride_lines), n_sets)


def effective_cache_lines(cache_lines, n_sets, stride_lines):
    """Effective capacity (in lines) seen by a dominant-stride stream."""
    touched = sets_touched_by_stride(stride_lines, n_sets)
    assoc = cache_lines // n_sets
    return touched * assoc


class StrideDetector:
    """Detect a dominant stride per load PC from sampled line addresses.

    Feed it (pc, line) observations — e.g. the detailed region's accesses
    or the vicinity samples — then query the dominant stride for a PC.  A
    stride is *dominant* when a single non-zero line delta explains at
    least ``threshold`` of that PC's consecutive deltas.
    """

    def __init__(self, threshold=0.6, max_history=64):
        if not 0 < threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        self.threshold = float(threshold)
        self.max_history = int(max_history)
        self._last_line = {}
        self._deltas = {}

    def observe(self, pc, line):
        """Record one access of ``pc`` to ``line``."""
        pc = int(pc)
        last = self._last_line.get(pc)
        self._last_line[pc] = int(line)
        if last is None:
            return
        delta = int(line) - last
        if delta == 0:
            return
        history = self._deltas.setdefault(pc, [])
        history.append(delta)
        if len(history) > self.max_history:
            del history[0]

    def observe_many(self, pcs, lines):
        """:meth:`observe` on every ``(pc, line)`` in order.

        This is :meth:`dominant_strides_at` with no query positions,
        which leaves exactly the state the per-access loop leaves.
        """
        self.dominant_strides_at(pcs, lines, np.empty(0, dtype=np.int64))

    #: Upper bound on window-matrix cells per chunk of query rows (each
    #: transient matrix of a chunk stays below 1 MiB).
    _CHUNK_CELLS = 1 << 16

    def dominant_strides_at(self, pcs, lines, positions):
        """Observe a whole access stream; dominant strides at ``positions``.

        Equivalent to calling :meth:`observe` on every ``(pc, line)`` in
        order and, right after each access whose index is in
        ``positions``, :meth:`dominant_stride` for that access's PC.
        Returns an ``int64`` array aligned with ``positions``, ``0``
        where :meth:`dominant_stride` would return None.  Prior state
        carries in, and the detector ends in the state the per-access
        loop leaves behind.

        Each PC's non-zero deltas (its prior history first) form one
        stream; a query's history is the last ``max_history`` entries of
        its PC's stream up to the query, and its dominant stride is the
        mode of that window, found by sorting the window's row.
        """
        pcs = np.asarray(pcs, dtype=np.int64)
        lines = np.asarray(lines, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        n = pcs.shape[0]
        if n == 0:
            return np.zeros(positions.shape[0], dtype=np.int64)

        order = np.argsort(pcs, kind="stable")
        sorted_lines = lines[order]
        sorted_pcs = pcs[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], sorted_pcs[1:] != sorted_pcs[:-1])))
        ends = np.append(starts[1:], n)
        group_pcs = sorted_pcs[starts].tolist()
        prior_last = [self._last_line.get(pc) for pc in group_pcs]
        prior = [self._deltas.get(pc, ()) for pc in group_pcs]

        # Delta of every access from its PC's previous line; an access
        # appends to its PC's stream iff it has a predecessor and moved.
        deltas = np.empty(n, dtype=np.int64)
        deltas[1:] = sorted_lines[1:] - sorted_lines[:-1]
        unseen = np.asarray([last is None for last in prior_last])
        deltas[starts] = sorted_lines[starts] - np.asarray(
            [0 if last is None else last for last in prior_last],
            dtype=np.int64)
        fresh = deltas != 0
        fresh[starts[unseen]] = False

        # Stream length of each access's PC once the access is observed.
        group = np.repeat(np.arange(starts.shape[0]), ends - starts)
        fresh_before = np.cumsum(fresh) - fresh
        prior_len = np.asarray([len(h) for h in prior], dtype=np.int64)
        length = (prior_len - fresh_before[starts])[group] + \
            fresh_before + fresh
        stream_sizes = length[ends - 1]
        offsets = np.concatenate(([0], np.cumsum(stream_sizes)[:-1]))
        stream = np.empty(int(stream_sizes.sum()), dtype=np.int64)
        for g, deltas_before in enumerate(prior):
            if deltas_before:
                stream[offsets[g]:offsets[g] + len(deltas_before)] = \
                    deltas_before
        stream[(offsets[group] + length - 1)[fresh]] = deltas[fresh]

        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        queried = rank[positions]
        strides = self._window_modes(
            np.abs(stream), offsets[group[queried]] + length[queried],
            np.minimum(length[queried], self.max_history))

        stream_list = stream.tolist()
        last_lines = sorted_lines[ends - 1].tolist()
        for g, pc in enumerate(group_pcs):
            self._last_line[pc] = last_lines[g]
            size = int(stream_sizes[g])
            if size > len(prior[g]):
                lo = int(offsets[g])
                self._deltas[pc] = stream_list[
                    lo + max(0, size - self.max_history):lo + size]
        return strides

    def _window_modes(self, magnitudes, window_ends, sizes):
        """Dominant stride of each window ``magnitudes[end - size:end]``
        (``0`` for none), over chunks of at most ``_CHUNK_CELLS`` cells."""
        history = self.max_history
        out = np.zeros(sizes.shape[0], dtype=np.int64)
        columns = np.arange(history, dtype=np.int64)
        rows = max(1, self._CHUNK_CELLS // max(history, 1))
        for r0 in range(0, sizes.shape[0], rows):
            take = np.flatnonzero(sizes[r0:r0 + rows] >= 4)
            if take.shape[0] == 0:
                continue
            size = sizes[r0 + take]
            cells = (window_ends[r0 + take] - history)[:, None] + columns
            padding = columns < (history - size)[:, None]
            np.maximum(cells, 0, out=cells)
            window = magnitudes[cells]
            window[padding] = 0            # magnitudes are >= 1
            window.sort(axis=1)
            # Run length at every cell of the sorted row; the first
            # longest run is the smallest most frequent magnitude, as
            # np.unique + argmax picks it.
            new_run = np.ones(window.shape, dtype=bool)
            new_run[:, 1:] = window[:, 1:] != window[:, :-1]
            run_start = np.maximum.accumulate(
                np.where(new_run, columns, 0), axis=1)
            runs = columns - run_start + 1
            runs[window == 0] = 0
            best = np.argmax(runs, axis=1)
            row = np.arange(take.shape[0])
            count = runs[row, best]
            stride = window[row, best]
            dominant = (count / size >= self.threshold) & (stride > 1)
            out[r0 + take[dominant]] = stride[dominant]
        return out

    def dominant_stride(self, pc):
        """Dominant line stride of ``pc``, or None.

        Only strides larger than one line matter for the conflict model
        (unit stride uses all sets).
        """
        history = self._deltas.get(int(pc))
        if not history or len(history) < 4:
            return None
        values, counts = np.unique(np.abs(history), return_counts=True)
        best = int(np.argmax(counts))
        if counts[best] / len(history) < self.threshold:
            return None
        stride = int(values[best])
        return stride if stride > 1 else None

    def effective_lines_for(self, pc, cache_lines, n_sets):
        """Effective capacity for ``pc`` (full capacity if no stride)."""
        stride = self.dominant_stride(pc)
        if stride is None:
            return cache_lines
        return effective_cache_lines(cache_lines, n_sets, stride)
