"""Exact reuse- and stack-distance analysis.

This is the Mattson-style reference that statistical cache modeling
approximates (Section 2.2): *stack distance* is the number of unique
cachelines between two accesses to the same line; *reuse distance* is the
raw access count between them.  A Fenwick tree over trace positions gives
exact stack distances in O(log n) per access (the classic
Bennett–Kruskal algorithm) — compiled under the native kernel backend,
in Python under the scalar one; reuse distances are computed fully
vectorized.

These routines serve three roles:

* ground truth in tests for StatStack's reuse-to-stack conversion,
* exact whole-trace miss-ratio curves (all cache sizes in one pass),
* the *oracle trace index* used by the virtualized-profiling substrate:
  :func:`previous_access_index` is how Explorers locate the last access of
  a key cacheline (the hardware would find it by running with watchpoints;
  the trace index tells us which watchpoint stop would have been the true
  positive and how many false positives precede it).
"""

import time

import numpy as np

from repro import kernels, telemetry
from repro.kernels import native


def previous_access_index(lines):
    """For each access, the index of the previous access to the same line.

    Returns an ``int64`` array; ``-1`` marks a line's first access.
    """
    lines = np.asarray(lines)
    n = lines.shape[0]
    prev = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return prev
    order = np.argsort(lines, kind="stable")
    sorted_lines = lines[order]
    same = sorted_lines[1:] == sorted_lines[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def next_access_index(lines):
    """For each access, the index of the next access to the same line.

    Returns an ``int64`` array; ``-1`` marks a line's last access.
    """
    lines = np.asarray(lines)
    n = lines.shape[0]
    nxt = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return nxt
    order = np.argsort(lines, kind="stable")
    sorted_lines = lines[order]
    same = sorted_lines[1:] == sorted_lines[:-1]
    nxt[order[:-1][same]] = order[1:][same]
    return nxt


def reuse_and_stack_distances(lines):
    """Exact (reuse, stack) distance per access.

    Both arrays use ``-1`` for cold (first) accesses.  Reuse distance is
    the number of accesses strictly between the reuse pair; stack distance
    is the number of *distinct* lines strictly between them, so an
    immediate re-reference has reuse == stack == 0 and a fully-associative
    LRU cache of ``C`` lines hits iff ``stack < C``.

    Dispatches on the kernel backend: the native backend runs the
    compiled Fenwick loop (:mod:`repro.kernels.native`), the scalar
    backend the Fenwick-tree reference below; results are bit-identical.
    """
    if kernels.get_backend() == "native":
        kernel = native.reuse_and_stack_distances_native
        timer = "kernel.stack_distances"
    else:
        kernel = reuse_and_stack_distances_scalar
        timer = "kernel.stack_distances.scalar"
    s = telemetry.session()
    if s is None:
        return kernel(lines)
    t0 = time.perf_counter()
    out = kernel(lines)
    s.add_time(timer, time.perf_counter() - t0)
    return out


def reuse_and_stack_distances_scalar(lines):
    """Fenwick-tree reference implementation (Bennett-Kruskal)."""
    lines = np.asarray(lines)
    n = lines.shape[0]
    prev = previous_access_index(lines)
    reuse = np.where(prev >= 0, np.arange(n, dtype=np.int64) - prev - 1, -1)
    stack = np.full(n, -1, dtype=np.int64)

    tree = FenwickTree(n + 1)
    prev_list = prev.tolist()
    add = tree.add
    prefix = tree.prefix_sum
    for i, p in enumerate(prev_list):
        if p >= 0:
            # Marked positions in (p, i) are the most-recent positions of
            # distinct lines touched since p.
            stack[i] = prefix(i) - prefix(p + 1)
            add(p + 1, -1)
        add(i + 1, 1)
    return reuse, stack


def miss_count_for_sizes(stack_distances, sizes_in_lines):
    """Fully-associative LRU miss counts for many cache sizes at once.

    ``stack_distances`` uses ``-1`` for cold accesses (always misses).
    Returns an ``int64`` array aligned with ``sizes_in_lines``.
    """
    stack_distances = np.asarray(stack_distances)
    sizes = np.asarray(sizes_in_lines, dtype=np.int64)
    cold = int(np.count_nonzero(stack_distances < 0))
    warm = stack_distances[stack_distances >= 0]
    # miss iff stack >= size; count via sorted search.
    warm_sorted = np.sort(warm)
    hits_below = np.searchsorted(warm_sorted, sizes, side="left")
    return cold + (warm_sorted.size - hits_below)


class FenwickTree:
    """Binary indexed tree over ``[1, n]`` with integer point updates."""

    def __init__(self, n):
        if n <= 0:
            raise ValueError("tree size must be positive")
        self.n = int(n)
        self._tree = [0] * (self.n + 1)

    def add(self, index, value):
        """Add ``value`` at 1-based ``index``."""
        if not 1 <= index <= self.n:
            raise IndexError(f"index {index} outside [1, {self.n}]")
        tree = self._tree
        while index <= self.n:
            tree[index] += value
            index += index & (-index)

    def prefix_sum(self, index):
        """Sum of values at positions ``[1, index]`` (0 if index <= 0)."""
        if index > self.n:
            index = self.n
        tree = self._tree
        total = 0
        while index > 0:
            total += tree[index]
            index -= index & (-index)
        return total

    def range_sum(self, lo, hi):
        """Sum over 1-based inclusive range ``[lo, hi]``."""
        if hi < lo:
            return 0
        return self.prefix_sum(hi) - self.prefix_sum(lo - 1)


class StackDistanceProfiler:
    """Convenience wrapper: profile a trace once, query many cache sizes."""

    def __init__(self, lines):
        self.reuse, self.stack = reuse_and_stack_distances(lines)
        self.n_accesses = int(np.asarray(lines).shape[0])

    def miss_ratio(self, size_in_lines):
        """Fully-associative LRU miss ratio at one cache size."""
        if self.n_accesses == 0:
            return 0.0
        misses = miss_count_for_sizes(self.stack, [size_in_lines])[0]
        return misses / self.n_accesses

    def miss_ratio_curve(self, sizes_in_lines):
        """Miss ratios across sizes (the working-set curve substrate)."""
        if self.n_accesses == 0:
            return np.zeros(len(sizes_in_lines))
        misses = miss_count_for_sizes(self.stack, sizes_in_lines)
        return misses / self.n_accesses
