"""Set-associative cache model.

Two internal representations are used, chosen at construction:

* LRU (the paper's Table 1 policy) keeps each set as a Python list in
  recency order (LRU at index 0).  Bulk warming — simulating every access
  of a warm-up interval, the very overhead the paper attacks — dispatches
  through the kernel backend (:mod:`repro.kernels`): the native backend
  runs the per-access loop compiled, the scalar backend is the Python
  reference; both are bit-identical.
* Other policies (random, tree-PLRU, NMRU) use a way-table plus a
  pluggable :mod:`~repro.caches.replacement` policy object.
"""

import time
from dataclasses import dataclass

import numpy as np

from repro import kernels, telemetry
from repro.caches.replacement import make_policy
from repro.kernels import native
from repro.util.units import CACHELINE_BYTES, format_size


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one cache."""

    size_bytes: int
    assoc: int
    line_bytes: int = CACHELINE_BYTES
    policy: str = "lru"

    def __post_init__(self):
        if self.size_bytes <= 0 or self.assoc <= 0 or self.line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ValueError("size must be a multiple of assoc * line size")
        if self.n_sets & (self.n_sets - 1):
            raise ValueError("number of sets must be a power of two")

    @property
    def n_lines(self):
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self):
        return self.n_lines // self.assoc

    def describe(self):
        return (f"{format_size(self.size_bytes)}, {self.assoc}-way "
                f"{self.policy.upper()}, {self.line_bytes} B line")


class SetAssocCache:
    """A set-associative cache indexed by cacheline number.

    All methods take *line* addresses (byte address >> 6), matching the
    trace's memory view.
    """

    def __init__(self, config, seed=0):
        self.config = config
        self.n_sets = config.n_sets
        self.assoc = config.assoc
        self._mask = self.n_sets - 1
        self.hits = 0
        self.misses = 0
        self._seed = seed
        self._is_lru = config.policy == "lru"
        if self._is_lru:
            self._sets = [[] for _ in range(self.n_sets)]
            self._policy = None
        else:
            self._fresh_policy_state()

    def _fresh_policy_state(self):
        """Empty way tables and a policy re-seeded from the cache's seed."""
        self._tags = [[None] * self.assoc for _ in range(self.n_sets)]
        self._ways = [dict() for _ in range(self.n_sets)]
        self._policy = make_policy(
            self.config.policy, self.n_sets, self.assoc, seed=self._seed)

    # -- single-access interface -----------------------------------------

    def access(self, line):
        """Access ``line``; update state; return True on hit."""
        if self._is_lru:
            return self._access_lru(line)
        return self._access_policy(line)

    def _access_lru(self, line):
        entries = self._sets[line & self._mask]
        try:
            index = entries.index(line)      # one scan for both in + find
        except ValueError:
            if len(entries) >= self.assoc:
                entries.pop(0)
            entries.append(line)
            self.misses += 1
            return False
        if index != len(entries) - 1:
            del entries[index]
            entries.append(line)
        self.hits += 1
        return True

    def _access_policy(self, line):
        set_idx = line & self._mask
        ways = self._ways[set_idx]
        way = ways.get(line)
        if way is not None:
            self._policy.touch(set_idx, way)
            self.hits += 1
            return True
        tags = self._tags[set_idx]
        if len(ways) < self.assoc:
            way = len(ways)
        else:
            way = self._policy.victim(set_idx)
            del ways[tags[way]]
        tags[way] = line
        ways[line] = way
        self._policy.fill(set_idx, way)
        self.misses += 1
        return False

    # -- bulk interface ----------------------------------------------------

    def warm(self, lines):
        """Access every line of a numpy array; return (hits, misses).

        This is the functional-warming hot loop.  For LRU caches the
        native backend runs it compiled; the scalar backend, and every
        other policy, runs the per-access reference loop.
        """
        s = telemetry.session()
        if self._is_lru and len(lines) and kernels.get_backend() == "native":
            t0 = time.perf_counter() if s is not None else 0.0
            hits = native.warm_lru(
                self._sets, lines, self._mask, self.assoc)[0]
            if s is not None:
                s.add_time("kernel.bulk_warm",
                           time.perf_counter() - t0)
                s.count("kernel.bulk_warm.calls")
            misses = len(lines) - hits
            self.hits += hits
            self.misses += misses
            return hits, misses
        if s is not None:
            t0 = time.perf_counter()
            out = self.warm_scalar(lines)
            s.add_time("kernel.bulk_warm.scalar",
                       time.perf_counter() - t0)
            return out
        return self.warm_scalar(lines)

    def warm_scalar(self, lines):
        """Per-access reference implementation of :meth:`warm`."""
        if not self._is_lru:
            hits = 0
            for line in lines.tolist():
                hits += self._access_policy(line)
            misses = len(lines) - hits
            return hits, misses

        sets = self._sets
        mask = self._mask
        assoc = self.assoc
        hits = 0
        for line in lines.tolist():
            entries = sets[line & mask]
            if line in entries:
                if entries[-1] != line:
                    entries.remove(line)
                    entries.append(line)
                hits += 1
            else:
                if len(entries) >= assoc:
                    entries.pop(0)
                entries.append(line)
        misses = len(lines) - hits
        self.hits += hits
        self.misses += misses
        return hits, misses

    def warm_profile(self, lines):
        """Bulk warm that also reports per-access outcomes.

        Returns ``(hits, hit_mask, occupancy_before)``: the boolean hit
        mask and the number of valid ways in the referenced set *before*
        each access (what :meth:`set_occupancy` would have returned), in
        batch order.  LRU only — the vectorized classification path in
        :mod:`repro.sampling.classify` is built on it.
        """
        if not self._is_lru:
            raise ValueError("warm_profile requires an LRU cache")
        n = len(lines)
        if n and kernels.get_backend() == "native":
            s = telemetry.session()
            t0 = time.perf_counter() if s is not None else 0.0
            hits, hit_mask, occupancy = native.warm_lru(
                self._sets, lines, self._mask, self.assoc,
                want_access_info=True)
            if s is not None:
                s.add_time("kernel.warm_profile",
                           time.perf_counter() - t0)
            self.hits += hits
            self.misses += n - hits
            return hits, hit_mask, occupancy
        hit_mask = np.zeros(n, dtype=bool)
        occupancy = np.zeros(n, dtype=np.int64)
        for i, line in enumerate(lines.tolist()):
            occupancy[i] = len(self._sets[line & self._mask])
            hit_mask[i] = self._access_lru(line)
        return int(np.count_nonzero(hit_mask)), hit_mask, occupancy

    def insert(self, line):
        """Fill ``line`` without counting a hit or miss (prefetch path).

        No-op if the line is already resident; evicts per policy if the
        set is full.
        """
        if self.contains(line):
            return
        if self._is_lru:
            entries = self._sets[line & self._mask]
            if len(entries) >= self.assoc:
                entries.pop(0)
            entries.append(line)
            return
        set_idx = line & self._mask
        ways = self._ways[set_idx]
        tags = self._tags[set_idx]
        if len(ways) < self.assoc:
            way = len(ways)
        else:
            way = self._policy.victim(set_idx)
            del ways[tags[way]]
        tags[way] = line
        ways[line] = way
        self._policy.fill(set_idx, way)

    # -- inspection (no state change) --------------------------------------

    def contains(self, line):
        """True if ``line`` is resident (does not update recency)."""
        if self._is_lru:
            return line in self._sets[line & self._mask]
        return line in self._ways[line & self._mask]

    def set_occupancy(self, line):
        """Number of valid ways in the set that ``line`` maps to."""
        if self._is_lru:
            return len(self._sets[line & self._mask])
        return len(self._ways[line & self._mask])

    def set_is_full(self, line):
        """True if the set that ``line`` maps to has no free way."""
        return self.set_occupancy(line) >= self.assoc

    def resident_lines(self):
        """All resident lines (order unspecified)."""
        if self._is_lru:
            return [l for entries in self._sets for l in entries]
        return [l for ways in self._ways for l in ways]

    def flush(self):
        """Invalidate everything and reset hit/miss counters: afterwards
        the cache behaves exactly like a fresh one of the same seed.

        LRU set lists are emptied in place (one C loop on the native
        backend), so a cache reused across regions allocates no set
        list.
        """
        self.hits = 0
        self.misses = 0
        if not self._is_lru:
            self._fresh_policy_state()
        elif kernels.get_backend() == "native":
            native.clear_sets(self._sets)
        else:
            for entries in self._sets:
                entries.clear()

    def __repr__(self):
        return f"SetAssocCache({self.config.describe()})"
