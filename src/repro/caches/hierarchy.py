"""Two-level cache hierarchy (split L1 + unified LLC).

Matches Table 1: split 64 KiB 2-way L1s and a unified 8-way LLC, 64 B
lines everywhere.  The instruction side carries no traffic in our
synthetic traces (they have no fetch stream), so L1-I exists for
configuration completeness and reports zero accesses; README's layout
notes record this as part of the workload substitution.

``warm`` is the functional-warming hot path: it inlines the L1-D and LLC
LRU updates into one interleaved loop, compiled under the native kernel
backend and in Python (the reference) under the scalar one.
"""

import time
from dataclasses import dataclass, field

from repro import kernels, telemetry
from repro.caches.cache import CacheConfig, SetAssocCache
from repro.kernels import native
from repro.trace.spec import DEFAULT_SCALE
from repro.util.units import KIB, MIB


@dataclass(frozen=True)
class HierarchyConfig:
    """Configuration of the modeled cache hierarchy."""

    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(4 * KIB, assoc=2))
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(4 * KIB, assoc=2))
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(128 * KIB, assoc=8))

    def scaled_llc(self, llc_size_bytes):
        """This config with a different LLC size (for size sweeps)."""
        llc = CacheConfig(llc_size_bytes, assoc=self.llc.assoc,
                          line_bytes=self.llc.line_bytes,
                          policy=self.llc.policy)
        return HierarchyConfig(l1d=self.l1d, l1i=self.l1i, llc=llc)


# Hit levels returned by CacheHierarchy.access.
L1 = "l1"
LLC = "llc"
MEM = "mem"


class CacheHierarchy:
    """L1-D + LLC simulator consuming cacheline numbers."""

    def __init__(self, config, seed=0):
        self.config = config
        self.l1d = SetAssocCache(config.l1d, seed=seed)
        self.llc = SetAssocCache(config.llc, seed=seed)
        self.l1_hits = 0
        self.llc_hits = 0
        self.mem_misses = 0

    def access(self, line):
        """Access one line; returns the hit level (``"l1"|"llc"|"mem"``)."""
        if self.l1d.access(line):
            self.l1_hits += 1
            return L1
        if self.llc.access(line):
            self.llc_hits += 1
            return LLC
        self.mem_misses += 1
        return MEM

    def batch_path(self, prefetcher=None):
        """Whether a detailed region on this hierarchy may take the batch
        path (the classifier's and SMARTS's): a compiled kernel backend,
        no prefetcher, and LRU L1-D and LLC, the batch kernels' policy."""
        return (kernels.get_backend() != "scalar" and prefetcher is None
                and self.l1d._is_lru and self.llc._is_lru)

    def warm(self, lines):
        """Bulk functional warming over a numpy line array.

        Returns ``(l1_hits, llc_hits, mem_misses)`` for the batch.  Only
        valid for LRU caches (the Table 1 configuration); other policies
        fall back to per-access calls.

        The native kernel backend runs both levels in one compiled
        interleaved loop; the scalar backend runs the same loop below,
        the reference.  The LLC sees exactly the L1-miss substream.
        """
        if not (self.l1d._is_lru and self.llc._is_lru):
            l1_hits = llc_hits = mem = 0
            for line in lines.tolist():
                level = self.access(line)
                if level == L1:
                    l1_hits += 1
                elif level == LLC:
                    llc_hits += 1
                else:
                    mem += 1
            return l1_hits, llc_hits, mem

        if len(lines) and kernels.get_backend() == "native":
            s = telemetry.session()
            t0 = time.perf_counter() if s is not None else 0.0
            l1_hits, llc_hits = native.warm_hierarchy(
                self.l1d._sets, self.llc._sets, lines,
                self.l1d._mask, self.l1d.assoc,
                self.llc._mask, self.llc.assoc)
            if s is not None:
                s.add_time("kernel.hierarchy_warm",
                           time.perf_counter() - t0)
                s.count("kernel.hierarchy_warm.calls")
            mem = len(lines) - l1_hits - llc_hits
            self.l1d.hits += l1_hits
            self.l1d.misses += len(lines) - l1_hits
            self.llc.hits += llc_hits
            self.llc.misses += mem
            self.l1_hits += l1_hits
            self.llc_hits += llc_hits
            self.mem_misses += mem
            return l1_hits, llc_hits, mem

        l1_sets = self.l1d._sets
        l1_mask = self.l1d._mask
        l1_assoc = self.l1d.assoc
        llc_sets = self.llc._sets
        llc_mask = self.llc._mask
        llc_assoc = self.llc.assoc
        l1_hits = 0
        llc_hits = 0
        for line in lines.tolist():
            entries = l1_sets[line & l1_mask]
            if line in entries:
                if entries[-1] != line:
                    entries.remove(line)
                    entries.append(line)
                l1_hits += 1
                continue
            if len(entries) >= l1_assoc:
                entries.pop(0)
            entries.append(line)
            entries = llc_sets[line & llc_mask]
            if line in entries:
                if entries[-1] != line:
                    entries.remove(line)
                    entries.append(line)
                llc_hits += 1
            else:
                if len(entries) >= llc_assoc:
                    entries.pop(0)
                entries.append(line)
        mem = len(lines) - l1_hits - llc_hits
        self.l1_hits += l1_hits
        self.llc_hits += llc_hits
        self.mem_misses += mem
        self.l1d.hits += l1_hits
        self.l1d.misses += len(lines) - l1_hits
        self.llc.hits += llc_hits
        self.llc.misses += len(lines) - l1_hits - llc_hits
        return l1_hits, llc_hits, mem

    def flush(self):
        self.l1d.flush()
        self.llc.flush()
        self.l1_hits = 0
        self.llc_hits = 0
        self.mem_misses = 0


def paper_hierarchy(llc_paper_bytes=8 * MIB, scale=DEFAULT_SCALE,
                    l1_scale=0.25):
    """Table 1 hierarchy at a paper-equivalent LLC size and model scale.

    The paper's 1 MiB–512 MiB 8-way LLC scales by ``scale``
    (:mod:`repro.sampling.plan`: 8 MiB paper -> 128 KiB model at 1/64).
    The 64 KiB L1s scale by the milder ``l1_scale``: what must be
    preserved for the lukewarm-cache mechanics is the ratio between the
    benchmarks' hot sets and the L1 — scaling the L1 all the way to
    1 KiB would push every hot-set hit out to the LLC and inflate
    baseline CPI far above the paper's.
    """
    l1_bytes = max(1 * KIB, int(64 * KIB * l1_scale))
    llc_bytes = max(4 * KIB, int(llc_paper_bytes * scale))
    return HierarchyConfig(
        l1d=CacheConfig(l1_bytes, assoc=2),
        l1i=CacheConfig(l1_bytes, assoc=2),
        llc=CacheConfig(llc_bytes, assoc=8),
    )
