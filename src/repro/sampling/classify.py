"""The Figure 3 decision flow: statistical warming classification.

For every memory request of a detailed region:

1. hit in the *lukewarm* cache (state built by the 30 k detailed-warming
   instructions only) -> a definite hit;
2. outstanding miss for the same line -> MSHR (delayed) hit;
3. referenced set already full in the lukewarm cache -> conflict miss;
   a dominant-stride PC whose effective capacity is exceeded -> conflict
   miss (limited-associativity model);
4. capacity predictor says the stack distance exceeds the cache ->
   capacity miss (cold lines have infinite stack distance);
5. anything else missed only for lack of warming -> *warming miss*,
   modeled as a hit.

The capacity predictor is the only piece that differs between CoolSim
(per-PC reuse distributions, probabilistic) and DeLorean (exact key reuse
distance + vicinity StatStack); it is injected as a callable that returns
an outcome code (:mod:`repro.caches.stats`).  Both paths build one
:class:`~repro.caches.stats.ClassifiedRegion` at region end: the int8
codes of the accesses that reach beyond the lukewarm state, their
instruction positions and the region's LLC-hit count.

Where :meth:`~repro.caches.hierarchy.CacheHierarchy.batch_path` allows
(compiled backend, LRU caches, no prefetcher), the batch path runs in
two parts.  Its :class:`RegionFrontEnd` does everything that does
not depend on the LLC: the L1 hit masks of the detailed warming and of
the region (batch LRU kernel), and every L1 miss's dominant stride from
one stride query over the region (the detector observes every access
whatever its outcome).  The per-LLC phase then warms the LLC with the
warming tail's L1 misses and turns the strides into stride-limited
capacities, and one compiled loop per region
(:func:`~repro.kernels.native.classify_llc`) takes the region's
L1-miss substream through the LLC, the MSHRs and the predictor in
access order, exactly as the scalar reference does past the L1: an
MSHR hit skips its fetch in both.  The DSW predictor goes in as its
key table (``DirectedCapacityPredictor.key_table``: sorted key lines
and their stack distances); any other predictor is called back once
per decision, in order, so its random draws and counters end exactly
as the scalar path leaves them.

A classifier builds its front end on its own L1 and stride detector
unless it is handed one: the Analysts of a design-space sweep share
one front end per region and L1 configuration, so an extra LLC size
costs only its LLC phase.  An Analyst keeps one classifier for its
whole life and restarts it per region with
:meth:`WarmingClassifier.start_region`, which empties its caches and
MSHRs in place, so its LLC's set lists are allocated once per Analyst,
not once per region.
"""

import time

import numpy as np

from repro import telemetry
from repro.caches.hierarchy import CacheHierarchy
from repro.caches.mshr import MSHRFile
from repro.caches.stats import (
    ClassifiedRegion,
    HIT_MSHR,
    HIT_WARMING,
    MISS_CAPACITY,
    MISS_CONFLICT,
)
from repro.kernels import native


def _warm_head(l1, l1_window_lines, llc_window_lines):
    """Warm ``l1`` with the part of the L1 window before the LLC tail."""
    n_tail = llc_window_lines.shape[0]
    head = l1_window_lines[:-n_tail] if n_tail else l1_window_lines
    if head.shape[0]:
        l1.warm(head)


class RegionFrontEnd:
    """The LLC-independent half of one region's vector classification.

    Built on an L1 cache and an optional stride detector, it computes on
    first use — and returns unchanged to every later caller — the
    L1-miss substream of the detailed-warming tail (the lines the tail
    feeds the LLC) and the region's L1-miss positions with their
    dominant strides.  Every classifier handed the same front end must
    warm with the same windows and classify the same region behind the
    same L1 configuration.
    """

    def __init__(self, l1, stride_detector=None):
        self.l1 = l1
        self.stride_detector = stride_detector
        self._tail_misses = None
        self._region = None

    def warm(self, l1_window_lines, llc_window_lines):
        """Warm the L1 with the whole window; return the lines of the
        LLC-warming tail that miss it (the LLC's warming stream)."""
        if self._tail_misses is None:
            _warm_head(self.l1, l1_window_lines, llc_window_lines)
            _, hit_mask, _ = self.l1.warm_profile(llc_window_lines)
            self._tail_misses = llc_window_lines[~hit_mask]
        return self._tail_misses

    def region(self, lines, pcs):
        """``(candidates, strides)``: the region's L1-miss positions and
        each one's dominant stride (``0`` for none)."""
        s = telemetry.session()
        if self._region is not None:
            if s is not None:
                s.count("classify.front.shared")
            return self._region
        _, hit_mask, _ = self.l1.warm_profile(lines)
        candidates = np.flatnonzero(~hit_mask)
        if self.stride_detector is None:
            strides = np.zeros(candidates.shape[0], dtype=np.int64)
        else:
            strides = self.stride_detector.dominant_strides_at(
                pcs, lines, candidates)
        self._region = candidates, strides
        if s is not None:
            s.count("classify.front.built")
        return self._region


class WarmingClassifier:
    """Classify detailed-region accesses given a capacity predictor.

    Parameters
    ----------
    hierarchy_config:
        The modeled cache hierarchy (its LLC is the cache whose warm
        state is being predicted).
    capacity_predictor:
        ``f(pc, line, effective_llc_lines) -> code`` returning one of the
        outcome codes ``MISS_CAPACITY``, ``MISS_COLD`` or ``HIT_WARMING``
        (``MISS_COHERENCE`` too, when thread-aware).  A predictor with a
        ``key_table()`` (the DSW one) is read from that table by the
        compiled LLC phase instead of being called; any other is called
        once per decision, in access order, on every path.
    stride_detector:
        Optional :class:`~repro.statmodel.assoc.StrideDetector` for the
        limited-associativity conflict model.
    mshrs / mshr_window:
        L1-D MSHR file configuration (Table 1: 8 entries).
    front_end:
        Optional :class:`RegionFrontEnd` shared with other classifiers
        of the same region and L1 configuration; the vector path then
        takes the L1 and stride results from it instead of computing
        them on this classifier's own L1 and ``stride_detector``.
    """

    def __init__(self, hierarchy_config, capacity_predictor,
                 stride_detector=None, mshrs=8, mshr_window=24, seed=0,
                 prefetcher=None, front_end=None):
        self.hierarchy_config = hierarchy_config
        self.lukewarm = CacheHierarchy(hierarchy_config, seed=seed)
        self.mshr = MSHRFile(mshrs, window=mshr_window)
        self.start_region(capacity_predictor, stride_detector, prefetcher,
                          front_end)

    def start_region(self, capacity_predictor, stride_detector=None,
                     prefetcher=None, front_end=None):
        """Start a region on this classifier: empty the lukewarm
        hierarchy and the MSHRs in place and take the region's
        predictor, stride detector, prefetcher and front end.

        A flushed cache equals a fresh one, so a restarted classifier
        classifies exactly as a new one would; an Analyst restarts its
        one classifier per region instead of allocating every LLC set
        list again.
        """
        self.lukewarm.flush()
        self.mshr.reset()
        self.capacity_predictor = capacity_predictor
        self.stride_detector = stride_detector
        #: Optional stride prefetcher fed by *predicted* misses (the
        #: Section 6.3.2 extension): prefetched lines land in the lukewarm
        #: LLC so later accesses hit; prefetches to predicted-present
        #: lines are nullified.
        self.prefetcher = prefetcher
        self.front_end = front_end

    def _front(self):
        """The shared front end, or a fresh one on this classifier's own
        L1 and stride detector (which carry the state between calls)."""
        if self.front_end is not None:
            return self.front_end
        return RegionFrontEnd(self.lukewarm.l1d, self.stride_detector)

    def warm_detailed(self, l1_window_lines, llc_window_lines=None):
        """Run detailed warming through the lukewarm hierarchy.

        ``l1_window_lines`` is the full 30 k-instruction window: it warms
        the L1 exactly as the reference's L1 is warm at region start (the
        paper statistically warms only the LLC).  ``llc_window_lines`` is
        the footprint-scaled tail of that window; those accesses also
        populate the lukewarm LLC.  With a single argument both caches
        see the same window.
        """
        if llc_window_lines is None:
            llc_window_lines = l1_window_lines
        if self.lukewarm.batch_path(self.prefetcher):
            self.lukewarm.llc.warm(
                self._front().warm(l1_window_lines, llc_window_lines))
            return
        _warm_head(self.lukewarm.l1d, l1_window_lines, llc_window_lines)
        self.lukewarm.warm(llc_window_lines)

    def classify_region(self, lines, pcs, instr_offsets):
        """Classify every access of the region (arrays must align).

        ``instr_offsets`` are region-relative instruction positions used
        for timing; classification itself is order-dependent because each
        access updates the lukewarm cache and MSHRs (Figure 3's "fetch
        block" arrow).
        """
        s = telemetry.session()
        if self.lukewarm.batch_path(self.prefetcher):
            if s is None:
                return self._classify_region_vector(
                    lines, pcs, instr_offsets)
            t0 = time.perf_counter()
            out = self._classify_region_vector(lines, pcs, instr_offsets)
            s.add_time("classify.region", time.perf_counter() - t0)
            return out
        if s is None:
            return self._classify_region_scalar(lines, pcs, instr_offsets)
        t0 = time.perf_counter()
        out = self._classify_region_scalar(lines, pcs, instr_offsets)
        s.add_time("classify.region.scalar", time.perf_counter() - t0)
        return out

    # -- scalar reference --------------------------------------------------

    def _classify_region_scalar(self, lines, pcs, instr_offsets):
        llc = self.lukewarm.llc
        llc_lines = llc.config.n_lines
        n_sets = llc.config.n_sets
        outcomes = []
        outcome_instr = []
        llc_hits = 0

        for position, (line, pc, instr) in enumerate(
                zip(lines.tolist(), pcs.tolist(), instr_offsets.tolist())):
            if self.stride_detector is not None:
                self.stride_detector.observe(pc, line)

            l1_hit = self.lukewarm.l1d.access(line)
            llc_resident = llc.contains(line)
            if l1_hit or llc_resident:
                if not l1_hit:
                    llc.access(line)        # update recency
                    llc_hits += 1
                continue

            if self.mshr.lookup(line, position):
                outcomes.append(HIT_MSHR)
                outcome_instr.append(instr)
                continue

            outcome = self._beyond_lukewarm(line, pc, llc_lines, n_sets)
            outcomes.append(outcome)
            outcome_instr.append(instr)
            if outcome == HIT_WARMING:
                # A warming miss is modeled as a hit: the block would have
                # been resident in the warm LLC.  (It cannot have been in
                # the warm L1 — the L1 is warmed with the full window, so
                # an L1 miss here is an L1 miss in the reference too.)
                llc_hits += 1
            else:
                self.mshr.allocate(line, position)
                if self.prefetcher is not None:
                    for target in self.prefetcher.train(
                            pc, line, is_present=llc.contains):
                        llc.insert(target)
            llc.access(line)                # fetch block into lukewarm state
        return ClassifiedRegion(lines.shape[0], outcomes, outcome_instr,
                                llc_hits)

    # -- compiled two-phase path ------------------------------------------

    def _classify_region_vector(self, lines, pcs, instr_offsets):
        llc = self.lukewarm.llc
        # Front end: the L1 sees every access unconditionally.
        candidates, strides = self._front().region(lines, pcs)
        # LLC phase: the L1-miss substream, in one compiled loop.
        predictor = self.capacity_predictor
        key_table = getattr(predictor, "key_table", None)
        slot_lines, slot_deadlines, occupied = self.mshr.slots()
        (codes, positions, (hits, misses, warming), mshr_counts,
         (predicted, rechecks, unknown)) = native.classify_llc(
            llc._sets, llc._mask, llc.assoc, lines[candidates], candidates,
            pcs[candidates], self._effective_lines(strides),
            llc.config.n_lines, slot_lines, slot_deadlines, occupied,
            self.mshr.window,
            predictor if key_table is None else key_table())
        llc.hits += hits
        llc.misses += misses
        self.mshr.load_slots(slot_lines, slot_deadlines, *mshr_counts)
        if key_table is not None:
            predictor.count_lookups(predicted + rechecks, unknown)
        s = telemetry.session()
        if s is not None:
            s.count("classify.predict.callback" if key_table is None
                    else "classify.predict.table", predicted)
        return ClassifiedRegion(lines.shape[0], codes,
                                instr_offsets[positions], hits + warming)

    def _effective_lines(self, strides):
        """Stride-limited LLC capacity of each L1 miss, given its
        dominant stride (``0`` for none)."""
        config = self.lukewarm.llc.config
        effective = np.full(strides.shape[0], config.n_lines,
                            dtype=np.int64)
        strided = strides > 0
        # effective_cache_lines(), element-wise.
        effective[strided] = (
            config.n_sets // np.gcd(strides[strided], config.n_sets)
            * (config.n_lines // config.n_sets))
        return effective

    def _beyond_lukewarm(self, line, pc, llc_lines, n_sets):
        # Conflict: the referenced set is full in the lukewarm cache.
        if self.lukewarm.llc.set_is_full(line):
            return MISS_CONFLICT

        effective_lines = llc_lines
        if self.stride_detector is not None:
            effective_lines = self.stride_detector.effective_lines_for(
                pc, llc_lines, n_sets)
        return self._capacity_outcome(pc, line, effective_lines, llc_lines)

    def _capacity_outcome(self, pc, line, effective_lines, llc_lines):
        outcome = self.capacity_predictor(pc, line, effective_lines)
        if outcome == MISS_CAPACITY and effective_lines < llc_lines:
            # Capacity exceeded only because of the stride-limited
            # effective size: that is a conflict miss.
            full_outcome = self.capacity_predictor(pc, line, llc_lines)
            if full_outcome == HIT_WARMING:
                return MISS_CONFLICT
        return outcome
