"""Tests for the MSHR file."""

import numpy as np
import pytest

from repro import kernels
from repro.caches.mshr import MSHRFile


class FullScanMSHRFile(MSHRFile):
    """Reference: every lookup and allocate rescans every entry."""

    def _expire(self, now):
        expired = [line for line, t in self._outstanding.items() if t <= now]
        for line in expired:
            del self._outstanding[line]


def test_earliest_deadline_matches_full_scan():
    # Random lookup/allocate sequences, with time mostly moving forward
    # but sometimes jumping back, and an occasional reset.
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n_entries = int(rng.integers(1, 9))
        window = int(rng.integers(1, 30))
        fast = MSHRFile(n_entries, window=window)
        reference = FullScanMSHRFile(n_entries, window=window)
        now = 0
        for step in range(200):
            now = max(0, now + int(rng.integers(-8, 6)))
            line = int(rng.integers(0, 16))
            op = rng.random()
            if op < 0.02:
                fast.reset()
                reference.reset()
                continue
            method = "lookup" if op < 0.5 else "allocate"
            got = getattr(fast, method)(line, now)
            want = getattr(reference, method)(line, now)
            assert got == want, (seed, step)
            assert fast._outstanding == reference._outstanding, (seed, step)
            assert (fast.mshr_hits, fast.allocations,
                    fast.allocation_failures) == (
                reference.mshr_hits, reference.allocations,
                reference.allocation_failures), (seed, step)


def _per_access_walk(mshr, lines, positions, allocate):
    """The reference of :meth:`MSHRFile.walk`: one lookup per access,
    then an allocate on a flagged miss.  Returns the hit positions."""
    hits = []
    for k, (line, now, flagged) in enumerate(
            zip(lines.tolist(), positions.tolist(), allocate.tolist())):
        if mshr.lookup(line, now):
            hits.append(k)
            continue
        if flagged:
            mshr.allocate(line, now)
    return hits


def _state(mshr):
    """Outstanding entries in insertion order, then the counters."""
    return (list(mshr._outstanding.items()), mshr.mshr_hits,
            mshr.allocations, mshr.allocation_failures)


def test_native_walk_matches_per_access_loop():
    if not kernels.native_available():
        pytest.skip("compiled kernel extension (repro.kernels._native) "
                    f"could not be built: {kernels.native.unavailable_cause()}")
    # Random runs over a file that already holds entries, with time
    # mostly moving forward but sometimes jumping back; the state is
    # then driven on per access to show nothing stale came back.
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n_entries = int(rng.integers(1, 9))
        window = int(rng.integers(1, 31))
        walked = MSHRFile(n_entries, window=window)
        reference = MSHRFile(n_entries, window=window)
        now = 0
        for _ in range(3):
            for step, line in enumerate(
                    rng.integers(0, 16, size=int(rng.integers(0, 12)))):
                for mshr in (walked, reference):
                    mshr.allocate(int(line), now + step)
            n = int(rng.integers(0, 120))
            steps = rng.integers(-8, 6, size=n)
            positions = np.maximum(0, now + np.cumsum(steps))
            lines = rng.integers(0, 16, size=n)
            allocate = rng.random(n) < 0.7
            mask = walked.walk(lines, positions, allocate)
            want = _per_access_walk(reference, lines, positions, allocate)
            assert np.flatnonzero(mask).tolist() == want, seed
            assert _state(walked) == _state(reference), seed
            now = int(positions[-1]) if n else now


def test_lookup_miss_then_hit_within_window():
    mshr = MSHRFile(4, window=10)
    assert not mshr.lookup(7, now=0)
    assert mshr.allocate(7, now=0)
    assert mshr.lookup(7, now=5)
    assert mshr.mshr_hits == 1


def test_entry_expires_after_window():
    mshr = MSHRFile(4, window=10)
    mshr.allocate(7, now=0)
    assert not mshr.lookup(7, now=10)


def test_capacity_limit():
    mshr = MSHRFile(2, window=100)
    assert mshr.allocate(1, now=0)
    assert mshr.allocate(2, now=0)
    assert not mshr.allocate(3, now=0)
    assert mshr.allocation_failures == 1


def test_capacity_frees_after_expiry():
    mshr = MSHRFile(1, window=5)
    mshr.allocate(1, now=0)
    assert mshr.allocate(2, now=6)


def test_occupancy_and_reset():
    mshr = MSHRFile(4, window=10)
    mshr.allocate(1, now=0)
    mshr.allocate(2, now=0)
    assert mshr.occupancy == 2
    mshr.reset()
    assert mshr.occupancy == 0
    assert mshr.mshr_hits == 0


def test_invalid_parameters():
    with pytest.raises(ValueError):
        MSHRFile(0)
    with pytest.raises(ValueError):
        MSHRFile(4, window=0)
