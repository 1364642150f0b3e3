"""Tests for the MSHR file."""

import numpy as np
import pytest

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
