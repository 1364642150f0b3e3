"""Tests for per-PC reuse statistics (the CoolSim substrate)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.statmodel.perpc import PerPCReuseStats


def test_fallback_until_min_samples():
    stats = PerPCReuseStats(min_samples=4)
    for _ in range(3):
        stats.add(1, 10)
    assert stats.used_fallback(1)
    stats.add(1, 10)
    assert not stats.used_fallback(1)
    assert stats.used_fallback(999)


def test_counts():
    stats = PerPCReuseStats()
    stats.add(1, 5)
    stats.add(2, 7)
    stats.add(2, -1)      # cold
    assert stats.n_pcs == 2
    assert stats.n_samples == 3
    assert stats.samples_for(2) == 2


def test_short_reuse_pc_predicts_hit():
    stats = PerPCReuseStats(min_samples=2)
    for _ in range(50):
        stats.add(1, 5)       # very short reuses
    assert stats.miss_probability(1, cache_lines=100) < 0.05


def test_long_reuse_pc_predicts_miss():
    stats = PerPCReuseStats(min_samples=2)
    # Global distribution: mostly short reuses (the conversion model),
    # plus one PC with reuses far beyond the cache size.
    for _ in range(200):
        stats.add(1, 4)
    for _ in range(50):
        stats.add(2, 5000)
    assert stats.miss_probability(2, cache_lines=50) > 0.9
    assert stats.miss_probability(1, cache_lines=50) < 0.1


def test_conversion_uses_global_distribution():
    """The reuse->stack conversion must use the *global* histogram.

    A long-reuse PC surrounded by short-reuse traffic: the window of its
    reuse contains mostly short-reuse accesses, so its stack distance is
    far below its reuse distance, and a large cache still hits.
    """
    stats = PerPCReuseStats(min_samples=2)
    for _ in range(400):
        stats.add(1, 10)                 # dense hot traffic
    for _ in range(20):
        stats.add(2, 2000)               # sparse long-reuse PC
    # Expected stack distance of a 2000-access window is roughly
    # 11 + 2000 * P(rd > small) ~ 11 + 2000 * (20/420) << 2000.
    assert stats.miss_probability(2, cache_lines=1000) < 0.2
    assert stats.miss_probability(2, cache_lines=50) > 0.8


def test_cold_only_pc():
    stats = PerPCReuseStats(min_samples=1)
    stats.add(7, -1)
    assert stats.miss_probability(7, cache_lines=10) == pytest.approx(1.0)


def test_empty_stats():
    stats = PerPCReuseStats()
    assert stats.miss_probability(1, cache_lines=10) == 0.0


def test_miss_probability_follows_new_samples():
    """Answers are memoized per (pc, cache size) but never outlive an
    add(): a query after new samples sees them."""
    stats = PerPCReuseStats(min_samples=1)
    for _ in range(20):
        stats.add(1, 5)
    short = stats.miss_probability(1, cache_lines=10)
    assert stats.miss_probability(1, cache_lines=10) == short
    for _ in range(20):
        stats.add(1, 5000)
    assert stats.miss_probability(1, cache_lines=10) > short + 0.3
    assert stats.miss_probability(2, cache_lines=10) == \
        stats.miss_probability(1, cache_lines=10)   # global fallback


_samples = st.lists(st.tuples(st.integers(0, 5),
                              st.one_of(st.just(-1), st.integers(0, 400))),
                    max_size=80)


@settings(max_examples=40, deadline=None)
@given(prior=_samples, batches=st.lists(_samples, max_size=4))
def test_add_many_matches_add_loop(prior, batches):
    """Batches grouped by PC give what the per-sample loop gives, also
    when queries run between batches."""
    reference = PerPCReuseStats(min_samples=3)
    batched = PerPCReuseStats(min_samples=3)
    for pc, distance in prior:
        reference.add(pc, distance)
        batched.add(pc, distance)
    sizes = (1, 4, 16, 64, 256)
    for batch in batches:
        for pc, distance in batch:
            reference.add(pc, distance)
        batched.add_many(np.asarray([pc for pc, _ in batch], dtype=np.int64),
                         np.asarray([d for _, d in batch], dtype=np.int64))
        assert batched.n_pcs == reference.n_pcs
        assert batched.n_samples == reference.n_samples
        for pc in range(7):
            assert batched.samples_for(pc) == reference.samples_for(pc)
            for size in sizes:
                assert batched.miss_probability(pc, size) == \
                    reference.miss_probability(pc, size), (pc, size)
    a, b = batched.global_histogram.state(), reference.global_histogram.state()
    assert a[0].tolist() == b[0].tolist() and a[1].tolist() == b[1].tolist()
    assert a[2] == b[2]
