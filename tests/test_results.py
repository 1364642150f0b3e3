"""Tests for result containers and error metrics."""

import math
import pickle

import numpy as np
import pytest

from repro.caches.stats import (
    AccessStats,
    HIT_LUKEWARM,
    LABELS,
    MISS_CAPACITY,
)
from repro.cpu.config import ProcessorConfig
from repro.cpu.interval import IntervalCoreModel
from repro.sampling.results import RegionResult, StrategyResult
from repro.vff.costmodel import CostMeter


def region(index=0, n_instructions=10_000, misses=5, hits=100):
    stats = AccessStats.of(hits + misses, [MISS_CAPACITY] * misses)
    timing = IntervalCoreModel(ProcessorConfig()).region_timing(
        n_instructions,
        outcomes=[MISS_CAPACITY] * misses,
        outcome_instr=list(range(0, misses * 500, 500)),
        llc_hits=0,
        n_mispredicts=0,
    )
    return RegionResult(index=index, n_instructions=n_instructions,
                        stats=stats, timing=timing)


def strategy_result(regions, seconds=10.0, wall=None):
    meter = CostMeter()
    meter.ledger.add("vff", seconds)
    return StrategyResult(
        strategy="X", workload="w", regions=regions, meter=meter,
        paper_equivalent_instructions=1_000_000_000, wall_seconds=wall)


def test_region_mpki():
    r = region(misses=5, n_instructions=10_000)
    assert r.mpki == pytest.approx(0.5)
    assert r.misses == 5
    assert r.cpi > 0


def test_strategy_cpi_weighted():
    result = strategy_result([region(0), region(1)])
    assert result.cpi == pytest.approx(result.regions[0].cpi)


def test_wall_seconds_override():
    result = strategy_result([region()], seconds=10.0, wall=2.0)
    assert result.total_seconds == 2.0
    no_wall = strategy_result([region()], seconds=10.0)
    assert no_wall.total_seconds == 10.0


def test_mips():
    result = strategy_result([region()], seconds=10.0)
    assert result.mips == pytest.approx(100.0)


def test_cpi_error_and_speedup():
    a = strategy_result([region(misses=5)], seconds=10.0)
    b = strategy_result([region(misses=10)], seconds=2.0)
    assert a.cpi_error(a) == 0.0
    assert b.cpi_error(a) > 0.0
    assert b.speedup_over(a) == pytest.approx(5.0)


def test_mpki_error():
    a = strategy_result([region(misses=5)])
    b = strategy_result([region(misses=8)])
    assert b.mpki_error(a) == pytest.approx(0.3)


def test_empty_regions_nan_cpi():
    result = strategy_result([])
    assert math.isnan(result.cpi)
    assert result.mpki == 0.0


def test_access_stats_invariants():
    stats = AccessStats.of(2, [MISS_CAPACITY])
    assert stats.total == 2
    assert stats.hits == 1
    assert stats.misses == 1
    assert stats.miss_ratio() == pytest.approx(0.5)
    with pytest.raises(ValueError):
        AccessStats.of(1, [len(LABELS)])


def test_access_stats_of_codes_equals_a_tally():
    """``AccessStats.of`` counts each code once and the remaining
    accesses as lukewarm hits, keyed by label in ``LABELS`` order with
    Python-int counts, and pickles like the same dict built by hand."""
    rng = np.random.default_rng(5)
    for n_codes in (0, 1, 7, 300):
        codes = rng.integers(0, len(LABELS), n_codes).astype(np.int8)
        n_accesses = n_codes + int(rng.integers(0, 50))
        tally = dict.fromkeys(LABELS, 0)
        for code in codes.tolist():
            tally[LABELS[code]] += 1
        tally[LABELS[HIT_LUKEWARM]] += n_accesses - n_codes
        stats = AccessStats.of(n_accesses, codes)
        assert stats.counts == tally
        assert tuple(stats.counts) == LABELS
        assert all(type(count) is int for count in stats.counts.values())
        assert stats.total == n_accesses
        assert (pickle.dumps(stats, protocol=pickle.HIGHEST_PROTOCOL)
                == pickle.dumps(AccessStats(tally),
                                protocol=pickle.HIGHEST_PROTOCOL))
