"""Tests for the CPU timing substrate: config, interval model, predictor,
prefetcher."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.caches.stats import HIT_MSHR, LABELS, MISS_CAPACITY
from repro.cpu.branch import TournamentPredictor
from repro.cpu.config import ProcessorConfig, format_table1
from repro.cpu.interval import IntervalCoreModel, RegionTiming
from repro.cpu.prefetch import StridePrefetcher


# -- Table 1 -----------------------------------------------------------------

def test_table1_contains_paper_rows():
    text = format_table1()
    assert "ROB" in text and "192 entries" in text
    assert "8 wide" in text
    assert "1 MiB to 512 MiB" in text
    assert "4 (L1-I), 8 (L1-D), 20 (LLC)" in text


# -- interval model ----------------------------------------------------------

def model():
    return IntervalCoreModel(ProcessorConfig())


def test_base_cpi_is_dispatch_bound():
    timing = model().region_timing(8000, [], [], 0, 0)
    assert timing.cpi == pytest.approx(1 / 8)


def test_branch_penalty():
    config = ProcessorConfig()
    timing = model().region_timing(8000, [], [], 0, n_mispredicts=10)
    assert timing.branch_cycles == 10 * config.branch_mispredict_penalty


def test_llc_hit_penalty():
    config = ProcessorConfig()
    timing = model().region_timing(8000, [], [], llc_hits=3,
                                   n_mispredicts=0)
    assert timing.llc_hit_cycles == 3 * config.llc_hit_penalty


def test_memory_clustering_overlaps_within_rob():
    m = model()
    # 8 misses at the same instruction: one serialized round-trip.
    assert m.serialized_misses([100] * 8) == 1.0
    # 9 misses: two round-trips (max_mlp = 8).
    assert m.serialized_misses([100] * 9) == 2.0
    # Two misses farther apart than the ROB: two round-trips.
    assert m.serialized_misses([0, 1000]) == 2.0
    assert m.serialized_misses([]) == 0.0


def test_region_timing_memory_cycles():
    config = ProcessorConfig()
    timing = model().region_timing(
        10_000,
        outcomes=[MISS_CAPACITY, MISS_CAPACITY],
        outcome_instr=[0, 5000],
        llc_hits=0,
        n_mispredicts=0,
    )
    assert timing.memory_cycles == 2 * config.memory_penalty
    assert timing.total_cycles > timing.base_cycles


def test_delayed_hits_cost_fraction():
    timing = model().region_timing(
        10_000, outcomes=[HIT_MSHR], outcome_instr=[0], llc_hits=0)
    assert 0 < timing.delayed_hit_cycles < ProcessorConfig().memory_penalty


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        model().region_timing(100, [MISS_CAPACITY], [], 0)


MISS_LABELS = {"conflict_miss", "coherence_miss", "capacity_miss",
               "cold_miss"}


def label_reference_timing(n_instructions, outcomes, outcome_instr,
                           llc_hits, n_mispredicts):
    """Region timing computed per outcome, by label."""
    config = ProcessorConfig()
    labels = [LABELS[code] for code in outcomes]
    misses = [position for label, position in zip(labels, outcome_instr)
              if label in MISS_LABELS]
    delayed = sum(1 for label in labels if label == "mshr_hit")
    return RegionTiming(
        n_instructions=n_instructions,
        base_cycles=n_instructions / config.issue_width,
        branch_cycles=float(n_mispredicts
                            * config.branch_mispredict_penalty),
        llc_hit_cycles=float(llc_hits * config.llc_hit_penalty),
        memory_cycles=float(model().serialized_misses(misses)
                            * config.memory_penalty),
        delayed_hit_cycles=float(delayed * config.delayed_hit_fraction
                                 * config.memory_penalty / config.max_mlp),
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(LABELS) - 1),
                          st.integers(0, 12_000)), max_size=80),
       st.integers(0, 200), st.integers(0, 30))
@example([(code, 250 * code) for code in range(len(LABELS))], 3, 2)
def test_region_timing_matches_label_reference(pairs, llc_hits,
                                               n_mispredicts):
    outcomes = [code for code, _ in pairs]
    positions = [position for _, position in pairs]
    expected = label_reference_timing(12_000, outcomes, positions,
                                      llc_hits, n_mispredicts)
    for codes, instr in ((outcomes, positions),
                         (np.asarray(outcomes, dtype=np.int8),
                          np.asarray(positions, dtype=np.int64))):
        timing = model().region_timing(12_000, codes, instr, llc_hits,
                                       n_mispredicts)
        assert timing == expected
        assert all(type(getattr(timing, name)) is float
                   for name in ("base_cycles", "branch_cycles",
                                "llc_hit_cycles", "memory_cycles",
                                "delayed_hit_cycles"))


# -- tournament predictor ----------------------------------------------------

def test_predictor_learns_bias():
    predictor = TournamentPredictor(ProcessorConfig())
    for _ in range(200):
        predictor.update(pc=64, taken=True)
    assert predictor.predict(64)
    assert predictor.mispredict_rate < 0.1


def test_predictor_learns_alternation():
    predictor = TournamentPredictor(ProcessorConfig())
    for k in range(400):
        predictor.update(pc=128, taken=bool(k % 2))
    # Local history should capture a strict alternation.
    late_errors = sum(
        predictor.update(pc=128, taken=bool(k % 2)) for k in range(400, 440))
    assert late_errors < 10


def test_predictor_random_stream_worse_than_biased():
    rng = np.random.default_rng(0)
    biased = TournamentPredictor(ProcessorConfig())
    noisy = TournamentPredictor(ProcessorConfig())
    for _ in range(500):
        biased.update(1, True)
        noisy.update(1, bool(rng.integers(0, 2)))
    assert biased.mispredict_rate < noisy.mispredict_rate


def test_btb_tracks_targets():
    predictor = TournamentPredictor(ProcessorConfig())
    predictor.update(10, True, target=500)
    predictor.update(10, True, target=500)
    assert predictor.btb_misses == 1     # second update hits


# -- stride prefetcher ---------------------------------------------------------

def test_prefetcher_detects_stride():
    prefetcher = StridePrefetcher(degree=2, confidence_threshold=2)
    issued = []
    for k in range(6):
        issued = prefetcher.train(pc=1, line=100 + 4 * k)
    assert issued == [100 + 4 * 5 + 4, 100 + 4 * 5 + 8]


def test_prefetcher_requires_confidence():
    prefetcher = StridePrefetcher(confidence_threshold=2)
    assert prefetcher.train(1, 100) == []       # new stream
    assert prefetcher.train(1, 104) == []       # first delta: confidence 1
    assert prefetcher.train(1, 108) != []       # repeated: confidence 2


def test_prefetcher_nullifies_present_lines():
    prefetcher = StridePrefetcher(degree=1, confidence_threshold=1)
    prefetcher.train(1, 0)
    prefetcher.train(1, 4)
    issued = prefetcher.train(1, 8, is_present=lambda line: True)
    assert issued == []
    assert prefetcher.nullified == 1


def test_prefetcher_stream_table_bounded():
    prefetcher = StridePrefetcher(n_streams=2)
    prefetcher.train(1, 0)
    prefetcher.train(2, 0)
    prefetcher.train(3, 0)        # evicts pc=1
    assert len(prefetcher._streams) == 2
    assert 1 not in prefetcher._streams


def test_prefetcher_reset():
    prefetcher = StridePrefetcher()
    prefetcher.train(1, 0)
    prefetcher.reset()
    assert len(prefetcher._streams) == 0


def test_prefetcher_invalid_params():
    with pytest.raises(ValueError):
        StridePrefetcher(n_streams=0)
