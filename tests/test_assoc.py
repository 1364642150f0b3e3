"""Tests for the limited-associativity (dominant stride) model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.statmodel.assoc import (
    StrideDetector,
    effective_cache_lines,
    sets_touched_by_stride,
)


def test_sets_touched_unit_stride():
    assert sets_touched_by_stride(1, 256) == 256


def test_sets_touched_pow2_strides():
    assert sets_touched_by_stride(8, 256) == 32      # 512 B stride / 64 B
    assert sets_touched_by_stride(256, 256) == 1
    assert sets_touched_by_stride(512, 256) == 1     # beyond set count


def test_sets_touched_odd_stride_covers_everything():
    assert sets_touched_by_stride(3, 256) == 256


def test_effective_cache_lines():
    # 2048-line, 256-set (8-way) cache with an 8-line stride: 32 sets
    # x 8 ways = 256 effective lines.
    assert effective_cache_lines(2048, 256, 8) == 256
    assert effective_cache_lines(2048, 256, 1) == 2048


def test_invalid_stride_rejected():
    with pytest.raises(ValueError):
        sets_touched_by_stride(0, 256)


def test_detector_finds_dominant_stride():
    detector = StrideDetector()
    for k in range(20):
        detector.observe(pc=1, line=1000 + 8 * k)
    assert detector.dominant_stride(1) == 8


def test_detector_ignores_unit_stride():
    detector = StrideDetector()
    for k in range(20):
        detector.observe(pc=1, line=1000 + k)
    assert detector.dominant_stride(1) is None


def test_detector_needs_history():
    detector = StrideDetector()
    detector.observe(1, 0)
    detector.observe(1, 8)
    assert detector.dominant_stride(1) is None       # too few deltas


def test_detector_rejects_mixed_deltas():
    detector = StrideDetector()
    deltas = [8, 3, 17, 5, 8, 2, 9, 4, 8, 31]
    line = 0
    for d in deltas:
        detector.observe(1, line)
        line += d
    assert detector.dominant_stride(1) is None


def test_detector_threshold():
    # 70% of deltas are 16: dominant at the default 0.6 threshold.
    detector = StrideDetector()
    line = 0
    for k in range(30):
        detector.observe(2, line)
        line += 16 if k % 10 < 7 else 5
    assert detector.dominant_stride(2) == 16


def test_effective_lines_for():
    detector = StrideDetector()
    for k in range(20):
        detector.observe(3, 8 * k)
    assert detector.effective_lines_for(3, 2048, 256) == 256
    assert detector.effective_lines_for(99, 2048, 256) == 2048


def test_history_bounded():
    detector = StrideDetector(max_history=8)
    for k in range(100):
        detector.observe(1, 4 * k)
    assert len(detector._deltas[1]) == 8


def test_dominant_strides_at_example():
    detector = StrideDetector()
    pcs = [5] * 10
    lines = [100 + 8 * k for k in range(10)]
    strides = detector.dominant_strides_at(pcs, lines, [0, 3, 4, 9])
    # Four deltas are needed before a stride can dominate.
    assert strides.tolist() == [0, 0, 8, 8]
    assert detector.dominant_stride(5) == 8
    assert detector._last_line == {5: 172}


def interleaved_strides(detector, pcs, lines, positions):
    """The reference: observe access by access, query after each one
    whose index is in ``positions`` (``0`` for None)."""
    queried = set(positions)
    strides = []
    for k, (pc, line) in enumerate(zip(pcs, lines)):
        detector.observe(pc, line)
        if k in queried:
            stride = detector.dominant_stride(pc)
            strides.append(0 if stride is None else stride)
    return strides


@st.composite
def _stride_stream(draw):
    """A short (pc, line) stream: a few PCs walking mostly by a handful
    of strides (so windows have real modes and ties), plus jumps."""
    n = draw(st.integers(0, 160))
    n_pcs = draw(st.integers(1, 4))
    steps = st.sampled_from([0, 1, 2, 8, 8, 8, -8, 16, 3, 40])
    pcs = draw(st.lists(st.integers(0, n_pcs - 1), min_size=n, max_size=n))
    deltas = draw(st.lists(steps, min_size=n, max_size=n))
    lines, position = [], {}
    for pc, delta in zip(pcs, deltas):
        position[pc] = position.get(pc, 1000 * pc) + delta
        lines.append(position[pc])
    queried = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return pcs, lines, [k for k in range(n) if queried[k]]


@pytest.mark.parametrize("max_history", [16, 64])
@pytest.mark.parametrize("threshold", [0.5, 0.6])
@settings(max_examples=40, deadline=None)
@given(prior=_stride_stream(), stream=_stride_stream())
def test_dominant_strides_at_matches_interleaved_observe(
        max_history, threshold, prior, stream):
    reference = StrideDetector(threshold=threshold, max_history=max_history)
    batch = StrideDetector(threshold=threshold, max_history=max_history)
    prior_pcs, prior_lines, _ = prior
    for detector in (reference, batch):
        for pc, line in zip(prior_pcs, prior_lines):
            detector.observe(pc, line)
    pcs, lines, positions = stream
    expected = interleaved_strides(reference, pcs, lines, positions)
    got = batch.dominant_strides_at(np.asarray(pcs, dtype=np.int64),
                                    np.asarray(lines, dtype=np.int64),
                                    np.asarray(positions, dtype=np.int64))
    assert got.tolist() == expected
    assert batch._deltas == reference._deltas
    assert batch._last_line == reference._last_line


def test_dominant_strides_at_chunks_query_rows(monkeypatch):
    """Chunking the window matrix leaves every answer unchanged."""
    rng = np.random.default_rng(3)
    pcs = rng.integers(0, 3, 400)
    lines = np.empty(400, dtype=np.int64)
    for pc in range(3):
        mine = pcs == pc
        lines[mine] = pc * 10**6 + np.cumsum(
            rng.choice([8, 8, 8, 5, 0], int(mine.sum())))
    positions = np.arange(400)
    whole = StrideDetector().dominant_strides_at(pcs, lines, positions)
    monkeypatch.setattr(StrideDetector, "_CHUNK_CELLS", 64 * 7)
    chunked = StrideDetector().dominant_strides_at(pcs, lines, positions)
    assert np.array_equal(whole, chunked)
    assert np.count_nonzero(whole == 8) > 100


@pytest.mark.parametrize("max_history", [8, 64])
@settings(max_examples=40, deadline=None)
@given(prior=_stride_stream(), stream=_stride_stream())
def test_observe_many_matches_observe_loop(max_history, prior, stream):
    """Batched observation leaves the per-access loop's state, with
    prior state carried in and histories truncated to max_history."""
    reference = StrideDetector(max_history=max_history)
    batch = StrideDetector(max_history=max_history)
    prior_pcs, prior_lines, _ = prior
    for detector in (reference, batch):
        for pc, line in zip(prior_pcs, prior_lines):
            detector.observe(pc, line)
    pcs, lines, _ = stream
    for pc, line in zip(pcs, lines):
        reference.observe(pc, line)
    batch.observe_many(np.asarray(pcs, dtype=np.int64),
                       np.asarray(lines, dtype=np.int64))
    assert batch._deltas == reference._deltas
    assert batch._last_line == reference._last_line
    for pc in set(pcs) | set(prior_pcs):
        assert batch.dominant_stride(pc) == reference.dominant_stride(pc)
