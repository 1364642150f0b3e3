"""Tests for the sparse reuse-distance histogram."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.statmodel.histogram import ReuseHistogram


def test_add_and_totals():
    h = ReuseHistogram()
    h.add(3)
    h.add(3, weight=2.0)
    h.add_cold()
    assert h.total == pytest.approx(4.0)
    assert h.n_finite == pytest.approx(3.0)
    assert len(h) == 1


def test_negative_distance_rejected():
    with pytest.raises(ValueError):
        ReuseHistogram().add(-2)


def test_add_many_routes_negatives_to_cold():
    h = ReuseHistogram()
    h.add_many([1, 2, -1, 2, -1])
    assert h.cold == 2
    assert h.n_finite == 3


def test_ccdf_step_function():
    h = ReuseHistogram()
    h.add_many([1, 1, 5])
    assert h.ccdf(0) == pytest.approx(1.0)
    assert h.ccdf(1) == pytest.approx(1 / 3)
    assert h.ccdf(4) == pytest.approx(1 / 3)
    assert h.ccdf(5) == pytest.approx(0.0)


def test_ccdf_includes_cold_in_tail():
    h = ReuseHistogram()
    h.add(2)
    h.add_cold()
    assert h.ccdf(100) == pytest.approx(0.5)


def test_quantile():
    h = ReuseHistogram()
    h.add_many([1, 2, 3, 4])
    assert h.quantile(0.5) == 2
    assert h.quantile(1.0) == 4
    h.add_cold(weight=4)
    assert h.quantile(0.9) is None      # lands in the cold tail
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_merge():
    a = ReuseHistogram()
    a.add(1)
    b = ReuseHistogram()
    b.add(1)
    b.add_cold()
    a.merge(b)
    assert a.total == pytest.approx(3.0)
    assert a.ccdf(0) == pytest.approx(1.0)     # both d=1 samples exceed 0
    assert a.ccdf(1) == pytest.approx(1 / 3)   # only the cold mass remains


def test_mean_finite():
    h = ReuseHistogram()
    assert h.mean_finite() == 0.0
    h.add_many([2, 4])
    assert h.mean_finite() == pytest.approx(3.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 100), min_size=1, max_size=200))
def test_ccdf_matches_brute_force(distances):
    h = ReuseHistogram()
    h.add_many(distances)
    arr = np.asarray(distances)
    for k in (0, 1, 5, 50, 150):
        expected = np.count_nonzero(arr > k) / len(arr)
        assert h.ccdf(k) == pytest.approx(expected)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=100),
       st.integers(0, 10))
def test_ccdf_monotone_nonincreasing(distances, n_cold):
    h = ReuseHistogram()
    h.add_many(distances)
    h.add_cold(weight=n_cold)
    ks = np.arange(0, 60)
    values = h.ccdf(ks)
    assert np.all(np.diff(values) <= 1e-12)


class _DictHistogram:
    """Plain-Python reference: one weight per distance in a dict, summed
    in add order, and a scalar cold mass."""

    def __init__(self, counts=None, cold=0.0):
        self.counts = dict(counts or {})
        self.cold = cold

    def add(self, distance, weight=1.0):
        self.counts[distance] = self.counts.get(distance, 0.0) + weight

    def add_cold(self, weight=1.0):
        self.cold += weight

    def add_many(self, distances, weight=1.0):
        for distance in distances:
            if distance < 0:
                self.add_cold(weight)
            else:
                self.add(distance, weight)

    def merge(self, other):
        for distance, weight in other.counts.items():
            self.add(distance, weight)
        self.cold += other.cold

    def state(self):
        keys = sorted(self.counts)
        return keys, [self.counts[k] for k in keys], self.cold


# Few distinct distances and weights whose sums round, so bins collide
# and the order of their additions shows in the last bits.
_weights = st.one_of(st.just(1.0), st.sampled_from([0.1, 0.2, 0.7, 1 / 3]),
                     st.floats(0.01, 5.0))
_histogram_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(0, 1), st.integers(0, 5),
              _weights),
    st.tuples(st.just("add_cold"), st.integers(0, 1), _weights),
    st.tuples(st.just("add_many"), st.integers(0, 1),
              st.lists(st.integers(-2, 5), max_size=12), _weights),
    st.tuples(st.just("merge"), st.integers(0, 1)),
    st.tuples(st.just("from_state"), st.integers(0, 1)),
    st.tuples(st.just("query"), st.integers(0, 1)),
), max_size=40)


@settings(max_examples=60, deadline=None)
@given(_histogram_ops)
def test_state_bit_identical_to_dict_reference(ops):
    """Any interleaving of adds, merges, state round trips and queries
    (which fold the pending adds midway) gives the reference's state,
    bit for bit, with fractional weights."""
    hists = [ReuseHistogram(), ReuseHistogram()]
    refs = [_DictHistogram(), _DictHistogram()]
    for op, target, *args in ops:
        if op == "merge":
            hists[target].merge(hists[1 - target])
            refs[target].merge(refs[1 - target])
        elif op == "from_state":
            hists[target] = ReuseHistogram.from_state(
                *hists[target].state())
            distances, weights, cold = refs[target].state()
            refs[target] = _DictHistogram(zip(distances, weights), cold)
        elif op == "query":
            hists[target].ccdf(5)
        elif op == "add_many":
            hists[target].add_many(np.asarray(args[0], dtype=np.int64),
                                   weight=args[1])
            refs[target].add_many(*args)
        else:
            getattr(hists[target], op)(*args)
            getattr(refs[target], op)(*args)
    for hist, ref in zip(hists, refs):
        distances, weights, cold = hist.state()
        assert (distances.tolist(), weights.tolist(), cold) == ref.state()
        assert len(hist) == len(ref.counts)


def test_from_state_rejects_unsorted_distances():
    with pytest.raises(ValueError):
        ReuseHistogram.from_state([3, 1], [1.0, 1.0], 0.0)
