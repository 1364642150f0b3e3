"""Tests for the trace position index (the profiling oracle)."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.reliability import clear_plan, inject
from repro.store import ArtifactStore
from repro.util.units import CACHELINE_SHIFT, PAGE_SHIFT
from repro.vff.index import (
    DEFAULT_CHUNK_ACCESSES,
    LiveIndexBuilder,
    TraceIndex,
    _group_by_key,
    default_chunk_accesses,
)
from tests.test_record import make_trace


def index_for(lines):
    lines = np.asarray(lines, dtype=np.int64)
    trace = make_trace(list(range(len(lines))), lines,
                       n_instructions=len(lines))
    return TraceIndex(trace)


def test_positions():
    idx = index_for([5, 7, 5, 9, 5])
    assert idx.lines.positions(5).tolist() == [0, 2, 4]
    assert idx.lines.positions(42).size == 0


def test_count_in_window():
    idx = index_for([5, 7, 5, 9, 5])
    assert idx.lines.count_in(5, 0, 5) == 3
    assert idx.lines.count_in(5, 1, 4) == 1
    assert idx.lines.count_in(7, 2, 5) == 0


def test_last_and_first_in():
    idx = index_for([5, 7, 5, 9, 5])
    assert idx.lines.last_in(5, 0, 4) == 2
    assert idx.lines.last_in(5, 0, 5) == 4
    assert idx.lines.last_in(9, 0, 3) == -1
    assert idx.lines.first_in(5, 1, 5) == 2


def test_last_access_before_and_next_after():
    idx = index_for([5, 7, 5, 9, 5])
    assert idx.last_access_before(5, 4) == 2
    assert idx.last_access_before(5, 0) == -1
    assert idx.next_access_after(5, 0) == 2
    assert idx.next_access_after(5, 4) == -1


def test_page_stops():
    # Lines 0 and 1 share page 0; line 64 is page 1.
    idx = index_for([0, 1, 64, 0, 64])
    assert idx.page_stops_in([0], 0, 5) == 3
    assert idx.page_stops_in([0, 1], 0, 5) == 5
    assert idx.pages_of_lines([0, 1, 64]).tolist() == [0, 1]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 20), min_size=1, max_size=120),
       st.integers(0, 20), st.data())
def test_count_in_matches_brute_force(lines, key, data):
    lo = data.draw(st.integers(0, len(lines)))
    hi = data.draw(st.integers(lo, len(lines)))
    idx = index_for(lines)
    expected = sum(1 for p in range(lo, hi) if lines[p] == key)
    assert idx.lines.count_in(key, lo, hi) == expected


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 10), min_size=1, max_size=80))
def test_last_in_matches_brute_force(lines):
    idx = index_for(lines)
    for key in range(11):
        expected = -1
        for p, line in enumerate(lines):
            if line == key:
                expected = p
        assert idx.lines.last_in(key, 0, len(lines)) == expected


# -- batched window queries (Scout, watchpoint profiles, page stops) ---------

def _assert_batch_matches_per_key(idx, keys, lo, hi):
    counts, last = idx.lines.batch_counts_and_last(
        np.asarray(keys, dtype=np.int64), lo, hi)
    assert counts.shape == last.shape == (len(keys),)
    for i, key in enumerate(keys):
        assert counts[i] == idx.lines.count_in(key, lo, hi), (i, key)
        assert last[i] == idx.lines.last_in(key, lo, hi), (i, key)


def test_batch_counts_and_last_matches_per_entry():
    rng = np.random.default_rng(11)
    lines = rng.integers(0, 40, size=500).tolist()
    idx = index_for(lines)
    # Absent keys (>= 40), duplicate keys, zero-width windows and the
    # full-trace window, one call per window.
    windows = [(0, 500), (100, 100), (400, 500), (499, 500)]
    for lo in rng.integers(0, 500, size=16).tolist():
        windows.append((lo, min(500, lo + int(rng.integers(0, 300)))))
    for lo, hi in windows:
        keys = rng.integers(0, 50, size=24).tolist() + [3, 3]
        _assert_batch_matches_per_key(idx, keys, lo, hi)


def test_batch_counts_and_last_escape_path():
    # Few keys with huge runs trips the total > 256 * n_keys escape
    # (per-key binary search) — values must be identical to the gather.
    rng = np.random.default_rng(13)
    lines = rng.integers(0, 4, size=3_000).tolist()
    idx = index_for(lines)
    keys = [1, 2, 9]                      # 9 is absent
    assert int(sum(idx.lines.count_in(k, 0, 3_000) for k in keys)) \
        > 256 * len(keys)
    for lo, hi in [(100, 2_500), (0, 3_000), (2_999, 3_000)]:
        _assert_batch_matches_per_key(idx, keys, lo, hi)


def test_batch_counts_and_last_empty_inputs():
    idx = index_for([5, 7, 5])
    counts, last = idx.lines.batch_counts_and_last(
        np.asarray([], dtype=np.int64), 0, 3)
    assert counts.size == 0 and last.size == 0
    counts, last = idx.lines.batch_counts_and_last(
        np.asarray([5], dtype=np.int64), 2, 2)
    assert counts.tolist() == [0] and last.tolist() == [-1]


# -- the grouping helper every builder sorts with ----------------------------

@st.composite
def grouping_keys(draw):
    """Key arrays biased to the helper's edges: spans just inside and
    just outside the packed key's 63 bits at the lengths ``2**k`` and
    ``2**k + 1`` where the position width changes, spans that overflow
    int64, and empty, single-element and all-equal inputs."""
    shape = draw(st.sampled_from(("small", "edge", "wide", "equal")))
    if shape == "small":
        return np.asarray(draw(st.lists(st.integers(-50, 50), max_size=200)),
                          dtype=np.int64)
    if shape == "equal":
        return np.full(draw(st.integers(0, 40)),
                       draw(st.integers(-2**63, 2**63 - 1)), dtype=np.int64)
    if shape == "wide":
        n = draw(st.integers(2, 64))
        lo = draw(st.integers(-2**63, -2**61))
        span = draw(st.integers(2**62, 2**63 - 1 - lo))
    else:
        n = 2 ** draw(st.integers(0, 9)) + draw(st.integers(0, 1))
        span = (1 << (63 - (n - 1).bit_length())) - draw(st.integers(0, 1))
        lo = draw(st.integers(-2**63, 2**63 - 1 - span))
    pool = [lo, lo + span] + draw(st.lists(st.integers(lo, lo + span),
                                           max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = np.asarray(pool, dtype=np.int64)[
        rng.integers(0, len(pool), size=n)]
    keys[:2] = [lo, lo + span][:n]        # realize the full span
    return rng.permutation(keys)


def test_group_by_key_matches_stable_argsort():
    """One packed sort (or its argsort fallback) groups exactly like a
    stable argsort followed by ``np.unique``."""
    branches = set()

    @settings(max_examples=300, deadline=None)
    @given(grouping_keys())
    @example(np.asarray([3, 1, 3, 2, 1], dtype=np.int64))
    @example(np.asarray([-2**62, 2**62, -2**62], dtype=np.int64))
    @example(np.empty(0, dtype=np.int64))
    def check(keys):
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            order, unique, starts, lengths = _group_by_key(keys)
        if keys.shape[0]:
            branches.add("fallback" if argsort.called else "packed")
        expected = np.argsort(keys, kind="stable")
        exp_unique, exp_starts, exp_lengths = np.unique(
            keys[expected], return_index=True, return_counts=True)
        assert order.dtype == np.int64 and unique.dtype == keys.dtype
        assert np.array_equal(order, expected)
        assert np.array_equal(unique, exp_unique)
        assert np.array_equal(starts, exp_starts)
        assert np.array_equal(lengths, exp_lengths)

    check()
    assert branches == {"packed", "fallback"}


# -- bounded / spillable construction ----------------------------------------

_PAGE_OF_LINE_SHIFT = PAGE_SHIFT - CACHELINE_SHIFT


def reference_tables(lines):
    """All ten index tables of ``lines``, from a stable argsort and a
    per-key walk — an oracle that shares no code with the builders."""
    lines = np.asarray(lines, dtype=np.int64)
    tables = {}
    for name, keys in (("lines", lines),
                       ("pages", lines >> _PAGE_OF_LINE_SHIFT)):
        n = keys.shape[0]
        order = np.argsort(keys, kind="stable")
        unique, first = np.unique(keys[order], return_index=True)
        starts = np.append(first, n).astype(np.int64)
        successors = np.full(n, -1, dtype=np.int64)
        ranks = np.empty(n, dtype=np.int64)
        for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist()):
            run = order[lo:hi]
            successors[run[:-1]] = run[1:]
            ranks[run] = np.arange(hi - lo)
        tables.update({f"{name}_positions": order, f"{name}_keys": unique,
                       f"{name}_starts": starts,
                       f"{name}_successors": successors,
                       f"{name}_ranks": ranks})
    return tables


def assert_matches_reference(index, reference, context=""):
    for name in ("lines", "pages"):
        part = getattr(index, name)
        for table, array in (("positions", part._positions),
                             ("keys", part._keys),
                             ("starts", part._starts),
                             ("successors", part.successors()),
                             ("ranks", part.ranks())):
            expected = reference[f"{name}_{table}"]
            assert array.dtype == np.int64, (context, name, table)
            assert np.array_equal(array, expected), (context, name, table)


def _assert_indices_identical(a, b, context=""):
    for name, left, right in (("lines", a.lines, b.lines),
                              ("pages", a.pages, b.pages)):
        assert np.array_equal(left._positions, right._positions), \
            (context, name, "positions")
        assert np.array_equal(left._keys, right._keys), \
            (context, name, "keys")
        assert np.array_equal(left._starts, right._starts), \
            (context, name, "starts")
        assert np.array_equal(left.successors(), right.successors()), \
            (context, name, "successors")
        assert np.array_equal(left.ranks(), right.ranks()), \
            (context, name, "ranks")


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 400), min_size=0, max_size=300),
       st.integers(1, 64))
def test_chunked_build_matches_argsort(lines, chunk):
    """The counting-sort scatter and the in-RAM build both equal the
    stable-argsort reference."""
    lines = np.asarray(lines, dtype=np.int64) * 5    # span several pages
    trace = make_trace(list(range(len(lines))), lines,
                       n_instructions=max(1, len(lines)))
    index = TraceIndex.build_spilled(trace, None, None, chunk_accesses=chunk)
    reference = reference_tables(lines)
    assert_matches_reference(TraceIndex(trace), reference, "in-RAM")
    assert_matches_reference(index, reference, f"chunk={chunk}")
    assert index.build_stats.n_accesses == len(lines)


def test_wide_span_index_matches_argsort():
    """Keys too far apart to pack with their positions take the stable
    argsort fallback, in the in-RAM and the bounded build alike."""
    rng = np.random.default_rng(5)
    lines = (rng.choice([0, 1, 7, 2**40, 2**61, 2**62 - 8], size=400)
             + rng.integers(0, 3, size=400)).astype(np.int64)
    trace = make_trace(list(range(len(lines))), lines,
                       n_instructions=len(lines))
    reference = reference_tables(lines)
    with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
        index = TraceIndex(trace)
    assert argsort.call_count == 2       # both granularities fell back
    assert_matches_reference(index, reference, "in-RAM")
    assert_matches_reference(
        TraceIndex.build_spilled(trace, None, None, chunk_accesses=97),
        reference, "bounded")


def test_chunked_build_transients_are_bounded():
    """Peak per-chunk RAM stays O(chunk + keys) while tables are O(n)."""
    rng = np.random.default_rng(0)
    n = 200_000
    lines = rng.integers(0, 4_000, size=n).astype(np.int64)
    trace = make_trace(list(range(n)), lines, n_instructions=n)
    chunk = 4_096
    index = TraceIndex.build_spilled(trace, None, None, chunk_accesses=chunk)
    stats = index.build_stats
    # Six O(n) int64 tables were produced (positions/successors/ranks
    # at both granularities)...
    assert stats.table_bytes > 6 * n * 8
    # ...but no single chunk step materialized more than a small
    # multiple of the chunk length (merge state is O(unique keys)).
    assert stats.peak_transient_bytes < 16 * chunk * 8
    assert stats.peak_transient_bytes < stats.table_bytes / 20
    assert stats.n_chunks == -(-n // chunk)
    _assert_indices_identical(TraceIndex(trace), index, "bounded")


def test_spilled_index_round_trip(tmp_path):
    """build_spilled publishes once, serves memory-mapped, matches the
    stable-argsort reference, and answers every query identically to
    the in-RAM index."""
    rng = np.random.default_rng(1)
    lines = rng.integers(0, 900, size=30_000).astype(np.int64) * 3
    trace = make_trace(list(range(len(lines))), lines,
                       n_instructions=len(lines))
    store = ArtifactStore(root=tmp_path / "store", enabled=True)
    key = {"artifact": "trace-index-spill", "trace_fingerprint": "t"}

    spilled = TraceIndex.build_spilled(trace, store, key,
                                       chunk_accesses=1_000)
    assert spilled.mapped
    assert spilled.build_stats is not None
    argsorted = reference_tables(lines)
    assert_matches_reference(spilled, argsorted, "spilled")
    reference = TraceIndex(trace)
    assert_matches_reference(reference, argsorted, "in-RAM")

    positions = rng.integers(0, len(lines), size=256)
    limit = len(lines) - 100
    assert all(
        np.array_equal(x, y)
        for x, y in zip(reference.batch_await_reuse(positions, limit),
                        spilled.batch_await_reuse(positions, limit)))
    watched = np.unique(lines[rng.integers(0, len(lines), size=64)])
    assert np.array_equal(
        np.concatenate(reference.window_access_counts(watched, 50, 20_000)),
        np.concatenate(spilled.window_access_counts(watched, 50, 20_000)))

    # Second build is a pure reopen (no duplicate artifact).
    saves_before = store.saves
    reopened = TraceIndex.build_spilled(trace, store, key)
    assert store.saves == saves_before
    assert reopened.mapped
    reopened.close()
    spilled.close()
    assert spilled.lines is None     # closed indices drop their tables


def test_spilled_build_without_store_falls_back_chunked(tmp_path):
    lines = np.arange(500, dtype=np.int64) % 17
    trace = make_trace(list(range(500)), lines, n_instructions=500)
    store = ArtifactStore(root=tmp_path / "s", enabled=False)
    index = TraceIndex.build_spilled(trace, store, {"artifact": "x"},
                                     chunk_accesses=64)
    assert not index.mapped
    assert index.build_stats is not None
    _assert_indices_identical(TraceIndex(trace), index, "fallback")


# -- live append/seal ---------------------------------------------------------

@pytest.fixture
def _no_fault_plan(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    clear_plan()
    yield
    clear_plan()


@pytest.mark.parametrize("mode", ["published", "heap", "dropped"])
def test_live_builder_seals_match_reference(mode, tmp_path, _no_fault_plan):
    """Every seal equals the reference on its prefix, however the feed
    was chunked and whatever the builder's window, and no sealed epoch
    changes as later appends patch the live successor column.
    ``published`` streams the live columns into a store blob;
    ``dropped`` loses that publish to ENOSPC, so the seal falls back to
    heap copies."""
    multi_window = set()
    for seed in range(4):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1_000, 4_000))
        span = int(rng.choice([40, 3_000, 1 << 50]))
        lines = rng.integers(0, span, size=n).astype(np.int64)
        cuts = np.sort(rng.choice(np.arange(1, n), size=24, replace=False))
        bounds = [0, *cuts.tolist(), n]
        seal_after = set(rng.choice(len(bounds) - 1, size=6,
                                    replace=False).tolist())
        seal_after.add(len(bounds) - 2)
        # Odd streams fold whole appends at once; even ones split every
        # seal's pending accesses into several windows.
        chunk = int(rng.integers(1, 700) if seed % 2 else
                    rng.integers(1, 40))
        store = (None if mode == "heap" else
                 ArtifactStore(root=tmp_path / f"store-{seed}", enabled=True))
        sealed = []
        with LiveIndexBuilder(store=store, chunk_accesses=chunk) as builder:
            for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                builder.append(lines[lo:hi])
                if i not in seal_after:
                    continue
                if mode == "dropped":
                    inject("store.write:enospc@n=1")
                trace = make_trace(list(range(hi)), lines[:hi],
                                   n_instructions=hi)
                pending = hi - (sealed[-1][2] if sealed else 0)
                if pending > chunk:
                    multi_window.add("later" if sealed else "first")
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    index = builder.seal(
                        trace, key=None if store is None
                        else {"seed": seed, "accesses": hi})
                assert index.mapped == (mode == "published")
                assert index.build_stats.n_chunks == -(-pending // chunk)
                if mode == "dropped":
                    assert store.write_errors == len(sealed) + 1
                reference = reference_tables(lines[:hi])
                assert_matches_reference(index, reference, (mode, seed, hi))
                sealed.append((index, reference, hi))
            for index, reference, hi in sealed:
                assert_matches_reference(index, reference,
                                         (mode, seed, hi, "after appends"))
    assert multi_window == {"first", "later"}


@pytest.mark.parametrize("sealed_before", [False, True])
@pytest.mark.parametrize("wrong_line", [7, 10**6])
def test_seal_rejects_a_snapshot_that_is_not_the_feed(sealed_before,
                                                      wrong_line):
    """A seal reads its pending accesses back from the snapshot; when
    they are not what was appended (another appended line, or one never
    seen) it raises instead of returning a wrong index, and a seal over
    the right snapshot still succeeds."""
    lines = np.arange(300, dtype=np.int64) % 13
    wrong = lines.copy()
    wrong[250] = wrong_line
    with LiveIndexBuilder(chunk_accesses=32) as builder:
        if sealed_before:
            builder.append(lines[:100])
            builder.seal(make_trace(list(range(100)), lines[:100],
                                    n_instructions=100))
            builder.append(lines[100:])
        else:
            builder.append(lines)
        with pytest.raises(ValueError, match="differ from the feed"):
            builder.seal(make_trace(list(range(300)), wrong,
                                    n_instructions=300))
        index = builder.seal(make_trace(list(range(300)), lines,
                                        n_instructions=300))
    assert_matches_reference(index, reference_tables(lines))


@pytest.mark.parametrize("raw", ["abc", "1.5", "0", "-3"])
def test_malformed_index_chunk_is_rejected(monkeypatch, raw):
    monkeypatch.setenv("REPRO_INDEX_CHUNK", raw)
    with pytest.raises(ValueError, match="REPRO_INDEX_CHUNK"):
        default_chunk_accesses()


@pytest.mark.parametrize("raw, chunk", [
    ("4096", 4096), ("", DEFAULT_CHUNK_ACCESSES),
    (None, DEFAULT_CHUNK_ACCESSES)])
def test_index_chunk_from_environment(monkeypatch, raw, chunk):
    if raw is None:
        monkeypatch.delenv("REPRO_INDEX_CHUNK", raising=False)
    else:
        monkeypatch.setenv("REPRO_INDEX_CHUNK", raw)
    assert default_chunk_accesses() == chunk
    with LiveIndexBuilder() as builder:
        assert builder.chunk_accesses == chunk
