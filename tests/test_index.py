"""Tests for the trace position index (the profiling oracle)."""

import itertools
import math
import os
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import kernels
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


def test_batch_counts_and_last_long_runs():
    # Few keys with long runs: many bisection rounds per key.
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


@st.composite
def window_queries(draw):
    """A line trace with keys and windows to query on it, biased to the
    search's edges: negative keys and keys up to ``2**62``, absent and
    duplicate query keys, a run long enough for 16 or more bisection
    rounds, and empty, inverted, full and out-of-range windows."""
    pool = draw(st.lists(st.integers(-2**62, 2**62), min_size=1,
                         max_size=8, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = np.asarray(pool, dtype=np.int64)[
        rng.integers(0, len(pool), size=draw(st.integers(1, 300)))]
    if draw(st.booleans()):
        # 2**15 + 1 occurrences of one line take 16 halvings.
        lines = np.concatenate([lines, np.full(2**15 + 1, pool[0])])
        lines = rng.permutation(lines)
    n = lines.shape[0]
    edge = st.integers(-3, n + 3)
    windows = [(0, n), (n, n + 5), (n // 2, n // 2), (n, 0)] + draw(
        st.lists(st.tuples(edge, edge), min_size=1, max_size=4))
    absent = draw(st.lists(st.integers(-2**62, 2**62), max_size=4))
    return lines, absent, windows


def test_batch_counts_and_last_matches_per_key_queries(tmp_path):
    """The window query answers every key and window exactly as the
    per-key ``count_in`` / ``last_in``, on lines and pages, in RAM and
    through a spilled index reopened memory-mapped, on every backend:
    batches (the batched search off ``scalar``) and one-key queries,
    present and absent (the per-key route)."""
    rounds = set()

    @settings(max_examples=40, deadline=None)
    @given(window_queries())
    @example((np.full(2**15 + 1, 7, dtype=np.int64), [8],
              [(0, 2**15 + 1), (100, 30_000), (2**15, 2**15 + 9)]))
    def check(case):
        lines, absent, windows = case
        trace = make_trace(list(range(len(lines))), lines,
                           n_instructions=len(lines))
        store = ArtifactStore(root=tempfile.mkdtemp(dir=tmp_path),
                              enabled=True)
        key = {"artifact": "window-queries"}
        TraceIndex.build_spilled(trace, store, key, chunk_accesses=97)
        mapped = TraceIndex.open(trace, store, key)
        assert mapped.mapped
        for index in (TraceIndex(trace), mapped):
            for part, keys in ((index.lines, lines),
                               (index.pages, lines >> _PAGE_OF_LINE_SHIFT)):
                present = np.unique(keys)
                query = np.concatenate(
                    [present, present[:2], np.asarray(absent, dtype=np.int64)])
                singles = [present[:1], np.asarray([present[-1] + 1])]
                rounds.add(int(np.diff(part._starts).max() - 1).bit_length())
                for (lo, hi), backend in itertools.product(windows,
                                                           kernels.BACKENDS):
                    with kernels.use_backend(backend):
                        answers = [(q, part.batch_counts_and_last(q, lo, hi))
                                   for q in [query] + singles]
                    for q, (counts, last) in answers:
                        assert counts.dtype == last.dtype == np.int64
                        assert counts.shape == last.shape == q.shape
                        for i, k in enumerate(q.tolist()):
                            # An inverted window is empty (count_in
                            # would return a negative difference).
                            assert counts[i] == max(0,
                                                    part.count_in(k, lo, hi))
                            assert last[i] == part.last_in(k, lo, hi)
        mapped.close()

    check()
    assert max(rounds) >= 16


def test_batch_counts_and_last_transient_is_bounded_by_window():
    """All 4,096 keys of a 250-occurrence-per-key index queried over a
    1,000-access window: the search allocates O(keys * log run), not a
    gather of every occurrence (26.8 MB here)."""
    rng = np.random.default_rng(5)
    index = index_for(rng.permutation(
        np.repeat(np.arange(4_096, dtype=np.int64), 250))).lines
    keys = np.arange(4_096, dtype=np.int64)
    tracemalloc.start()
    try:
        counts, last = index.batch_counts_and_last(keys, 500_000, 501_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak
    assert counts.sum() == 1_000
    assert np.array_equal(last >= 0, counts > 0)


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


#: Each granularity and the one per-access table its queries read.
PER_ACCESS = (("lines", "successors"), ("pages", "ranks"))
#: The eight index tables: each granularity's grouped tables plus its
#: per-access table.
INDEX_TABLES = tuple(f"{name}_{table}" for name, per_access in PER_ACCESS
                     for table in ("positions", "keys", "starts", per_access))


def reference_tables(lines, every_table=False):
    """The eight index tables of ``lines``, from a stable argsort and a
    per-key walk — an oracle that shares no code with the builders.
    ``every_table`` adds the lines' ranks and the pages' successors,
    which older spilled indices also carry: ten tables."""
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
    if every_table:
        return tables
    return {table: tables[table] for table in INDEX_TABLES}


def index_tables(index):
    """The eight tables an index holds, by name."""
    tables = {}
    for name, per_access in PER_ACCESS:
        part = getattr(index, name)
        tables.update({f"{name}_positions": part._positions,
                       f"{name}_keys": part._keys,
                       f"{name}_starts": part._starts,
                       f"{name}_{per_access}": getattr(part, per_access)})
    return tables


def segments_of(part):
    """A granularity's time-ordered segments: a live epoch's
    ``segments``, or the one segment every other index is."""
    return getattr(part, "segments", [part])


def epoch_tables(index):
    """The eight tables a live epoch stands for: each granularity's
    segments merged by key (by a stable sort of every segment's runs,
    sharing no code with the builder's merge), and the lines'
    successors with the entries at or past the prefix end, which later
    appends patch, read as -1."""
    n = index.lines.successors.shape[0]
    tables = {}
    for name, per_access in PER_ACCESS:
        part = getattr(index, name)
        segments = segments_of(part)
        keys = np.concatenate([np.repeat(s._keys, np.diff(s._starts))
                               for s in segments])
        positions = np.concatenate([np.asarray(s._positions)
                                    for s in segments])
        in_order = np.lexsort((positions, keys))
        unique, first = np.unique(keys[in_order], return_index=True)
        per_row = np.array(getattr(part, per_access))
        if per_access == "successors":
            per_row[per_row >= n] = -1
        tables.update({f"{name}_positions": positions[in_order],
                       f"{name}_keys": unique,
                       f"{name}_starts": np.append(first, n).astype(np.int64),
                       f"{name}_{per_access}": per_row})
    return tables


def assert_matches_reference(index, reference, context="",
                             tables_of=index_tables):
    tables = tables_of(index)
    assert tuple(tables) == INDEX_TABLES
    for table in INDEX_TABLES:
        assert tables[table].dtype == np.int64, (context, table)
        assert np.array_equal(tables[table], reference[table]), \
            (context, table)


def _assert_indices_identical(a, b, context=""):
    assert_matches_reference(a, index_tables(b), context)


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
    argsort fallback in the bounded build; the compiled in-RAM build
    has no packing limit.  Both equal the reference."""
    rng = np.random.default_rng(5)
    lines = (rng.choice([0, 1, 7, 2**40, 2**61, 2**62 - 8], size=400)
             + rng.integers(0, 3, size=400)).astype(np.int64)
    trace = make_trace(list(range(len(lines))), lines,
                       n_instructions=len(lines))
    reference = reference_tables(lines)
    with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
        index = TraceIndex.build_spilled(trace, None, None,
                                         chunk_accesses=400)
    # Both granularities fell back, in the fold and in the seal.
    assert argsort.call_count == 4
    assert_matches_reference(index, reference, "bounded")
    assert_matches_reference(
        TraceIndex.build_spilled(trace, None, None, chunk_accesses=97),
        reference, "bounded, chunked")
    assert_matches_reference(TraceIndex(trace), reference, "in-RAM")


requires_native = pytest.mark.skipif(
    not kernels.native_available(),
    reason="the compiled kernel extension cannot be built on this host")


@st.composite
def page_straddling_lines(draw):
    """Lines a few apart on both sides of page boundaries, negative
    pages included: runs of lines that share a page beside ones that
    just miss it."""
    pages = draw(st.lists(st.integers(-2**50, 2**50), min_size=1,
                          max_size=4))
    offsets = st.integers(-3, 3) | st.integers(61, 67)
    pool = [(page << _PAGE_OF_LINE_SHIFT) + offset
            for page in pages
            for offset in draw(st.lists(offsets, min_size=1, max_size=6))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.asarray(pool, dtype=np.int64)[
        rng.integers(0, len(pool), size=draw(st.integers(0, 300)))]


@requires_native
@settings(max_examples=150, deadline=None)
@given(grouping_keys() | page_straddling_lines(), st.integers(1, 64))
def test_compiled_build_matches_reference(lines, chunk):
    """The compiled in-RAM build equals the argsort oracle and the
    bounded build, whatever the keys: spans past 63 bits, negative
    lines, all-equal, empty, 2**k and 2**k + 1 accesses, and line sets
    that straddle page boundaries."""
    trace = make_trace(list(range(len(lines))), lines,
                       n_instructions=max(1, len(lines)))
    reference = reference_tables(lines)
    with kernels.use_backend("native"):
        assert_matches_reference(TraceIndex(trace), reference, "compiled")
    assert_matches_reference(
        TraceIndex.build_spilled(trace, None, None, chunk_accesses=chunk),
        reference, f"chunk={chunk}")


@requires_native
def test_compiled_build_is_one_call():
    """Under ``native`` an in-RAM build is one compiled call that makes
    all eight tables, and no table is built later."""
    lines = np.arange(3_000, dtype=np.int64) % 97 * 13
    trace = make_trace(list(range(len(lines))), lines,
                       n_instructions=len(lines))
    with kernels.use_backend("native"), \
            mock.patch.object(kernels.native, "build_index",
                              wraps=kernels.native.build_index) as build, \
            mock.patch.object(LiveIndexBuilder, "append") as append:
        index = TraceIndex(trace)
        index.batch_await_reuse(np.arange(0, 3_000, 7), 2_500)
    assert build.call_count == 1
    assert not append.called
    assert_matches_reference(index, reference_tables(lines))


def test_chunked_build_transients_are_bounded():
    """Peak per-chunk RAM stays O(chunk + keys) while tables are O(n)."""
    rng = np.random.default_rng(0)
    n = 200_000
    lines = rng.integers(0, 4_000, size=n).astype(np.int64)
    trace = make_trace(list(range(n)), lines, n_instructions=n)
    chunk = 4_096
    index = TraceIndex.build_spilled(trace, None, None, chunk_accesses=chunk)
    stats = index.build_stats
    # Four O(n) int64 tables were produced (positions at both
    # granularities, the lines' successors and the pages' ranks)...
    assert stats.table_bytes > 4 * n * 8
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


def test_ten_table_spilled_index_still_opens(tmp_path):
    """An index spilled by an older version also holds the lines' ranks
    and the pages' successors.  Its tables are read by name, so it
    opens, and its reuse queries answer as a fresh build's do."""
    rng = np.random.default_rng(9)
    lines = rng.integers(0, 900, size=20_000).astype(np.int64) * 7
    trace = make_trace(list(range(len(lines))), lines,
                       n_instructions=len(lines))
    store = ArtifactStore(root=tmp_path / "store", enabled=True)
    key = {"artifact": "trace-index-spill", "trace_fingerprint": "ten"}
    tables = reference_tables(lines, every_table=True)
    assert len(tables) == 10
    store.save_arrays(key, tables, label="trace-index-spill")
    opened = TraceIndex.open(trace, store, key)
    assert opened.mapped
    assert_matches_reference(opened, reference_tables(lines), "ten tables")
    fresh = TraceIndex(trace)
    for _ in range(20):
        limit = int(rng.integers(1, len(lines) + 1))
        positions = rng.integers(0, limit, size=200)
        for got, want in zip(opened.batch_await_reuse(positions, limit),
                             fresh.batch_await_reuse(positions, limit)):
            assert np.array_equal(got, want), limit
    opened.close()


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


def _live_feeds():
    """Four random feeds, each with its append cuts, the appends after
    which a seal falls and the build window.  Odd feeds fold whole
    appends at once; even ones split every seal's pending accesses into
    several windows."""
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
        chunk = int(rng.integers(1, 700) if seed % 2 else
                    rng.integers(1, 40))
        yield seed, lines, bounds, seal_after, chunk


def _scratch_names(spill_dir):
    return sorted(path.name for path in spill_dir.glob("live-index-*/*"))


def _segment_files(index):
    """The spill file names of an epoch's segments."""
    return sorted(os.path.basename(segment._positions.filename)
                  for name, _ in PER_ACCESS
                  for segment in segments_of(getattr(index, name)))


@pytest.mark.parametrize("mode", ["spilled", "heap"])
def test_live_builder_seals_match_reference(mode, tmp_path):
    """Every seal equals the reference on its prefix, however the feed
    was chunked and whatever the builder's window, and no sealed epoch
    changes as later appends patch the live successor column: an epoch's
    segments merged by key are the reference's grouped tables, and its
    successors, a view of the live column, read the reference's once
    the entries at or past the prefix end count as -1.  ``spilled``
    keeps each segment in the builder's spill files as read-only maps,
    and its scratch holds the live segments and the two live columns —
    no successors copy; ``heap`` keeps them on the heap."""
    multi_window = set()
    for seed, lines, bounds, seal_after, chunk in _live_feeds():
        spill_dir = tmp_path / f"spill-{seed}" if mode == "spilled" else None
        sealed = []
        with LiveIndexBuilder(spill_dir, chunk_accesses=chunk) as builder:
            for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                builder.append(lines[lo:hi])
                if i not in seal_after:
                    continue
                trace = make_trace(list(range(hi)), lines[:hi],
                                   n_instructions=hi)
                pending = hi - (sealed[-1][2] if sealed else 0)
                if pending > chunk:
                    multi_window.add("later" if sealed else "first")
                index = builder.seal(trace)
                assert index.mapped == (mode == "spilled")
                segments = segments_of(index.lines)
                assert len(segments_of(index.pages)) == len(segments) \
                    == index.build_stats.n_segments
                if spill_dir is not None:
                    assert all(segment._positions.mode == "r"
                               for name, _ in PER_ACCESS
                               for segment in segments_of(
                                   getattr(index, name)))
                    assert _scratch_names(spill_dir) == sorted(
                        _segment_files(index)
                        + ["lines_succ.bin", "pages_rank.bin"])
                assert index.build_stats.n_chunks == -(-pending // chunk)
                reference = reference_tables(lines[:hi])
                assert_matches_reference(index, reference, (mode, seed, hi),
                                         tables_of=epoch_tables)
                sealed.append((index, reference, hi))
            assert max(len(segments_of(index.lines))
                       for index, _, _ in sealed) > 1
            for index, reference, hi in sealed:
                assert_matches_reference(index, reference,
                                         (mode, seed, hi, "after appends"),
                                         tables_of=epoch_tables)
        if spill_dir is not None:
            assert not list(spill_dir.iterdir())
    assert multi_window == {"first", "later"}


def _reference_index(trace):
    """The one-segment argsort oracle of ``trace``, as an index."""
    return TraceIndex.from_tables(trace, reference_tables(trace.mem_line))


def _assert_same_reuse(index, reference, positions, limits, context):
    for backend, limit in itertools.product(kernels.BACKENDS, limits):
        with kernels.use_backend(backend):
            got = index.batch_await_reuse(positions, limit)
            want = reference.batch_await_reuse(positions, limit)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), (context, backend, limit)


@pytest.mark.parametrize("mode", ["spilled", "heap"])
def test_held_epoch_reads_patched_successors_as_absent(mode, tmp_path):
    """A held epoch's successors are the builder's live column, and
    later appends patch its last accesses' -1 entries to positions past
    its end.  Its reuse queries answer as the reference index of its
    prefix, at every position and at every limit up to and past its
    ``n_accesses``: the limit is clamped to the prefix."""
    rng = np.random.default_rng(3)
    lines = rng.integers(0, 60, size=3_000).astype(np.int64) * 9
    spill_dir = tmp_path if mode == "spilled" else None
    held = []
    with LiveIndexBuilder(spill_dir, chunk_accesses=256) as builder:
        lo = 0
        for hi in (700, 1_500, 2_300):
            builder.append(lines[lo:hi])
            lo = hi
            trace = make_trace(list(range(hi)), lines[:hi],
                               n_instructions=hi)
            held.append((builder.seal(trace), trace))
        builder.append(lines[lo:])
        for index, trace in held:
            n = trace.n_accesses
            assert index.mapped == (mode == "spilled")
            assert np.count_nonzero(index.lines.successors >= n) > 30
            limits = sorted({0, 1, n // 3, n - 1, n, n + 1, n + 250,
                             len(lines), 10 * len(lines)})
            _assert_same_reuse(index, _reference_index(trace),
                               np.arange(n), limits, (mode, n))


@st.composite
def live_seals(draw):
    """A feed, the accesses after which it seals and the builder's
    window: repeated keys across pages (negative ones included), seals
    as close as one access apart, and windows of one access up."""
    pool = draw(st.lists(st.integers(-2**40, 2**40), min_size=1,
                         max_size=10, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    lines = np.asarray(pool, dtype=np.int64)[rng.integers(0, len(pool),
                                                          size=n)]
    seals = sorted(set(draw(st.lists(st.integers(1, n), min_size=1,
                                     max_size=9))) | {n})
    return lines, seals, draw(st.integers(1, 48))


def _assert_answers_as_reference(index, trace, context):
    """Every query of ``index`` equals the one-segment reference's."""
    n = trace.n_accesses
    lines = np.asarray(trace.mem_line, dtype=np.int64)
    reference = _reference_index(trace)
    edges = getattr(index.lines, "bounds", [0, n])
    windows = {(0, n), (n // 2, n + 7), (n, n + 5), (-3, 2), (n, 0)}
    for edge in edges:
        windows |= {(edge - 1, edge + 1), (edge - 2, edge + 3),
                    (edge, edge), (edge + 1, edge - 1), (0, edge),
                    (edge, n + 1)}
    windows = sorted(windows)
    for name, keys in (("lines", lines),
                       ("pages", lines >> _PAGE_OF_LINE_SHIFT)):
        part, ref = getattr(index, name), getattr(reference, name)
        assert len(segments_of(part)) == index.build_stats.n_segments
        present = np.unique(keys)
        query = np.concatenate([present, [present[-1] + 1, present[0] - 1],
                                present[:1]])
        for backend in kernels.BACKENDS:
            with kernels.use_backend(backend):
                for lo, hi in windows:
                    for q in (query, query[:1], query[-2:-1]):
                        for g, w in zip(part.batch_counts_and_last(q, lo, hi),
                                        ref.batch_counts_and_last(q, lo, hi)):
                            assert np.array_equal(g, w), \
                                (context, name, backend, lo, hi)
                assert np.array_equal(part.first_positions(query),
                                      ref.first_positions(query))
        for key in query.tolist():
            assert np.array_equal(part.positions(key), ref.positions(key))
            for lo, hi in windows:
                for method in ("count_in", "last_in", "first_in"):
                    assert getattr(part, method)(key, lo, hi) == \
                        getattr(ref, method)(key, lo, hi), \
                        (context, name, method, key, lo, hi)
    limits = sorted({0, n // 2, n, n + 3} | set(edges))
    _assert_same_reuse(index, reference, np.arange(n), limits, context)


def test_segmented_epochs_answer_as_one_segment(tmp_path):
    """At every seal of a random feed, and again after the feed's later
    appends, the live epoch (however many segments it holds) answers
    every query as the one-segment argsort reference of its prefix:
    window queries straddling segment edges, empty, inverted or past the
    prefix end, first positions of absent keys, the per-key queries and
    the reuse queries, on every backend, spilled and on the heap."""
    shapes = set()

    @settings(max_examples=30, deadline=None)
    @given(live_seals(), st.booleans())
    def check(case, spilled):
        lines, seals, chunk = case
        spill_dir = tempfile.mkdtemp(dir=tmp_path) if spilled else None
        held = []
        with LiveIndexBuilder(spill_dir, chunk_accesses=chunk) as builder:
            lo = 0
            for hi in seals[:-1]:
                builder.append(lines[lo:hi])
                lo = hi
                trace = make_trace(list(range(hi)), lines[:hi],
                                   n_instructions=hi)
                index = builder.seal(trace)
                shapes.add(index.build_stats.n_segments)
                _assert_answers_as_reference(index, trace, (hi, "sealed"))
                held.append((index, trace))
            builder.append(lines[lo:])
            for index, trace in held:
                _assert_answers_as_reference(
                    index, trace, (trace.n_accesses, "after appends"))

    check()
    assert max(shapes) >= 3


def test_segments_merge_logarithmically():
    """After ``k`` seals each granularity holds one segment per set bit
    of ``k`` (at most ``floor(log2 k) + 1``), and the position rows the
    seals wrote — new segments plus merges — sum to at most
    ``n * (ceil(log2 k) + 1)``, however unevenly the seals fall."""
    rng = np.random.default_rng(8)
    lines = rng.integers(0, 500, size=6_000).astype(np.int64) * 3
    cuts = np.sort(rng.choice(np.arange(1, 6_000), size=39, replace=False))
    written = 0
    with LiveIndexBuilder(chunk_accesses=211) as builder:
        lo = 0
        for k, hi in enumerate([*cuts.tolist(), 6_000], start=1):
            builder.append(lines[lo:hi])
            lo = hi
            stats = builder.seal(make_trace(list(range(hi)), lines[:hi],
                                            n_instructions=hi)).build_stats
            written += stats.rows_written
            assert stats.n_segments == bin(k).count("1")
            assert stats.n_segments <= math.floor(math.log2(k)) + 1
            assert written <= hi * (math.ceil(math.log2(k)) + 1), k
        # A seal with nothing pending writes nothing and merges nothing.
        again = builder.seal(make_trace(list(range(6_000)), lines,
                                        n_instructions=6_000)).build_stats
        assert (again.rows_written, again.n_segments) == (0, stats.n_segments)


@pytest.mark.parametrize("mode", ["published", "dropped"])
def test_spilled_builds_publish_or_fall_back(mode, tmp_path,
                                             _no_fault_plan):
    """A spilled batch build of every sealed prefix of the same feeds
    equals the reference.  ``published`` streams the sealed tables into
    a store blob and serves them back mapped; ``dropped`` loses that
    publish to ENOSPC, so the build falls back to heap copies.  Either
    way the builder's scratch is gone and every index still answers
    after later builds."""
    for seed, lines, bounds, seal_after, chunk in _live_feeds():
        store = ArtifactStore(root=tmp_path / f"store-{seed}", enabled=True)
        built = []
        for i, hi in enumerate(bounds[1:]):
            if i not in seal_after:
                continue
            if mode == "dropped":
                inject("store.write:enospc@n=1")
            trace = make_trace(list(range(hi)), lines[:hi],
                               n_instructions=hi)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                index = TraceIndex.build_spilled(
                    trace, store, {"seed": seed, "accesses": hi},
                    chunk_accesses=chunk)
            assert index.mapped == (mode == "published")
            assert index.build_stats.n_chunks == -(-hi // chunk)
            if mode == "dropped":
                assert store.write_errors == len(built) + 1
            reference = reference_tables(lines[:hi])
            assert_matches_reference(index, reference, (mode, seed, hi))
            built.append((index, reference, hi))
        assert not list((tmp_path / f"store-{seed}").glob("live-*"))
        for index, reference, hi in built:
            assert_matches_reference(index, reference,
                                     (mode, seed, hi, "after later builds"))


@pytest.mark.parametrize("mode", ["spilled", "heap"])
def test_seals_with_nothing_pending_match_reference(mode, tmp_path):
    """An epoch with no accesses, and a second seal with no append since
    the first, equal the reference.  An empty table cannot be a map (an
    empty file cannot be mapped), so the empty epoch is heap arrays."""
    lines = np.arange(500, dtype=np.int64) % 37 * 70
    spill_dir = tmp_path if mode == "spilled" else None
    with LiveIndexBuilder(spill_dir, chunk_accesses=64) as builder:
        empty = builder.seal(make_trace([], lines[:0], n_instructions=1))
        assert not empty.mapped
        assert empty.build_stats.n_chunks == 0
        builder.append(lines)
        trace = make_trace(list(range(500)), lines, n_instructions=500)
        first = builder.seal(trace)
        again = builder.seal(trace)
        assert again.build_stats.n_chunks == 0
        builder.append(lines[:0])
        assert_matches_reference(empty, reference_tables(lines[:0]), mode)
        for index in (first, again):
            assert index.mapped == (mode == "spilled")
            assert_matches_reference(index, reference_tables(lines), mode)


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
