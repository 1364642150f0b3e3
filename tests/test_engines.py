"""Tests for the address engines."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.trace.engines import (
    MultiWorkingSetEngine,
    PointerChaseEngine,
    SequentialEngine,
    StridedEngine,
    UniformWorkingSetEngine,
    WorkingSetComponent,
)
from repro.trace.phases import PhaseSpec, build_trace
from repro.util.rng import child_rng


def line_map(n, base=1000):
    return np.arange(base, base + n, dtype=np.int64)


def test_uniform_engine_stays_in_map():
    engine = UniformWorkingSetEngine(line_map(32), n_pcs=4)
    lines, pcs = engine.generate(child_rng(0, "t"), 500)
    assert set(lines.tolist()) <= set(line_map(32).tolist())
    assert pcs.min() >= 0 and pcs.max() < 4


def test_zipf_engine_skews_toward_head():
    engine = UniformWorkingSetEngine(line_map(64), zipf_a=1.5)
    lines, _ = engine.generate(child_rng(0, "t"), 4000)
    head = np.count_nonzero(lines < 1000 + 8)
    assert head > 4000 * 8 / 64          # far above uniform share


def test_sequential_engine_cycles():
    engine = SequentialEngine(line_map(5))
    lines, _ = engine.generate(child_rng(0, "t"), 12)
    expected = [1000 + (i % 5) for i in range(12)]
    assert lines.tolist() == expected


def test_sequential_engine_resumes_across_calls():
    engine = SequentialEngine(line_map(100))
    first, _ = engine.generate(child_rng(0, "t"), 30)
    second, _ = engine.generate(child_rng(0, "t"), 30)
    assert second[0] == first[-1] + 1


def test_strided_engine_deterministic_revisit():
    engine = StridedEngine(line_map(8), stride_lines=1)
    lines, _ = engine.generate(child_rng(0, "t"), 17)
    # Reuse distance of a circular unit sweep equals the buffer length.
    assert lines[0] == lines[8] == lines[16]


def test_strided_engine_pow2_footprint():
    engine = StridedEngine(line_map(16), stride_lines=4)
    assert engine.footprint_lines() == 4
    lines, _ = engine.generate(child_rng(0, "t"), 64)
    assert np.unique(lines).size == 4


def test_strided_round_robin_pcs_for_large_strides():
    engine = StridedEngine(line_map(64), stride_lines=8, n_pcs=2)
    assert engine.round_robin_pcs
    _, pcs = engine.generate(child_rng(0, "t"), 8)
    assert pcs.tolist() == [0, 1, 0, 1, 0, 1, 0, 1]


def test_unit_stride_uses_random_pcs():
    engine = StridedEngine(line_map(64), stride_lines=1, n_pcs=4)
    assert not engine.round_robin_pcs
    _, pcs = engine.generate(child_rng(0, "t"), 256)
    # Random attribution: consecutive same-PC deltas must not be a
    # single dominant stride.
    assert np.unique(pcs).size == 4


def test_pointer_chase_is_permutation_cycle():
    engine = PointerChaseEngine(line_map(50), child_rng(7, "perm"))
    lines, _ = engine.generate(child_rng(0, "t"), 50)
    assert np.unique(lines).size == 50        # Hamiltonian: no repeats
    again, _ = engine.generate(child_rng(0, "t"), 50)
    assert np.array_equal(lines, again)       # same cycle order


def test_mixture_respects_weights():
    a = UniformWorkingSetEngine(line_map(16, base=0), n_pcs=2)
    b = UniformWorkingSetEngine(line_map(16, base=10_000), n_pcs=2)
    engine = MultiWorkingSetEngine([
        WorkingSetComponent(a, weight=0.9, pc_base=0),
        WorkingSetComponent(b, weight=0.1, pc_base=2),
    ])
    lines, pcs = engine.generate(child_rng(0, "t"), 5000)
    share_b = np.count_nonzero(lines >= 10_000) / 5000
    assert 0.06 < share_b < 0.16
    assert pcs.max() >= 2                     # pc_base applied


def test_mixture_reweighted():
    a = UniformWorkingSetEngine(line_map(16, base=0))
    b = UniformWorkingSetEngine(line_map(16, base=10_000))
    engine = MultiWorkingSetEngine([
        WorkingSetComponent(a, weight=0.5),
        WorkingSetComponent(b, weight=0.5),
    ])
    off = engine.reweighted({1: 0.0})
    lines, _ = off.generate(child_rng(0, "t"), 1000)
    assert lines.max() < 10_000


def test_mixture_rejects_zero_total_weight():
    a = UniformWorkingSetEngine(line_map(4))
    with pytest.raises(ValueError):
        MultiWorkingSetEngine([WorkingSetComponent(a, weight=0.0)])
    # A non-finite weight fails in the constructor (which reweighted
    # goes through too), not at the first draw on one backend only.
    for weight in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            MultiWorkingSetEngine([WorkingSetComponent(a, weight=1.0),
                                   WorkingSetComponent(a, weight=weight)])
        mixture = MultiWorkingSetEngine([WorkingSetComponent(a, 1.0),
                                         WorkingSetComponent(a, 1.0)])
        with pytest.raises(ValueError, match="finite"):
            mixture.reweighted({1: weight})


class _OverlongEngine(UniformWorkingSetEngine):
    """A faulty engine: one access more than asked for."""

    def generate(self, rng, n):
        return super().generate(rng, n + 1)


@pytest.mark.parametrize("backend", kernels.BACKENDS)
def test_wrong_length_engine_output_is_rejected(backend):
    # The mixture's scatter (a C loop under native) and the phase's
    # chunk assembly both refuse output of the wrong length.
    if backend == "native" and not kernels.native_available():
        pytest.skip("compiled kernel extension (repro.kernels._native) "
                    f"could not be built: {kernels.native.unavailable_cause()}")
    bad = _OverlongEngine(line_map(8))
    mixture = MultiWorkingSetEngine([
        WorkingSetComponent(UniformWorkingSetEngine(line_map(4)), 1.0),
        WorkingSetComponent(bad, 1.0, pc_base=8)])
    with kernels.use_backend(backend):
        with pytest.raises(ValueError):
            mixture.generate(child_rng(0, "bad"), 200)
        with pytest.raises(ValueError, match="wrong-length"):
            build_trace([PhaseSpec("p", 1_000, bad)], seed=1)


def test_empty_line_map_rejected():
    with pytest.raises(ValueError):
        UniformWorkingSetEngine(np.empty(0, dtype=np.int64))
    with pytest.raises(ValueError):
        StridedEngine(np.empty(0, dtype=np.int64))


@settings(max_examples=25, deadline=None)
@given(n_lines=st.integers(2, 64), stride=st.integers(1, 16),
       n=st.integers(1, 200))
def test_strided_engine_always_within_map(n_lines, stride, n):
    engine = StridedEngine(line_map(n_lines), stride_lines=stride)
    lines, pcs = engine.generate(child_rng(0, "t"), n)
    assert lines.shape == (n,) and pcs.shape == (n,)
    assert set(lines.tolist()) <= set(line_map(n_lines).tolist())


# -- chunk-cursor contracts ----------------------------------------------------
#
# The primitive behind generate_chunks (and therefore every live feed):
# chunk_cursor must make chunking unobservable, consume must advance the
# RNG exactly as a real generate would, and fast_forward must land the
# engine (stream state *and* RNG) exactly where the real call would.
# Randomized chunk boundaries are the whole point — fixed splits keep
# missing the off-by-one at run edges.

ENGINE_FACTORIES = {
    "uniform": lambda: UniformWorkingSetEngine(line_map(48), n_pcs=6),
    "zipf": lambda: UniformWorkingSetEngine(line_map(64), n_pcs=4,
                                            zipf_a=1.3),
    "strided": lambda: StridedEngine(line_map(40), stride_lines=3,
                                     n_pcs=4),
    "sequential": lambda: SequentialEngine(line_map(17), n_pcs=3),
    "chase": lambda: PointerChaseEngine(line_map(32),
                                        child_rng(9, "perm"), n_pcs=4),
    "mixture": lambda: MultiWorkingSetEngine([
        WorkingSetComponent(
            UniformWorkingSetEngine(line_map(32), n_pcs=4), 0.6),
        WorkingSetComponent(
            SequentialEngine(line_map(8, base=5000), n_pcs=2), 0.4,
            pc_base=4),
    ]),
}


@st.composite
def _random_split(draw):
    """(total, sizes) with sizes > 0 summing to total, cuts anywhere."""
    total = draw(st.integers(1, 300))
    cuts = draw(st.lists(st.integers(0, total), max_size=6))
    edges = sorted({0, total, *cuts})
    return total, [hi - lo for lo, hi in zip(edges[:-1], edges[1:])]


def _probe(rng):
    """Observable RNG position (identical iff the states are)."""
    return rng.integers(0, 1 << 62, size=4).tolist()


@pytest.mark.parametrize("kind", sorted(ENGINE_FACTORIES))
@settings(max_examples=25, deadline=None)
@given(split=_random_split())
def test_chunk_cursor_split_invariant(kind, split):
    total, sizes = split
    factory = ENGINE_FACTORIES[kind]
    ref_lines, ref_pcs = factory().generate(child_rng(3, kind), total)
    cursor = factory().chunk_cursor(child_rng(3, kind), total)
    parts = [cursor.take(n) for n in sizes]
    lines = np.concatenate([p[0] for p in parts])
    pcs = np.concatenate([p[1] for p in parts])
    assert np.array_equal(lines, ref_lines), sizes
    assert np.array_equal(pcs, ref_pcs), sizes


@pytest.mark.parametrize("kind", sorted(ENGINE_FACTORIES))
@settings(max_examples=10, deadline=None)
@given(split=_random_split())
def test_chunk_cursor_never_advances_caller_rng(kind, split):
    total, sizes = split
    rng = child_rng(5, kind)
    cursor = ENGINE_FACTORIES[kind]().chunk_cursor(rng, total)
    for n in sizes:
        cursor.take(n)
    assert _probe(rng) == _probe(child_rng(5, kind))


@pytest.mark.parametrize("kind", sorted(ENGINE_FACTORIES))
@settings(max_examples=25, deadline=None)
@given(total=st.integers(1, 300))
def test_consume_advances_rng_like_generate(kind, total):
    factory = ENGINE_FACTORIES[kind]
    r_gen, r_consume = child_rng(7, kind), child_rng(7, kind)
    factory().generate(r_gen, total)
    factory().consume(r_consume, total)
    assert _probe(r_gen) == _probe(r_consume)


@pytest.mark.parametrize("kind", sorted(ENGINE_FACTORIES))
@settings(max_examples=25, deadline=None)
@given(skip=st.integers(1, 200), tail=st.integers(1, 100))
def test_fast_forward_lands_where_generate_would(kind, skip, tail):
    factory = ENGINE_FACTORIES[kind]
    engine_gen, engine_ff = factory(), factory()
    r_gen, r_ff = child_rng(11, kind), child_rng(11, kind)
    engine_gen.generate(r_gen, skip)
    engine_ff.fast_forward(r_ff, skip)
    lines_gen, pcs_gen = engine_gen.generate(r_gen, tail)
    lines_ff, pcs_ff = engine_ff.generate(r_ff, tail)
    assert np.array_equal(lines_ff, lines_gen)
    assert np.array_equal(pcs_ff, pcs_gen)
