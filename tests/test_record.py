"""Tests for the Trace record type and coordinate conversions."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.trace.record import Kind, Trace


def make_trace(mem_instr, lines, n_instructions=None):
    mem_instr = np.asarray(mem_instr, dtype=np.int64)
    n = n_instructions or (int(mem_instr.max()) + 1 if mem_instr.size else 1)
    kind = np.zeros(n, dtype=np.uint8)
    kind[mem_instr] = Kind.LOAD
    return Trace(
        kind=kind,
        mem_instr=mem_instr,
        mem_line=np.asarray(lines, dtype=np.int64),
        mem_pc=np.zeros(len(mem_instr), dtype=np.int32),
        mem_store=np.zeros(len(mem_instr), dtype=bool),
        branch_instr=np.empty(0, dtype=np.int64),
        branch_mispred=np.empty(0, dtype=bool),
    )


def test_access_range_basic():
    trace = make_trace([2, 5, 7, 11], [10, 20, 30, 40], n_instructions=16)
    assert trace.access_range(0, 6) == (0, 2)
    assert trace.access_range(5, 8) == (1, 3)
    assert trace.access_range(12, 16) == (4, 4)


def test_validate_catches_unsorted_accesses():
    trace = make_trace([5, 2], [1, 2], n_instructions=8)
    with pytest.raises(ValueError):
        trace.validate()


def test_validate_catches_kind_mismatch():
    trace = make_trace([1, 2], [10, 20], n_instructions=8)
    trace.kind[3] = Kind.STORE      # extra mem kind not in the view
    with pytest.raises(ValueError):
        trace.validate()


def test_unique_lines_and_footprint():
    trace = make_trace([0, 1, 2, 3], [7, 7, 9, 7], n_instructions=4)
    assert trace.unique_lines() == 2
    assert trace.footprint_bytes() == 2 * 64


def test_mem_fraction():
    trace = make_trace([0, 1], [1, 2], n_instructions=8)
    assert trace.mem_fraction() == pytest.approx(0.25)


def test_instructions_between_accesses():
    trace = make_trace([2, 5, 9], [1, 2, 3], n_instructions=12)
    assert trace.instructions_between_accesses(0, 3) == 8
    assert trace.instructions_between_accesses(1, 2) == 1
    assert trace.instructions_between_accesses(2, 2) == 0


@given(st.lists(st.integers(0, 60), min_size=1, max_size=40, unique=True))
def test_access_range_partitions(instr_positions):
    instr_positions = sorted(instr_positions)
    trace = make_trace(instr_positions,
                       list(range(len(instr_positions))),
                       n_instructions=64)
    # Any split point partitions the access stream exactly.
    for split in (0, 10, 32, 64):
        lo1, hi1 = trace.access_range(0, split)
        lo2, hi2 = trace.access_range(split, 64)
        assert lo1 == 0 and hi2 == len(instr_positions)
        assert hi1 == lo2
