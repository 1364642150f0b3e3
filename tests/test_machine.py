"""Tests for the VirtualMachine mode facade."""

import pytest

from repro.caches.cache import CacheConfig
from repro.caches.hierarchy import CacheHierarchy, HierarchyConfig
from repro.vff.costmodel import CostMeter
from repro.vff.machine import VirtualMachine
from tests.conftest import make_small_workload


@pytest.fixture
def machine():
    workload = make_small_workload(n_instructions=40_000)
    return VirtualMachine(workload.trace, meter=CostMeter(scale=100.0))


def test_fast_forward_charges_vff(machine):
    machine.fast_forward(0, 10_000)
    assert machine.meter.ledger.seconds_by_category.keys() == {"vff"}


def test_functional_warm_updates_hierarchy(machine):
    hierarchy = CacheHierarchy(HierarchyConfig(
        l1d=CacheConfig(8 * 64, assoc=2),
        l1i=CacheConfig(8 * 64, assoc=2),
        llc=CacheConfig(64 * 64, assoc=8)))
    l1, llc, mem = machine.functional_warm(hierarchy, 0, 40_000)
    assert l1 + llc + mem == machine.trace.n_accesses
    assert "funcwarm" in machine.meter.ledger.seconds_by_category


def test_detailed_unscaled(machine):
    machine.detailed(0, 10_000)
    expected = 10_000 / (machine.meter.params.detailed_mips * 1e6)
    assert machine.meter.ledger.seconds_by_category["detailed"] == (
        pytest.approx(expected))


def test_switch_state_and_sync(machine):
    machine.switch_state()
    machine.sync()
    categories = machine.meter.ledger.seconds_by_category
    assert "state_transfer" in categories and "pipe_sync" in categories
