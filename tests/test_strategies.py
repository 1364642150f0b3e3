"""Tests for the SMARTS and CoolSim sampling strategies."""

import pytest

from repro.caches.hierarchy import paper_hierarchy
from repro.caches.stats import HIT_WARMING, LABELS
from repro.sampling.coolsim import CoolSim
from repro.sampling.smarts import Smarts


@pytest.fixture
def hierarchy():
    return paper_hierarchy(8 << 20)


def test_smarts_runs_and_reports(small_workload, small_plan, small_index,
                                 hierarchy):
    result = Smarts().run(small_workload, small_plan, hierarchy,
                          index=small_index)
    assert result.strategy == "SMARTS"
    assert len(result.regions) == small_plan.n_regions
    assert result.cpi > 0
    assert result.mips > 0
    # The reference never produces 'warming hits' — it has real state.
    for region in result.regions:
        assert region.stats.counts[LABELS[HIT_WARMING]] == 0


def test_smarts_charges_functional_warming(small_workload, small_plan,
                                           small_index, hierarchy):
    result = Smarts().run(small_workload, small_plan, hierarchy,
                          index=small_index)
    categories = result.meter.ledger.seconds_by_category
    assert categories["funcwarm"] > categories["detailed"]


def test_smarts_deterministic(small_workload, small_plan, small_index,
                              hierarchy):
    a = Smarts().run(small_workload, small_plan, hierarchy,
                     index=small_index)
    b = Smarts().run(small_workload, small_plan, hierarchy,
                     index=small_index)
    assert a.cpi == b.cpi and a.mpki == b.mpki


def test_smarts_prefetcher_reduces_misses(small_workload, small_plan,
                                          small_index, hierarchy):
    base = Smarts().run(small_workload, small_plan, hierarchy,
                        index=small_index)
    prefetch = Smarts(prefetcher=True).run(
        small_workload, small_plan, hierarchy, index=small_index)
    assert prefetch.mpki <= base.mpki + 0.2


def test_coolsim_runs_and_reports(small_workload, small_plan, small_index,
                                  hierarchy):
    result = CoolSim().run(small_workload, small_plan, hierarchy,
                           index=small_index, seed=2)
    assert result.strategy == "CoolSim"
    assert result.extras["collected_reuse_distances"] > 0
    assert result.extras["pcs_sampled"] > 0
    assert result.cpi > 0


def test_coolsim_faster_than_smarts(small_workload, small_plan, small_index,
                                    hierarchy):
    reference = Smarts().run(small_workload, small_plan, hierarchy,
                             index=small_index)
    coolsim = CoolSim().run(small_workload, small_plan, hierarchy,
                            index=small_index, seed=2)
    assert coolsim.speedup_over(reference) > 3.0


def test_coolsim_accuracy_reasonable(small_workload, small_plan, small_index,
                                     hierarchy):
    reference = Smarts().run(small_workload, small_plan, hierarchy,
                             index=small_index)
    coolsim = CoolSim().run(small_workload, small_plan, hierarchy,
                            index=small_index, seed=2)
    assert coolsim.cpi_error(reference) < 0.5


def test_coolsim_schedule_validation():
    with pytest.raises(ValueError):
        CoolSim(schedule=((0.5, 1e-5), (0.2, 1e-5)))


def test_coolsim_sample_count_projection(small_workload, small_plan,
                                         small_index, hierarchy):
    result = CoolSim().run(small_workload, small_plan, hierarchy,
                           index=small_index, seed=2)
    model = result.extras["collected_model_samples"]
    paper = result.extras["collected_reuse_distances"]
    boost = CoolSim().density_boost
    assert paper == pytest.approx(model / boost * small_plan.scale)


def test_strategy_result_summary(small_workload, small_plan, small_index,
                                 hierarchy):
    result = Smarts().run(small_workload, small_plan, hierarchy,
                          index=small_index)
    summary = result.summary()
    assert summary["strategy"] == "SMARTS"
    assert summary["workload"] == small_workload.name
    assert "mips" in summary
