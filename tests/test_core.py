"""Tests for the DeLorean core: scout, explorers, vicinity, predictor,
pipeline, end-to-end strategy and DSE."""

import numpy as np
import pytest

from conftest import make_small_workload

from repro.caches.cache import SetAssocCache
from repro.caches.hierarchy import paper_hierarchy
from repro.caches.stats import (
    HIT_WARMING,
    MISS_CAPACITY,
    MISS_COLD,
    MISS_CONFLICT,
)
from repro.core.analyst import AnalystPass
from repro.core.context import ExecutionContext
from repro.core.delorean import DeLorean
from repro.core.dse import DesignSpaceExploration
from repro.core.explorer import DEFAULT_EXPLORERS, ExplorerChain, ExplorerSpec
from repro.core.pipeline import bottleneck_stage, pipeline_schedule
from repro.core.scout import ScoutPass
from repro.core.vicinity import VicinitySampler
from repro.core.warming import COLD_DISTANCE, DirectedCapacityPredictor
from repro.experiments.config import ExperimentConfig
from repro.sampling.base import StrategyBase
from repro.sampling.plan import SamplingPlan
from repro.sampling.smarts import Smarts
from repro.statmodel.histogram import ReuseHistogram
from repro.vff.costmodel import CostMeter
from repro.vff.machine import VirtualMachine


@pytest.fixture
def hierarchy():
    return paper_hierarchy(8 << 20)


def machines_for(workload, plan, index, count):
    return [VirtualMachine(workload.trace,
                           meter=CostMeter(scale=plan.scale), index=index)
            for _ in range(count)]


def scout_for(workload, index, machine):
    return ScoutPass(ExecutionContext(workload, index=index), machine)


# -- Scout ---------------------------------------------------------------------

def test_scout_records_unique_region_lines(small_workload, small_plan,
                                           small_index):
    machine = machines_for(small_workload, small_plan, small_index, 1)[0]
    spec = small_plan.regions()[1]
    report = scout_for(small_workload, small_index,
                       machine).run_region(spec)
    trace = small_workload.trace
    lo, hi = trace.access_range(spec.region_start, spec.region_end)
    expected = set(np.unique(trace.mem_line[lo:hi]).tolist())
    assert set(report.key_first_access) == expected
    assert report.n_key_lines == len(expected)


def test_scout_first_access_positions(small_workload, small_plan,
                                      small_index):
    machine = machines_for(small_workload, small_plan, small_index, 1)[0]
    spec = small_plan.regions()[0]
    report = scout_for(small_workload, small_index,
                       machine).run_region(spec)
    trace = small_workload.trace
    for line, first in list(report.key_first_access.items())[:32]:
        assert trace.mem_line[first] == line
        assert first >= report.region_access_lo
        # No earlier access inside the region.
        lo = report.region_access_lo
        window = trace.mem_line[lo:first]
        assert line not in window.tolist()


def test_scout_warming_resolution(small_workload, small_plan, small_index):
    machine = machines_for(small_workload, small_plan, small_index, 1)[0]
    spec = small_plan.regions()[1]
    report = scout_for(small_workload, small_index,
                       machine).run_region(spec)
    trace = small_workload.trace
    warming_lo, _ = trace.access_range(spec.warming_start, spec.region_start)
    for line, last in report.warming_resolved.items():
        assert trace.mem_line[last] == line
        assert last >= warming_lo


# -- Explorers -------------------------------------------------------------------

def test_explorer_chain_resolves_all_warm_lines(small_workload, small_plan,
                                                small_index):
    machines = machines_for(small_workload, small_plan, small_index, 5)
    scout = scout_for(small_workload, small_index, machines[0])
    chain = ExplorerChain(machines[1:], DEFAULT_EXPLORERS)
    spec = small_plan.regions()[1]
    report = scout.run_region(spec)
    result = chain.run_region(spec, report)
    distances = report.key_reuse_distances(result.last_access)
    trace = small_workload.trace
    gap_lo, _ = trace.access_range(spec.warmup_start, spec.region_start)
    # Verify against the oracle: resolved distances are exact backward
    # reuse distances; unresolved lines have no access in the gap.
    for line, distance in list(distances.items())[:64]:
        first = report.key_first_access[line]
        prev = small_index.last_access_before(line, first)
        if prev >= gap_lo:
            assert distance == first - prev - 1
        else:
            assert distance == COLD_DISTANCE


def test_explorer_engagement_monotone(small_workload, small_plan,
                                      small_index):
    machines = machines_for(small_workload, small_plan, small_index, 5)
    scout = scout_for(small_workload, small_index, machines[0])
    chain = ExplorerChain(machines[1:], DEFAULT_EXPLORERS)
    spec = small_plan.regions()[2]
    report = scout.run_region(spec)
    result = chain.run_region(spec, report)
    assert 0 <= result.engaged <= len(DEFAULT_EXPLORERS)
    # Counts resolved across explorers + warming + cold == key lines.
    total = (len(report.warming_resolved) + sum(result.resolved_by)
             + len(result.unresolved))
    assert total == report.n_key_lines


def test_explorer_spec_mismatch_rejected(small_workload, small_plan,
                                         small_index):
    machines = machines_for(small_workload, small_plan, small_index, 2)
    with pytest.raises(ValueError):
        ExplorerChain(machines, DEFAULT_EXPLORERS)


# -- vicinity -------------------------------------------------------------------

def test_vicinity_sampler_collects(small_workload, small_plan, small_index):
    machine = machines_for(small_workload, small_plan, small_index, 1)[0]
    sampler = VicinitySampler(machine, density=1e-4, density_boost=100,
                              rng=np.random.default_rng(0))
    histogram = ReuseHistogram()
    trace = small_workload.trace
    n = sampler.sample_window(histogram, 0, trace.n_accesses // 2,
                              trace.n_accesses,
                              paper_window_instructions=5e6,
                              model_window_instructions=60_000)
    assert n > 0
    assert histogram.total > 0
    assert sampler.collected_paper_equivalent > 0
    assert "watchpoint_stop" in machine.meter.ledger.seconds_by_category


def test_vicinity_empty_window(small_workload, small_plan, small_index):
    machine = machines_for(small_workload, small_plan, small_index, 1)[0]
    sampler = VicinitySampler(machine, rng=np.random.default_rng(0))
    histogram = ReuseHistogram()
    assert sampler.sample_window(histogram, 10, 10, 20, 5e6, 1000) == 0


# -- directed predictor -----------------------------------------------------------

def test_directed_predictor_decisions():
    vicinity = ReuseHistogram()
    for _ in range(100):
        vicinity.add(10)            # dense short reuses: sd(r) ~ 10
    predictor = DirectedCapacityPredictor(
        {100: 5, 200: 100_000, 300: COLD_DISTANCE}, vicinity)
    assert predictor(0, 100, 1000) == HIT_WARMING
    assert predictor(0, 200, 10) == MISS_CAPACITY
    assert predictor(0, 300, 1000) == MISS_COLD
    assert predictor(0, 999, 1000) == MISS_COLD     # unknown line
    assert predictor.unknown_lines == 1


def test_directed_predictor_key_table_matches_calls():
    """The key table decides as per-access calls plus the classifier's
    full-capacity recheck do, element by element, under the compiled
    LLC phase's rule; ``count_lookups`` then leaves the counters where
    those calls leave them."""
    rng = np.random.default_rng(4)
    vicinity = ReuseHistogram()
    vicinity.add_many(rng.integers(0, 200, 300).tolist())
    for _ in range(40):
        vicinity.add_cold()
    keys = np.arange(400, dtype=np.int64) * 3
    distances = rng.integers(0, 8000, keys.shape[0])
    distances[::7] = COLD_DISTANCE
    table = dict(zip(keys[::-1].tolist(), distances[::-1].tolist()))
    lines = rng.integers(0, 1300, 600)          # a third are not keys
    llc_lines = 512
    effective = rng.choice([512, 256, 64, 32], 600)

    batch = DirectedCapacityPredictor(table, vicinity)
    single = DirectedCapacityPredictor(table, vicinity)
    table_keys, stack = batch.key_table()
    assert batch.key_table()[1] is stack            # built once
    assert table_keys.tolist() == keys.tolist()     # ascending
    assert stack.dtype == np.float64

    def decide(line, capacity):
        """``(code, rechecked, unknown)``: the compiled loop's rule."""
        slot = int(np.searchsorted(table_keys, line))
        if slot == table_keys.shape[0] or table_keys[slot] != line:
            return MISS_COLD, 0, 1
        if stack[slot] < 0:
            return MISS_COLD, 0, 0
        if not stack[slot] >= capacity:
            return HIT_WARMING, 0, 0
        if capacity < llc_lines:
            if not stack[slot] >= llc_lines:
                return MISS_CONFLICT, 1, 0
            return MISS_CAPACITY, 1, 0
        return MISS_CAPACITY, 0, 0

    expected, got, rechecks, unknown = [], [], 0, 0
    for line, capacity in zip(lines.tolist(), effective.tolist()):
        outcome = single(0, line, capacity)
        if (outcome == MISS_CAPACITY and capacity < llc_lines
                and single(0, line, llc_lines) == HIT_WARMING):
            outcome = MISS_CONFLICT
        expected.append(outcome)
        code, rechecked, missing = decide(line, capacity)
        got.append(code)
        rechecks += rechecked
        unknown += missing
    batch.count_lookups(len(got) + rechecks, unknown)
    assert got == expected
    assert (batch.lookups, batch.unknown_lines) == \
        (single.lookups, single.unknown_lines)
    assert set(expected) == {HIT_WARMING, MISS_CAPACITY, MISS_COLD,
                             MISS_CONFLICT}
    assert single.unknown_lines > 0 and rechecks > 0
    empty_keys, empty_stack = DirectedCapacityPredictor(
        {}, vicinity).key_table()
    assert (empty_keys.dtype, empty_stack.dtype) == (np.int64, np.float64)
    assert empty_keys.shape == empty_stack.shape == (0,)


def test_directed_predictor_stack_distance():
    vicinity = ReuseHistogram()
    vicinity.add_many([1, 1, 1, 1])
    predictor = DirectedCapacityPredictor({7: 100}, vicinity)
    assert predictor.predicted_stack_distance(7) < 100
    assert predictor.predicted_stack_distance(8) == float("inf")


# -- pipeline ---------------------------------------------------------------------

def test_pipeline_schedule_single_stage():
    finish, wall = pipeline_schedule([[1.0, 2.0, 3.0]])
    assert wall == pytest.approx(6.0)


def test_pipeline_schedule_overlap():
    # Two stages of 1s each over 3 regions: wall = fill (1) + 3 = 4.
    finish, wall = pipeline_schedule([[1, 1, 1], [1, 1, 1]])
    assert wall == pytest.approx(4.0)
    assert finish[0][0] == pytest.approx(1.0)
    assert finish[1][2] == pytest.approx(4.0)


def test_pipeline_bottleneck():
    index, total = bottleneck_stage([[1, 1], [5, 5], [2, 2]])
    assert index == 1 and total == pytest.approx(10.0)


def test_pipeline_rejects_bad_shape():
    with pytest.raises(ValueError):
        pipeline_schedule([1, 2, 3])


# -- DeLorean end-to-end -------------------------------------------------------------

def test_delorean_tracks_smarts(small_workload, small_plan, small_index,
                                hierarchy):
    reference = Smarts().run(small_workload, small_plan, hierarchy,
                             index=small_index)
    delorean = DeLorean().run(small_workload, small_plan, hierarchy,
                              index=small_index, seed=2)
    assert delorean.cpi_error(reference) < 0.25
    assert delorean.speedup_over(reference) > 5.0


def test_delorean_extras_consistent(small_workload, small_plan, small_index,
                                    hierarchy):
    result = DeLorean().run(small_workload, small_plan, hierarchy,
                            index=small_index, seed=2)
    extras = result.extras
    assert len(extras["key_lines_per_region"]) == small_plan.n_regions
    assert len(extras["explorers_engaged"]) == small_plan.n_regions
    assert extras["collected_reuse_distances"] >= extras[
        "key_reuse_distances"]
    # Pipelined wall-clock cannot exceed the sum of all stage times.
    assert result.wall_seconds <= sum(extras["stage_times"]) + 1e-9
    assert result.wall_seconds >= max(extras["stage_times"]) - 1e-9


def test_delorean_prefetcher_variant(small_workload, small_plan, small_index,
                                     hierarchy):
    result = DeLorean(prefetcher=True).run(
        small_workload, small_plan, hierarchy, index=small_index, seed=2)
    assert result.cpi > 0


# -- DSE ---------------------------------------------------------------------------

def test_dse_sweep(small_workload, small_plan, small_index):
    configs = [paper_hierarchy(size << 20) for size in (1, 8, 64)]
    report = DesignSpaceExploration().run(
        small_workload, small_plan, configs, index=small_index, seed=2)
    assert report.n_configs == 3
    mpkis = [r.mpki for r in report.results]
    assert mpkis[0] >= mpkis[-1] - 0.5        # bigger LLC, fewer misses
    assert report.marginal_cost < report.naive_cost
    assert report.marginal_cost >= 1.0


def test_dse_matches_single_config_delorean(small_workload, small_plan,
                                            small_index):
    hierarchy = paper_hierarchy(8 << 20)
    single = DeLorean().run(small_workload, small_plan, hierarchy,
                            index=small_index, seed=2)
    report = DesignSpaceExploration().run(
        small_workload, small_plan, [hierarchy], index=small_index, seed=2)
    assert report.results[0].mpki == pytest.approx(single.mpki, abs=0.5)


def _config_signature(result):
    """What one DSE configuration reports, except the sweep's wall time
    (the slowest Analyst's)."""
    return (result.cpi, result.mpki, result.meter.ledger.as_dict(),
            [(region.index, region.stats.counts, region.timing.total_cycles)
             for region in result.regions])


#: Multi-configuration sweeps: four LLC sizes, and two LLC sizes
#: interleaved with two L1 sizes (front ends are shared per L1
#: configuration).
MULTI_CONFIG_SWEEPS = [
    [paper_hierarchy(size << 20) for size in (1, 8, 64, 512)],
    [paper_hierarchy(size << 20, l1_scale=l1_scale)
     for size in (8, 64) for l1_scale in (0.25, 0.5)],
]


@pytest.mark.parametrize("configs", MULTI_CONFIG_SWEEPS,
                         ids=["llc-sizes", "two-l1-sizes"])
def test_dse_configs_match_one_config_sweeps(small_workload, small_plan,
                                             small_index, configs):
    sweep = DesignSpaceExploration().run(
        small_workload, small_plan, configs, index=small_index, seed=2)
    for config, result in zip(configs, sweep.results):
        alone = DesignSpaceExploration().run(
            small_workload, small_plan, [config], index=small_index, seed=2)
        assert _config_signature(result) == \
            _config_signature(alone.results[0])
    # The first two configurations differ in one cache (the LLC, or the
    # L1 alone), and their results show it.
    assert _config_signature(sweep.results[0]) != \
        _config_signature(sweep.results[1])


def test_delorean_without_explorers_matches_scout_only_sweep(
        small_workload, small_plan, small_index, hierarchy):
    """A Scout-only DeLorean run (no Explorer coverage) works, calls
    every key line the warming window misses cold, and draws no
    vicinity RNG, so it equals a one-config zero-Explorer sweep."""
    result = DeLorean(explorer_specs=()).run(
        small_workload, small_plan, hierarchy, index=small_index, seed=2)
    extras = result.extras
    assert extras["resolved_by_explorer"] == []
    assert extras["explorers_engaged"] == [0] * small_plan.n_regions
    assert (extras["cold_key_lines"] + extras["resolved_in_warming"]
            == sum(extras["key_lines_per_region"]))
    sweep = DesignSpaceExploration(explorer_specs=()).run(
        small_workload, small_plan, [hierarchy], index=small_index, seed=2)
    assert _config_signature(result) == \
        _config_signature(sweep.results[0])
    # DeLorean is the one-configuration case of the run a sweep refines,
    # so each configuration of a multi-configuration sweep equals it too.
    for configs in MULTI_CONFIG_SWEEPS:
        sweep = DesignSpaceExploration(explorer_specs=()).run(
            small_workload, small_plan, configs, index=small_index, seed=2)
        for config, swept in zip(configs, sweep.results):
            alone = DeLorean(explorer_specs=()).run(
                small_workload, small_plan, config, index=small_index,
                seed=2)
            assert _config_signature(alone) == _config_signature(swept)


def test_dse_has_no_live_begin(small_workload, small_plan, small_index):
    """A sweep is only a batch ``run``: ``begin`` must not hand back a
    one-configuration DeLorean run dressed up as a sweep."""
    strategy = DesignSpaceExploration()
    context = strategy.context_for(small_workload, index=small_index,
                                   seed=2)
    with pytest.raises(NotImplementedError, match=r"run\(\)"):
        strategy.begin(context, small_plan, paper_hierarchy(8 << 20))


def test_dse_requires_configs(small_workload, small_plan, small_index):
    with pytest.raises(ValueError):
        DesignSpaceExploration().run(small_workload, small_plan, [],
                                     index=small_index)


@pytest.mark.parametrize("n_regions", [2, 4])
def test_dse_builds_each_llc_once_per_run(n_regions, monkeypatch):
    """Each Analyst allocates its lukewarm LLC once and empties it per
    region, so a ten-size sweep builds ten LLCs whatever its length."""
    configs = [paper_hierarchy(size)
               for size in ExperimentConfig().sweep_llc_paper_bytes]
    llcs = {config.llc for config in configs}
    built = []
    init = SetAssocCache.__init__

    def counting_init(self, config, seed=0):
        if config in llcs:
            built.append(config)
        init(self, config, seed=seed)

    workload = make_small_workload(n_instructions=170_000)
    plan = SamplingPlan(n_instructions=170_000, n_regions=n_regions)
    monkeypatch.setattr(SetAssocCache, "__init__", counting_init)
    DesignSpaceExploration().run(workload, plan, configs, seed=2)
    assert len(llcs) == 10
    assert sorted(built, key=lambda c: c.size_bytes) == \
        sorted(llcs, key=lambda c: c.size_bytes)


def test_analyst_is_a_pass_not_a_strategy():
    """The Analyst shares region timing with the strategies through a
    helper; it inherits no batch ``run`` it cannot serve."""
    assert not issubclass(AnalystPass, StrategyBase)
    assert not hasattr(AnalystPass, "run")
