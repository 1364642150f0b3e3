"""Tests for the sampling plan geometry."""

import numpy as np
import pytest

from conftest import make_small_workload

from repro.caches.hierarchy import paper_hierarchy
from repro.core.context import ExecutionContext
from repro.core.delorean import DeLorean
from repro.core.dse import DesignSpaceExploration
from repro.core.explorer import DEFAULT_EXPLORERS
from repro.core.warmup import WarmupPipeline
from repro.live import LiveRunner
from repro.sampling.plan import SamplingPlan
from repro.store.fingerprint import fingerprint
from repro.vff.costmodel import CostMeter


def test_region_geometry():
    plan = SamplingPlan(n_instructions=1_000_000, n_regions=4)
    regions = plan.regions()
    assert len(regions) == 4
    assert regions[0].region_end == 250_000
    assert regions[0].region_start == 240_000
    assert regions[1].warmup_start == 250_000
    for spec in regions:
        assert (spec.warmup_start <= spec.warming_start
                < spec.region_start < spec.region_end)


def test_paper_scale_projection():
    plan = SamplingPlan(n_instructions=1_000_000, n_regions=4)
    assert plan.gap_instructions == 250_000
    assert plan.scale == pytest.approx(1e9 / 250_000)
    assert plan.paper_equivalent_instructions == 4_000_000_000


def test_warming_window_scales_with_footprint():
    plan = SamplingPlan(n_instructions=1_000_000, n_regions=2,
                        footprint_scale=1 / 64)
    assert plan.model_warming_instructions == round(30_000 / 64)
    full = SamplingPlan(n_instructions=1_000_000, n_regions=2,
                        footprint_scale=1.0)
    assert full.model_warming_instructions == 30_000


def test_l1_window_is_paper_sized():
    plan = SamplingPlan(n_instructions=1_000_000, n_regions=2)
    spec = plan.regions()[0]
    assert spec.region_start - spec.l1_warming_start == 30_000
    assert spec.region_start - spec.warming_start == (
        plan.model_warming_instructions)
    assert spec.paper_warming_instructions == 30_000


def test_l1_window_clamped_to_gap():
    plan = SamplingPlan(n_instructions=80_000, n_regions=2,
                        warming_instructions=30_000)
    second = plan.regions()[1]
    assert second.l1_warming_start >= second.warmup_start


def test_too_small_gap_rejected():
    with pytest.raises(ValueError):
        SamplingPlan(n_instructions=40_000, n_regions=4,
                     footprint_scale=1.0)


def test_zero_regions_rejected():
    with pytest.raises(ValueError):
        SamplingPlan(n_instructions=1000, n_regions=0)


# -- the scale model ----------------------------------------------------------
#
# Each conversion is pinned, under ``==`` on floats, to the inline
# expression it replaced, where the projection factor was the cost
# meter's ``scale`` (always built from the run's plan) and the boosts,
# the calibration and the stop cap were constructor defaults.


def _plans():
    with LiveRunner(600_000, paper_hierarchy(8 << 20)) as runner:
        live = [runner.plan_for(1), runner.plan_for(7)]
    return [SamplingPlan(6_000_000), *live,
            SamplingPlan(6_000_000, footprint_scale=1 / 16)]


@pytest.mark.parametrize("plan", _plans(),
                         ids=["default", "live-1", "live-7", "scale-1/16"])
def test_conversions_equal_the_inline_expressions(plan):
    scale = CostMeter(scale=plan.scale).scale
    footprint = plan.footprint_scale
    for region in plan.regions()[:3]:
        paper_gap = region.gap_instructions * scale
        assert plan.paper_gap(region) == paper_gap
        for explorer in DEFAULT_EXPLORERS:
            gap = region.region_start - region.warmup_start
            window = max(1, int(round(gap * explorer.model_gap_fraction)))
            start = max(region.warmup_start, region.region_start - window)
            model_window = region.region_start - start
            assert plan.explorer_window(explorer, region) == (
                start, model_window)
            paper_window = min(explorer.paper_instructions, paper_gap)
            assert plan.paper_window(explorer, region) == paper_window
            assert plan.stop_projection(paper_window, model_window) == (
                paper_window / max(model_window, 1) * footprint)
            assert plan.vicinity_paper_samples(
                7_919, model_window, explorer.paper_instructions,
                1e-5) == (explorer.paper_instructions
                          * (7_919 / model_window) * 1e-5)
        assert plan.stop_projection(paper_gap, region.gap_instructions) == (
            paper_gap / max(region.gap_instructions, 1) * footprint)
    stops = np.array([0, 1, 3, 63, 64, 65, 977, 12_345], dtype=np.int64)
    for found in (True, False):
        expected = [min(s, 64) if found else min(s * scale * footprint, 64)
                    for s in stops.tolist()]
        assert plan.projected_stops(
            np.full(stops.shape, found), stops).tolist() == expected
    for n in (1, 4_111, 250_000):
        for density in (1e-5, 1.0 / 40_000, 1.0 / 10_000):
            assert plan.vicinity_expected(n, density) == n * density * 200.0
            assert plan.vicinity_expected(n, density, naive=True) == (
                n * density * 1000.0)
            assert plan.coolsim_expected(n, density) == (
                n * (density * 2.5) * 400.0)
    assert plan.coolsim_sample_weight() == scale / 400.0
    for collected in (0, 1, 33_333):
        assert plan.coolsim_paper_samples(collected) == (
            collected / 400.0 * plan.scale)


def test_live_projections_are_watermark_invariant():
    _, first, seventh, _ = _plans()
    region = first.regions()[0]
    assert seventh.regions()[0] == region
    for name in ("paper_gap", "coolsim_sample_weight"):
        args = (region,) if name == "paper_gap" else ()
        assert getattr(first, name)(*args) == getattr(seventh, name)(*args)
    for explorer in DEFAULT_EXPLORERS:
        assert first.paper_window(explorer, region) == (
            seventh.paper_window(explorer, region))
    stops = np.arange(200, dtype=np.int64)
    for found in (True, False):
        mask = np.full(stops.shape, found)
        assert np.array_equal(first.projected_stops(mask, stops),
                              seventh.projected_stops(mask, stops))


def test_censoring_boundaries():
    plan = SamplingPlan(1_000_000, n_regions=4)
    horizon = (1_000 + 5_001) // 2
    kept = plan.vicinity_keeps_dangling(
        np.array([horizon - 1, horizon, horizon + 1]), 1_000, 5_001)
    assert kept.tolist() == [True, True, False]
    region = plan.regions()[1]
    gap_mid = (region.warmup_start + region.region_start) // 2
    kept = plan.coolsim_keeps_dangling(
        region, np.array([gap_mid - 1, gap_mid, gap_mid + 1]))
    assert kept.tolist() == [True, False, False]


def test_keyed_identities_are_pinned():
    """A new plan or Explorer field, or a new warm-up key entry, moves
    every stored bundle's address: these digests must not move
    silently."""
    assert fingerprint(SamplingPlan(6_000_000)) == (
        "f5391df6b5d135ff17aa51fcc7145948e62c358cf1913a33c3e38d9afcb0ab8d")
    assert fingerprint(list(DEFAULT_EXPLORERS)) == (
        "40d0b00f90f9da0e798aac026ffcf6996abb88fc580969a18c9bbf6994198a57")
    workload = make_small_workload()
    plan = SamplingPlan(n_instructions=120_000, n_regions=2)
    keys = {}
    for strategy in (DeLorean(), DesignSpaceExploration()):
        pipeline = WarmupPipeline(
            strategy.vicinity_rng, ExecutionContext(workload, seed=7), plan,
            strategy.explorer_specs, strategy.vicinity_density,
            CostMeter(scale=plan.scale))
        keys[strategy.name] = fingerprint(pipeline.key)
    assert keys == {
        "DeLorean":
            "e5e7de7e23c7f5efa6f9f3c0d03a7a32fe750f738d29bda0ac5a79dc7bb81604",
        "DeLorean-DSE":
            "1a1429204c25fb76ca31b8cbbc4b683cf6b5e99f1c57a34c0dd2466c90000f55",
    }
