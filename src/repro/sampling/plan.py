"""The scale model: where detailed regions sit, and what a scaled run
stands for at paper scale.  Every model-to-paper conversion lives here,
as a :class:`SamplingPlan` method or a module constant; strategies take
the run's plan and derive no projection themselves.

**Two scales.**  The paper runs 10 regions of 10 k instructions 1 B
instructions apart, each after 30 k instructions of detailed warming
(Section 5).  A model run keeps the region and warming sizes and
shrinks the gap to ``n_instructions // n_regions`` (600 k by default),
so its time scale is ``scale = paper_gap / gap`` (1,667).  Footprints
shrink by ``footprint_scale`` (:data:`~repro.trace.spec.DEFAULT_SCALE`,
1/64): working sets and LLCs are sized by it before any plan exists
(``ComponentSpec.model_lines``, ``paper_hierarchy``), L1s by a milder
``l1_scale``.

**What is preserved.**  Working-set to cache ratios, hence hit and miss
behaviour, key lines and reuse distances relative to capacity; and the
lukewarm LLC's fill fraction, as its detailed warming window is
footprint-scaled (:attr:`~SamplingPlan.model_warming_instructions`).
Not preserved: the gap relative to the footprint.  Per-line and
per-page events run ``1/footprint_scale`` times hotter per instruction
than at paper scale.

**Cost projection.**  ``CostMeter(scale=plan.scale)`` multiplies
gap-proportional charges by ``scale``; the rest is charged at paper
geometry.  A gap stands for ``paper_gap = gap * scale`` instructions.
Explorer ``e`` profiles the last ``round(gap * e.model_gap_fraction)``
model instructions (at least 1, within the gap) and is charged for
``min(e.paper_instructions, paper_gap)``.  Watchpoints armed over a
window stop at every access to their pages, which run
``1/footprint_scale`` hotter, so a model stop over ``model_window``
instructions stands for ``paper_window / max(model_window, 1) *
footprint_scale`` paper stops (Explorers; NaiveDSW over the whole gap).
A sampled watchpoint (RSW, vicinity) that finds its reuse took a
footprint-driven, scale-invariant ``min(stops, STOP_CAP)``; one still
dangling at the region waited out the rest of the gap, ``min(stops *
scale * footprint_scale, STOP_CAP)``.  Real RSW gives a watchpoint up
after :data:`STOP_CAP` stops.

**Sample boosts.**  Densities are per paper memory instruction, too
few for a model gap, so samplers collect ``density * boost`` and
charge and report the paper density.  Vicinity sampling collects
``n_accesses * density * boost`` per window (:data:`VICINITY_BOOST` in
each Explorer window of DeLorean and a sweep,
:data:`NAIVE_VICINITY_BOOST` in NaiveDSW's full-gap window) and reports
the paper density over the paper window at the window's access rate.
CoolSim collects ``n_accesses * (density * COOLSIM_CALIBRATION) *
COOLSIM_BOOST`` per schedule segment; the calibration fits Figure 6
(~34 k reuse distances per region, where the schedule gives ~13.5 k).
A CoolSim sample is charged as ``scale / COOLSIM_BOOST`` paper samples,
and the result reports ``collected / COOLSIM_BOOST * scale``.

**Censoring.**  Three rules decide what a reuse not seen before the
region means, and they disagree (ROADMAP direction 3 makes them one
horizon).  An Explorer key line found nowhere in the gap is cold.  A
dangling vicinity sample is cold only if set in the first half of its
watch, ``pos <= (access_lo + access_limit) // 2`` in access
coordinates (kept exactly at the horizon).  A dangling CoolSim sample
is cold only if set before the gap's midpoint, ``mem_instr < gap_mid``
in instruction coordinates (dropped exactly at ``gap_mid``).  A later
sample's wait was cut short by the region, and counting it cold would
inflate the cold tail; a dropped sample still pays its stops.

Keep each expression's float association: ledger floats reach every
result digest, and ``stops * scale * footprint_scale`` differs from
``stops * (scale * footprint_scale)`` in the last bit.
"""

from dataclasses import dataclass

import numpy as np

from repro.trace.spec import DEFAULT_SCALE

PAPER_GAP_INSTRUCTIONS = 1_000_000_000
PAPER_REGION_INSTRUCTIONS = 10_000
PAPER_WARMING_INSTRUCTIONS = 30_000

#: Collected samples per paper-density sample: vicinity sampling in an
#: Explorer window and in NaiveDSW's window, and CoolSim.
VICINITY_BOOST = 200.0
NAIVE_VICINITY_BOOST = 1000.0
COOLSIM_BOOST = 400.0
#: CoolSim's sampling volume, calibrated to Figure 6.
COOLSIM_CALIBRATION = 2.5
#: Page stops after which a sampled watchpoint is abandoned.
STOP_CAP = 64


@dataclass(frozen=True)
class RegionSpec:
    """One detailed region and its surrounding windows (instruction coords).

    ``warmup_start`` is the end of the previous region: the statistical
    warm-up interval is ``[warmup_start, region_start)``; detailed warming
    covers ``[warming_start, region_start)``; the detailed region is
    ``[region_start, region_end)``.

    ``paper_warming_instructions`` is what the detailed-warming window
    costs at paper scale; the *model* window is footprint-scaled, and
    the L1's (``l1_warming_start``) keeps the paper's size.
    """

    index: int
    warmup_start: int
    warming_start: int
    region_start: int
    region_end: int
    paper_warming_instructions: int = PAPER_WARMING_INSTRUCTIONS
    #: The paper's detailed warming fully warms the real L1 (only the
    #: LLC is statistically warmed); 30 k instructions warm our
    #: milder-scaled L1 just as completely.
    l1_warming_start: int = None

    def __post_init__(self):
        if self.l1_warming_start is None:
            object.__setattr__(
                self, "l1_warming_start",
                max(self.warmup_start,
                    self.region_start - self.paper_warming_instructions))

    @property
    def gap_instructions(self):
        return self.region_start - self.warmup_start


@dataclass(frozen=True)
class SamplingPlan:
    """Uniform placement of ``n_regions`` across ``n_instructions``, and
    the run's paper projections, which depend on the gap only: a live
    feed's growing plans (one more region per watermark) share them.
    """

    n_instructions: int
    n_regions: int = 10
    region_instructions: int = PAPER_REGION_INSTRUCTIONS
    warming_instructions: int = PAPER_WARMING_INSTRUCTIONS
    paper_gap_instructions: int = PAPER_GAP_INSTRUCTIONS
    footprint_scale: float = DEFAULT_SCALE

    def __post_init__(self):
        if self.n_regions <= 0:
            raise ValueError("need at least one region")
        if self.gap_instructions <= (
                self.region_instructions + self.model_warming_instructions):
            raise ValueError(
                "inter-region gap too small for region + detailed warming")

    @property
    def gap_instructions(self):
        """Model-scale spacing between region ends."""
        return self.n_instructions // self.n_regions

    @property
    def model_warming_instructions(self):
        """Footprint-scaled detailed-warming window of the LLC."""
        return max(64, int(round(
            self.warming_instructions * self.footprint_scale)))

    @property
    def scale(self):
        """Paper-gap / model-gap projection factor for cost meters."""
        return self.paper_gap_instructions / self.gap_instructions

    @property
    def paper_equivalent_instructions(self):
        """Instruction count the plan projects to at paper scale."""
        return self.n_regions * self.paper_gap_instructions

    def regions(self):
        """The region specs, in execution order."""
        gap = self.gap_instructions
        specs = []
        previous_end = 0
        for m in range(self.n_regions):
            region_end = (m + 1) * gap
            region_start = region_end - self.region_instructions
            warming_start = region_start - self.model_warming_instructions
            specs.append(RegionSpec(
                index=m,
                warmup_start=previous_end,
                warming_start=warming_start,
                region_start=region_start,
                region_end=region_end,
                paper_warming_instructions=self.warming_instructions,
            ))
            previous_end = region_end
        return specs

    # -- projections (derived in the module docstring) --------------------

    def paper_gap(self, region):
        """Paper instructions ``region``'s warm-up gap stands for."""
        return region.gap_instructions * self.scale

    def explorer_window(self, explorer, region):
        """``(start, model_instructions)`` of an ``ExplorerSpec``'s
        window before ``region``."""
        window = max(1, int(round(
            region.gap_instructions * explorer.model_gap_fraction)))
        start = max(region.warmup_start, region.region_start - window)
        return start, region.region_start - start

    def paper_window(self, explorer, region):
        """Paper instructions an Explorer's window is charged for."""
        return min(explorer.paper_instructions, self.paper_gap(region))

    def stop_projection(self, paper_window, model_window):
        """Paper stops per model stop of a window's watchpoints."""
        return paper_window / max(model_window, 1) * self.footprint_scale

    def projected_stops(self, found, stops):
        """Per-sample paper stops of sampled watchpoints."""
        return np.where(
            found, np.minimum(stops, STOP_CAP),
            np.minimum(stops * self.scale * self.footprint_scale, STOP_CAP))

    def vicinity_expected(self, n_accesses, density, naive=False):
        """Expected vicinity samples collected over ``n_accesses``
        (``naive``: NaiveDSW's window)."""
        boost = NAIVE_VICINITY_BOOST if naive else VICINITY_BOOST
        return n_accesses * density * boost

    def vicinity_paper_samples(self, n_accesses, model_window,
                               paper_window, density):
        """Paper vicinity samples of a window's ``n_accesses``."""
        access_rate = n_accesses / model_window
        return paper_window * access_rate * density

    def vicinity_keeps_dangling(self, positions, access_lo, access_limit):
        """Which vicinity samples count as cold if dangling."""
        censor_horizon = (access_lo + access_limit) // 2
        return positions <= censor_horizon

    def coolsim_expected(self, n_accesses, density):
        """Expected CoolSim samples over a schedule segment."""
        return n_accesses * (density * COOLSIM_CALIBRATION) * COOLSIM_BOOST

    def coolsim_sample_weight(self):
        """Paper samples one collected CoolSim sample is charged as."""
        return self.scale / COOLSIM_BOOST

    def coolsim_paper_samples(self, collected):
        """Paper-equivalent count of ``collected`` CoolSim samples."""
        return collected / COOLSIM_BOOST * self.scale

    def coolsim_keeps_dangling(self, region, sample_instr):
        """Which CoolSim samples count as cold if dangling."""
        gap_mid = (region.warmup_start + region.region_start) // 2
        return sample_instr < gap_mid
