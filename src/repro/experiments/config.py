"""Experiment configuration: the scaled equivalent of Section 5's setup."""

from dataclasses import dataclass, field

from repro.sampling.plan import SamplingPlan
from repro.trace.spec import DEFAULT_SCALE
from repro.util.units import MIB


@dataclass(frozen=True)
class ExperimentConfig:
    """Scaled stand-in for the paper's experimental setup (Section 5).

    Paper: 10 detailed regions of 10 k instructions spread 1 B apart over
    10 B instructions, 30 k detailed warming, LLC 1-512 MiB.  Scaled run:
    same regions, gap shrunk to ``n_instructions / n_regions``, all
    footprints (working sets, caches, warming window) scaled by
    ``footprint_scale``; :mod:`repro.sampling.plan` derives the cost
    projection.
    """

    n_instructions: int = 6_000_000
    n_regions: int = 10
    footprint_scale: float = DEFAULT_SCALE
    seed: int = 1
    #: Paper-equivalent LLC size used by the single-size experiments
    #: (Figures 5-9, 11, 12 use 8 MiB; Figure 10 uses 512 MiB).
    llc_paper_bytes: int = 8 * MIB
    #: Paper-equivalent LLC sizes of the working-set / DSE sweeps
    #: (Figures 13 and 14).
    sweep_llc_paper_bytes: tuple = tuple(
        (1 << k) * MIB for k in range(10))     # 1 MiB .. 512 MiB
    #: Benchmarks to evaluate (None = the full 24-benchmark suite).
    names: tuple = None

    def plan(self):
        """The sampling plan for this configuration."""
        return SamplingPlan(
            n_instructions=self.n_instructions,
            n_regions=self.n_regions,
            footprint_scale=self.footprint_scale,
        )

    def with_options(self, **changes):
        """A modified copy (dataclasses.replace wrapper)."""
        from dataclasses import replace
        return replace(self, **changes)

    def cache_key(self):
        """Hashable identity for memoizing runs."""
        return (self.n_instructions, self.n_regions, self.footprint_scale,
                self.seed, self.llc_paper_bytes, self.names)


#: A small configuration for tests and quick demos.
QUICK = ExperimentConfig(
    n_instructions=1_200_000,
    n_regions=4,
    names=("perlbench", "bwaves", "mcf"),
)
