"""Vicinity reuse-distance sampling.

Besides the key reuse distances themselves, DSW needs the *vicinity*
reuse-distance distribution — reuses in the neighbourhood of the key
reuses — to drive the StatStack conversion from reuse to stack distance
(Section 3.1.1).  Every engaged Explorer samples randomly selected memory
accesses inside its profiling window at a fixed rate (the paper default
is 1 per 100 k memory instructions; Figure 11 sweeps this density) and
records each sample's forward reuse distance with a short-lived
watchpoint.

Scaled-trace handling (DESIGN.md §6): the *collected* density is boosted
by ``density_boost`` so the estimator has enough samples on a short
trace; cost and reported sample counts are charged at the paper-
equivalent density over the explorer's paper-scale window.
"""

import numpy as np

from repro import kernels
from repro.vff.watchpoint import count_samples

#: Paper default: one vicinity sample per 100 k memory instructions.
DEFAULT_DENSITY = 1.0 / 100_000


class VicinitySampler:
    """Random forward-reuse sampling inside explorer windows."""

    def __init__(self, machine, density=DEFAULT_DENSITY, density_boost=1000.0,
                 rng=None, footprint_scale=1.0 / 64.0,
                 max_stops_per_watchpoint=64):
        self.machine = machine
        self.density = float(density)
        self.density_boost = float(density_boost)
        self.footprint_scale = float(footprint_scale)
        #: Dangling vicinity watchpoints (no reuse before the region) are
        #: abandoned after this many page stops, like RSW's.
        self.max_stops_per_watchpoint = int(max_stops_per_watchpoint)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        #: Model-scale samples collected (estimator size).
        self.collected_model = 0
        #: Paper-equivalent samples (what a paper-scale run would collect).
        self.collected_paper_equivalent = 0.0

    def sample_window(self, histogram, access_lo, access_hi, access_limit,
                      paper_window_instructions, model_window_instructions):
        """Sample the window ``[access_lo, access_hi)`` into ``histogram``.

        ``access_limit`` bounds the forward search (the region start: a
        watchpoint still pending there is a cold sample).  Returns the
        number of model-scale samples taken.
        """
        machine = self.machine
        trace = machine.trace
        n_accesses = access_hi - access_lo
        if n_accesses <= 0 or model_window_instructions <= 0:
            return 0

        expected = n_accesses * self.density * self.density_boost
        n_samples = int(self.rng.poisson(expected)) if expected > 0 else 0
        if n_samples == 0:
            return 0

        # Paper-equivalent accounting: the same density over the paper-
        # scale window, at the window's measured access rate.
        access_rate = n_accesses / model_window_instructions
        paper_samples = (paper_window_instructions * access_rate
                         * self.density)
        per_sample_weight = paper_samples / n_samples
        # Stop projection (DESIGN.md §6): a found reuse's page-stop count
        # is footprint-driven and scale-invariant; a dangling watchpoint
        # waits out the rest of the gap, whose paper equivalent is
        # `scale * footprint_scale` times the model count, bounded by the
        # abandonment threshold.
        scale = machine.meter.scale

        positions = np.sort(self.rng.integers(
            access_lo, access_hi, size=n_samples))
        # A watchpoint still dangling at the region boundary observed only
        # a right-censored wait: it is evidence of a *long* reuse only if
        # it watched for at least half the window; later samples are
        # dropped, or they would inflate the distribution's cold tail and
        # push borderline stack distances over the capacity threshold.
        censor_horizon = (access_lo + access_limit) // 2
        cap = self.max_stops_per_watchpoint
        if kernels.get_backend() != "scalar":
            batch = machine.watchpoints.resolve_samples(
                positions, access_limit, positions <= censor_horizon, cap,
                scale, self.footprint_scale)
            histogram.add_many(batch.distances[batch.kept])
            projected_stops = batch.projected_stops
            tally = batch.tally()
        else:
            projected_stops = 0.0
            resolved = dangling = 0
            for pos in positions.tolist():
                reuse_pos, stops = machine.watchpoints.await_next_reuse(
                    int(trace.mem_line[pos]), pos, access_limit)
                if reuse_pos >= 0:
                    histogram.add(reuse_pos - pos - 1)
                    projected_stops += min(stops, cap)
                    resolved += 1
                else:
                    if pos <= censor_horizon:
                        histogram.add_cold()
                        dangling += 1
                    projected_stops += min(
                        stops * scale * self.footprint_scale, cap)
            tally = (resolved, dangling, n_samples - resolved - dangling)
        count_samples("vicinity.samples", *tally)
        machine.meter.watchpoint_setups(paper_samples, scaled=False)
        machine.meter.watchpoint_stops(
            projected_stops * per_sample_weight, scaled=False)

        self.collected_model += n_samples
        self.collected_paper_equivalent += paper_samples
        return n_samples
