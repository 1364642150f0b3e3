"""Vicinity reuse-distance sampling.

Besides the key reuse distances themselves, DSW needs the *vicinity*
reuse-distance distribution — reuses in the neighbourhood of the key
reuses — to drive the StatStack conversion from reuse to stack distance
(Section 3.1.1).  Every engaged Explorer samples randomly selected memory
accesses inside its profiling window at a fixed rate (the paper default
is 1 per 100 k memory instructions; Figure 11 sweeps this density) and
records each sample's forward reuse distance with a short-lived
watchpoint.

The run's :class:`~repro.sampling.plan.SamplingPlan` sets the collected
density, the paper-scale charges and which dangling samples are cold.
"""

import numpy as np

from repro.vff.watchpoint import count_samples

#: Paper default: one vicinity sample per 100 k memory instructions.
DEFAULT_DENSITY = 1.0 / 100_000


class VicinitySampler:
    """Random forward-reuse sampling inside Explorer windows (``naive``:
    in NaiveDSW's full-gap window, at its collected density)."""

    def __init__(self, machine, plan, density=DEFAULT_DENSITY, rng=None,
                 naive=False):
        self.machine = machine
        self.plan = plan
        self.density = float(density)
        self.naive = bool(naive)
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
        plan = self.plan
        n_accesses = access_hi - access_lo
        if n_accesses <= 0 or model_window_instructions <= 0:
            return 0

        expected = plan.vicinity_expected(n_accesses, self.density,
                                          self.naive)
        n_samples = int(self.rng.poisson(expected)) if expected > 0 else 0
        if n_samples == 0:
            return 0

        paper_samples = plan.vicinity_paper_samples(
            n_accesses, model_window_instructions,
            paper_window_instructions, self.density)
        per_sample_weight = paper_samples / n_samples

        positions = np.sort(self.rng.integers(
            access_lo, access_hi, size=n_samples))
        batch = machine.watchpoints.resolve_samples(
            positions, access_limit,
            plan.vicinity_keeps_dangling(positions, access_lo, access_limit),
            plan)
        histogram.add_many(batch.distances[batch.kept])
        count_samples("vicinity.samples", *batch.tally())
        machine.meter.watchpoint_setups(paper_samples, scaled=False)
        machine.meter.watchpoint_stops(
            batch.projected_stops * per_sample_weight, scaled=False)

        self.collected_model += n_samples
        self.collected_paper_equivalent += paper_samples
        return n_samples
