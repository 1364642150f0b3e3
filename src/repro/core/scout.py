"""The Scout pass: look into the future for the key cachelines.

The Scout fast-forwards (VFF) to each detailed region and switches to
functional simulation to record the *key cachelines* — all unique
cachelines referenced in the region (Section 3.2).  Because reaching the
region means passing through the 30 k-instruction detailed-warming
window, the Scout also observes, for free, the last warm-up access of any
key line that was touched inside that window; such lines need no Explorer
at all (this is why bwaves averages fewer than one engaged Explorer in
Figure 8 — nearly all of its key reuses sit within the warming window or
the lukewarm cache).  One batched window query over the warming window
resolves every key line at once.  The report also holds the one
key-reuse-distance rule (:meth:`ScoutReport.key_reuse_distances`):
DeLorean's warm-up applies it to the Explorers' last accesses, NaiveDSW
to its full-gap profile's.
"""

from dataclasses import dataclass, field


@dataclass
class ScoutReport:
    """Key-cacheline information for one detailed region."""

    region_index: int
    #: line -> access index of its *first* access inside the region.
    key_first_access: dict = field(default_factory=dict)
    #: line -> access index of its last warm-up access, for lines already
    #: resolved inside the detailed-warming window.
    warming_resolved: dict = field(default_factory=dict)
    #: Access-coordinate bounds of the region.
    region_access_lo: int = 0
    region_access_hi: int = 0

    @property
    def key_lines(self):
        return list(self.key_first_access)

    @property
    def n_key_lines(self):
        return len(self.key_first_access)

    @property
    def unresolved_after_warming(self):
        """Key lines whose last reuse precedes the warming window."""
        return [line for line in self.key_first_access
                if line not in self.warming_resolved]

    def key_reuse_distances(self, last_access):
        """Map each key line to its backward reuse distance (in accesses)
        given ``last_access`` (line -> its last warm-up access).

        Lines without a last access map to ``-1`` (cold).
        """
        distances = {}
        for line, first in self.key_first_access.items():
            last = last_access.get(line)
            if last is None:
                distances[line] = -1
            else:
                distances[line] = int(first - last - 1)
        return distances


class ScoutPass:
    """Runs ahead of the Explorers, one region at a time."""

    name = "scout"

    def __init__(self, context, machine):
        #: The run's :class:`~repro.core.context.ExecutionContext`: the
        #: region and warming windows come from it.
        self.context = context
        self.machine = machine

    def run_region(self, spec):
        """Produce the :class:`ScoutReport` for one region spec."""
        machine = self.machine
        # Near-native fast-forward across the gap...
        machine.fast_forward(spec.warmup_start, spec.warming_start)
        # ...then functional simulation through warming + region (cost
        # charged at the paper's 30 k + 10 k instructions; cheap even at
        # atomic speed).
        machine.meter.atomic(
            spec.paper_warming_instructions
            + (spec.region_end - spec.region_start), scaled=False)

        region = self.context.region_window(spec)
        unique_lines, first_idx = region.unique_lines()

        report = ScoutReport(
            region_index=spec.index,
            region_access_lo=region.lo,
            region_access_hi=region.hi,
        )
        warming = self.context.warming_window(spec)
        # One window query resolves every key line's last warming-window
        # access; accesses outside the warming window cost nothing.
        _, last_access = machine.index.lines.batch_counts_and_last(
            unique_lines, warming.lo, region.lo)
        for line, first, last in zip(unique_lines.tolist(),
                                     first_idx.tolist(),
                                     last_access.tolist()):
            report.key_first_access[line] = region.lo + first
            if last >= 0:
                report.warming_resolved[line] = last
        machine.sync()       # hand the key set to Explorer-1 over a pipe
        return report
