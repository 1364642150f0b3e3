"""The Explorer chain: go back in time for the key reuse distances.

Each Explorer re-executes the tail of the warm-up interval with directed
profiling (DP) active, looking for the last access of every key cacheline
the previous passes could not resolve (Section 3.2):

* Explorer-1 profiles a short window via *functional simulation* (gem5's
  atomic CPU) — watchpoints would be wasteful for a dense window where
  most key lines are found quickly.
* Explorer-2..N use *virtualized directed profiling*: near-native
  execution with page-protection watchpoints, paying one stop for every
  access to a protected page (false positives included — the povray
  pathology).

Because each deeper Explorer watches only the lines its predecessors
missed — lines with progressively lower temporal locality — the stop
traffic stays bounded even though the windows grow by orders of
magnitude (Section 3.3, "RSW versus DSW").

In the paper the windows are 5 M / 50 M / 100 M / 1 B instructions before
the region (the last one spanning the whole gap).  On scaled traces the
*model* windows are gap fractions chosen to preserve the band structure
relative to the 30 k-instruction warming window, while *costs* are
charged at the paper's window sizes (both from the run's
:class:`~repro.sampling.plan.SamplingPlan`).
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ExplorerSpec:
    """Geometry of one Explorer's profiling window."""

    #: Fraction of the model-scale gap this Explorer profiles.
    model_gap_fraction: float
    #: Instructions the paper-scale window covers (for cost projection).
    paper_instructions: float
    #: True for Explorer-1's functional-simulation profiling mode.
    functional: bool = False


#: The four-Explorer configuration of Section 3.3 (5M/50M/100M/1B paper
#: windows; model fractions keep warming < reach-1 < ... < reach-4 = gap).
DEFAULT_EXPLORERS = (
    ExplorerSpec(0.05, 5e6, functional=True),
    ExplorerSpec(0.15, 50e6),
    ExplorerSpec(0.40, 100e6),
    ExplorerSpec(1.00, 1e9),
)


@dataclass
class ExplorationResult:
    """Outcome of the Explorer chain for one region."""

    #: line -> access index of its last warm-up access (all resolutions,
    #: including those the Scout found in the warming window).
    last_access: dict = field(default_factory=dict)
    #: Key reuse count resolved per Explorer (index 0 = Explorer-1).
    resolved_by: list = field(default_factory=list)
    #: Key lines not found anywhere in the warm-up interval (treated as
    #: cold: their last use predates the previous region).
    unresolved: tuple = ()
    #: Number of Explorers that actually ran (had work).
    engaged: int = 0
    #: Watchpoint stop accounting (model-scale counts).
    true_stops: int = 0
    false_stops: int = 0


class ExplorerChain:
    """Run the (up to) N Explorer passes for one region."""

    name = "explorers"

    def __init__(self, machines, plan, specs=DEFAULT_EXPLORERS,
                 vicinity_samplers=None):
        if len(machines) != len(specs):
            raise ValueError("one VirtualMachine per ExplorerSpec required")
        self.machines = list(machines)
        self.plan = plan
        self.specs = list(specs)
        self.vicinity_samplers = vicinity_samplers

    def _window(self, spec, region_spec, trace):
        """One Explorer's window geometry for one region:
        ``(access_lo, access_hi, model_window_instructions)``."""
        start, model_window = self.plan.explorer_window(spec, region_spec)
        access_lo, access_hi = trace.access_range(
            start, region_spec.region_start)
        return access_lo, access_hi, model_window

    def plan_regions(self, region_specs, scout_reports):
        """Every Explorer's window profile for each region.

        The one place a region's per-level profiles are computed.  Each
        Explorer watches the key lines the previous levels left
        unresolved, so a region's walk goes level by level with one
        :meth:`~repro.vff.watchpoint.WatchpointEngine.profile_window`
        query per engaged level.  Returns ``planned[region][k]``, with
        ``None`` where Explorer ``k`` stays disengaged.  Pure index
        queries: no machine state, meter or RNG is touched.
        """
        planned = []
        for region_spec, report in zip(region_specs, scout_reports):
            pending = sorted(report.unresolved_after_warming)
            profiles = []
            for machine, spec in zip(self.machines, self.specs):
                if not pending:
                    profiles.append(None)
                    continue
                access_lo, access_hi, _ = self._window(
                    spec, region_spec, machine.trace)
                profile = machine.watchpoints.profile_window(
                    pending, access_lo, access_hi)
                profiles.append(profile)
                pending = list(profile.unresolved)
            planned.append(profiles)
        return planned

    def run_region(self, region_spec, scout_report, vicinity_histogram=None):
        """Collect key reuse distances for one region.

        ``scout_report`` supplies the key lines and the warming-window
        resolutions; the region's window profiles come from
        :meth:`plan_regions`.  Each engaged Explorer then charges its
        pass, samples its window's vicinity and syncs its machine, in
        level order.  Returns an :class:`ExplorationResult`.
        """
        result = ExplorationResult(
            last_access=dict(scout_report.warming_resolved),
            resolved_by=[0] * len(self.specs),
        )
        pending = sorted(scout_report.unresolved_after_warming)
        (profiles,) = self.plan_regions([region_spec], [scout_report])

        for k, (machine, spec, profile) in enumerate(
                zip(self.machines, self.specs, profiles)):
            if profile is None:
                # This Explorer (and all deeper ones) stays disengaged for
                # this region: it simply fast-forwards past it.
                machine.fast_forward(
                    region_spec.warmup_start, region_spec.region_start)
                continue
            result.engaged = k + 1
            access_lo, access_hi, model_window = self._window(
                spec, region_spec, machine.trace)
            self._charge(machine, spec, region_spec, profile, model_window)

            if spec.functional:
                # Functional simulation sees every access: no watchpoint
                # traffic, no false positives.
                pass
            else:
                result.true_stops += profile.true_stops
                result.false_stops += profile.false_stops

            for line, last in profile.last_access.items():
                result.last_access[line] = last
            result.resolved_by[k] = len(profile.last_access)
            pending = list(profile.unresolved)

            if vicinity_histogram is not None and self.vicinity_samplers:
                self.vicinity_samplers[k].sample_window(
                    vicinity_histogram, access_lo, access_hi,
                    scout_report.region_access_lo,
                    paper_window_instructions=spec.paper_instructions,
                    model_window_instructions=model_window,
                )
            machine.sync()

        result.unresolved = tuple(pending)
        return result

    def _charge(self, machine, spec, region_spec, profile, model_window):
        """Charge this Explorer's pass over one gap at paper geometry."""
        meter = machine.meter
        paper_gap = self.plan.paper_gap(region_spec)
        paper_window = self.plan.paper_window(spec, region_spec)
        # Fast-forward to the window start, then profile the window.
        meter.fast_forward(paper_gap - paper_window, scaled=False)
        if spec.functional:
            meter.atomic(paper_window, scaled=False)
        else:
            meter.fast_forward(paper_window, scaled=False)
            meter.watchpoint_stops(
                profile.total_stops
                * self.plan.stop_projection(paper_window, model_window),
                scaled=False)
        meter.watchpoint_setups(
            len(profile.last_access) + len(profile.unresolved), scaled=False)
