"""Page-protection watchpoint engine.

Models the mechanism of Section 2.3: a watchpoint on a cacheline protects
the whole enclosing 4 KiB page; *any* access to the page stops execution
(a KVM exit).  A stop on the watched line itself is a true positive;
stops from other lines in the page are false positives.  False positives
are pure overhead and — for workloads whose long-reuse lines share pages
with hot lines (povray) — the dominant cost of directed profiling.

The engine answers, for a window of execution with a set of lines
watched: which watched lines were accessed (and when, last), and how many
stops (true + false) the run took.  Everything is derived from the
:class:`~repro.vff.index.TraceIndex` oracle rather than by stepping the
window access-by-access: a window profile is one window query per
granularity on every kernel backend, and the index picks the query's
per-key reference or its batched search.
"""

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro import kernels, telemetry


@dataclass
class WatchpointProfile:
    """Result of profiling one window with a set of watched lines."""

    #: line -> access position of its *last* access inside the window.
    last_access: dict = field(default_factory=dict)
    #: Watched lines never accessed inside the window.
    unresolved: tuple = ()
    #: Stops on watched lines (every access to them stops execution).
    true_stops: int = 0
    #: Stops caused by page sharing only.
    false_stops: int = 0

    @property
    def total_stops(self):
        return self.true_stops + self.false_stops


class SampledReuses(NamedTuple):
    """One batch of sampled watchpoints, resolved; arrays align with the
    samples (see :meth:`WatchpointEngine.resolve_samples`)."""

    #: Next access position of each sample's line before the limit
    #: (-1: the watchpoint is still dangling at the limit).
    reuses: np.ndarray
    #: Reuse distance of each sample; -1 marks a dangling one.
    distances: np.ndarray
    #: The samples to record: every resolved one, and each dangling one
    #: the caller's censoring rule keeps as a cold sample.
    kept: np.ndarray
    #: Total projected stops of the batch, summed in sample order.
    projected_stops: float

    def tally(self):
        """``(resolved, dangling, censored)``: samples that found their
        reuse, dangling ones kept as cold, dangling ones dropped."""
        resolved = int(np.count_nonzero(self.reuses >= 0))
        kept = int(np.count_nonzero(self.kept))
        return resolved, kept - resolved, self.kept.shape[0] - kept


def count_samples(prefix, resolved, dangling, censored):
    """Count one batch of sampled watchpoints as ``<prefix>.resolved``,
    ``.dangling`` (kept as cold) and ``.censored`` (dropped)."""
    s = telemetry.session()
    if s is not None:
        s.count(f"{prefix}.resolved", resolved)
        s.count(f"{prefix}.dangling", dangling)
        s.count(f"{prefix}.censored", censored)


class WatchpointEngine:
    """Watchpoint semantics over a trace index."""

    def __init__(self, index):
        self.index = index

    def profile_window(self, watched_lines, access_lo, access_hi):
        """Keep watchpoints on ``watched_lines`` armed over a window.

        The window is ``[access_lo, access_hi)`` in memory-access
        coordinates.  Watchpoints stay armed for the whole window (the
        profiler needs each line's *last* access — Section 3.3, "the
        watchpoints need to be on during the entire warm-up interval").
        """
        watched = np.unique(np.asarray(list(watched_lines), dtype=np.int64))
        profile = WatchpointProfile()
        if watched.size == 0 or access_hi <= access_lo:
            profile.unresolved = tuple(int(l) for l in watched)
            return profile

        s = telemetry.session()
        t0 = time.perf_counter() if s is not None else 0.0
        counts, last = self.index.window_access_counts(
            watched, access_lo, access_hi)
        if s is not None:
            s.add_time("kernel.watchpoint_profile",
                       time.perf_counter() - t0)
        true_stops = int(counts.sum())
        resolved = counts > 0
        profile.last_access = dict(
            zip(watched[resolved].tolist(), last[resolved].tolist()))
        unresolved = watched[~resolved].tolist()

        pages = self.index.pages_of_lines(watched)
        page_stops = self.index.page_stops_in(pages, access_lo, access_hi)
        profile.true_stops = true_stops
        profile.false_stops = max(0, page_stops - true_stops)
        profile.unresolved = tuple(unresolved)
        return profile

    def await_next_reuse(self, line, access_position, access_limit):
        """Arm a watchpoint on ``line`` right after ``access_position`` and
        run until its next access or ``access_limit``.

        Returns ``(reuse_position, stops)`` where ``reuse_position`` is -1
        if the line is not reused before the limit.  ``stops`` counts all
        page stops taken while waiting (the final true stop included).
        This is the RSW/vicinity sampling primitive: the watchpoint is
        removed at the first reuse (Section 2.3).
        """
        next_pos = self.index.next_access_after(line, access_position)
        if next_pos < 0 or next_pos >= access_limit:
            window_end = access_limit
            reuse = -1
        else:
            window_end = next_pos + 1
            reuse = next_pos
        page = self.index.page_of_line(line)
        stops = self.index.pages.count_in(
            page, access_position + 1, window_end)
        return reuse, stops

    def await_next_reuse_many(self, access_positions, access_limit):
        """Batched :meth:`await_next_reuse` for watchpoints armed at
        many sampled access positions (the line is the one accessed at
        each position).  Returns aligned ``(reuse, stops)`` arrays with
        identical values to the per-sample loop.
        """
        return self.index.batch_await_reuse(access_positions, access_limit)

    def resolve_samples(self, access_positions, access_limit, keep_dangling,
                        plan):
        """Resolve a batch of sampled watchpoints (CoolSim's gap
        profiling, vicinity sampling): each, armed at a sorted sampled
        position, runs until its line's next access or ``access_limit``
        — in one batch (:meth:`await_next_reuse_many`), or on
        ``scalar`` one at a time (:meth:`await_next_reuse`, the
        reference).  ``plan`` projects each sample's stops, summed in
        sample order; ``keep_dangling`` is the plan's censoring rule.
        Returns :class:`SampledReuses`.
        """
        positions = np.asarray(access_positions, dtype=np.int64)
        if kernels.get_backend() == "scalar":
            lines = self.index.trace.mem_line
            pairs = [self.await_next_reuse(int(lines[pos]), pos,
                                           access_limit)
                     for pos in positions.tolist()]
            reuses = np.array([reuse for reuse, _ in pairs], dtype=np.int64)
            stops = np.array([stop for _, stop in pairs], dtype=np.int64)
        else:
            reuses, stops = self.await_next_reuse_many(positions,
                                                       access_limit)
        found = reuses >= 0
        projected = plan.projected_stops(found, stops)
        # np.cumsum accumulates in order, so the float total equals a
        # per-sample loop's; a pairwise np.sum could differ in the last
        # bits.
        total = float(np.cumsum(np.concatenate(([0.0], projected)))[-1])
        return SampledReuses(
            reuses=reuses,
            distances=np.where(found, reuses - positions - 1, -1),
            kept=found | keep_dangling,
            projected_stops=total)
