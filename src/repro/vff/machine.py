"""Virtual machine facade: mode-switched execution over a trace.

A :class:`VirtualMachine` couples one workload trace with a cost meter
and the watchpoint engine, exposing the execution modes the paper's
passes switch between:

* ``fast_forward`` — KVM-style virtualized fast-forwarding (no
  microarchitectural visibility, near-native speed);
* ``functional_warm`` — functional simulation that also updates a cache
  hierarchy (SMARTS's warming mode);
* ``detailed`` — cycle-accurate detailed simulation (the slow mode);
* ``switch_state`` / ``sync`` — the KVM <-> gem5 state transfer at a
  region boundary and the pipe synchronization between passes.

Directed profiling runs on the machine's
:class:`~repro.vff.watchpoint.WatchpointEngine` (``watchpoints``); each
pass charges its own profiling costs on the machine's meter (atomic
functional simulation included), at the paper geometry it projects to.

Each pass of a time-traveling run owns its own ``VirtualMachine`` (the
paper runs each pass as a separate gem5/KVM process); the shared
:class:`~repro.vff.index.TraceIndex` is passed in so the oracle is built
once per workload.
"""

from repro.vff.costmodel import CostMeter
from repro.vff.index import TraceIndex
from repro.vff.watchpoint import WatchpointEngine


class VirtualMachine:
    """One simulated gem5+KVM process executing a fixed trace."""

    def __init__(self, trace, meter=None, index=None):
        self.trace = trace
        self.meter = meter if meter is not None else CostMeter()
        self.index = index if index is not None else TraceIndex(trace)
        self.watchpoints = WatchpointEngine(self.index)

    # -- instruction-window modes -----------------------------------------

    def fast_forward(self, instr_lo, instr_hi, scaled=True):
        """Advance ``[instr_lo, instr_hi)`` under virtualization."""
        n = max(0, instr_hi - instr_lo)
        return self.meter.fast_forward(n, scaled=scaled)

    def functional_warm(self, hierarchy, instr_lo, instr_hi, scaled=True):
        """Functional simulation that warms ``hierarchy`` (SMARTS mode).

        Returns ``(l1_hits, llc_hits, mem_misses)`` over the window.
        """
        n = max(0, instr_hi - instr_lo)
        self.meter.functional_warm(n, scaled=scaled)
        lo, hi = self.trace.access_range(instr_lo, instr_hi)
        return hierarchy.warm(self.trace.mem_line[lo:hi])

    def detailed(self, instr_lo, instr_hi):
        """Charge detailed simulation for a region (never scale-projected:
        regions keep their paper size)."""
        n = max(0, instr_hi - instr_lo)
        return self.meter.detailed(n, scaled=False)

    # -- region boundaries ----------------------------------------------------

    def switch_state(self):
        """KVM <-> gem5 full-system state transfer at a region boundary."""
        return self.meter.state_transfer()

    def sync(self):
        """OS-pipe synchronization with a neighbouring pass."""
        return self.meter.pipe_sync()
