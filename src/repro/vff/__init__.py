"""Virtualized execution substrate.

The paper runs on gem5 + KVM: hardware virtualization fast-forwards
between detailed regions at near-native speed, and OS page-protection
watchpoints implement virtualized directed profiling.  We have neither
KVM nor the SPEC binaries, so this package substitutes a *trace-driven
virtual machine* with an explicit host cost model:

* :class:`~repro.vff.costmodel.HostCostParameters` /
  :class:`~repro.vff.costmodel.CostMeter` — charge modeled host time per
  instruction (by execution mode) and per event (watchpoint stops, state
  transfers), with paper-scale projection for gap-proportional quantities
  (the scale model of :mod:`repro.sampling.plan`).
* :class:`~repro.vff.index.TraceIndex` — per-line and per-page access
  position indices; the oracle that tells us which watchpoint stops a
  real run would have taken.
* :class:`~repro.vff.watchpoint.WatchpointEngine` — page-granularity
  watchpoint semantics with true/false-positive accounting.
* :class:`~repro.vff.machine.VirtualMachine` — the mode-switching facade
  used by sampling strategies and DeLorean passes.
"""

from repro.vff.costmodel import (
    CostMeter,
    HostCostParameters,
    TimeLedger,
)
from repro.vff.index import TraceIndex
from repro.vff.watchpoint import WatchpointEngine, WatchpointProfile
from repro.vff.machine import VirtualMachine

__all__ = [
    "CostMeter",
    "HostCostParameters",
    "TimeLedger",
    "TraceIndex",
    "WatchpointEngine",
    "WatchpointProfile",
    "VirtualMachine",
]
