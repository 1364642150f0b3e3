"""Execution context: the uniform resource bundle every strategy runs on.

Historically each strategy took a loose ``(workload, index, store,
seed)`` tuple, reached into ``workload.trace`` for raw arrays, and
sliced them ad hoc.  That plumbing is what forced streamed traces to
behave like materialized ones.  :class:`ExecutionContext` owns the
execution-side resources of one run:

* the **workload** (whose trace may be a memory-mapped
  :class:`~repro.traceio.reader.TraceReader` view rather than RAM
  arrays);
* the **TraceIndex**, built lazily under the spill policy
  (``REPRO_INDEX_SPILL``) inside a ``phase.index`` telemetry span:
  streamed traces get a bounded, store-spilled, memory-mapped index so
  queries never require the O(accesses) tables in RAM (the suite
  runner's contexts build and own theirs this way);
* the artifact **store** and the run **seed** (strategies derive their
  RNG streams through :meth:`rng`).

Strategies read trace data exclusively through :class:`AccessWindow`
slices (:meth:`ExecutionContext.window` and the region-shaped helpers),
so the only trace pages a run touches are the windows its sampling plan
— and its watchpoints — direct it to.  On a memory-mapped trace the
views stay zero-copy; on a materialized trace they are the same array
slices as before, bit for bit.
"""

import os
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.util.rng import child_rng
from repro.vff.index import TraceIndex
from repro.vff.machine import VirtualMachine

#: ``REPRO_INDEX_SPILL`` values (default ``auto``): ``auto`` spills the
#: index for streaming workloads with an enabled store; ``always``
#: forces the bounded (spilled) build for every workload; ``never``
#: restores the in-RAM build unconditionally.
SPILL_MODES = ("auto", "always", "never")

_NEVER_VALUES = ("never", "off", "0", "false", "no")
_ALWAYS_VALUES = ("always", "on", "1", "true", "yes")


def index_spill_mode():
    """The spill policy the environment implies.

    Unknown values raise rather than silently meaning ``auto`` — the
    same contract as ``REPRO_KERNEL_BACKEND``, so a typo cannot mask a
    deliberate ``never``/``always``.
    """
    raw = os.environ.get("REPRO_INDEX_SPILL", "auto").strip().lower()
    if raw in _NEVER_VALUES:
        return "never"
    if raw in _ALWAYS_VALUES:
        return "always"
    if raw == "auto":
        return "auto"
    raise ValueError(
        f"REPRO_INDEX_SPILL must be one of {SPILL_MODES} (or an alias "
        f"like 'off'/'on'), got {raw!r}")


@dataclass
class AccessWindow:
    """The memory accesses of one instruction window.

    Arrays are *views* over the trace (zero-copy on memory-mapped
    traces); coordinates come in both systems — ``instr_lo/instr_hi``
    (instructions) and ``lo/hi`` (access positions), matching
    ``trace.access_range``.
    """

    instr_lo: int
    instr_hi: int
    #: Access-coordinate bounds (``mem_*[lo:hi]`` is this window).
    lo: int
    hi: int
    lines: np.ndarray
    pcs: np.ndarray
    #: Absolute instruction index of each access.
    instr: np.ndarray

    @classmethod
    def from_trace(cls, trace, instr_lo, instr_hi):
        """The window of ``[instr_lo, instr_hi)`` over ``trace``: what
        :meth:`ExecutionContext.window` and its region-shaped helpers
        return."""
        lo, hi = trace.access_range(instr_lo, instr_hi)
        return cls(instr_lo=instr_lo, instr_hi=instr_hi, lo=lo, hi=hi,
                   lines=trace.mem_line[lo:hi], pcs=trace.mem_pc[lo:hi],
                   instr=trace.mem_instr[lo:hi])

    @property
    def n_accesses(self):
        return self.hi - self.lo

    @property
    def n_instructions(self):
        return self.instr_hi - self.instr_lo

    def rel_instr(self, base=None):
        """Instruction offsets relative to ``base`` (window start)."""
        return self.instr - (self.instr_lo if base is None else base)

    def unique_lines(self):
        """Sorted unique lines and the window-relative first-occurrence
        index of each (``np.unique`` semantics)."""
        return np.unique(np.asarray(self.lines), return_index=True)


class ExecutionContext:
    """Owns trace-or-reader, index, store, and RNG seed for one run."""

    def __init__(self, workload, index=None, store=None, seed=0,
                 index_key=None, spill=None):
        self.workload = workload
        self.store = store
        self.seed = int(seed)
        self._index = index
        self._owns_index = index is None
        self._index_key = index_key
        self._spill = spill
        self._trace_fingerprint = None

    # -- resources ---------------------------------------------------------

    @property
    def name(self):
        return self.workload.name

    @property
    def trace(self):
        return self.workload.trace

    @property
    def streaming(self):
        """True when the workload serves its trace as memory maps."""
        return bool(getattr(self.workload, "streaming", False))

    @property
    def index(self):
        """The trace index, built lazily under the spill policy."""
        if self._index is None:
            self._index = self._build_index()
        return self._index

    def _build_index(self):
        """Build the index under the spill policy (``phase.index`` span).

        ``always`` spills every workload and ``auto`` only streaming
        ones; the rest sort in RAM.  A spilled build publishes through
        an enabled store and is served back memory-mapped.
        """
        mode = self._spill if self._spill is not None else index_spill_mode()
        spill = mode == "always" or (mode == "auto" and self.streaming)
        spilled = spill and getattr(self.store, "enabled", False)
        with telemetry.span("phase.index", rss=True, benchmark=self.name,
                            spilled=spilled):
            if not spill:
                return TraceIndex(self.trace)
            # A store-less build never reads the key: skip its
            # fingerprint.
            key = self._default_index_key() if spilled else None
            return TraceIndex.build_spilled(self.trace, self.store, key)

    def _default_index_key(self):
        if self._index_key is not None:
            return self._index_key
        # A spilled index is a pure function of the trace content, so
        # address it by content fingerprint.  Imported workloads carry
        # theirs as an attribute; SyntheticStreamWorkload exposes it as
        # a property (from its manifest, no trace scan).  Note the
        # attribute doubles as key identity elsewhere (warm-up bundles):
        # workloads exposing it get content-addressed bundles, while
        # materialized synthetics — which must never trigger the O(n)
        # fingerprint scan below twice — stay name/seed-addressed, so
        # their fingerprint is cached on the context, never attached to
        # the workload object.
        fingerprint = getattr(self.workload, "trace_fingerprint", None)
        if fingerprint is None:
            if self._trace_fingerprint is None:
                from repro.traceio.container import trace_fingerprint

                self._trace_fingerprint = trace_fingerprint(self.trace)
            fingerprint = self._trace_fingerprint
        return {"artifact": "trace-index-spill",
                "trace_fingerprint": fingerprint}

    def machine(self, meter=None):
        """A :class:`VirtualMachine` over this context's trace + index."""
        return VirtualMachine(self.trace, meter=meter, index=self.index)

    def rng(self, label):
        """The deterministic RNG stream for one named consumer."""
        return child_rng(self.seed, label, self.workload.name)

    # -- windows -----------------------------------------------------------

    def window(self, instr_lo, instr_hi):
        """The :class:`AccessWindow` of ``[instr_lo, instr_hi)``."""
        return AccessWindow.from_trace(self.trace, instr_lo, instr_hi)

    def region_window(self, spec):
        """The detailed region's accesses."""
        return self.window(spec.region_start, spec.region_end)

    def warming_window(self, spec):
        """The (footprint-scaled) detailed-warming window."""
        return self.window(spec.warming_start, spec.region_start)

    def l1_warming_window(self, spec):
        """The full L1 detailed-warming window."""
        return self.window(spec.l1_warming_start, spec.region_start)

    def gap_window(self, spec):
        """The functional-warming gap (warm-up start to warming start)."""
        return self.window(spec.warmup_start, spec.warming_start)

    def region_mispredicts(self, spec):
        """Branch mispredictions inside the detailed region."""
        trace = self.trace
        lo, hi = trace.branch_range(spec.region_start, spec.region_end)
        return int(np.asarray(trace.branch_mispred[lo:hi]).sum())

    # -- lifecycle ---------------------------------------------------------

    def release(self):
        """Close context-owned resources (mapped index views, readers).

        An index that was handed in stays open — its owner decides.  The
        workload is always released (it reopens lazily on next use,
        exactly like :meth:`SuiteRunner.release`)."""
        if self._owns_index and self._index is not None:
            close = getattr(self._index, "close", None)
            if close is not None:
                close()
        # Drop the reference either way: a non-owned index stays open
        # (its owner holds it), but serving it past workload.release()
        # would pair it with a re-opened trace object.  Any index built
        # after this point is context-owned.
        self._index = None
        self._owns_index = True
        self.workload.release()
        # With no mapped views left on our side, drop the store's shared
        # reader lock so maintenance (``cache gc``) can proceed.
        release_locks = getattr(self.store, "release_locks", None)
        if release_locks is not None:
            release_locks()
