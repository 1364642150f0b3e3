"""Miss Status Holding Registers.

MSHRs track outstanding misses; a request to a line with an outstanding
miss is an *MSHR hit* (a delayed hit) rather than a new miss.  Section
3.1.2 of the paper models MSHR hits as cache hits (functional simulation)
or delayed hits (detailed simulation); its lukewarm-cache statistics
(96.7 % of requests hit or delayed-hit in a 64 KiB L1-D with 8 MSHRs)
depend on this component.

Time is measured in *access indices*: a miss occupies an entry for
``window`` subsequent accesses, a trace-driven stand-in for the miss
latency divided by the per-access cycle cost.

:meth:`MSHRFile.lookup` and :meth:`MSHRFile.allocate` are the
per-access scalar reference.  Compiled loops (native backend) take the
file as slot arrays (:meth:`MSHRFile.slots`) and hand it back
(:meth:`MSHRFile.load_slots`): :meth:`MSHRFile.walk`, which now serves
SMARTS's residual-miss walk only, and the classifier's LLC phase
(:func:`repro.kernels.native.classify_llc`), which looks up and
allocates between its LLC steps.  The file keeps the state either way.
"""

import math

import numpy as np

from repro.kernels import native


class MSHRFile:
    """Fixed-capacity table of outstanding line misses."""

    def __init__(self, n_entries, window=24):
        if n_entries <= 0:
            raise ValueError("n_entries must be positive")
        if window <= 0:
            raise ValueError("window must be positive")
        self.n_entries = int(n_entries)
        self.window = int(window)
        self._outstanding = {}
        #: A lower bound on every outstanding deadline: nothing expires
        #: before it, so :meth:`_expire` scans only once it is reached.
        self._next_expiry = math.inf
        self.mshr_hits = 0
        self.allocations = 0
        self.allocation_failures = 0

    def _expire(self, now):
        if now < self._next_expiry:
            return
        outstanding = self._outstanding
        expired = [line for line, t in outstanding.items() if t <= now]
        for line in expired:
            del outstanding[line]
        self._next_expiry = min(outstanding.values(), default=math.inf)

    def lookup(self, line, now):
        """True if ``line`` has an outstanding miss at access index ``now``."""
        self._expire(now)
        if line in self._outstanding:
            self.mshr_hits += 1
            return True
        return False

    def allocate(self, line, now):
        """Allocate an entry for a new miss; returns False if full.

        A full MSHR file would stall the pipeline; for classification
        purposes the access is simply treated as an ordinary miss.
        """
        self._expire(now)
        if len(self._outstanding) >= self.n_entries:
            self.allocation_failures += 1
            return False
        deadline = now + self.window
        self._outstanding[line] = deadline
        if deadline < self._next_expiry:
            self._next_expiry = deadline
        self.allocations += 1
        return True

    def walk(self, lines, positions, allocate):
        """:meth:`lookup` each access in order, then :meth:`allocate` it
        on a miss where ``allocate`` is set — in one compiled loop.

        Returns the per-access hit mask.  The outstanding entries go to
        the loop and come back in insertion order, so they and the
        counters end exactly as the per-access calls leave them.  Native
        backend only.
        """
        slot_lines, slot_deadlines, occupied = self.slots()
        hit_mask, *counts = native.mshr_walk(
            slot_lines, slot_deadlines, occupied, lines, positions,
            allocate, self.window)
        self.load_slots(slot_lines, slot_deadlines, *counts)
        return hit_mask

    def slots(self):
        """The file as a compiled loop takes it: ``(slot_lines,
        slot_deadlines, occupied)``, fresh int64 arrays with one slot
        per MSHR, the outstanding entries first in insertion order."""
        outstanding = self._outstanding
        slot_lines = np.zeros(self.n_entries, dtype=np.int64)
        slot_deadlines = np.zeros(self.n_entries, dtype=np.int64)
        occupied = len(outstanding)
        slot_lines[:occupied] = list(outstanding)
        slot_deadlines[:occupied] = list(outstanding.values())
        return slot_lines, slot_deadlines, occupied

    def load_slots(self, slot_lines, slot_deadlines, occupied, hits,
                   allocations, failures):
        """Take back the slot arrays a compiled loop left with
        ``occupied`` outstanding entries, and add its counts."""
        outstanding = self._outstanding
        outstanding.clear()
        outstanding.update(zip(slot_lines[:occupied].tolist(),
                               slot_deadlines[:occupied].tolist()))
        self._next_expiry = min(outstanding.values(), default=math.inf)
        self.mshr_hits += hits
        self.allocations += allocations
        self.allocation_failures += failures

    @property
    def occupancy(self):
        return len(self._outstanding)

    def reset(self):
        self._outstanding.clear()
        self._next_expiry = math.inf
        self.mshr_hits = 0
        self.allocations = 0
        self.allocation_failures = 0
