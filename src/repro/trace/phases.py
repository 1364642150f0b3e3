"""Phase composition: turn address engines into full instruction traces.

A :class:`PhaseSpec` describes one contiguous stretch of execution: its
instruction-kind mix (memory/branch/ALU fractions), its branch
misprediction rate, and the address engine that supplies load/store
targets.  :func:`build_trace` materializes a sequence of phases into a
:class:`~repro.trace.record.Trace`: it is the chunk generator
(:func:`repro.trace.stream.generate_chunks`) with one chunk per phase.
"""

from dataclasses import dataclass

from repro.trace.record import trace_from_chunks
from repro.trace.stream import generate_chunks


@dataclass
class PhaseSpec:
    """One phase of a synthetic workload."""

    name: str
    n_instructions: int
    engine: object
    mem_fraction: float = 0.40
    branch_fraction: float = 0.12
    mispredict_rate: float = 0.05
    store_fraction: float = 0.30

    def __post_init__(self):
        if self.n_instructions < 0:
            raise ValueError("n_instructions must be non-negative")
        if not 0 <= self.mem_fraction <= 1:
            raise ValueError("mem_fraction must be in [0, 1]")
        if not 0 <= self.branch_fraction <= 1:
            raise ValueError("branch_fraction must be in [0, 1]")
        if self.mem_fraction + self.branch_fraction > 1:
            raise ValueError("mem + branch fractions exceed 1")
        if not 0 <= self.mispredict_rate <= 1:
            raise ValueError("mispredict_rate must be in [0, 1]")
        if not 0 <= self.store_fraction <= 1:
            raise ValueError("store_fraction must be in [0, 1]")


def build_trace(phases, seed, name="trace"):
    """Materialize ``phases`` into a :class:`Trace`.

    Generation is fully deterministic in ``seed``; each phase consumes
    independent child streams so editing one phase never perturbs others.
    The trace is :func:`~repro.trace.stream.generate_chunks` with one
    chunk per phase, concatenated.
    """
    phases = list(phases)
    longest = max((phase.n_instructions for phase in phases), default=1)
    return trace_from_chunks(
        generate_chunks(phases, seed, name=name,
                        chunk_instructions=longest),
        name=name)
