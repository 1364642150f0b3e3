"""SPEC CPU2006-like benchmark suite.

The paper evaluates 24 SPEC CPU2006 benchmarks (reference inputs) under
gem5.  We cannot ship SPEC, so each benchmark here is a synthetic workload
calibrated to the *behaviour the paper attributes to it* — the quantities
that the algorithms under study actually consume:

* working-set composition (hot/mid/big/huge components and their sizes),
* reuse-distance profile (via component sizes, weights and access kinds),
* dominant strides / streaming behaviour (lbm, libquantum, bwaves),
* page-layout locality (povray's false-positive watchpoint pathology),
* static-PC diversity (soplex's sparse per-PC statistics under CoolSim),
* phase structure (calculix's single region with long reuses),
* instruction mix (memory/branch fractions, branch misprediction rates).

Component sizes are expressed in **paper-equivalent bytes**; building a
workload applies the experiment's cache/footprint scale (default 1/64 —
see the scale model of :mod:`repro.sampling.plan`) so model caches and
model working sets shrink together.

A component with ``n`` model lines referenced with probability ``w`` by a
workload with memory fraction ``m`` has a mean per-line revisit interval
of ``n / (m*w)`` instructions; that interval relative to the explorer
reaches (gap/200, gap/20, gap/10, gap) decides which Explorer resolves its
key reuses, which is exactly the mechanism behind Figures 7 and 8.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.trace.address_space import AddressSpace
from repro.trace.engines import (
    MultiWorkingSetEngine,
    PointerChaseEngine,
    StridedEngine,
    UniformWorkingSetEngine,
    WorkingSetComponent,
)
from repro.trace.phases import PhaseSpec
from repro.trace.workload import Workload
from repro.util.rng import child_rng, stream_seed
from repro.util.units import CACHELINE_BYTES, KIB, MIB

#: Default footprint/cache scale: paper sizes are divided by this
#: (1 MiB–512 MiB LLC -> 16 KiB–8 MiB model LLC).
DEFAULT_SCALE = 1.0 / 64.0


@dataclass(frozen=True)
class ComponentSpec:
    """One working-set component of a benchmark.

    ``kind`` is one of ``"uniform"``, ``"zipf"``, ``"seq"`` (circular
    streaming), ``"stride"`` (circular power-of-two stride) or ``"chase"``
    (pointer chase over a random cycle).
    """

    name: str
    paper_bytes: int
    weight: float
    kind: str = "uniform"
    zipf_a: float = 1.2
    stride_bytes: int = 512
    n_pcs: int = 8
    colocate_with: str = None
    pack_ratio: float = None

    def model_lines(self, scale):
        """Number of model cachelines at the given footprint scale."""
        return max(4, int(round(self.paper_bytes * scale / CACHELINE_BYTES)))

    def effective_pack_ratio(self, scale):
        """Page density of this component's allocation.

        Large randomly-accessed structures occupy their pages sparsely in
        real programs (heap fragmentation, wide records with few hot
        fields), which keeps watchpoint false-positive rates low; small
        hot sets are dense.  Unless set explicitly, components beyond 512
        model lines allocate at 1/8 page density.
        """
        if self.pack_ratio is not None:
            return self.pack_ratio
        if self.kind in ("uniform", "zipf") and self.model_lines(scale) >= 512:
            return 0.125
        return None


@dataclass(frozen=True)
class BenchmarkSpec:
    """Recipe for one synthetic SPEC-like benchmark."""

    name: str
    components: tuple
    mem_fraction: float = 0.40
    branch_fraction: float = 0.12
    mispredict_rate: float = 0.05
    store_fraction: float = 0.30
    #: Optional phase plan: list of ``(fraction, {component: weight})``;
    #: fractions must sum to 1.  Components keep their default weight
    #: unless overridden in the phase's dict.
    phase_plan: tuple = None
    notes: str = ""

    def stream_fingerprint(self, n_instructions, seed, scale=DEFAULT_SCALE):
        """Generator-provenance fingerprint of one concrete build.

        Addresses the spilled synthetic-trace blob in the artifact store
        and is recorded in its manifest, where opening verifies it — a
        container generated from a different spec revision (or different
        build parameters) can never be served for this one.
        """
        from repro.store.fingerprint import fingerprint

        return fingerprint({
            "artifact": "synthetic-spec",
            "spec": self,
            "n_instructions": int(n_instructions),
            "seed": int(seed),
            "scale": float(scale),
        })

    def workload(self, n_instructions=1_000_000, seed=0, scale=DEFAULT_SCALE,
                 materialize=True, store=None, chunk_instructions=None):
        """Build a :class:`~repro.trace.workload.Workload` for this spec.

        ``materialize=False`` returns a
        :class:`~repro.trace.stream.SyntheticStreamWorkload` instead: the
        trace generates chunk-by-chunk into a spilled store blob and is
        served as memory maps, so a suite run under
        ``REPRO_INDEX_SPILL=always`` never holds the canonical arrays in
        RAM.  Both faces produce bit-identical traces.
        """

        def make_phases():
            space = AddressSpace(seed=stream_seed(seed, self.name, "layout"))
            engines = []
            pc_base = 0
            for comp in self.components:
                lines = space.allocate(
                    comp.name,
                    comp.model_lines(scale),
                    colocate_with=comp.colocate_with,
                    pack_ratio=comp.effective_pack_ratio(scale),
                )
                engines.append(self._make_engine(comp, lines, seed))
            mixture_components = []
            for comp, engine in zip(self.components, engines):
                mixture_components.append(WorkingSetComponent(
                    engine=engine, weight=comp.weight, pc_base=pc_base))
                pc_base += engine.n_pcs
            mixture = MultiWorkingSetEngine(mixture_components)

            plan = self.phase_plan or ((1.0, {}),)
            comp_index = {c.name: k for k, c in enumerate(self.components)}
            phases = []
            remaining = n_instructions
            for p, (fraction, overrides) in enumerate(plan):
                length = (int(round(n_instructions * fraction))
                          if p < len(plan) - 1 else remaining)
                remaining -= length
                engine = mixture
                if overrides:
                    engine = mixture.reweighted({
                        comp_index[cname]: w for cname, w in overrides.items()
                    })
                phases.append(PhaseSpec(
                    name=f"phase{p}",
                    n_instructions=length,
                    engine=engine,
                    mem_fraction=self.mem_fraction,
                    branch_fraction=self.branch_fraction,
                    mispredict_rate=self.mispredict_rate,
                    store_fraction=self.store_fraction,
                ))
            return phases

        metadata = {
            "spec": self,
            "scale": scale,
            "n_instructions": n_instructions,
            "notes": self.notes,
        }
        if not materialize:
            from repro.trace.stream import SyntheticStreamWorkload

            return SyntheticStreamWorkload(
                self.name, make_phases, seed=seed, metadata=metadata,
                n_instructions=n_instructions,
                spec_fingerprint=self.stream_fingerprint(
                    n_instructions, seed, scale),
                store=store, chunk_instructions=chunk_instructions)
        return Workload(self.name, make_phases, seed=seed, metadata=metadata)

    def _make_engine(self, comp, lines, seed):
        if comp.kind == "uniform":
            return UniformWorkingSetEngine(lines, n_pcs=comp.n_pcs)
        if comp.kind == "zipf":
            return UniformWorkingSetEngine(
                lines, n_pcs=comp.n_pcs, zipf_a=comp.zipf_a)
        if comp.kind == "seq":
            return StridedEngine(lines, stride_lines=1, n_pcs=comp.n_pcs)
        if comp.kind == "stride":
            stride_lines = max(1, comp.stride_bytes // CACHELINE_BYTES)
            return StridedEngine(
                lines, stride_lines=stride_lines, n_pcs=comp.n_pcs)
        if comp.kind == "chase":
            perm_rng = child_rng(seed, self.name, comp.name, "perm")
            return PointerChaseEngine(lines, perm_rng, n_pcs=comp.n_pcs)
        raise ValueError(f"unknown component kind {comp.kind!r}")


def _c(name, paper_bytes, weight, kind="uniform", **kw):
    return ComponentSpec(name, int(paper_bytes), weight, kind, **kw)


def _suite_specs():
    """The 24 benchmark recipes (order follows the paper's figures).

    Component sizes/weights are chosen so each component's mean per-line
    revisit interval ``lines / (mem_fraction * weight)`` lands in a
    specific warming/Explorer band at the default experiment scale
    (gap 600 k instructions: warming <~500, E1 <30 k, E2 <90 k,
    E3 <240 k, E4 <600 k, cold beyond), reproducing the engagement
    pattern of Figures 7/8, while the total weight of
    beyond-8MB-equivalent components sets the MPKI/CPI magnitudes of
    Figures 9/13.
    """
    return [
        BenchmarkSpec(
            "perlbench",
            components=(
                _c("hot", 256 * KIB, 0.93, n_pcs=24),
                _c("e1", 1 * MIB, 0.05, kind="seq", n_pcs=16),
                _c("e2", 2 * MIB, 0.02, kind="seq", n_pcs=8),
            ),
            mem_fraction=0.38, branch_fraction=0.18, mispredict_rate=0.055,
            notes="scripting engine: moderate working set, branchy",
        ),
        BenchmarkSpec(
            "bzip2",
            components=(
                _c("hot", 512 * KIB, 0.86, n_pcs=12),
                _c("stream", 2 * MIB, 0.10, kind="seq", n_pcs=4),
                _c("e2", 4 * MIB, 0.04, kind="seq", n_pcs=8),
            ),
            mem_fraction=0.36, branch_fraction=0.14, mispredict_rate=0.065,
            notes="block compression: streaming over buffers",
        ),
        BenchmarkSpec(
            "bwaves",
            components=(
                _c("hot", 128 * KIB, 0.96, n_pcs=10),
                _c("stream", 16 * KIB, 0.04, kind="seq", n_pcs=4),
            ),
            mem_fraction=0.45, branch_fraction=0.04, mispredict_rate=0.012,
            notes=("paper: few key lines, short key reuses, Explorer-1 "
                   "only, highest speedup vs CoolSim (49x)"),
        ),
        BenchmarkSpec(
            "gamess",
            components=(
                _c("hot", 384 * KIB, 0.95, n_pcs=14),
                _c("e1", 512 * KIB, 0.05, kind="seq", n_pcs=8),
            ),
            mem_fraction=0.40, branch_fraction=0.08, mispredict_rate=0.02,
            notes="quantum chemistry: small hot working set",
        ),
        BenchmarkSpec(
            "mcf",
            components=(
                _c("hot", 256 * KIB, 0.72, n_pcs=10),
                _c("graph", 6 * MIB, 0.16, kind="chase", n_pcs=6),
                _c("e3", 20 * MIB, 0.07, n_pcs=6),
                _c("huge", 256 * MIB, 0.05, n_pcs=4),
            ),
            mem_fraction=0.42, branch_fraction=0.19, mispredict_rate=0.09,
            notes=("network simplex: pointer chasing, large footprint, "
                   "highest CPI; long reuses engage several Explorers"),
        ),
        BenchmarkSpec(
            "zeusmp",
            components=(
                _c("hot", 512 * KIB, 0.915, n_pcs=12),
                _c("e2", 4 * MIB, 0.05, n_pcs=8),
                _c("e3", 5 * MIB, 0.02, n_pcs=6),
                _c("e4", 14 * MIB, 0.015, kind="seq", n_pcs=4),
            ),
            mem_fraction=0.44, branch_fraction=0.08, mispredict_rate=0.03,
            notes="paper: many long reuses, engages up to four Explorers",
        ),
        BenchmarkSpec(
            "gromacs",
            components=(
                _c("hot", 256 * KIB, 0.92, n_pcs=12),
                _c("e1", 1 * MIB, 0.05, n_pcs=8),
                _c("e3", 6 * MIB, 0.03, n_pcs=4),
            ),
            mem_fraction=0.40, branch_fraction=0.10, mispredict_rate=0.04,
            notes="paper: few long reuses, relatively many Explorers",
        ),
        BenchmarkSpec(
            "cactusADM",
            components=(
                _c("hot", 1 * MIB, 0.978, n_pcs=12),
                _c("e2", 4 * MIB, 0.010, n_pcs=8),
                _c("e4", 24 * MIB, 0.008, kind="seq", n_pcs=6),
                _c("cold", 512 * MIB, 0.004, n_pcs=4),
            ),
            mem_fraction=0.44, branch_fraction=0.06, mispredict_rate=0.02,
            notes=("paper: long reuses (4 Explorers); working-set curve "
                   "declines smoothly, no pronounced knee (Fig 13)"),
        ),
        BenchmarkSpec(
            "leslie3d",
            components=(
                _c("hot", 512 * KIB, 0.94, n_pcs=12),
                _c("e2", 2 * MIB, 0.025, n_pcs=8),
                _c("e3", 10 * MIB, 0.025, n_pcs=6),
                _c("cold", 128 * MIB, 0.010, n_pcs=4),
            ),
            mem_fraction=0.45, branch_fraction=0.07, mispredict_rate=0.025,
            notes=("paper: high MPKI, smooth working-set curve, few long "
                   "reuses engage several Explorers"),
        ),
        BenchmarkSpec(
            "namd",
            components=(
                _c("hot", 256 * KIB, 0.94, n_pcs=14),
                _c("e1", 1 * MIB, 0.06, kind="seq", n_pcs=8),
            ),
            mem_fraction=0.40, branch_fraction=0.09, mispredict_rate=0.03,
            notes="molecular dynamics: small, cache-friendly",
        ),
        BenchmarkSpec(
            "gobmk",
            components=(
                _c("hot", 512 * KIB, 0.88, kind="zipf", zipf_a=1.1, n_pcs=20),
                _c("e1", 1 * MIB, 0.07, n_pcs=12),
                _c("e2", 3 * MIB, 0.05, kind="seq", n_pcs=8),
            ),
            mem_fraction=0.35, branch_fraction=0.22, mispredict_rate=0.10,
            notes="game tree search: branchy, skewed reuse",
        ),
        BenchmarkSpec(
            "soplex",
            components=(
                _c("hot", 512 * KIB, 0.85, n_pcs=64),
                _c("e2", 6 * MIB, 0.12, n_pcs=96),
                _c("e3", 24 * MIB, 0.03, n_pcs=64),
            ),
            mem_fraction=0.40, branch_fraction=0.12, mispredict_rate=0.05,
            notes=("LP solver: very many static PCs -> sparse per-PC "
                   "statistics; paper: CoolSim overestimates LLC misses"),
        ),
        BenchmarkSpec(
            "povray",
            components=(
                _c("hot", 256 * KIB, 0.9594, n_pcs=16, pack_ratio=0.75),
                _c("mid", 512 * KIB, 0.040, kind="seq", n_pcs=8),
                _c("cold", 256 * KIB, 0.0006, n_pcs=4, colocate_with="hot"),
            ),
            mem_fraction=0.38, branch_fraction=0.16, mispredict_rate=0.06,
            phase_plan=(
                (0.60, {"cold": 0.0}),
                (0.10, {}),              # one slice with the long reuses
                (0.30, {"cold": 0.0}),
            ),
            notes=("paper: small working set but one detailed region with "
                   "few very long key reuses; cold lines share pages with "
                   "hot lines -> false-positive watchpoint storm, smallest "
                   "speedup vs CoolSim (1.05x)"),
        ),
        BenchmarkSpec(
            "calculix",
            components=(
                _c("hot", 384 * KIB, 0.95, n_pcs=14),
                _c("e1", 1 * MIB, 0.05, kind="seq", n_pcs=8),
                _c("big", 64 * MIB, 0.0, n_pcs=8),
            ),
            mem_fraction=0.42, branch_fraction=0.09, mispredict_rate=0.03,
            phase_plan=(
                (0.55, {}),
                (0.10, {"big": 0.20}),   # long reuses concentrated here
                (0.35, {}),
            ),
            notes=("paper: long reuses originate from a single detailed "
                   "region, so four Explorers engage for that region only"),
        ),
        BenchmarkSpec(
            "hmmer",
            components=(
                _c("hot", 128 * KIB, 0.985, n_pcs=10),
                _c("e1", 512 * KIB, 0.015, kind="seq", n_pcs=6),
            ),
            mem_fraction=0.45, branch_fraction=0.06, mispredict_rate=0.008,
            notes="profile HMM search: extremely cache-friendly",
        ),
        BenchmarkSpec(
            "sjeng",
            components=(
                _c("hot", 512 * KIB, 0.90, kind="zipf", zipf_a=1.1, n_pcs=18),
                _c("e2", 5 * MIB, 0.085, n_pcs=10),
                _c("cold", 64 * MIB, 0.015, n_pcs=6),
            ),
            mem_fraction=0.34, branch_fraction=0.21, mispredict_rate=0.095,
            notes="paper: few long reuses engage several Explorers",
        ),
        BenchmarkSpec(
            "GemsFDTD",
            components=(
                _c("hot", 1 * MIB, 0.82, n_pcs=48),
                _c("e2", 6 * MIB, 0.13, n_pcs=24),
                _c("e4", 22 * MIB, 0.03, kind="seq", n_pcs=12),
                _c("cold", 512 * MIB, 0.02, n_pcs=8),
            ),
            mem_fraction=0.46, branch_fraction=0.05, mispredict_rate=0.015,
            notes=("paper: large working set, very long key reuses, all "
                   "four Explorers, small speedup vs CoolSim (1.4x), "
                   "CoolSim overestimates misses"),
        ),
        BenchmarkSpec(
            "libquantum",
            components=(
                _c("hot", 128 * KIB, 0.88, n_pcs=8),
                _c("stream", 24 * MIB, 0.12, kind="seq", n_pcs=4),
            ),
            mem_fraction=0.33, branch_fraction=0.25, mispredict_rate=0.02,
            notes="quantum register streaming: long sequential sweeps",
        ),
        BenchmarkSpec(
            "h264ref",
            components=(
                _c("hot", 512 * KIB, 0.88, kind="zipf", zipf_a=1.2, n_pcs=20),
                _c("e2", 4 * MIB, 0.12, kind="seq", n_pcs=12),
            ),
            mem_fraction=0.41, branch_fraction=0.11, mispredict_rate=0.045,
            notes="video encoding: skewed references over frame buffers",
        ),
        BenchmarkSpec(
            "tonto",
            components=(
                _c("hot", 384 * KIB, 0.92, n_pcs=14),
                _c("e2", 2 * MIB, 0.08, kind="seq", n_pcs=8),
            ),
            mem_fraction=0.39, branch_fraction=0.10, mispredict_rate=0.035,
            notes="quantum crystallography: moderate working set",
        ),
        BenchmarkSpec(
            "lbm",
            components=(
                _c("hot", 256 * KIB, 0.905, n_pcs=8),
                _c("streamA", 8 * MIB, 0.055, kind="seq", n_pcs=4),
                _c("streamB", 40 * MIB, 0.040, kind="seq", n_pcs=4),
            ),
            mem_fraction=0.47, branch_fraction=0.03, mispredict_rate=0.01,
            notes=("lattice Boltzmann: two circular streams give the "
                   "working-set knees of Fig 13 (positions compressed by "
                   "the scaled gap); long reuses engage all Explorers"),
        ),
        BenchmarkSpec(
            "omnetpp",
            components=(
                _c("hot", 512 * KIB, 0.74, n_pcs=24),
                _c("events", 4 * MIB, 0.16, kind="chase", n_pcs=8),
                _c("mid", 2 * MIB, 0.05, n_pcs=12),
                _c("e3", 12 * MIB, 0.05, n_pcs=8),
            ),
            mem_fraction=0.37, branch_fraction=0.17, mispredict_rate=0.075,
            notes="discrete event simulation: pointer-heavy heap",
        ),
        BenchmarkSpec(
            "astar",
            components=(
                _c("hot", 256 * KIB, 0.82, n_pcs=14),
                _c("grid", 2 * MIB, 0.10, kind="chase", n_pcs=6),
                _c("mid", 1 * MIB, 0.04, n_pcs=6),
                _c("e3", 8 * MIB, 0.04, n_pcs=4),
            ),
            mem_fraction=0.38, branch_fraction=0.18, mispredict_rate=0.08,
            notes="paper: few long reuses engage several Explorers",
        ),
        BenchmarkSpec(
            "xalancbmk",
            components=(
                _c("hot", 512 * KIB, 0.72, n_pcs=80),
                _c("e2", 6 * MIB, 0.16, kind="seq", n_pcs=64),
                _c("mid", 5 * MIB, 0.12, n_pcs=48),
            ),
            mem_fraction=0.39, branch_fraction=0.16, mispredict_rate=0.06,
            notes="XSLT: many static PCs over DOM structures",
        ),
    ]


#: Benchmark names in paper figure order.
SPEC2006_NAMES = tuple(spec.name for spec in _suite_specs())

_SPECS_BY_NAME = {spec.name: spec for spec in _suite_specs()}


def benchmark_spec(name):
    """Return the :class:`BenchmarkSpec` for ``name`` (KeyError if unknown)."""
    return _SPECS_BY_NAME[name]


def spec2006_suite(n_instructions=1_000_000, seed=0, scale=DEFAULT_SCALE,
                   names=None):
    """Build the benchmark suite as a list of lazy Workloads.

    Parameters
    ----------
    n_instructions:
        Trace length per benchmark (paper: 10 B; scaled runs default 1 M —
        :mod:`repro.sampling.plan` explains what scaling preserves).
    seed:
        Top-level seed; each benchmark derives independent streams.
    scale:
        Footprint scale applied to the paper-equivalent component sizes.
    names:
        Optional subset of :data:`SPEC2006_NAMES`.
    """
    selected = SPEC2006_NAMES if names is None else tuple(names)
    workloads = []
    for name in selected:
        spec = benchmark_spec(name)
        workloads.append(spec.workload(
            n_instructions=n_instructions, seed=seed, scale=scale))
    return workloads
