"""Chunk-wise synthetic trace generation — the one trace generator.

:func:`generate_chunks` emits the trace of a phase recipe as a stream of
bounded :class:`~repro.trace.record.TraceChunk` windows, so a synthetic
workload can flow straight into a native container (or a spilled store
blob) without the canonical arrays ever existing in RAM at once.
:func:`repro.trace.phases.build_trace` is the same generator with one
chunk per phase, concatenated.

Chunk-size invariance is the load-bearing property: with one chunk per
phase, each phase makes *one* engine call, whose internal RNG
consumption interleaves several draw blocks (mixture choices, each
component's index block, each component's PC block).  Splitting that
call naively would interleave the blocks differently and change the
trace.  Instead each block gets its own generator clone, positioned at
the block's start by walking (and discarding) the preceding blocks in
bounded batches — see :meth:`AddressEngine.chunk_cursor`.  Every numpy
draw primitive used is element-wise sequential, so per-block splits are
exact; the differential harness (``tests/test_stream_equivalence.py``)
pins the equivalence across seeds, phase mixes and chunk sizes
(including chunk = 1 and chunk > n).

The price is a second walk over the discarded blocks: a phase split
into several chunks costs roughly twice the RNG work of a single engine
call.  That is the bounded-memory trade, and only split phases pay it:
a phase that fits in one chunk draws its kinds once and calls the
engine directly.
"""

import functools

import numpy as np

from repro import telemetry
from repro.trace.record import Kind, TraceChunk
from repro.trace.workload import Workload
from repro.util.rng import child_rng, clone_rng

#: Default instructions per generated chunk (~matches the importer
#: default; override per call).
DEFAULT_CHUNK_INSTRUCTIONS = 1 << 20


def generate_chunks(phases, seed, name="trace",
                    chunk_instructions=DEFAULT_CHUNK_INSTRUCTIONS):
    """Yield the trace of ``phases`` as bounded TraceChunk windows.

    Concatenating the chunks (``trace_from_chunks``) reproduces
    ``build_trace(phases, seed=seed, name=name)`` bit-identically, for
    any ``chunk_instructions``.  Chunks never span phase boundaries: a
    phase of ``n`` instructions yields ``ceil(n / chunk)`` windows, the
    last one short.  Peak transient memory is O(chunk + engine state).
    """
    phases = list(phases)
    chunk_instructions = max(1, int(chunk_instructions))
    instr_offset = 0
    for index, phase in enumerate(phases):
        if phase.n_instructions == 0:
            continue
        yield from generate_phase_chunks(
            phase, index, seed, name=name,
            chunk_instructions=chunk_instructions,
            instr_offset=instr_offset)
        instr_offset += phase.n_instructions


def generate_phase_chunks(phase, index, seed, name="trace",
                          chunk_instructions=DEFAULT_CHUNK_INSTRUCTIONS,
                          instr_offset=0):
    """Chunk stream of one phase at a given global instruction offset.

    Every RNG stream is keyed by ``(seed, name, index, phase.name)``
    alone — phases never share *RNG* state — so a single phase can be
    generated in isolation (e.g. by a pool worker) and is bit-identical
    to its slice of :func:`generate_chunks`, provided ``instr_offset``
    is the summed length of the preceding phases **and** any engine
    objects shared with earlier phases have been fast-forwarded past
    their consumption first (:func:`fast_forward_engines` — circular
    engines carry a deterministic stream cursor across phases).
    """
    n = phase.n_instructions
    chunk_instructions = max(1, int(chunk_instructions))
    rng_kind = child_rng(seed, name, index, phase.name, "kinds")
    rng_addr = child_rng(seed, name, index, phase.name, "addrs")
    rng_br = child_rng(seed, name, index, phase.name, "branches")

    if n <= chunk_instructions:
        # One chunk: the phase's single generate(rng_addr, n_mem) call,
        # with no counting pre-pass and no cursor.
        take = functools.partial(phase.engine.generate, rng_addr)
    else:
        # Size the engine cursor: it replays that single call in
        # pieces, so it needs the phase's access total before the
        # first chunk is emitted.
        counter = clone_rng(rng_kind)
        n_mem = 0
        for lo in range(0, n, chunk_instructions):
            m = min(chunk_instructions, n - lo)
            n_mem += int(np.count_nonzero(
                counter.random(m) < phase.mem_fraction))
        take = (phase.engine.chunk_cursor(rng_addr, n_mem).take
                if n_mem else None)

    for lo in range(0, n, chunk_instructions):
        hi = min(n, lo + chunk_instructions)
        draw = rng_kind.random(hi - lo)
        kinds = np.full(hi - lo, Kind.ALU, dtype=np.uint8)
        mem_mask = draw < phase.mem_fraction
        store_mask = draw < phase.mem_fraction * phase.store_fraction
        branch_mask = (~mem_mask) & (
            draw < phase.mem_fraction + phase.branch_fraction)
        kinds[mem_mask] = Kind.LOAD
        kinds[store_mask] = Kind.STORE
        kinds[branch_mask] = Kind.BRANCH

        mem_pos = np.flatnonzero(mem_mask)
        if mem_pos.size:
            lines, pcs = take(mem_pos.size)
            if lines.shape[0] != mem_pos.size \
                    or pcs.shape[0] != mem_pos.size:
                raise ValueError(
                    f"engine for phase {phase.name!r} returned "
                    "wrong-length arrays")
        else:
            lines = np.empty(0, dtype=np.int64)
            pcs = np.empty(0, dtype=np.int32)

        br_pos = np.flatnonzero(branch_mask)
        mispred = rng_br.random(br_pos.size) < phase.mispredict_rate

        telemetry.counter("stream.generate.chunks")
        yield TraceChunk(
            instr_lo=instr_offset + lo,
            instr_hi=instr_offset + hi,
            kind=kinds,
            mem_instr=mem_pos.astype(np.int64) + (instr_offset + lo),
            mem_line=np.asarray(lines, dtype=np.int64),
            mem_pc=np.asarray(pcs, dtype=np.int32),
            mem_store=store_mask[mem_pos],
            branch_instr=br_pos.astype(np.int64) + (instr_offset + lo),
            branch_mispred=mispred,
        )


def fast_forward_engines(phases, upto_index, seed, name="trace",
                         chunk_instructions=DEFAULT_CHUNK_INSTRUCTIONS):
    """Advance engine stream state past ``phases[:upto_index]``.

    Phase-structured specs share engine *objects* across phases (a
    reweighted mixture keeps its components), and circular engines
    carry a deterministic cursor — so the serial walk leaves each
    engine where the previous phases' accesses put it.  A worker
    generating phase ``upto_index`` in isolation replays exactly that
    consumption here: the kind draw sizes each phase's access total,
    and :meth:`~repro.trace.engines.AddressEngine.fast_forward` walks
    the address draws cursor-accurately.  RNG-only work — no addresses
    are gathered, nothing is emitted.
    """
    chunk_instructions = max(1, int(chunk_instructions))
    for j in range(upto_index):
        phase = phases[j]
        n = phase.n_instructions
        if n == 0:
            continue
        rng_kind = child_rng(seed, name, j, phase.name, "kinds")
        n_mem = 0
        for lo in range(0, n, chunk_instructions):
            m = min(chunk_instructions, n - lo)
            n_mem += int(np.count_nonzero(
                rng_kind.random(m) < phase.mem_fraction))
        if n_mem:
            phase.engine.fast_forward(
                child_rng(seed, name, j, phase.name, "addrs"), n_mem)


def workload_chunks(workload,
                    chunk_instructions=DEFAULT_CHUNK_INSTRUCTIONS):
    """Chunk stream of a synthetic :class:`~repro.trace.workload.Workload`.

    Builds a fresh phase list from the workload's factory (engine state
    starts clean, exactly like ``Workload.trace``), then streams it.
    """
    return generate_chunks(workload._phase_factory(), seed=workload.seed,
                           name=workload.name,
                           chunk_instructions=chunk_instructions)


class SyntheticStreamWorkload(Workload):
    """A synthetic workload served from a spilled, memory-mapped blob.

    The ``materialize=False`` face of a
    :class:`~repro.trace.spec.BenchmarkSpec`: on first use the trace is
    generated chunk-by-chunk (:func:`generate_chunks`) and streamed
    straight into a content-addressed store blob
    (``ArtifactStore.save_arrays`` → ``DiskStore.put_stream`` — the
    canonical arrays never exist in RAM), then served back as read-only
    memory maps, exactly like an imported container.  With
    ``REPRO_INDEX_SPILL=always`` the index spills too, so a synthetic
    suite run is bounded the same way an imported one is.

    A manifest (:func:`~repro.traceio.container.container_manifest`'s,
    plus the generator's spec fingerprint) is stored alongside the blob
    and **verified on every open**: the spec fingerprint and array
    shapes must match what this workload would generate — a stale or
    torn blob regenerates instead of silently serving the wrong trace.
    Without an enabled store the trace streams into an owned spill
    directory instead (same bounded peak, no cross-process reuse).
    """

    streaming = True

    def __init__(self, name, phase_factory, seed=0, metadata=None,
                 n_instructions=None, spec_fingerprint=None, store=None,
                 chunk_instructions=None):
        super().__init__(name, phase_factory, seed=seed, metadata=metadata)
        self._n_instructions = int(n_instructions or 0)
        self.spec_fingerprint = spec_fingerprint
        self.store = store
        self.chunk_instructions = int(
            chunk_instructions or DEFAULT_CHUNK_INSTRUCTIONS)
        self.manifest = None
        self._writer = None       # owned spill writer (store-less path)

    @property
    def n_instructions(self):
        return self._n_instructions

    def _store_keys(self):
        return (
            {"artifact": "synthetic-trace",
             "spec_fingerprint": self.spec_fingerprint},
            {"artifact": "synthetic-trace-manifest",
             "spec_fingerprint": self.spec_fingerprint},
        )

    def _manifest_matches(self, manifest, views):
        """Verify-on-open: provenance + shape cross-check, no data scan."""
        if manifest is None:
            return False
        if manifest.get("spec_fingerprint") != self.spec_fingerprint:
            return False
        if manifest.get("n_instructions") != self._n_instructions:
            return False
        declared = manifest.get("arrays", {})
        from repro.traceio.container import TRACE_ARRAYS

        for array_name, _ in TRACE_ARRAYS:
            view = views.get(array_name)
            if view is None:
                return False
            if list(view.shape) != declared.get(array_name, {}).get("shape"):
                return False
        return True

    def _generate(self):
        """Stream the trace into the store (or an owned spill)."""
        with telemetry.span("phase.generate", rss=True,
                            benchmark=self.name):
            return self._generate_stream()

    def _generate_stream(self):
        from repro.traceio.container import (
            TraceStreamWriter,
            container_manifest,
        )

        store = self.store
        # Spill next to the store (same filesystem as the published
        # blob) rather than the system temp dir, which is commonly a
        # RAM-backed tmpfs.
        spill_parent = (store.root if store is not None and store.enabled
                        else None)
        writer = TraceStreamWriter(spill_dir=spill_parent)
        try:
            writer.extend(workload_chunks(
                self, chunk_instructions=self.chunk_instructions))
            manifest = container_manifest(
                writer.views(), self.name, source={
                    "generator": "synthetic",
                    "benchmark": self.name,
                    "seed": self.seed,
                    "n_instructions": self._n_instructions,
                })
            manifest["spec_fingerprint"] = self.spec_fingerprint
            if manifest["n_instructions"] != self._n_instructions:
                raise ValueError(
                    f"generated {manifest['n_instructions']} instructions, "
                    f"spec promises {self._n_instructions}")
            if store is not None and store.enabled:
                blob_key, manifest_key = self._store_keys()
                # The disk tier is write-once; when regeneration was
                # triggered by a verification-rejected blob, publishing
                # over it would silently no-op and every later open
                # would regenerate again.  Invalidate, then publish.
                store.delete(blob_key)
                store.delete(manifest_key)
                store.save_arrays(blob_key, writer.views(),
                                  label="synthetic-trace")
                store.save(manifest_key, manifest,
                           label="synthetic-trace")
                views = store.load_mapped(blob_key,
                                          label="synthetic-trace")
                if views is not None \
                        and self._manifest_matches(manifest, views):
                    writer.close()
                    return views, manifest
            # Store off (or a racing writer/gc got between the publish
            # and the reopen): serve the spill files directly; they
            # live until release().
            self._writer = writer
            return writer.views(), manifest
        except BaseException:
            writer.close()
            raise

    def _open(self):
        store = self.store
        if store is not None and store.enabled:
            blob_key, manifest_key = self._store_keys()
            views = store.load_mapped(blob_key,
                                      label="synthetic-trace")
            if views is not None:
                manifest = store.load(manifest_key,
                                      label="synthetic-trace")
                if self._manifest_matches(manifest, views):
                    return views, manifest
        return self._generate()

    @property
    def trace(self):
        if self._trace is None:
            from repro.trace.record import Trace

            views, manifest = self._open()
            self.manifest = manifest
            # No whole-trace validation scan: generation validated every
            # chunk, and _manifest_matches cross-checks shapes on open.
            self._trace = Trace(name=self.name, **views)
        return self._trace

    @property
    def trace_fingerprint(self):
        """Content address of the generated trace (opens it if needed).

        An attribute on imported workloads, a property here: warm-up
        bundles and spilled-index keys read it via ``getattr``, and
        computing it any other way would scan the whole mapped trace.
        Exposing it means a streamed synthetic's warm-up bundles are
        content-addressed like an imported trace's (a materialized run
        of the same benchmark keys its bundles by name/seed instead —
        bit-identical results, separately cached).
        """
        self.trace
        return self.manifest["fingerprint"]

    def release(self):
        self._trace = None
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __repr__(self):
        built = "open" if self._trace is not None else "lazy"
        return (f"SyntheticStreamWorkload({self.name!r}, "
                f"{self._n_instructions:,} instructions, {built})")
