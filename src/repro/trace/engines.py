"""Address engines: vectorized generators of cacheline access streams.

An engine produces, on demand, the next ``n`` cacheline addresses (plus a
static-PC id per access) for one workload component.  Engines are the
knobs that calibrate a synthetic benchmark's reuse-distance profile:

* :class:`UniformWorkingSetEngine` — uniform (or Zipf-skewed) references
  over a fixed set of lines; reuse distances concentrate around
  ``n_lines / access_share``.
* :class:`SequentialEngine` / :class:`StridedEngine` — circular streaming;
  reuse distance equals the buffer length, and power-of-two strides
  exercise the limited-associativity (conflict-miss) model.
* :class:`PointerChaseEngine` — a random Hamiltonian cycle over an arena;
  dependent-chain behaviour with buffer-length reuses.
* :class:`MultiWorkingSetEngine` — a weighted mixture of sub-engines;
  the workhorse for multi-modal reuse-distance distributions.
"""

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.kernels import native
from repro.util.rng import clone_rng

#: Accesses per internal batch while a cursor or :meth:`consume` walks a
#: draw block it does not emit (bounds transient memory, not the stream).
_CURSOR_BATCH = 1 << 20


def _batches(total, batch=_CURSOR_BATCH):
    lo = 0
    while lo < total:
        yield min(batch, total - lo)
        lo += batch


class AddressEngine:
    """Base class for address engines.

    Subclasses implement :meth:`generate`; all state needed to continue the
    stream lives on the engine instance so a trace can be built in chunks.

    Chunked generation support: :meth:`chunk_cursor` returns a cursor
    whose concatenated ``take(n)`` output is bit-identical to one
    ``generate(rng, total)`` call, for *any* split of ``total`` — the
    primitive behind :func:`repro.trace.stream.generate_chunks`.
    :meth:`consume` advances ``rng`` by exactly the draws one
    ``generate(rng, total)`` call would make, without producing output
    and without touching the engine's deterministic stream state.
    """

    #: Number of static PCs this engine attributes accesses to.
    n_pcs = 1

    def generate(self, rng, n):
        """Produce the next ``n`` accesses.

        Returns
        -------
        (numpy.ndarray, numpy.ndarray)
            ``(lines, pcs)``: absolute cacheline numbers (``int64``) and
            engine-local PC ids (``int32`` in ``[0, n_pcs)``).
        """
        raise NotImplementedError

    def consume(self, rng, total):
        """Advance ``rng`` past the draws of one ``generate(rng, total)``.

        Deterministic engine state (stream cursors) is left untouched, so
        a parent mixture can position later components' RNG clones
        without perturbing this engine's own progress.
        """
        raise NotImplementedError

    def chunk_cursor(self, rng, total):
        """A cursor replaying ``generate(rng, total)`` in arbitrary chunks.

        ``rng`` is cloned, never advanced; the caller remains free to
        pass it elsewhere.  The cursor's ``take(n)`` calls must sum to
        exactly ``total`` — deterministic engine state advances as the
        takes happen, exactly as the monolithic call would have.
        """
        raise NotImplementedError

    def fast_forward(self, rng, total):
        """Advance past ``generate(rng, total)`` without the outputs.

        Unlike :meth:`consume`, deterministic stream state (circular
        cursors) advances too — afterwards the engine sits exactly
        where the real call would have left it.  This is what lets a
        phase be generated in isolation when its engines are shared
        with earlier phases (see
        :func:`repro.trace.stream.fast_forward_engines`): the worker
        replays the predecessors' consumption, RNG-only, no gathers.
        Engines without deterministic stream state just consume.
        """
        self.consume(rng, total)

    def footprint_lines(self):
        """Number of distinct cachelines this engine can ever touch."""
        raise NotImplementedError


class _SingleBlockCursor:
    """Cursor for engines whose ``generate`` draws one splittable block.

    When every RNG draw in ``generate`` is element-wise sequential (one
    ``integers``/``random`` block), splitting the call is already
    bit-identical — the cursor just owns a clone positioned at the
    block's start and delegates.
    """

    def __init__(self, engine, rng):
        self._engine = engine
        self._rng = clone_rng(rng)

    def take(self, n):
        return self._engine.generate(self._rng, n)


class UniformWorkingSetEngine(AddressEngine):
    """References drawn uniformly (or Zipf-skewed) from a line map."""

    def __init__(self, line_map, n_pcs=8, zipf_a=None):
        if len(line_map) == 0:
            raise ValueError("empty line map")
        self.line_map = np.asarray(line_map, dtype=np.int64)
        self.n_pcs = int(n_pcs)
        self.zipf_a = zipf_a
        if zipf_a is not None:
            ranks = np.arange(1, len(self.line_map) + 1, dtype=np.float64)
            weights = ranks ** (-float(zipf_a))
            self._cdf = np.cumsum(weights / weights.sum())
        else:
            self._cdf = None

    def _draw_indices(self, rng, n):
        if self._cdf is None:
            return rng.integers(0, len(self.line_map), size=n)
        idx = np.searchsorted(self._cdf, rng.random(n), side="left")
        return np.minimum(idx, len(self.line_map) - 1)

    def _draw_pcs(self, rng, n):
        return rng.integers(0, self.n_pcs, size=n, dtype=np.int32)

    def generate(self, rng, n):
        idx = self._draw_indices(rng, n)
        pcs = self._draw_pcs(rng, n)
        return self.line_map[idx], pcs

    def _skip_indices(self, rng, total):
        """Advance ``rng`` past the index block without the outputs.

        The Zipf path consumes exactly one double per element, so the
        searchsorted/minimum of :meth:`_draw_indices` is skipped; the
        uniform path must replay the real ``integers`` call — Lemire
        rejection makes its consumption depend on the bound.
        """
        for m in _batches(total):
            if self._cdf is None:
                self._draw_indices(rng, m)
            else:
                rng.random(m)

    def consume(self, rng, total):
        self._skip_indices(rng, total)
        for m in _batches(total):
            self._draw_pcs(rng, m)

    def chunk_cursor(self, rng, total):
        # generate() draws the whole index block, then the whole PC
        # block; two clones replay the interleave at any chunk size —
        # the PC clone first walks (and discards) the index block.
        idx_rng = clone_rng(rng)
        pcs_rng = clone_rng(rng)
        self._skip_indices(pcs_rng, total)
        return _UniformCursor(self, idx_rng, pcs_rng)

    def footprint_lines(self):
        return int(len(self.line_map))


class _UniformCursor:
    def __init__(self, engine, idx_rng, pcs_rng):
        self._engine = engine
        self._idx_rng = idx_rng
        self._pcs_rng = pcs_rng

    def take(self, n):
        engine = self._engine
        idx = engine._draw_indices(self._idx_rng, n)
        pcs = engine._draw_pcs(self._pcs_rng, n)
        return engine.line_map[idx], pcs


class StridedEngine(AddressEngine):
    """Circular strided streaming over a line map.

    With ``stride_lines > 1`` the stream only ever touches every
    ``stride_lines``-th line *position* of the map modulo its length,
    producing the uneven cache-set usage that the paper's
    limited-associativity model targets (Section 3.1.2, Conflict Misses).
    """

    def __init__(self, line_map, stride_lines=1, n_pcs=2,
                 round_robin_pcs=None):
        if len(line_map) == 0:
            raise ValueError("empty line map")
        if stride_lines < 1:
            raise ValueError("stride_lines must be >= 1")
        self.line_map = np.asarray(line_map, dtype=np.int64)
        self.stride_lines = int(stride_lines)
        self.n_pcs = int(n_pcs)
        # Unit-stride sweeps model loop bodies whose several load PCs
        # sample the sweep irregularly: random PC attribution (otherwise
        # every PC would see a phantom stride of n_pcs lines and trip the
        # limited-associativity conflict model).  Genuine large-stride
        # streams keep deterministic attribution so the stride *is*
        # detectable, as the conflict model intends.
        if round_robin_pcs is None:
            round_robin_pcs = stride_lines > 1
        self.round_robin_pcs = bool(round_robin_pcs)
        self._cursor = 0

    def generate(self, rng, n):
        steps = self._cursor + np.arange(n, dtype=np.int64)
        idx = (steps * self.stride_lines) % len(self.line_map)
        self._cursor += n
        if self.round_robin_pcs:
            pcs = (steps % self.n_pcs).astype(np.int32)
        else:
            pcs = rng.integers(0, self.n_pcs, size=n, dtype=np.int32)
        return self.line_map[idx], pcs

    def consume(self, rng, total):
        if not self.round_robin_pcs:
            for m in _batches(total):
                rng.integers(0, self.n_pcs, size=m, dtype=np.int32)

    def fast_forward(self, rng, total):
        self.consume(rng, total)
        self._cursor += int(total)

    def chunk_cursor(self, rng, total):
        # Addresses come from the deterministic cursor; the only RNG
        # block is the (optional) PC draw — a single splittable block.
        return _SingleBlockCursor(self, rng)

    def footprint_lines(self):
        from math import gcd
        return int(len(self.line_map) // gcd(len(self.line_map),
                                             self.stride_lines))


class SequentialEngine(StridedEngine):
    """Unit-stride circular streaming (a :class:`StridedEngine` special case)."""

    def __init__(self, line_map, n_pcs=2):
        super().__init__(line_map, stride_lines=1, n_pcs=n_pcs)


class PointerChaseEngine(AddressEngine):
    """Walk a random Hamiltonian cycle over an arena of lines.

    The cycle order is precomputed once, so generating a chunk of the walk
    is a vectorized gather: position ``k`` of the walk is
    ``order[(start + k) mod n]``.
    """

    def __init__(self, line_map, seed_perm_rng, n_pcs=4):
        if len(line_map) == 0:
            raise ValueError("empty line map")
        self.line_map = np.asarray(line_map, dtype=np.int64)
        self._order = seed_perm_rng.permutation(len(self.line_map))
        self.n_pcs = int(n_pcs)
        self._cursor = 0

    def generate(self, rng, n):
        steps = self._cursor + np.arange(n, dtype=np.int64)
        idx = self._order[steps % len(self._order)]
        self._cursor += n
        pcs = rng.integers(0, self.n_pcs, size=n, dtype=np.int32)
        return self.line_map[idx], pcs

    def consume(self, rng, total):
        for m in _batches(total):
            rng.integers(0, self.n_pcs, size=m, dtype=np.int32)

    def fast_forward(self, rng, total):
        self.consume(rng, total)
        self._cursor += int(total)

    def chunk_cursor(self, rng, total):
        return _SingleBlockCursor(self, rng)

    def footprint_lines(self):
        return int(len(self.line_map))


@dataclass
class WorkingSetComponent:
    """One weighted member of a :class:`MultiWorkingSetEngine` mixture."""

    engine: AddressEngine
    weight: float
    pc_base: int = 0

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("component weight must be non-negative")


class MultiWorkingSetEngine(AddressEngine):
    """Weighted mixture of address engines.

    Each access independently picks a component with probability
    proportional to its weight; the chosen component supplies the line and
    a PC in its own PC range (``pc_base + local``).  Mixtures of working
    sets with different sizes and rates produce the multi-modal
    reuse-distance distributions that drive explorer engagement in the
    paper's Figures 7 and 8.
    """

    def __init__(self, components):
        if not components:
            raise ValueError("at least one component required")
        self.components = list(components)
        weights = np.asarray([c.weight for c in self.components], float)
        if not np.all(np.isfinite(weights)):
            raise ValueError("component weights must be finite")
        total = weights.sum()
        if total <= 0:
            raise ValueError("total weight must be positive")
        self._probs = weights / total
        # Generator.choice's own cdf, computed as choice computes it:
        # the native draw counts the entries at or below each double.
        self._cdf = self._probs.cumsum()
        self._cdf /= self._cdf[-1]
        self._pc_base = np.array([c.pc_base for c in self.components],
                                 dtype=np.int64)
        self.n_pcs = max(c.pc_base + c.engine.n_pcs for c in self.components)

    def _draw_choice(self, rng, n):
        return rng.choice(len(self.components), size=n, p=self._probs)

    def _mix(self, choice_rng, n, draw):
        """The next ``n`` accesses: ``n`` choices drawn on ``choice_rng``,
        then ``draw(k, count)`` per chosen component, in component order,
        interleaved back into choice order."""
        if kernels.get_backend() == "native":
            choice, counts = native.mixture_choice(choice_rng, self._cdf, n)
            parts = [draw(k, count) if count else None
                     for k, count in enumerate(counts.tolist())]
            return native.mixture_scatter(choice, parts, self._pc_base)
        lines = np.empty(n, dtype=np.int64)
        pcs = np.empty(n, dtype=np.int32)
        choice = self._draw_choice(choice_rng, n)
        for k, comp in enumerate(self.components):
            mask = choice == k
            count = int(np.count_nonzero(mask))
            if count == 0:
                continue
            comp_lines, comp_pcs = draw(k, count)
            lines[mask] = comp_lines
            pcs[mask] = comp_pcs + comp.pc_base
        return lines, pcs

    def generate(self, rng, n):
        components = self.components
        return self._mix(
            rng, n, lambda k, count: components[k].engine.generate(rng, count))

    def _count_choice_block(self, rng, total):
        """Walk the choice block on ``rng``, returning per-component totals."""
        if kernels.get_backend() == "native":
            return native.mixture_choice(rng, self._cdf, total,
                                         want_choices=False)[1]
        totals = np.zeros(len(self.components), dtype=np.int64)
        for m in _batches(total):
            totals += np.bincount(self._draw_choice(rng, m),
                                  minlength=len(self.components))
        return totals

    def consume(self, rng, total):
        totals = self._count_choice_block(rng, total)
        for comp, comp_total in zip(self.components, totals.tolist()):
            if comp_total:
                comp.engine.consume(rng, comp_total)

    def fast_forward(self, rng, total):
        # Mirrors consume's block walk so nested mixtures stay aligned,
        # but lets each component advance its own stream cursor.
        totals = self._count_choice_block(rng, total)
        for comp, comp_total in zip(self.components, totals.tolist()):
            if comp_total:
                comp.engine.fast_forward(rng, comp_total)

    def chunk_cursor(self, rng, total):
        # Monolithic consumption per phase is [choice block][comp 0's
        # draws][comp 1's draws]...  Each block gets its own clone: a
        # skip generator walks the stream once to locate every block
        # start (per-component totals fall out of the choice walk), and
        # components whose total is zero get no cursor at all — the
        # monolithic call never touches the RNG for them either.
        choice_rng = clone_rng(rng)
        skip = clone_rng(rng)
        totals = self._count_choice_block(skip, total)
        cursors = []
        for comp, comp_total in zip(self.components, totals.tolist()):
            if comp_total:
                cursors.append(comp.engine.chunk_cursor(skip, comp_total))
                comp.engine.consume(skip, comp_total)
            else:
                cursors.append(None)
        return _MultiCursor(self, choice_rng, cursors)

    def footprint_lines(self):
        return sum(c.engine.footprint_lines() for c in self.components)

    def reweighted(self, weight_by_index):
        """Return a copy with component weights replaced.

        ``weight_by_index`` maps component position to its new weight;
        unmentioned components keep their current weight.  Used by
        phase-structured benchmarks (e.g. calculix) whose large working
        set is only active in one phase.
        """
        new_components = []
        for k, comp in enumerate(self.components):
            weight = weight_by_index.get(k, comp.weight)
            new_components.append(WorkingSetComponent(
                engine=comp.engine, weight=weight, pc_base=comp.pc_base))
        return MultiWorkingSetEngine(new_components)


class _MultiCursor:
    def __init__(self, engine, choice_rng, cursors):
        self._engine = engine
        self._choice_rng = choice_rng
        self._cursors = cursors

    def take(self, n):
        cursors = self._cursors
        return self._engine._mix(
            self._choice_rng, n, lambda k, count: cursors[k].take(count))
