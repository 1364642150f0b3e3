"""The compiled ``native`` backend: first-use build, loader, wrappers.

:mod:`repro.kernels._native` is compiled from ``_native.c`` (shipped
beside this module) the first time a process resolves the ``native``
backend, into ``<cache>/kernels/<key>/_native<EXT_SUFFIX>`` under the
store's default root (:func:`repro.store.default_cache_dir`).  ``<key>``
hashes the C source, the interpreter's extension suffix (its ABI) and
the numpy version, whose C API the source uses, so changing any of them
builds into a new directory.  The build is not a store artifact:
``REPRO_CACHE=off`` does not turn it off.

setuptools' ``build_ext`` runs in a child interpreter (this process
never imports setuptools) with its output captured, into a registered
scratch directory beside the target, and the result moves into place
with :func:`os.replace`.  An exclusive lock on ``<key>.lock`` is held
meanwhile and the target is checked for again once it is taken, so
concurrent processes compile once and never load a half-written file.
Resolution happens once per process; forked workers inherit it and
spawned ones find the published file.  Any failure — no compiler, no
setuptools, an unwritable root, a compile or import error — makes
:func:`load` return None, leaves nothing under ``kernels/`` and is named
by :func:`unavailable_cause`; :mod:`repro.kernels` then runs ``scalar``.
"""

import contextlib
import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import time

import numpy as np

MODULE_NAME = "repro.kernels._native"
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "_native.c")
#: Seconds one compile may take, and a process may wait on another's.
BUILD_TIMEOUT_S = 300

#: Run by ``sys.executable`` in the build child: compile ``argv[1]``
#: with the numpy headers in ``argv[2]`` under the scratch directory
#: ``argv[3]``; print the built file's path, or exit naming the error.
_BUILD_SCRIPT = """\
import os, sys
source, include, build_dir = sys.argv[1:4]
try:
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext
    command = build_ext(Distribution({"ext_modules": [Extension(
        "repro.kernels._native", [source], include_dirs=[include])]}))
    command.build_lib = build_dir
    command.build_temp = os.path.join(build_dir, "tmp")
    command.ensure_finalized()
    command.run()
except Exception as exc:
    sys.exit(f"{type(exc).__name__}: {exc}")
print(command.get_ext_fullpath("repro.kernels._native"))
"""

#: The loaded extension once :func:`load` succeeded.
_native = None
#: Why the extension is unavailable, once a resolution failed.
_cause = None
_resolved = False


class NativeBuildError(RuntimeError):
    """The child ``build_ext`` run failed (the message is its error)."""


def build_key():
    """SHA-256 over the C source, the extension suffix and numpy's
    version: the name of this host's build directory."""
    digest = hashlib.sha256()
    with open(SOURCE, "rb") as handle:
        digest.update(handle.read())
    for part in (sysconfig.get_config_var("EXT_SUFFIX"), np.__version__):
        digest.update(b"\0" + str(part).encode())
    return digest.hexdigest()


def load():
    """The compiled extension, built on first use; None when this host
    cannot build or load it.  Resolves once per process."""
    global _native, _cause, _resolved
    if not _resolved:
        _resolved = True
        try:
            path = _ensure_built()
            loader = importlib.machinery.ExtensionFileLoader(
                MODULE_NAME, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(MODULE_NAME, loader))
            loader.exec_module(module)
            _native = module
        except Exception as exc:
            _cause = f"{type(exc).__name__}: {exc}"
    return _native


def unavailable_cause():
    """Why :func:`load` returned None (None while it has not failed)."""
    return _cause


def _ensure_built():
    """Path of the published extension, compiling it first if absent."""
    from repro.reliability.locks import FileLock
    from repro.store import default_cache_dir

    key_dir = os.path.join(os.path.expanduser(default_cache_dir()),
                           "kernels", build_key())
    target = os.path.join(
        key_dir, "_native" + sysconfig.get_config_var("EXT_SUFFIX"))
    if os.path.exists(target):
        return target
    lock = FileLock(key_dir + ".lock")
    if not lock.acquire(exclusive=True, timeout=BUILD_TIMEOUT_S):
        raise NativeBuildError(f"timed out waiting for {lock.path}")
    try:
        if not os.path.exists(target):    # or another process built it
            _build(target)
    finally:
        if not os.path.exists(target):
            # A failed build leaves nothing under kernels/.
            with contextlib.suppress(OSError):
                os.rmdir(key_dir)
            with contextlib.suppress(OSError):
                os.remove(lock.path)
        lock.release()
    return target


def _build(target):
    """Compile the extension in a child process and publish it at
    ``target``; timed as ``kernel.native.build`` in telemetry."""
    from repro import telemetry
    from repro.reliability.cleanup import register_scratch, unregister_scratch

    key_dir = os.path.dirname(target)
    os.makedirs(key_dir, exist_ok=True)
    scratch = register_scratch(tempfile.mkdtemp(prefix=".build-",
                                                dir=key_dir))
    start = time.perf_counter()
    try:
        child = subprocess.run(
            [sys.executable, "-c", _BUILD_SCRIPT, SOURCE, np.get_include(),
             scratch],
            cwd=scratch, capture_output=True, text=True,
            timeout=BUILD_TIMEOUT_S)
        if child.returncode != 0:
            lines = (child.stderr or child.stdout).strip().splitlines()
            raise NativeBuildError(
                lines[-1] if lines
                else f"build_ext exited with status {child.returncode}")
        os.replace(child.stdout.strip().splitlines()[-1], target)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        unregister_scratch(scratch)
        telemetry.add_time("kernel.native.build",
                           time.perf_counter() - start)
    telemetry.counter("kernel.native.built")


def warm_lru(state_sets, lines, mask, assoc, want_access_info=False):
    """Batch-access an LRU set-associative cache in one C loop.

    ``state_sets`` holds each set's resident lines LRU->MRU (the
    representation of :class:`~repro.caches.cache.SetAssocCache`) and is
    updated in place to the post-batch state: only the sets the batch
    reaches are read, and each one it changed is rewritten in place
    (lines it still holds keep their int objects); ``mask`` is
    ``n_sets - 1``.  Returns ``(hits, hit_mask, occupancy_before)``:
    the per-access hit mask and the set's valid ways before each access,
    in batch order, when ``want_access_info``, else ``None`` for both.
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    if lines.shape[0] == 0:
        if want_access_info:
            return 0, np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64)
        return 0, None, None
    return _native.warm_lru(state_sets, lines, int(mask), int(assoc),
                            bool(want_access_info))


def warm_hierarchy(l1_sets, llc_sets, lines, l1_mask, l1_assoc,
                   llc_mask, llc_assoc):
    """Fused L1+LLC LRU warm; returns ``(l1_hits, llc_hits)``.

    One interleaved C loop over both levels — the LLC sees exactly the
    L1-miss substream, matching the scalar reference loop in
    :meth:`repro.caches.hierarchy.CacheHierarchy.warm`.
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    if lines.shape[0] == 0:
        return 0, 0
    return _native.warm_hierarchy(l1_sets, llc_sets, lines,
                                  int(l1_mask), int(l1_assoc),
                                  int(llc_mask), int(llc_assoc))


def clear_sets(state_sets):
    """Empty every set list of an LRU cache in place, in one C loop."""
    _native.clear_sets(state_sets)


def mshr_walk(slot_lines, slot_deadlines, occupied, lines, positions,
              allocate, window):
    """Walk a run of accesses through an MSHR file in one C loop.

    The file's state is ``occupied`` outstanding entries, in insertion
    order, in the int64 arrays ``slot_lines``/``slot_deadlines`` (one
    slot per MSHR), which are updated in place.  Per access: drop the
    entries due by its position, look its line up, and on a miss where
    ``allocate`` is set take a free slot until ``position + window`` or
    count a failure.  Returns ``(hit_mask, occupied, hits, allocations,
    failures)``.
    """
    return _native.mshr_walk(
        slot_lines, slot_deadlines, int(occupied),
        np.ascontiguousarray(lines, dtype=np.int64),
        np.ascontiguousarray(positions, dtype=np.int64),
        np.ascontiguousarray(allocate, dtype=bool),
        int(window))


def classify_llc(state_sets, mask, assoc, lines, positions, pcs,
                 capacities, full_capacity, slot_lines, slot_deadlines,
                 occupied, window, predictor):
    """A region's L1-miss substream through the lukewarm LLC and the
    MSHRs, in access order, in one C loop: the classifier's LLC phase.

    Per access (``lines``, at region position ``positions``): an LLC
    hit updates recency; an outstanding miss is an MSHR hit and skips
    the fetch; a full set is a conflict miss; otherwise ``predictor``
    decides at the access's ``capacities`` entry, and a capacity miss
    below ``full_capacity`` is asked again at ``full_capacity`` and
    becomes a conflict miss if that hits.  Every outcome but a warming
    hit allocates an MSHR; then the line is fetched.

    ``predictor`` is the DSW key table ``(keys, stack)`` — key lines
    ascending and each one's stack distance, ``-1`` for a cold key —
    or a callable ``f(pc, line, capacity) -> code`` called once per
    decision in order.  ``state_sets`` is updated as
    :func:`warm_lru` updates it, and the MSHR file's slot arrays (see
    :func:`mshr_walk`) in place, but neither on an error, a raising
    predictor included.  Returns ``(codes, outcome_positions,
    (llc_hits, llc_misses, warming_hits), (occupied, mshr_hits,
    allocations, failures), (predicted, rechecks, unknown))``: the
    int8 code and position of every access past the LLC, the LLC's
    counter deltas and the warming hits, the MSHR file's occupancy and
    counts, and how many decisions the predictor made, how many of
    them the key table rechecked and how many lines it did not hold.
    """
    return _native.classify_llc(
        state_sets, int(mask), int(assoc),
        np.ascontiguousarray(lines, dtype=np.int64),
        np.ascontiguousarray(positions, dtype=np.int64),
        np.ascontiguousarray(pcs, dtype=np.int64),
        np.ascontiguousarray(capacities, dtype=np.int64),
        int(full_capacity), slot_lines, slot_deadlines, int(occupied),
        int(window), predictor)


def draw_kinds(kind_rng, branch_rng, n, mem_threshold, store_threshold,
               branch_threshold, mispredict_rate, instr_offset):
    """One chunk of a phase's kind and branch draws, in one C call.

    ``kind_rng`` gives each of the ``n`` instructions one double: below
    ``mem_threshold`` it is a memory access (a STORE below
    ``store_threshold``, else a LOAD), else a BRANCH below
    ``branch_threshold``, else an ALU op.  ``branch_rng`` then gives
    each branch, in order, one double; it mispredicts below
    ``mispredict_rate``.  The two generators must be distinct (each
    one's lock is held across the call), and both advance exactly as
    ``random()`` calls of those lengths would advance them.  Returns
    ``(kind, mem_instr, mem_store, branch_instr, branch_mispred)``, the
    positions offset by ``instr_offset``.
    """
    kind_bits = kind_rng.bit_generator
    branch_bits = branch_rng.bit_generator
    with kind_bits.lock, branch_bits.lock:
        return _native.draw_kinds(
            kind_bits.capsule, branch_bits.capsule, int(n),
            float(mem_threshold), float(store_threshold),
            float(branch_threshold), float(mispredict_rate),
            int(instr_offset))


def count_below(rng, n, threshold):
    """How many of ``rng``'s next ``n`` doubles fall below
    ``threshold``; advances ``rng`` past them and allocates nothing."""
    bits = rng.bit_generator
    with bits.lock:
        return _native.count_below(bits.capsule, int(n), float(threshold))


def mixture_choice(rng, cdf, n, want_choices=True):
    """``rng.choice(len(cdf), size=n, p=...)`` over that call's own
    ``cdf`` (``p.cumsum()`` divided by its last entry), in one C loop.

    Returns ``(choices, counts)``: the int32 choice per draw (None
    unless ``want_choices``) and the int64 count per component.
    """
    bits = rng.bit_generator
    with bits.lock:
        return _native.mixture_choice(bits.capsule, cdf, int(n),
                                      bool(want_choices))


def mixture_scatter(choices, parts, pc_base):
    """Interleave per-component draws back into choice order.

    ``parts[k]`` is component ``k``'s ``(lines, pcs)`` for every access
    that chose it, in order, or None when none did; each access takes
    its component's next line and ``pc + pc_base[k]``.  Raises
    ``ValueError`` when a part's length differs from its choice count.
    """
    parts = [None if part is None else
             (np.ascontiguousarray(part[0], dtype=np.int64),
              np.ascontiguousarray(part[1], dtype=np.int32))
             for part in parts]
    return _native.mixture_scatter(choices, parts, pc_base)


def build_index(lines, page_shift):
    """A trace's whole in-RAM index in one C call.

    ``lines`` is the trace's line array, adopted without a copy when it
    is already contiguous int64 (a memory-mapped one included), and
    each page is ``line >> page_shift``.  Returns ``(lines_tables,
    pages_tables)``, each ``(positions, keys, starts, per_access)``: the
    access positions grouped by key (stably), the distinct keys
    ascending, each key's run start (plus ``n`` at the end), and the one
    per-access table that granularity's queries read — each access's
    next same-line position (-1 if none) for lines, its rank among its
    page's accesses for pages.
    """
    return _native.build_index(np.ascontiguousarray(lines, dtype=np.int64),
                               int(page_shift))



def merge_runs(older, newer, out):
    """Merge two adjacent time-ordered index segments into ``out``.

    ``older`` and ``newer`` are ``(positions, keys, starts)`` of one
    granularity, every older position before every newer one; ``out``
    is the writable int64 table their merged positions fill (a spill
    map or heap).  Returns the merged ``(keys, starts)``; each key's run
    in ``out`` is its older run followed by its newer run.  Raises
    ``ValueError`` when the tables do not fit together.
    """
    return _native.merge_runs(*(np.ascontiguousarray(t, dtype=np.int64)
                                for t in (*older, *newer)), out)

def reuse_and_stack_distances_native(lines):
    """Exact ``(reuse, stack)`` distances via the compiled Fenwick loop.

    The previous-access links come from the vectorized
    ``previous_access_index`` (one argsort); the Bennett-Kruskal walk
    itself runs in C.  Bit-identical to the scalar reference.
    """
    from repro.caches.stack import previous_access_index

    lines = np.asarray(lines)
    n = lines.shape[0]
    prev = np.ascontiguousarray(previous_access_index(lines),
                                dtype=np.int64)
    reuse = np.where(prev >= 0,
                     np.arange(n, dtype=np.int64) - prev - 1, -1)
    return reuse, _native.stack_from_prev(prev)
