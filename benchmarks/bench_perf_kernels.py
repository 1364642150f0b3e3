"""Kernel performance benchmark: per-backend columns, one record.

Times each kernel on fixed 1M-access traces on both backends —
``scalar`` (per-access Python reference) and ``native`` (the compiled
extension, built on first use; measured only when it builds) — and
writes ``BENCH_kernels.json`` at the repo root with seconds /
accesses-per-second per kernel *and* backend.  Native speedup floors
that gate the perf trajectory (full profile):

* ``bulk_warm`` — the LRU warm kernel on a steady-state warm LLC, the
  functional-warming common case: >= 5x.
* ``stack_distances`` — the Bennett-Kruskal kernel on a mixed
  hot/uniform/streaming trace: >= 3x.
* ``bulk_warm_thrash`` — the thrash-heavy regime, where every reuse has
  a long set-local window (a numpy batch formulation lost to the scalar
  loop here): >= 1.5x, so no regime is left where scalar wins.
* ``hierarchy_warm`` — the fused L1+LLC warm behind the classify/Smarts
  region paths: >= 5x.

Run standalone (``python benchmarks/bench_perf_kernels.py``), through
pytest (``python -m pytest benchmarks/bench_perf_kernels.py``) or via
the unified runner (``python benchmarks/bench.py kernels``), which owns
the schema, the history and the regression gate.  Equivalence is
asserted on every measurement — the speedups only count because the
results are bit-identical.  ``REPRO_BENCH_PROFILE=quick`` shrinks the
traces for the CI perf gate (the speedup floors only gate the full
profile; short traces under-amortize the per-call setup).
"""

import os
import pathlib
import sys
import time

import numpy as np

BENCH_DIR = pathlib.Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))
if str(BENCH_DIR.parent / "src") not in sys.path:
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from repro import kernels
from repro.caches.cache import CacheConfig, SetAssocCache
from repro.caches.hierarchy import CacheHierarchy, HierarchyConfig
from repro.caches.stack import reuse_and_stack_distances_scalar
from repro.kernels import native as native_kernels
from repro.vff.index import TraceIndex
from repro.vff.watchpoint import WatchpointEngine

QUICK_PROFILE = os.environ.get("REPRO_BENCH_PROFILE") == "quick"

N_ACCESSES = 200_000 if QUICK_PROFILE else 1_000_000

#: Backends measured in this run: native only when the extension built.
MEASURED = tuple(b for b in kernels.BACKENDS
                 if b != "native" or kernels.native_available())


def steady_state_trace(rng, n_sets=1024, assoc=16, hot_per_set=4):
    """Warm-LLC steady state: full sets, hot subset cycling at short
    set-local reuse — where functional warming spends its time.

    The hot lines rotate round-robin, so every hit moves a mid-stack
    line back to MRU (the scalar loop's full list scan plus move), while
    set-local reuse stays far below the associativity.
    """
    del rng
    resident = np.arange(n_sets * assoc, dtype=np.int64) + (1 << 20)
    hot = resident[: hot_per_set * n_sets]
    lines = hot[np.arange(N_ACCESSES) % hot.shape[0]]
    return resident, lines, CacheConfig(n_sets * assoc * 64, assoc=assoc)


def mixed_trace(rng):
    """Hot working set + large uniform set + streaming component."""
    hot = rng.integers(0, 512, N_ACCESSES)
    big = rng.integers(0, 65536, N_ACCESSES)
    stream = np.arange(N_ACCESSES) % 8192
    pick = rng.random(N_ACCESSES)
    return (np.where(pick < 0.6, hot,
                     np.where(pick < 0.85, big, stream))
            .astype(np.int64) + (1 << 20))


#: Best-of reps per measurement (container timing jitter).
REPS = 2 if QUICK_PROFILE else 3


def timed(f):
    t0 = time.perf_counter()
    result = f()
    return result, time.perf_counter() - t0


def _warm_kernel(backend, cache, lines):
    """One raw warm-kernel call for ``backend`` (no dispatch)."""
    if backend == "scalar":
        return cache.warm_scalar(lines)[0]
    return native_kernels.warm_lru(
        cache._sets, lines, cache._mask, cache.assoc)[0]


def _bench_warm(resident, lines, config):
    times = {}
    reference = None
    for _ in range(REPS):
        for backend in MEASURED:
            cache = SetAssocCache(config)
            if resident is not None:
                cache.warm_scalar(resident)
                cache.hits = cache.misses = 0
            hits, elapsed = timed(
                lambda b=backend, c=cache: _warm_kernel(b, c, lines))
            times[backend] = min(times.get(backend, float("inf")), elapsed)
            if reference is None:
                reference = (hits, cache._sets)
            else:
                assert (hits, cache._sets) == reference, backend
    return times


def bench_bulk_warm(rng):
    resident, lines, config = steady_state_trace(rng)
    return _bench_warm(resident, lines, config)


def bench_thrash_warm(rng):
    lines = mixed_trace(rng)
    return _bench_warm(None, lines, CacheConfig(128 * 1024, assoc=8))


def bench_stack(rng):
    lines = mixed_trace(rng)
    impls = {
        "scalar": reuse_and_stack_distances_scalar,
        "native": native_kernels.reuse_and_stack_distances_native,
    }
    times = {}
    reference = None
    for _ in range(REPS):
        for backend in MEASURED:
            (_, stack), elapsed = timed(lambda b=backend: impls[b](lines))
            times[backend] = min(times.get(backend, float("inf")), elapsed)
            if reference is None:
                reference = stack
            else:
                assert np.array_equal(stack, reference), backend
    return times


def bench_hierarchy_warm(rng):
    resident, lines, _ = steady_state_trace(rng, n_sets=512, assoc=16)
    config = HierarchyConfig(
        l1d=CacheConfig(16 * 1024, assoc=2),
        l1i=CacheConfig(16 * 1024, assoc=2),
        llc=CacheConfig(512 * 16 * 64, assoc=16),
    )
    times = {}
    reference = None
    for _ in range(REPS):
        for backend in MEASURED:
            with kernels.use_backend(backend):
                hierarchy = CacheHierarchy(config)
                hierarchy.warm(resident)
                result, elapsed = timed(lambda h=hierarchy: h.warm(lines))
            times[backend] = min(times.get(backend, float("inf")), elapsed)
            if reference is None:
                reference = result
            else:
                assert result == reference, backend
    return times


class _FakeTrace:
    def __init__(self, mem_line):
        self.mem_line = mem_line
        self.n_accesses = mem_line.shape[0]


def bench_watchpoints(rng):
    lines = mixed_trace(rng)
    index = TraceIndex(_FakeTrace(lines))
    engine = WatchpointEngine(index)
    watched = np.unique(rng.choice(lines, 3000))
    times = {}
    reference = None
    for backend in MEASURED:
        with kernels.use_backend(backend):
            profile, elapsed = timed(
                lambda: engine.profile_window(
                    watched, N_ACCESSES // 8, 7 * N_ACCESSES // 8))
        times[backend] = elapsed
        key = (profile.last_access, profile.total_stops)
        if reference is None:
            reference = key
        else:
            assert key == reference, backend
    return times


def collect():
    """Measure every kernel on every backend; the raw suite report."""
    report = {"n_accesses": N_ACCESSES, "backends": list(MEASURED),
              "kernels": {}}
    benches = [
        ("bulk_warm", bench_bulk_warm, 0),
        ("stack_distances", bench_stack, 1),
        ("hierarchy_warm", bench_hierarchy_warm, 2),
        ("watchpoint_profile", bench_watchpoints, 3),
        ("bulk_warm_thrash", bench_thrash_warm, 4),
    ]
    for name, bench, seed in benches:
        times = bench(np.random.default_rng(seed))
        entry = {}
        for backend in MEASURED:
            entry[f"{backend}_seconds"] = round(times[backend], 4)
            entry[f"{backend}_accesses_per_sec"] = round(
                N_ACCESSES / times[backend])
        for backend in MEASURED:
            if backend != "scalar":
                entry[f"{backend}_speedup"] = round(
                    times["scalar"] / times[backend], 2)
        # Legacy column: the native speedup under its historical name.
        entry["speedup"] = entry.get("native_speedup")
        report["kernels"][name] = entry
        line = " ".join(f"{b} {times[b]:.3f}s" for b in MEASURED)
        print(f"{name}: {line}")
    return report


def main():
    import bench

    return bench.write_suite("kernels", collect())


def test_perf_kernels():
    doc = main()
    entries = doc["metrics"]["kernels"]
    if QUICK_PROFILE:
        return
    if "native" not in doc["metrics"]["backends"]:
        import pytest
        pytest.skip("no native backend: "
                    f"{native_kernels.unavailable_cause()}")
    native = {name: entry["native_speedup"]
              for name, entry in entries.items()}
    assert native["bulk_warm"] >= 5.0, native
    assert native["stack_distances"] >= 3.0, native
    # No regime where scalar wins.
    assert native["bulk_warm_thrash"] >= 1.5, native
    assert native["hierarchy_warm"] >= 5.0, native


if __name__ == "__main__":
    main()
