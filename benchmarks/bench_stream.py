"""Streaming execution-core benchmark: bounded memory on big traces.

Extends the perf record (``BENCH_kernels.json``, ``BENCH_store.json``)
with the scalability trajectory of the spillable-index execution core,
written to ``BENCH_stream.json``.  For each trace size (1M and 10M
memory accesses by default):

* ``index_build`` — the bounded, spilled construction
  (``TraceIndex.build_spilled``: one ``LiveIndexBuilder`` append of the
  whole trace and one seal) vs the in-RAM build (``TraceIndex(trace)``,
  one compiled call on the native backend): wall-clock, peak
  additional RSS, and the builder's own ``peak_transient_bytes``
  accounting (the honest algorithmic bound — memory-mapped output pages
  are file-backed and reclaimable, so the OS-level number is an upper
  bound that still lands far below the in-RAM build's).  The record
  keeps the keys ``chunked_spilled`` and ``argsort`` for the two legs,
  so their history lines up across builders.
* ``delorean_run`` — a DeLorean run on the imported container, fully
  materialized + in-RAM index vs streamed (memory-mapped trace) +
  spilled memory-mapped index.  The streamed run touches only the
  pages its watchpoints direct it to, so its peak additional RSS
  scales with the sampled regions, not the trace length — and its
  result is asserted bit-identical to the materialized run's.

Every measurement runs in its own spawned child process so the peak is
clean per configuration (``VmHWM`` from ``/proc/self/status`` — unlike
``ru_maxrss`` it resets across ``exec``, so a spawned child never
inherits the parent's peak); a do-nothing child's RSS is subtracted as
the interpreter baseline.

Run standalone (``python benchmarks/bench_stream.py``), through pytest
or via the unified runner (``python benchmarks/bench.py stream``),
which owns the schema, the history and the regression gate.
``REPRO_BENCH_PROFILE=quick`` shrinks the trace sizes (harness smoke;
the committed JSON uses the default profile).
"""

import multiprocessing
import os
import pathlib
import resource
import shutil
import sys
import tempfile
import time

import numpy as np

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

QUICK_PROFILE = os.environ.get("REPRO_BENCH_PROFILE") == "quick"
ACCESS_SIZES = (200_000,) if QUICK_PROFILE else (1_000_000, 10_000_000)
N_REGIONS = 5
MEM_FRACTION = 0.4


def peak_rss_kb():
    """This process's high-water resident set, in KiB.

    ``/proc/self/status`` ``VmHWM`` where available (it resets on
    ``exec``, so spawned bench children start from zero), falling back
    to ``ru_maxrss`` elsewhere.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def synthesize_container(n_accesses, path, seed=0):
    """Write a mixed-locality trace with ``n_accesses`` memory accesses.

    Built directly as arrays (the phase engines would be needlessly slow
    at 10M accesses): a hot set, a strided sweep and a cold uniform tail
    — enough locality structure for DeLorean's passes to do real work.
    """
    from repro.trace.record import Kind, Trace
    from repro.traceio.container import write_trace

    rng = np.random.default_rng(seed)
    n_instructions = int(n_accesses / MEM_FRACTION)
    kind = np.zeros(n_instructions, dtype=np.uint8)
    mem_instr = np.sort(rng.choice(n_instructions, size=n_accesses,
                                   replace=False).astype(np.int64))
    kind[mem_instr] = Kind.LOAD

    hot = rng.integers(0, 2_048, size=n_accesses)
    strided = (np.arange(n_accesses, dtype=np.int64) * 4) % 65_536 + 4_096
    cold = rng.integers(0, n_accesses // 8 + 1024, size=n_accesses) + 131_072
    mix = rng.random(n_accesses)
    mem_line = np.where(mix < 0.6, hot,
                        np.where(mix < 0.85, strided, cold)).astype(np.int64)
    mem_pc = (mem_line % 97).astype(np.int32)
    mem_store = rng.random(n_accesses) < 0.3

    n_branches = n_instructions // 50
    branch_instr = np.setdiff1d(
        np.sort(rng.choice(n_instructions, size=n_branches * 2,
                           replace=False).astype(np.int64)),
        mem_instr)[:n_branches]
    kind[branch_instr] = Kind.BRANCH
    branch_mispred = rng.random(branch_instr.shape[0]) < 0.05

    trace = Trace(kind=kind, mem_instr=mem_instr, mem_line=mem_line,
                  mem_pc=mem_pc, mem_store=mem_store,
                  branch_instr=branch_instr, branch_mispred=branch_mispred,
                  name=f"bench{n_accesses}")
    trace.validate()
    write_trace(trace, path)
    return int(trace.n_instructions)


def _result_identity(result):
    return (result.cpi, result.mpki, result.total_seconds,
            repr(sorted(result.extras.items())),
            [(repr(sorted(r.stats.counts.items())),
              r.timing.total_cycles) for r in result.regions])


# -- child workloads (top-level so they spawn) -------------------------------

def child_baseline(queue, container, cache_dir, n_instructions):
    # Import the union of what the measured children import, so the
    # subtracted baseline is interpreter + modules, not workload data.
    import repro.caches.hierarchy  # noqa: F401
    import repro.core  # noqa: F401
    import repro.core.context  # noqa: F401
    import repro.sampling.plan  # noqa: F401
    import repro.store  # noqa: F401
    import repro.traceio.workload  # noqa: F401
    import repro.vff.index  # noqa: F401

    queue.put({"ru_maxrss_kb": peak_rss_kb()})


def child_index_argsort(queue, container, cache_dir, n_instructions):
    import tracemalloc

    tracemalloc.start()
    from repro.traceio.workload import ImportedWorkload
    from repro.vff.index import TraceIndex

    workload = ImportedWorkload(None, container, streaming=False)
    start = time.perf_counter()
    # The in-RAM build makes every table a DeLorean run reads, the
    # lines' successors and the pages' ranks included.
    TraceIndex(workload.trace)
    queue.put({
        "wall_seconds": time.perf_counter() - start,
        "ru_maxrss_kb": peak_rss_kb(),
        "heap_peak_bytes": tracemalloc.get_traced_memory()[1],
    })


def child_index_spilled(queue, container, cache_dir, n_instructions):
    import tracemalloc

    tracemalloc.start()
    from repro.store import ArtifactStore
    from repro.traceio.workload import ImportedWorkload
    from repro.vff.index import TraceIndex

    workload = ImportedWorkload(None, container, streaming=True)
    store = ArtifactStore(root=cache_dir, enabled=True)
    key = {"artifact": "trace-index-spill",
           "trace_fingerprint": workload.trace_fingerprint}
    start = time.perf_counter()
    index = TraceIndex.build_spilled(workload.trace, store, key)
    stats = index.build_stats
    queue.put({
        "wall_seconds": time.perf_counter() - start,
        "ru_maxrss_kb": peak_rss_kb(),
        "heap_peak_bytes": tracemalloc.get_traced_memory()[1],
        "peak_transient_bytes": stats.peak_transient_bytes,
        "key_state_bytes": stats.key_state_bytes,
        "table_bytes": stats.table_bytes,
        "n_chunks": stats.n_chunks,
    })


def child_delorean_materialized(queue, container, cache_dir,
                                n_instructions):
    import tracemalloc

    tracemalloc.start()
    from repro.caches.hierarchy import paper_hierarchy
    from repro.core import DeLorean
    from repro.sampling.plan import SamplingPlan
    from repro.traceio.workload import ImportedWorkload
    from repro.vff.index import TraceIndex

    workload = ImportedWorkload(None, container, streaming=False)
    plan = SamplingPlan(n_instructions=n_instructions,
                        n_regions=N_REGIONS)
    start = time.perf_counter()
    result = DeLorean().run(workload, plan, paper_hierarchy(8 << 20),
                            index=TraceIndex(workload.trace), seed=1)
    queue.put({
        "wall_seconds": time.perf_counter() - start,
        "ru_maxrss_kb": peak_rss_kb(),
        "heap_peak_bytes": tracemalloc.get_traced_memory()[1],
        "identity": _result_identity(result),
    })


def child_delorean_streaming(queue, container, cache_dir, n_instructions):
    import tracemalloc

    tracemalloc.start()
    from repro.caches.hierarchy import paper_hierarchy
    from repro.core import DeLorean
    from repro.core.context import ExecutionContext
    from repro.sampling.plan import SamplingPlan
    from repro.store import ArtifactStore
    from repro.traceio.workload import ImportedWorkload

    workload = ImportedWorkload(None, container, streaming=True)
    store = ArtifactStore(root=cache_dir, enabled=True)
    plan = SamplingPlan(n_instructions=n_instructions,
                        n_regions=N_REGIONS)
    context = ExecutionContext(workload, store=store, seed=1)
    start = time.perf_counter()
    result = DeLorean().run(workload, plan, paper_hierarchy(8 << 20),
                            context=context)
    queue.put({
        "wall_seconds": time.perf_counter() - start,
        "ru_maxrss_kb": peak_rss_kb(),
        "heap_peak_bytes": tracemalloc.get_traced_memory()[1],
        "index_mapped": context.index.mapped,
        "identity": _result_identity(result),
    })


def measure(target, container, cache_dir, n_instructions):
    context = multiprocessing.get_context("spawn")
    queue = context.Queue()
    process = context.Process(
        target=target, args=(queue, str(container), str(cache_dir),
                             n_instructions))
    process.start()
    payload = None
    while payload is None:
        try:
            payload = queue.get(timeout=2.0)
        except Exception:
            # No payload yet: fail fast if the child died (OOM-kill,
            # crash before queue.put) instead of blocking forever.
            if not process.is_alive():
                process.join()
                raise RuntimeError(
                    f"{target.__name__} exited {process.exitcode} "
                    "without reporting a payload") from None
    process.join()
    if process.exitcode != 0:
        raise RuntimeError(f"{target.__name__} exited "
                           f"{process.exitcode}")
    return payload


def collect():
    """Measure every trace size; the raw suite report (no file I/O)."""
    report = {"profile": "quick" if QUICK_PROFILE else "default",
              "n_regions": N_REGIONS, "sizes": []}
    for n_accesses in ACCESS_SIZES:
        workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench-stream-"))
        try:
            container = workdir / "bench.trace.npz"
            n_instructions = synthesize_container(n_accesses, container)
            cache_dir = workdir / "cache"

            baseline = measure(child_baseline, container, cache_dir,
                               n_instructions)["ru_maxrss_kb"]

            def rss_mb(payload):
                return round(
                    max(0, payload["ru_maxrss_kb"] - baseline) / 1024, 1)

            def heap_mb(payload):
                return round(payload["heap_peak_bytes"] / 2**20, 1)

            argsort = measure(child_index_argsort, container, cache_dir,
                              n_instructions)
            spilled = measure(child_index_spilled, container, cache_dir,
                              n_instructions)
            materialized = measure(child_delorean_materialized, container,
                                   cache_dir, n_instructions)
            # The spilled index is already published: this child opens
            # the mapped tables, exactly like a warm suite-runner worker.
            streaming = measure(child_delorean_streaming, container,
                                cache_dir, n_instructions)

            assert streaming["index_mapped"], "spilled index not mapped"
            assert streaming["identity"] == materialized["identity"], \
                "streamed DeLorean diverged from materialized"

            entry = {
                "n_accesses": n_accesses,
                "n_instructions": n_instructions,
                "container_bytes": container.stat().st_size,
                "index_build": {
                    "argsort": {
                        "wall_seconds": round(argsort["wall_seconds"], 3),
                        "peak_rss_mb": rss_mb(argsort),
                        "peak_alloc_mb": heap_mb(argsort),
                    },
                    "chunked_spilled": {
                        "wall_seconds": round(spilled["wall_seconds"], 3),
                        "peak_rss_mb": rss_mb(spilled),
                        "peak_alloc_mb": heap_mb(spilled),
                        "peak_transient_mb": round(
                            spilled["peak_transient_bytes"] / 2**20, 1),
                        "key_state_mb": round(
                            spilled["key_state_bytes"] / 2**20, 1),
                        "table_mb": round(
                            spilled["table_bytes"] / 2**20, 1),
                        "n_chunks": spilled["n_chunks"],
                    },
                },
                "delorean_run": {
                    "materialized": {
                        "wall_seconds": round(
                            materialized["wall_seconds"], 3),
                        "peak_rss_mb": rss_mb(materialized),
                        "peak_alloc_mb": heap_mb(materialized),
                    },
                    "streaming_spilled": {
                        "wall_seconds": round(streaming["wall_seconds"], 3),
                        "peak_rss_mb": rss_mb(streaming),
                        "peak_alloc_mb": heap_mb(streaming),
                    },
                    "bit_identical": True,
                    # Unreclaimable (allocated) memory is the bound the
                    # execution core promises; total-RSS also counts
                    # resident *file-backed* pages of the mapped trace
                    # and index tables, which the OS reclaims under
                    # pressure without swap.
                    "alloc_reduction": round(
                        max(1e-9, heap_mb(materialized))
                        / max(1e-9, heap_mb(streaming)), 1),
                    "rss_reduction": round(
                        max(1e-9, rss_mb(materialized))
                        / max(1e-9, rss_mb(streaming)), 1),
                },
            }
            report["sizes"].append(entry)
            build = entry["index_build"]
            run = entry["delorean_run"]
            print(f"{n_accesses:,} accesses: build alloc "
                  f"{build['argsort']['peak_alloc_mb']}MB -> "
                  f"{build['chunked_spilled']['peak_transient_mb']}MB "
                  f"transient; run alloc "
                  f"{run['materialized']['peak_alloc_mb']}MB -> "
                  f"{run['streaming_spilled']['peak_alloc_mb']}MB "
                  f"({run['alloc_reduction']}x alloc, "
                  f"{run['rss_reduction']}x rss), bit-identical")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    if not QUICK_PROFILE:
        largest = report["sizes"][-1]
        build = largest["index_build"]
        # The algorithmic bound: the bounded builder's in-RAM working
        # set is a tiny fraction of the tables it produces.  (The quick
        # profile's trace is smaller than one default chunk, so the
        # ratio is only meaningful at the real sizes.)
        assert build["chunked_spilled"]["peak_transient_mb"] < \
            build["chunked_spilled"]["table_mb"] / 4
        # The streamed run's allocated peak must undercut the
        # materialized run's decisively (regions, not accesses), and
        # even the elastic total-RSS number must come in lower.
        run = largest["delorean_run"]
        assert run["streaming_spilled"]["peak_alloc_mb"] < \
            0.25 * run["materialized"]["peak_alloc_mb"], run
        assert run["streaming_spilled"]["peak_rss_mb"] < \
            run["materialized"]["peak_rss_mb"], run
    return report


def main():
    import bench

    return bench.write_suite("stream", collect())


def test_stream_benchmark():
    doc = main()
    assert doc["metrics"]["sizes"], "no measurements"
    for entry in doc["metrics"]["sizes"]:
        assert entry["delorean_run"]["bit_identical"]


if __name__ == "__main__":
    main()
