"""Live incremental warming benchmark: watermark latency and memory.

Extends the perf record with the online path, written to
``BENCH_live.json``: one feed (1M memory accesses at the full profile —
the acceptance fixture of ``tests/test_live_equivalence.py``) is
consumed twice,

* ``live`` — :class:`~repro.live.runner.LiveRunner` over a chunked
  producer: all four strategies refined incrementally at each of the
  four watermarks, index epochs spilled beside a store, per-watermark
  wall latency recorded;
* ``batch`` — the from-scratch reference: materialize the whole trace,
  then run each strategy once at the final plan.

Both legs run in their own spawned child (clean ``VmHWM``; a do-nothing
child's RSS is subtracted as the interpreter baseline) and report wall
clock, peak additional RSS and the tracemalloc heap peak.  The parent
resolves the kernel backend first, so a cold kernel cache compiles the
native kernel before either leg is timed.  The legs
must agree bit-for-bit on every strategy's CPI — a divergence is a
hard error here, not a gated metric, because it would mean the
equivalence the differential harness pins has broken in the field.

Run standalone (``python benchmarks/bench_live.py``) or via the unified
runner (``python benchmarks/bench.py live``), which owns the schema,
the history and the regression gate.  ``REPRO_BENCH_PROFILE=quick``
shrinks the feed (harness smoke; the committed JSON uses the default
profile).
"""

import multiprocessing
import os
import pathlib
import resource
import sys
import tempfile
import time

import numpy as np

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

QUICK_PROFILE = os.environ.get("REPRO_BENCH_PROFILE") == "quick"
N_WATERMARKS = 4
ACCESSES = 200_000 if QUICK_PROFILE else 1_000_000
MEM_FRACTION = 0.4
N_INSTRUCTIONS = int(ACCESSES / MEM_FRACTION)
GAP_INSTRUCTIONS = N_INSTRUCTIONS // N_WATERMARKS
CHUNK_INSTRUCTIONS = 1 << 17
#: Keeps seal transients O(chunk) instead of O(feed) below the default
#: 1M-access plateau (see DEFAULT_CHUNK_ACCESSES in repro.vff.index).
INDEX_CHUNK = 1 << 17
SEED = 5


def peak_rss_kb():
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _phases():
    from repro.trace.engines import (
        MultiWorkingSetEngine,
        SequentialEngine,
        UniformWorkingSetEngine,
        WorkingSetComponent,
    )
    from repro.trace.phases import PhaseSpec

    arena = np.arange(1 << 15, dtype=np.int64) + (1 << 16)
    engine = MultiWorkingSetEngine([
        WorkingSetComponent(
            UniformWorkingSetEngine(arena[:2048], n_pcs=24), 0.7),
        WorkingSetComponent(
            SequentialEngine(arena[2048:], n_pcs=8), 0.3, pc_base=24),
    ])
    return [PhaseSpec("big", N_INSTRUCTIONS, engine,
                      mem_fraction=MEM_FRACTION, branch_fraction=0.1)]


def _child_baseline(queue, workdir):
    queue.put({"rss_kb": peak_rss_kb()})


def _child_live(queue, workdir):
    import tracemalloc

    from repro.caches.hierarchy import paper_hierarchy
    from repro.live import LiveRunner
    from repro.store import ArtifactStore
    from repro.trace.stream import generate_chunks

    os.environ["REPRO_INDEX_CHUNK"] = str(INDEX_CHUNK)
    tracemalloc.start()
    store = ArtifactStore(root=os.path.join(workdir, "cache"),
                          enabled=True)
    start = time.perf_counter()
    watermark_seconds = []
    with LiveRunner(GAP_INSTRUCTIONS, paper_hierarchy(), name="bench-live",
                    seed=SEED, store=store, spill="always") as runner:
        last = start
        results = None
        for watermark in runner.feed(generate_chunks(
                _phases(), seed=SEED, name="bench-live",
                chunk_instructions=CHUNK_INSTRUCTIONS)):
            now = time.perf_counter()
            watermark_seconds.append(round(now - last, 4))
            last = now
            results = watermark.results
        queue.put({
            "wall_seconds": round(time.perf_counter() - start, 4),
            "watermark_seconds": watermark_seconds,
            "heap_peak_mb": round(
                tracemalloc.get_traced_memory()[1] / 2**20, 2),
            "rss_kb": peak_rss_kb(),
            "n_accesses": runner.workload._cell.value.n_accesses,
            "cpi": {name: result.cpi
                    for name, result in results.items()},
        })


def _child_batch(queue, workdir):
    import tracemalloc

    from repro.caches.hierarchy import paper_hierarchy
    from repro.live import PrefixWorkload
    from repro.live.runner import default_strategies
    from repro.sampling.plan import SamplingPlan
    from repro.trace.phases import build_trace

    tracemalloc.start()
    start = time.perf_counter()
    trace = build_trace(_phases(), seed=SEED, name="bench-live")
    plan = SamplingPlan(n_instructions=N_INSTRUCTIONS,
                        n_regions=N_WATERMARKS)
    hierarchy = paper_hierarchy()
    cpi = {}
    for name, strategy in default_strategies().items():
        workload = PrefixWorkload(trace, seed=SEED)
        cpi[name] = strategy.run(workload, plan, hierarchy,
                                 seed=SEED).cpi
    queue.put({
        "wall_seconds": round(time.perf_counter() - start, 4),
        "heap_peak_mb": round(
            tracemalloc.get_traced_memory()[1] / 2**20, 2),
        "rss_kb": peak_rss_kb(),
        "n_accesses": trace.n_accesses,
        "cpi": cpi,
    })


def _measure(target, workdir):
    context = multiprocessing.get_context("spawn")
    queue = context.Queue()
    process = context.Process(target=target, args=(queue, workdir))
    process.start()
    payload = None
    deadline = time.monotonic() + 900
    while payload is None:
        try:
            payload = queue.get(timeout=2.0)
        except Exception:
            if not process.is_alive():
                process.join()
                raise RuntimeError(
                    f"{target.__name__} exited {process.exitcode} "
                    "without a payload") from None
            if time.monotonic() >= deadline:
                process.kill()
                process.join()
                raise RuntimeError(f"{target.__name__} hung; killed") \
                    from None
    process.join()
    if process.exitcode != 0:
        raise RuntimeError(f"{target.__name__} exited {process.exitcode}")
    return payload


def collect():
    """The BENCH_live metrics document (see module docstring)."""
    from repro import kernels

    # Resolving the backend here builds the native kernel on a cold
    # kernel cache before either leg starts: both children then find it
    # built, and no watermark is charged the compile.
    kernels.get_backend()
    workdir = tempfile.mkdtemp(prefix="bench-live-")
    baseline_kb = _measure(_child_baseline, workdir)["rss_kb"]
    live = _measure(_child_live, workdir)
    batch = _measure(_child_batch, workdir)
    if live["cpi"] != batch["cpi"]:
        raise RuntimeError(
            "live/batch divergence — the watermark-equivalence "
            f"invariant broke: {live['cpi']} != {batch['cpi']}")
    if live["n_accesses"] != batch["n_accesses"]:
        raise RuntimeError("live/batch consumed different feeds")
    for leg in (live, batch):
        leg["peak_rss_mb"] = round(
            max(0, leg.pop("rss_kb") - baseline_kb) / 1024, 1)
    return {
        "profile": "quick" if QUICK_PROFILE else "default",
        "feed": {
            "n_instructions": N_INSTRUCTIONS,
            "n_accesses": live["n_accesses"],
            "gap_instructions": GAP_INSTRUCTIONS,
            "n_watermarks": N_WATERMARKS,
            "chunk_instructions": CHUNK_INSTRUCTIONS,
            "strategies": sorted(live["cpi"]),
        },
        "identical": True,
        "live": live,
        "batch": batch,
    }


def main():
    metrics = collect()
    live, batch = metrics["live"], metrics["batch"]
    print(f"feed: {metrics['feed']['n_accesses']:,} accesses, "
          f"{metrics['feed']['n_watermarks']} watermarks")
    print(f"live : {live['wall_seconds']:.2f}s wall, "
          f"{live['peak_rss_mb']:.1f} MB RSS, "
          f"{live['heap_peak_mb']:.1f} MB heap peak, "
          f"per-watermark {live['watermark_seconds']}")
    print(f"batch: {batch['wall_seconds']:.2f}s wall, "
          f"{batch['peak_rss_mb']:.1f} MB RSS, "
          f"{batch['heap_peak_mb']:.1f} MB heap peak")
    print("live == batch on every strategy CPI")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
