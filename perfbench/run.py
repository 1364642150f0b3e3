"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-quick --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs one untraced pass as the overhead baseline, then
traced passes that record a span around every layer boundary and report
the per-layer metrics (the spans are written under ``.perfbench/spans``).
Every metric is printed with its unit and base; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every
correctness check passed.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

def peak_rss_mb():
    """The process's resident-set high-water mark (VmHWM), in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def isolate(workdir):
    """Keep the run inside ``workdir``: no ``REPRO_*`` setting from the
    caller (so the default backend, spill policy and store apply, and
    telemetry and fault injection stay off), a fresh store and trace
    library, and temporary files under the checkout."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
    os.environ["REPRO_TRACE_DIR"] = str(workdir / "traces")
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)


def environment():
    from repro import kernels
    import numpy

    return {
        "backend": kernels.get_backend(),
        "native_available": kernels.native_available(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure(workload, seconds, traced):
    """Set up, run passes for about ``seconds``, check each one.

    Returns ``(setups, pass records, failures, baseline, tracer)``:
    ``setups`` holds the set-up times in host seconds and in ref units,
    and ``baseline`` is the untraced pass a traced run starts with.
    """
    import tracing
    from clock import Clock

    workload.prepare()
    clock = Clock()
    clock.begin_pass()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        clock.lap(time.perf_counter() - start)
    setups = (clock.segments, clock.refs())

    failures = []

    def check(record, label):
        failures.extend((f"{label}/{op}", message)
                        for op, message in workload.check(record))
        record.outputs = None

    begin = time.perf_counter()
    baseline = tracer = None
    if traced:
        baseline = workload.run_pass()
        check(baseline, "baseline")
        tracer = tracing.Tracer()
    records = []
    pass_seconds = []
    with tracing.instrument(tracer) if traced else nullcontext():
        while True:
            start = time.perf_counter()
            if traced:
                tracer.run_id = f"{workload.name}/pass{len(records)}"
            record = workload.run_pass(tracer if traced else tracing.NULL)
            check(record, f"pass{len(records)}")
            records.append(record)
            pass_seconds.append(time.perf_counter() - start)
            elapsed = time.perf_counter() - begin
            if elapsed + statistics.median(pass_seconds) > seconds:
                break
    return setups, records, failures, baseline, tracer


def end_to_end(setups, records):
    """The end-to-end metrics (see BENCHMARK.json).

    Times are in ref units (see clock.py): each timed segment's host
    seconds over the calibration kernel's median duration around it.
    ``setup_s`` must be in seconds: its ref value times the nominal
    duration of one ref unit.
    """
    import clock

    median = statistics.median
    return {
        "setup_s": (median(setups[1]) * clock.NOMINAL_UNIT_S, "s"),
        "wall_ref": (median(r.wall_ref for r in records), "ref"),
        "ref_per_maccess": (median(
            r.work_ref / (r.accesses / 1e6) for r in records), "ref"),
        "op_p50_ref": (median(x for r in records for x in r.op_ref), "ref"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


def host_seconds(setups, records):
    """The end-to-end times in host seconds, for the report."""
    median = statistics.median
    return [
        ("setup_host_s", median(setups[0]), "s",
         f"median of {len(setups[0])} set-ups"),
        ("wall_s", median(r.wall_s for r in records), "s", "per pass"),
        ("s_per_maccess", median(
            r.work_s / (r.accesses / 1e6) for r in records), "s",
         f"per 1M of {records[-1].accesses} accesses"),
        ("op_p50_s", median(x for r in records for x in r.op_seconds), "s",
         f"{sum(len(r.op_seconds) for r in records)} op samples"),
        ("ref_unit_s", median(r.unit_s for r in records), "s",
         "calibration kernel"),
    ]


def per_layer(records, baseline, tracer):
    """The per-layer metrics of a traced run, per traced pass."""
    import tracing

    n = len(records)
    wall, own = tracing.layer_times(tracer.spans)
    counts = tracer.counts
    counts["store.lookups"] = counts["store.hits"] + counts["store.misses"]
    traced_wall = sum(r.wall_s for r in records)
    attributed = sum(own[layer] for layer in tracing.LAYERS)
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}_s"] = (wall[layer] / n, "s")
        metrics[f"{layer}.self_s"] = (own[layer] / n, "s")
    for name in tracing.COUNTS:
        metrics[name] = (counts[name] / n, "count")
    for name, (numerator, denominator) in tracing.RATIOS.items():
        metrics[name] = (counts[numerator] / counts[denominator]
                         if counts[denominator] else 0.0, "ratio")
    metrics["tracing.wall_s"] = (traced_wall / n, "s")
    metrics["tracing.untraced_wall_s"] = (baseline.wall_s, "s")
    metrics["tracing.overhead_s"] = (traced_wall / n - baseline.wall_s, "s")
    metrics["tracing.overhead_ratio"] = (
        statistics.median(r.wall_ref for r in records) / baseline.wall_ref
        - 1.0, "ratio")
    metrics["tracing.coverage"] = (attributed / traced_wall, "ratio")
    metrics["tracing.unattributed_s"] = ((traced_wall - attributed) / n, "s")
    return metrics


def report_figures(workload, setups, records, failed, attempted):
    """Print the error rate, the host-second times and the workload's
    own figures, each with its base."""
    lines = [("error_rate", failed / attempted, "ratio",
              f"{failed} failed of {attempted} ops"),
             *host_seconds(setups, records), *workload.figures(records)]
    for name, value, unit, base in lines:
        print(f"  {name:40s} {value:14.6f} {unit:6s} [{base}]")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the smoke-test size")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench"))
    try:
        isolate(workdir)
        sys.path.insert(0, str(SRC))
        return run(args, workdir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir):
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
    env = environment()
    print(f"perfbench {workload.name} seed={args.seed} size={args.size} "
          f"trace={args.trace}")
    print("  " + " ".join(f"{key}={value}" for key, value in env.items()))

    setups, records, failures, baseline, tracer = measure(
        workload, args.seconds, bool(args.trace))
    attempted = (sum(r.attempted for r in records)
                 + (baseline.attempted if baseline else 0))
    failed = len({op for op, _ in failures})
    for op, message in failures:
        print(f"  CHECK FAILED {op}: {message}")

    last = records[-1]
    print(f"  base: {len(records)} passes, {last.accesses} accesses, "
          + ", ".join(f"{v} {k}" for k, v in last.base.items())
          + f", {last.attempted} ops per pass")
    if args.trace:
        metrics = per_layer(records, baseline, tracer)
        path = (ROOT / ".perfbench" / "spans"
                / f"{workload.name}-seed{args.seed}-{os.getpid()}.json")
        tracing.write_spans(str(path), tracer, {
            "workload": workload.name, "seed": args.seed,
            "size": args.size, "environment": env,
            "untraced_wall_s": baseline.wall_s,
            "traced_wall_s": [r.wall_s for r in records]})
        print(f"  spans: {path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(setups, records)
        report_figures(workload, setups, records, failed, attempted)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
