"""Smoke test of the benchmark itself, at tiny sizes.

Usage (from anywhere)::

    python3 perfbench/smoke.py

It checks three things:

1. Each workload's tiny size, run through ``run.py`` in both modes, exits
   0. Its last line lists exactly the metrics ``BENCHMARK.json``
   declares for that mode, each a number with the declared unit, and the
   report above it names every metric.
2. Each correctness check trips on a perturbed copy of a tiny pass's
   outputs, and passes on the unperturbed outputs.
3. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
   the command exits non-zero without printing a result.

Prints one line per problem and exits 1 if there is any.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 3


def run_command(cwd, workload, trace, size="tiny"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--size", size],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metric_lines(spec):
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            where = f"{workload} --trace {trace}"
            proc = run_command(ROOT, workload, trace)
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n"
                                f"{proc.stdout}{proc.stderr}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']} "
                                f"attempted={result['attempted']}")
            expected = {m["name"]: m["unit"] for m in declared}
            printed = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            if printed != expected:
                wrong_units = sorted(
                    name for name in expected.keys() & printed.keys()
                    if expected[name] != printed[name])
                problems.append(
                    f"{where}: metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(expected) - set(printed))}, "
                    f"extra {sorted(set(printed) - set(expected))}, "
                    f"wrong units {wrong_units}")
            report = "\n".join(lines[:-1])
            for name, metric in result["metrics"].items():
                value = metric["value"]
                if not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append(f"{where}: {name} = {value!r}")
                if name not in report:
                    problems.append(f"{where}: {name} not in the report")
    return problems


def _trips(label, check, expect_failure):
    failures = check()
    if expect_failure and not failures:
        return [f"{label}: perturbed output passed its check"]
    if not expect_failure and failures:
        return [f"{label}: clean output failed: {failures}"]
    return []


def check_perturbations():
    sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
    import run

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="smoke-", dir=ROOT / ".perfbench"))
    try:
        run.isolate(workdir)
        from workloads import BatchQuick, DseSweep, LiveFeed

        problems = []
        batch = BatchQuick(SEED, "tiny", workdir)
        record = batch.run_pass()
        problems += _trips("batch clean", lambda: batch.check(record), False)
        region = next(iter(record.outputs["results"].values())).regions[0]
        region.stats.counts["lukewarm_hit"] += 1
        problems += _trips("batch outcome sum", lambda: batch.check(record),
                           True)
        region.stats.counts["lukewarm_hit"] -= 1
        region.timing, timing = None, region.timing
        problems += _trips("batch CPI", lambda: batch.check(record), True)
        region.timing = timing

        dse = DseSweep(SEED, "tiny", workdir)
        record = dse.run_pass()
        problems += _trips("dse clean", lambda: dse.check(record), False)
        name, cold, replay, hits = record.outputs["sweeps"][0]
        record.outputs["sweeps"][0] = (name, cold, replay, 0)
        problems += _trips("dse not replayed", lambda: dse.check(record),
                           True)
        record.outputs["sweeps"][0] = (name, cold, replay, hits)
        replay.results[-1].regions[0].stats.counts["capacity_miss"] += 1
        problems += _trips("dse replay identity", lambda: dse.check(record),
                           True)

        live = LiveFeed(SEED, "tiny", workdir)
        live.prepare()
        record = live.run_pass()
        problems += _trips("live clean", lambda: live.check(record), False)
        live.reference["DeLorean"] += 1e-12
        problems += _trips("live equivalence", lambda: live.check(record),
                           True)
        live.reference["DeLorean"] -= 1e-12
        record.outputs["final"] = None
        problems += _trips("live short feed", lambda: live.check(record),
                           True)
        return problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_command(bare, "batch-quick", 0, size="full")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout "
                f"{proc.stdout!r}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = (check_metric_lines(spec) + check_perturbations()
                + check_bare_directory())
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
