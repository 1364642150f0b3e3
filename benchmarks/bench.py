"""Unified benchmark runner: one schema, one history, one gate.

``bench.py`` fronts the perf suites that seed the repo's perf
trajectory — ``kernels`` (native-vs-scalar kernel timings), ``store``
(cold-vs-warm artifact-store wins), ``stream`` (bounded-memory
scaling) and ``live`` (incremental watermark latency vs the batch
reference) — behind one history-carrying record written to the repo
root (``BENCH_kernels.json``, ``BENCH_store.json``,
``BENCH_stream.json``, ``BENCH_live.json``)::

    {
      "schema_version": 2,
      "suite": "kernels",
      "profile": "full" | "quick",
      "generated_utc": "...",
      "metrics": { ... suite-specific report, unchanged shape ... },
      "gate":    { "<metric>": <number>, ... },   # flat gate surface
      "history": [ {"generated_utc": ..., "profile": ..., "gate": ...} ]
    }

The flat ``gate`` dict is the regression surface.  The policy lives in
:mod:`repro.reporting.gates` so ``--check``, the trend report and
``python -m repro report gate`` agree: a metric regresses when it
worsens by more than 15% **and** more than its unit's absolute floor
(0.25 s wall, 8 MB RSS, 0.02 for rates, 2 for behavioral event
counts — sub-floor jitter never trips the gate) against the committed
``benchmarks/BASELINE.json`` for the active profile.  Direction is
metric-aware: hit rates are higher-is-better, everything else
lower-is-better.  ``--update-baseline`` records the current numbers
as the new baseline.

When ``REPRO_TELEMETRY`` is enabled and *all* runnable suites ran, a
fourth record — the ``behavior`` pseudo-suite, ``BENCH_behavior.json``
— derives behavioral gate metrics from the run's telemetry counters
(store hit rate overall and per label, pool retry/requeue and
failure counts, fault firings).  Those counts are
deterministic for a fixed profile, so behavioral drift fails the gate
even when wall time stays flat.

Prior runs (including pre-schema-v2 files) are folded into
``history`` so the trajectory survives regeneration; entries are
deduplicated by ``generated_utc`` (re-running and rewriting within
the same stamp never double-appends) and trimmed to the newest
``HISTORY_LIMIT`` (20) runs.  ``python -m repro report trends``
renders that history as per-metric trend lines.

Usage::

    python benchmarks/bench.py [kernels store stream ...]
                               [--quick] [--check] [--update-baseline]
                               [--report FILE]

``--quick`` (or ``REPRO_BENCH_PROFILE=quick``) shrinks every suite to
smoke size — the profile the CI perf gate runs on every push.  The
committed ``BENCH_*.json`` files use the full profile.  With
``REPRO_TELEMETRY`` enabled each suite runs under a ``phase.bench.*``
span, so ``python -m repro telemetry report`` profiles the bench run
itself.
"""

import argparse
import importlib
import json
import os
import pathlib
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
BASELINE_PATH = BENCH_DIR / "BASELINE.json"

for _entry in (str(SRC_DIR), str(BENCH_DIR)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from repro import telemetry  # noqa: E402
from repro.reporting import gates  # noqa: E402
# Re-exported for callers that sized thresholds off this module before
# the policy moved to repro.reporting.gates.
from repro.reporting.gates import (  # noqa: E402,F401
    FLOOR_MB, FLOOR_SECONDS, REGRESSION_RATIO)

SCHEMA_VERSION = 2
#: ``history`` keeps the newest 20 runs per suite — enough for the
#: trend report's drift window without the committed records growing
#: unboundedly.
HISTORY_LIMIT = 20


def _gate_kernels(metrics):
    # Gate every non-scalar backend column present in the run; a run
    # without the native extension simply carries no native keys.
    return {f"{name}.{key}": value
            for name, entry in metrics["kernels"].items()
            for key, value in entry.items()
            if key.endswith("_seconds") and not key.startswith("scalar")}


def _gate_store(metrics):
    return {
        "exhibit.cold_seconds": metrics["exhibit"]["cold_seconds"],
        "exhibit.warm_seconds": metrics["exhibit"]["warm_seconds"],
        "dse_sweep.cold_seconds": metrics["dse_sweep"]["cold_seconds"],
        "dse_sweep.warm_seconds": metrics["dse_sweep"]["warm_seconds"],
        "warmup_replay.replay_512mb_seconds":
            metrics["warmup_replay"]["replay_512mb_seconds"],
    }


def _gate_stream(metrics):
    gate = {}
    for entry in metrics["sizes"]:
        size = entry["n_accesses"]
        build = entry["index_build"]["chunked_spilled"]
        run = entry["delorean_run"]["streaming_spilled"]
        gate[f"{size}.index_spilled.wall_seconds"] = build["wall_seconds"]
        gate[f"{size}.index_spilled.peak_rss_mb"] = build["peak_rss_mb"]
        gate[f"{size}.delorean_streaming.wall_seconds"] = \
            run["wall_seconds"]
        gate[f"{size}.delorean_streaming.peak_rss_mb"] = \
            run["peak_rss_mb"]
    return gate


def _gate_live(metrics):
    return {
        "live.wall_seconds": metrics["live"]["wall_seconds"],
        "live.peak_rss_mb": metrics["live"]["peak_rss_mb"],
        "live.heap_peak_mb": metrics["live"]["heap_peak_mb"],
        "batch.wall_seconds": metrics["batch"]["wall_seconds"],
    }


def _gate_behavior(metrics):
    return dict(metrics["derived"])


SUITES = {
    "kernels": {"module": "bench_perf_kernels",
                "result": "BENCH_kernels.json", "gate": _gate_kernels},
    "store": {"module": "bench_store",
              "result": "BENCH_store.json", "gate": _gate_store},
    "stream": {"module": "bench_stream",
               "result": "BENCH_stream.json", "gate": _gate_stream},
    "live": {"module": "bench_live",
             "result": "BENCH_live.json", "gate": _gate_live},
    # Derived from the run's telemetry counters, not timed directly;
    # attached automatically after a full runnable sweep under
    # REPRO_TELEMETRY (see behavior_doc).
    "behavior": {"module": None,
                 "result": "BENCH_behavior.json",
                 "gate": _gate_behavior},
}
#: The suites that execute a bench module (``behavior`` is derived).
RUNNABLE = sorted(name for name, spec in SUITES.items()
                  if spec["module"])


def active_profile():
    return ("quick" if os.environ.get("REPRO_BENCH_PROFILE") == "quick"
            else "full")


def result_path(suite):
    return REPO_ROOT / SUITES[suite]["result"]


def _history_from(prior, suite):
    """Prior runs to carry forward, folding pre-v2 files into history.

    Idempotent: entries are deduplicated by ``generated_utc`` (first
    occurrence wins, order preserved), so rewriting a record within
    the same stamp — or folding the same legacy file twice — never
    double-appends, and the list is trimmed to ``HISTORY_LIMIT``.
    """
    if not isinstance(prior, dict):
        return []
    history = list(prior.get("history") or [])
    if "gate" in prior:                       # schema v2 record
        history.append({
            "generated_utc": prior.get("generated_utc"),
            "profile": prior.get("profile"),
            "gate": prior["gate"],
        })
    else:                                     # legacy flat report
        try:
            gate = SUITES[suite]["gate"](prior)
        except (KeyError, TypeError):
            gate = None
        if gate:
            history.append({
                "generated_utc": None,
                "profile": prior.get("profile", "full"),
                "gate": gate,
            })
    seen, deduped = set(), []
    for entry in history:
        stamp = entry.get("generated_utc") \
            if isinstance(entry, dict) else None
        if stamp in seen:
            continue
        seen.add(stamp)
        deduped.append(entry)
    return deduped[-HISTORY_LIMIT:]


def write_suite(suite, metrics, profile=None):
    """Wrap a suite's raw report in the v2 schema and write it out.

    Carries the previous record (v2 or legacy) into ``history`` so the
    perf trajectory survives regeneration.  Returns the full document.
    """
    profile = profile or active_profile()
    path = result_path(suite)
    prior = None
    if path.exists():
        try:
            prior = json.loads(path.read_text())
        except (OSError, ValueError):
            prior = None
    doc = {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "profile": profile,
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                       time.gmtime()),
        "metrics": metrics,
        "gate": SUITES[suite]["gate"](metrics),
        "history": _history_from(prior, suite),
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")
    return doc


def run_suite(suite):
    module = importlib.import_module(SUITES[suite]["module"])
    with telemetry.span(f"phase.bench.{suite}", rss=True):
        metrics = module.collect()
    return write_suite(suite, metrics)


# -- regression gate ---------------------------------------------------------

def load_baseline():
    if not BASELINE_PATH.exists():
        return {"schema_version": SCHEMA_VERSION, "profiles": {}}
    return json.loads(BASELINE_PATH.read_text())


def check_doc(doc, baseline, profile=None):
    """Regressions of ``doc['gate']`` against the committed baseline.

    Returns ``(regressions, notes)`` — regressions are gate failures,
    notes are informational (new/removed metrics, improvements beyond
    the floor worth folding into the baseline).  The comparison rule
    itself (directions, floors, ratio) is
    :func:`repro.reporting.gates.check_gate`.
    """
    profile = profile or doc["profile"]
    base = baseline.get("profiles", {}).get(profile, {}).get(doc["suite"])
    if base is None:
        return [], [f"{doc['suite']}: no {profile} baseline "
                    f"(run --update-baseline)"]
    return gates.check_gate(doc["suite"], doc["gate"], base)


def update_baseline(docs, profile=None):
    baseline = load_baseline()
    baseline["schema_version"] = SCHEMA_VERSION
    profiles = baseline.setdefault("profiles", {})
    for doc in docs:
        slot = profiles.setdefault(profile or doc["profile"], {})
        slot[doc["suite"]] = doc["gate"]
    BASELINE_PATH.write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    print(f"wrote {BASELINE_PATH}")
    return baseline


# -- CLI ---------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench.py",
        description="Run the perf suites under one schema and gate "
                    "them against benchmarks/BASELINE.json.")
    parser.add_argument("suites", nargs="*", metavar="suite",
                        choices=RUNNABLE + [[]],
                        help=f"suites to run: {', '.join(RUNNABLE)} "
                             "(default: all; the derived 'behavior' "
                             "record is attached automatically when "
                             "telemetry is on and all suites ran)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-size profile "
                             "(same as REPRO_BENCH_PROFILE=quick)")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) on >15%% wall/RSS regression "
                             "vs the committed baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="record the measured gate metrics as the "
                             "new baseline for this profile")
    parser.add_argument("--report", default=None,
                        help="also write the combined run documents "
                             "to this JSON file")
    return parser


def behavior_doc(suites_run):
    """The derived ``behavior`` record, or ``None`` when unavailable.

    Only attached when telemetry captured the run *and* every runnable
    suite ran — a partial sweep would skew the aggregate hit rates
    against a full-sweep baseline.
    """
    if not telemetry.enabled() or set(suites_run) != set(RUNNABLE):
        return None
    run_dir = telemetry.run_dir()
    if not run_dir:
        return None
    from repro.telemetry.report import RunReport
    report = RunReport.from_dir(run_dir, write_merged=False)
    derived = report.gate_metrics()
    if not derived:
        return None
    print("== behavior (derived from telemetry) ==")
    return write_suite("behavior", {
        "derived": derived,
        "source_run": os.path.basename(run_dir),
        "suites": sorted(suites_run),
    })


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.quick:
        os.environ["REPRO_BENCH_PROFILE"] = "quick"
    suites = list(args.suites) or list(RUNNABLE)
    profile = active_profile()
    print(f"profile: {profile}; suites: {', '.join(suites)}")

    docs = []
    for suite in suites:
        print(f"== {suite} ==")
        docs.append(run_suite(suite))
    telemetry.flush()
    behavior = behavior_doc(suites)
    if behavior is not None:
        docs.append(behavior)

    if args.report:
        pathlib.Path(args.report).write_text(
            json.dumps({"schema_version": SCHEMA_VERSION,
                        "profile": profile,
                        "suites": {doc["suite"]: doc for doc in docs}},
                       indent=2) + "\n")
        print(f"wrote {args.report}")

    if args.update_baseline:
        update_baseline(docs, profile)
        return 0

    if args.check:
        baseline = load_baseline()
        failed = False
        for doc in docs:
            regressions, notes = check_doc(doc, baseline, profile)
            for note in notes:
                print(f"note: {note}")
            for regression in regressions:
                print(f"REGRESSION: {regression}")
                failed = True
        if failed:
            print("perf gate failed: regressions above; if intended, "
                  "re-run with --update-baseline and commit "
                  "benchmarks/BASELINE.json")
            return 1
        print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
