"""Command-line interface: regenerate the paper's exhibits.

Usage::

    python -m repro list
    python -m repro table1
    python -m repro fig5 [--quick] [--benchmarks mcf,lbm] [--out FILE]
    python -m repro all --quick
    python -m repro cache stats|ls|gc|clear|verify [--dir DIR] [--json]
                                                   [--repair]
    python -m repro trace import|info|convert|ls ...
    python -m repro synth export BENCH [--instructions N] [--chunk C] ...
    python -m repro live run|tail --gap N [--json] ...
    python -m repro telemetry report|summary|ls [--json|--csv|--html]
    python -m repro matrix report|run [--json] ...
    python -m repro report figures|trends|gate [--quick] [--json] ...

Each exhibit command runs the corresponding harness from
:mod:`repro.experiments.figures` and prints the rendered table/chart
(optionally writing it to a file).  ``--quick`` uses a reduced
six-benchmark sweep; the default regenerates the full 24-benchmark
evaluation (several minutes for the figure matrix).

Exhibit runs warm-start from the persistent artifact store
(``REPRO_CACHE_DIR``, default ``~/.cache/repro``; ``REPRO_CACHE=off``
disables): a repeated exhibit replays stored results instead of
re-simulating.  ``cache`` inspects and maintains that store.

``telemetry`` aggregates the per-process event logs written when
``REPRO_TELEMETRY=counters|trace`` is set (sink root
``REPRO_TELEMETRY_DIR``, default ``~/.cache/repro/telemetry``) into a
per-run profile: time/RSS by phase, store hit rates, kernel timings,
pool retry budgets, fault firings.  ``matrix`` runs or replays the
resilient pool's :class:`MatrixReport` without touching Python.

``report`` closes the observability loop: ``report figures`` renders
the whole paper-figure suite into one self-contained artifact set
(``report.html`` with inline SVG charts, ``figures.csv``,
``figures.json``), ``report trends`` draws gate-metric trend lines
across the committed ``BENCH_*.json`` history, and ``report gate``
replays the perf/behavior regression check without re-running any
suite.

``live`` feeds an *unbounded* access stream — framed chunks over a
pipe, or a native container a producer keeps appending — through the
incremental warming engine: every completed inter-region gap seals a
watermark whose strategy estimates are bit-identical to a from-scratch
batch run over the same prefix.  Watermark results and warm-up
bundles are published under watermark-versioned keys; ``cache
ls``/``gc``/``stats`` group them by lineage and reclaim superseded
watermarks.

``trace`` ingests external memory traces (ChampSim binary,
Valgrind-Lackey text, generic CSV) into native streamable containers;
imported names then work anywhere a benchmark name does, e.g.
``python -m repro fig5 --benchmarks mytrace``.  ``--chunk N`` imports
with bounded memory; ``synth export`` streams a calibrated synthetic
benchmark into the same container format chunk-by-chunk.
"""

import argparse
import json
import sys

from repro.experiments import ExperimentConfig, SuiteRunner, figures

QUICK_NAMES = ("perlbench", "bwaves", "mcf", "povray", "GemsFDTD", "lbm")

EXHIBITS = {
    "table1": lambda runner: figures.table1(),
    "fig5": figures.figure5,
    "fig6": figures.figure6,
    "fig7": figures.figure7,
    "fig8": figures.figure8,
    "fig9": figures.figure9,
    "fig10": figures.figure10,
    "fig11": figures.figure11,
    "fig12": figures.figure12,
    "fig13": figures.figure13,
    "fig14": figures.figure14,
    "headline": figures.headline,
    "lukewarm": figures.lukewarm_stats,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate exhibits of the DeLorean paper "
                    "(MICRO-52 2019) from the reproduction library.")
    parser.add_argument("exhibit",
                        choices=sorted(EXHIBITS) + ["all", "list"],
                        help="which exhibit to regenerate ('list' shows "
                             "descriptions, 'all' runs everything)")
    parser.add_argument("--quick", action="store_true",
                        help="six-benchmark sweep instead of all 24")
    parser.add_argument("--benchmarks", default=None,
                        help="comma-separated benchmark subset")
    parser.add_argument("--instructions", type=int, default=None,
                        help="trace length per benchmark (default 6M)")
    parser.add_argument("--regions", type=int, default=None,
                        help="detailed regions per benchmark (default 10)")
    parser.add_argument("--seed", type=int, default=None,
                        help="top-level seed (default 1)")
    parser.add_argument("--out", default=None,
                        help="also write the rendered exhibit to this file")
    return parser


def list_exhibits():
    width = max(len(name) for name in EXHIBITS)
    for name in sorted(EXHIBITS):
        doc = (EXHIBITS[name].__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{name:<{width}}  {summary}")
    print(f"{'cache':<{width}}  Inspect/maintain the artifact store "
          "(stats, ls, gc, clear, verify)")
    print(f"{'trace':<{width}}  Import/inspect external memory traces "
          "(import, info, convert, ls)")
    print(f"{'synth':<{width}}  Stream synthetic benchmarks into native "
          "containers (export)")
    print(f"{'live':<{width}}  Incremental warming over a live trace "
          "feed (run, tail)")
    print(f"{'telemetry':<{width}}  Aggregate/render telemetry run "
          "reports (report, summary, ls)")
    print(f"{'matrix':<{width}}  Run or replay the resilient pool's "
          "MatrixReport (report, run)")
    print(f"{'report':<{width}}  Paper-figure run report, perf trend "
          "lines, regression gate (figures, trends, gate)")


def build_cache_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro cache",
        description="Inspect and maintain the persistent artifact store "
                    "(REPRO_CACHE_DIR, default ~/.cache/repro).")
    parser.add_argument("action",
                        choices=("stats", "ls", "gc", "clear", "verify"),
                        help="stats: tier summary; ls: list entries; "
                             "gc: drop stale-schema blobs and temp litter; "
                             "clear: remove everything; "
                             "verify: re-hash every blob against its "
                             "recorded checksum")
    parser.add_argument("--dir", default=None,
                        help="store root (overrides REPRO_CACHE_DIR)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output "
                             "(stats, ls, gc and verify)")
    parser.add_argument("--repair", action="store_true",
                        help="verify: quarantine corrupt blobs so the "
                             "next run recomputes them")
    return parser


def cache_main(argv):
    from repro.live.artifacts import (
        parse_live_label,
        superseded_entries,
        sweep_superseded,
    )
    from repro.store import ArtifactStore
    from repro.util.units import format_size

    args = build_cache_parser().parse_args(argv)
    store = ArtifactStore(root=args.dir, enabled=True)
    if args.action == "stats":
        stats = store.stats()
        disk = stats["disk"]
        superseded = sum(1 for _ in superseded_entries(store))
        if args.json:
            print(json.dumps({**disk, "live_superseded": superseded},
                             indent=2, sort_keys=True))
            return 0
        print(f"store root:   {disk['root']}")
        print(f"schema:       v{disk['schema']}")
        print(f"entries:      {disk['entries']} "
              f"({format_size(disk['bytes'])})")
        if disk["stale_entries"]:
            print(f"stale:        {disk['stale_entries']} "
                  "(reclaim with 'cache gc')")
        if superseded:
            print(f"superseded:   {superseded} live watermark entries "
                  "(reclaim with 'cache gc')")
        for label, entry in sorted(disk["by_label"].items()):
            print(f"  {label:<18s} {entry['entries']:>5d} entries  "
                  f"{format_size(entry['bytes'])}")
    elif args.action == "ls":
        entries = []
        for digest, header, size in store.disk.entries():
            live = parse_live_label(header.get("label"))
            entries.append({
                "digest": digest,
                "label": header.get("label") or header.get("kind", "?"),
                "kind": header.get("kind", "?"),
                "bytes": size,
                "stale": header.get("schema") != store.schema_version,
                "lineage": live[1] if live is not None else None,
                "watermark": live[2] if live is not None else None,
            })
        if args.json:
            print(json.dumps(entries, indent=2, sort_keys=True))
            return 0
        for entry in entries:
            stale = "  (stale)" if entry["stale"] else ""
            watermark = ("" if entry["watermark"] is None
                         else f"  @{entry['watermark']}")
            print(f"{entry['digest'][:16]}  {entry['label']:<18s} "
                  f"{entry['kind']:<4s}  "
                  f"{format_size(entry['bytes'])}{watermark}{stale}")
        print(f"{len(entries)} entries in {store.root}")
    elif args.action == "gc":
        superseded_removed, superseded_bytes = sweep_superseded(store)
        removed, reclaimed = store.disk.gc()
        if args.json:
            print(json.dumps({
                "root": store.root,
                "removed": removed,
                "reclaimed_bytes": reclaimed + superseded_bytes,
                "superseded_removed": superseded_removed,
            }, indent=2, sort_keys=True))
            return 0
        print(f"removed {removed} stale + {superseded_removed} "
              f"superseded-watermark entries, "
              f"reclaimed {format_size(reclaimed + superseded_bytes)}")
    elif args.action == "clear":
        removed = store.disk.clear()
        print(f"removed {removed} entries from {store.root}")
    elif args.action == "verify":
        results = list(store.verify(repair=args.repair))
        counts = {}
        for entry in results:
            counts[entry["status"]] = counts.get(entry["status"], 0) + 1
        bad = [e for e in results if e["status"] == "corrupt"]
        if args.json:
            print(json.dumps({
                "root": store.root,
                "checked": len(results),
                "counts": counts,
                "corrupt": bad,
                "repaired": args.repair,
            }, indent=2, sort_keys=True))
        else:
            for entry in results:
                if entry["status"] == "ok":
                    continue
                print(f"{entry['digest'][:16]}  {entry['label']:<18s} "
                      f"{entry['status']}")
            summary = ", ".join(f"{counts[s]} {s}"
                                for s in sorted(counts)) or "empty store"
            action = (" (quarantined)" if args.repair and bad else
                      " (re-run with --repair to quarantine)" if bad
                      else "")
            print(f"checked {len(results)} entries in {store.root}: "
                  f"{summary}{action}")
        # Corrupt blobs that are still in place are an error state;
        # quarantined ones will transparently recompute.
        return 1 if bad and not args.repair else 0
    return 0


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "cache":
        return cache_main(argv[1:])
    if argv and argv[0] == "trace":
        from repro.traceio.cli import trace_main
        return trace_main(argv[1:])
    if argv and argv[0] == "synth":
        from repro.traceio.cli import synth_main
        return synth_main(argv[1:])
    if argv and argv[0] == "live":
        from repro.live.cli import live_main
        return live_main(argv[1:])
    if argv and argv[0] == "telemetry":
        from repro.telemetry.cli import telemetry_main
        return telemetry_main(argv[1:])
    if argv and argv[0] == "matrix":
        from repro.telemetry.cli import matrix_main
        return matrix_main(argv[1:])
    if argv and argv[0] == "report":
        from repro.reporting.cli import report_main
        return report_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.exhibit == "list":
        list_exhibits()
        return 0

    names = None
    if args.benchmarks:
        names = tuple(name.strip() for name in args.benchmarks.split(","))
    elif args.quick:
        names = QUICK_NAMES
    overrides = {"names": names}
    if args.instructions:
        overrides["n_instructions"] = args.instructions
    if args.regions:
        overrides["n_regions"] = args.regions
    if args.seed is not None:
        overrides["seed"] = args.seed
    runner = SuiteRunner(ExperimentConfig(**overrides))

    targets = sorted(EXHIBITS) if args.exhibit == "all" else [args.exhibit]
    blocks = []
    for target in targets:
        out = EXHIBITS[target](runner)
        blocks.append(out["text"])
        print(out["text"])
        print()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write("\n\n".join(blocks) + "\n")
        print(f"written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Output piped into a pager/head that exited early; not an error.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(141)
