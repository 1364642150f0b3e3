"""``python -m repro trace`` — import, inspect and convert traces.

Verbs::

    trace import SRC --format champsim|lackey|csv [--name N] [--dir D]
                 [--out FILE] [--chunk N] [--compress] [--force]
    trace info  NAME_OR_PATH [--json] [--verify] [--dir D]
    trace ls    [--dir D] [--json]
    trace convert SRC DST --to native|champsim|lackey|csv
                 [--from FMT] [--dir D]

``import`` parses an external trace, normalizes it into the canonical
arrays and persists it as a native container — into the trace library
(``$REPRO_TRACE_DIR``, default ``<cache>/traces``) under a name, or to
an explicit ``--out`` path.  It always runs the one bounded pipeline
(:func:`~repro.traceio.ingest.import_trace_streamed`): the parse never
materializes the trace and peak memory stays O(chunk + unique keys);
``--chunk N`` only sizes its windows (default
:data:`~repro.traceio.formats.DEFAULT_IMPORT_CHUNK` instructions), and
every chunk size yields the identical container.  ``convert --from F
--to native`` runs the same pipeline.  Once imported, the name works
everywhere a synthetic benchmark name does (``python -m repro fig5
--benchmarks mytrace``, ``SuiteRunner.run`` / ``run_matrix`` /
``run_dse``).

``python -m repro synth export`` is the synthetic twin: it streams a
calibrated SPEC-like benchmark chunk-by-chunk into a native container,
so arbitrarily long synthetic traces can be built — and then run
memory-mapped — without ever materializing them.
"""

import argparse
import json
import os
import sys

from repro.traceio.container import (
    TraceFormatError,
    TraceStreamWriter,
    read_manifest,
    read_trace,
    write_trace,
)
from repro.traceio.formats import (
    FORMAT_NAMES,
    TraceImportError,
    _default_name,
    export_trace,
    import_trace,
)
from repro.traceio.ingest import import_trace_streamed
from repro.traceio.workload import (
    TraceLibrary,
    _check_name,
    _check_not_spec_name,
)
from repro.util.units import format_size


def build_trace_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Import external memory traces (ChampSim binary, "
                    "Valgrind-Lackey text, generic CSV) into native "
                    "containers and inspect/convert them.")
    sub = parser.add_subparsers(dest="verb", required=True)

    imp = sub.add_parser("import", help="normalize an external trace "
                                        "into a native container")
    imp.add_argument("src", help="external trace file (.gz/.bz2/.xz ok)")
    imp.add_argument("--format", required=True, choices=FORMAT_NAMES,
                     help="external format of SRC")
    imp.add_argument("--name", default=None,
                     help="library name (default: SRC basename)")
    imp.add_argument("--dir", default=None,
                     help="trace library root (overrides REPRO_TRACE_DIR)")
    imp.add_argument("--out", default=None,
                     help="write the container to this path instead of "
                          "the library")
    imp.add_argument("--chunk", type=int, default=None, metavar="N",
                     help="parse and normalize N instructions at a time "
                          "(default 262144; every size yields the "
                          "identical container)")
    imp.add_argument("--compress", action="store_true",
                     help="compressed container (smaller file, no mmap "
                          "streaming)")
    imp.add_argument("--force", action="store_true",
                     help="replace an existing library entry")

    info = sub.add_parser("info", help="show a container's manifest")
    info.add_argument("target", help="library name or container path")
    info.add_argument("--dir", default=None)
    info.add_argument("--json", action="store_true",
                      help="emit the raw manifest as JSON")
    info.add_argument("--verify", action="store_true",
                      help="recompute and check the content fingerprint")

    ls = sub.add_parser("ls", help="list the trace library")
    ls.add_argument("--dir", default=None)
    ls.add_argument("--json", action="store_true")

    conv = sub.add_parser("convert", help="convert between trace formats")
    conv.add_argument("src", help="library name, container path, or "
                                  "external file (with --from)")
    conv.add_argument("dst", help="output path")
    conv.add_argument("--to", required=True,
                      choices=("native",) + FORMAT_NAMES,
                      help="output format")
    conv.add_argument("--from", dest="src_format", default=None,
                      choices=FORMAT_NAMES,
                      help="input format when SRC is an external file "
                           "(default: native container / library name)")
    conv.add_argument("--dir", default=None)
    conv.add_argument("--compress", action="store_true",
                      help="compress a native output container")
    return parser


def _load_any(target, src_format, library):
    """A Trace from a library name, container path, or external file."""
    if src_format is not None:
        return import_trace(target, src_format)
    return read_trace(_container_path(target, library))


def _container_path(target, library):
    if library.contains(target):
        return library.path(target)
    if os.path.exists(str(target)):
        return target
    raise TraceFormatError(
        f"{target!r} is neither a trace in {library.root} nor a container "
        "path ('trace ls' lists the library)")


def _print_manifest(manifest, stream=None):
    stream = stream or sys.stdout
    print(f"name:          {manifest['name']}", file=stream)
    print(f"format:        repro-trace v{manifest['format_version']}"
          f"{'  (compressed)' if manifest.get('compressed') else ''}",
          file=stream)
    print(f"instructions:  {manifest['n_instructions']:,}", file=stream)
    print(f"accesses:      {manifest['n_accesses']:,} "
          f"(mem fraction {manifest['mem_fraction']:.3f})", file=stream)
    print(f"branches:      {manifest['n_branches']:,}", file=stream)
    print(f"static PCs:    {manifest['n_pcs']:,}", file=stream)
    print(f"footprint:     {format_size(manifest['footprint_bytes'])} "
          f"({manifest['unique_lines']:,} lines)", file=stream)
    print(f"fingerprint:   {manifest['fingerprint'][:16]}…", file=stream)
    source = manifest.get("source")
    if source:
        print(f"source:        {source}", file=stream)


def trace_main(argv):
    """CLI entry point; user-input errors print one line, not a stack."""
    args = build_trace_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (TraceImportError, TraceFormatError, FileNotFoundError,
            FileExistsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args):
    library = TraceLibrary(root=args.dir)

    if args.verb == "import":
        if args.chunk is not None and args.chunk < 1:
            raise ValueError("--chunk must be a positive instruction count")
        source = {"path": str(args.src), "format": args.format}

        def write_container(path):
            return import_trace_streamed(
                args.src, args.format, path, name=args.name,
                source=source, chunk_instructions=args.chunk,
                compress=args.compress)

        if args.out:
            manifest, where = write_container(args.out), args.out
        else:
            # Fail on a bad/shadowing name *before* spending the import.
            _check_not_spec_name(
                _check_name(args.name or _default_name(args.src)))
            manifest = library.stage(write_container, force=args.force)
            where = library.path(manifest["name"])
        print(f"imported {args.src} -> {where}")
        _print_manifest(manifest)
        return 0

    if args.verb == "info":
        path = _container_path(args.target, library)
        manifest = read_manifest(path)
        if args.verify:
            read_trace(path, verify=True)
        if args.json:
            print(json.dumps(manifest, indent=2, sort_keys=True))
        else:
            _print_manifest(manifest)
            if args.verify:
                print("fingerprint verified")
        return 0

    if args.verb == "ls":
        names = library.names()
        if args.json:
            print(json.dumps([library.manifest(name) for name in names],
                             indent=2, sort_keys=True))
            return 0
        for name in names:
            manifest = library.manifest(name)
            print(f"{name:<24s} {manifest['n_instructions']:>12,d} instr  "
                  f"{manifest['n_accesses']:>12,d} acc  "
                  f"{format_size(manifest['footprint_bytes']):>10s}  "
                  f"{manifest['fingerprint'][:12]}")
        print(f"{len(names)} traces in {library.root}")
        return 0

    if args.verb == "convert":
        if args.to == "native" and args.src_format is not None:
            import_trace_streamed(args.src, args.src_format, args.dst,
                                  compress=args.compress)
        else:
            trace = _load_any(args.src, args.src_format, library)
            if args.to == "native":
                write_trace(trace, args.dst, compress=args.compress)
            else:
                export_trace(trace, args.dst, args.to)
        print(f"converted {args.src} -> {args.dst} ({args.to})")
        return 0

    raise AssertionError(f"unhandled verb {args.verb!r}")


# -- synthetic streaming export ----------------------------------------------

def build_synth_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro synth",
        description="Stream calibrated synthetic benchmarks into native "
                    "trace containers, chunk by chunk — the canonical "
                    "arrays never exist in RAM, so trace length is "
                    "bounded by disk, not memory.")
    sub = parser.add_subparsers(dest="verb", required=True)

    exp = sub.add_parser("export", help="generate a benchmark chunk-wise "
                                        "into a native container")
    exp.add_argument("benchmark",
                     help="synthetic SPEC2006 benchmark name (see "
                          "'python -m repro list')")
    exp.add_argument("--instructions", type=int, default=1_000_000,
                     help="trace length (default 1M)")
    exp.add_argument("--seed", type=int, default=0,
                     help="generation seed (default 0)")
    exp.add_argument("--scale", type=float, default=None,
                     help="footprint scale (default 1/64)")
    exp.add_argument("--chunk", type=int, default=None, metavar="N",
                     help="instructions generated per chunk")
    exp.add_argument("--jobs", type=int, default=1, metavar="J",
                     help="generate phases on J pool workers (resilient "
                          "pool: per-task timeouts and retries; the "
                          "container is bit-identical to --jobs 1)")
    exp.add_argument("--name", default=None,
                     help="library name (default: BENCH.synth; synthetic "
                          "suite names themselves are refused)")
    exp.add_argument("--dir", default=None,
                     help="trace library root (overrides REPRO_TRACE_DIR)")
    exp.add_argument("--out", default=None,
                     help="write the container to this path instead of "
                          "the library")
    exp.add_argument("--compress", action="store_true",
                     help="compressed container (smaller file, no mmap "
                          "streaming)")
    exp.add_argument("--force", action="store_true",
                     help="replace an existing library entry")
    return parser


def synth_main(argv):
    """CLI entry point; user-input errors print one line, not a stack."""
    from repro.trace.parallel import PhaseGenerationError

    args = build_synth_parser().parse_args(argv)
    try:
        return _dispatch_synth(args)
    except (TraceImportError, TraceFormatError, FileNotFoundError,
            FileExistsError, PhaseGenerationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch_synth(args):
    from repro.trace.spec import DEFAULT_SCALE, benchmark_spec
    from repro.trace.stream import (
        DEFAULT_CHUNK_INSTRUCTIONS,
        workload_chunks,
    )

    if args.verb != "export":
        raise AssertionError(f"unhandled verb {args.verb!r}")
    if args.instructions < 1:
        raise ValueError("--instructions must be positive")
    if args.chunk is not None and args.chunk < 1:
        raise ValueError("--chunk must be a positive instruction count")
    if args.jobs < 1:
        raise ValueError("--jobs must be a positive worker count")
    try:
        spec = benchmark_spec(args.benchmark)
    except KeyError:
        raise ValueError(
            f"unknown synthetic benchmark {args.benchmark!r} "
            "('python -m repro list' shows the suite)")
    scale = args.scale if args.scale is not None else DEFAULT_SCALE
    chunk = args.chunk or DEFAULT_CHUNK_INSTRUCTIONS
    name = args.name or f"{args.benchmark}.synth"
    if not args.out:
        # Fail on a bad/shadowing name *before* spending the generation.
        _check_not_spec_name(_check_name(name))
    workload = spec.workload(n_instructions=args.instructions,
                             seed=args.seed, scale=scale)
    source = {
        "generator": "synthetic",
        "benchmark": args.benchmark,
        "seed": args.seed,
        "n_instructions": args.instructions,
        "scale": scale,
        "spec_fingerprint": spec.stream_fingerprint(
            args.instructions, args.seed, scale),
        "chunk_instructions": chunk,
    }

    library = TraceLibrary(root=args.dir)
    if not args.out and not args.force and library.contains(name):
        # Generation is the expensive part — settle no-op/conflict from
        # the recorded provenance *before* spending it.  Same spec
        # fingerprint means the deterministic generator would reproduce
        # the existing content exactly.
        existing = library.manifest(name)
        recorded = (existing.get("source") or {}).get("spec_fingerprint")
        if recorded is not None:
            if recorded != source["spec_fingerprint"]:
                raise FileExistsError(
                    f"trace {name!r} already exists in {library.root} "
                    "with different generator parameters (pass --force "
                    "to replace)")
            if bool(existing.get("compressed")) != args.compress:
                raise FileExistsError(
                    f"trace {name!r} already exists in {library.root} "
                    "with the same parameters but different compression "
                    "(pass --force to replace)")
            print(f"{name} already exported -> {library.path(name)}")
            _print_manifest(existing)
            return 0
    # Spill next to the destination (library root / --out directory):
    # the system temp dir is commonly a RAM-backed tmpfs, which would
    # defeat the bounded-memory point for huge exports.
    spill_parent = (os.path.dirname(os.path.abspath(args.out))
                    if args.out else library.root)
    os.makedirs(spill_parent, exist_ok=True)
    if args.jobs > 1:
        from repro.trace.parallel import parallel_phase_chunks

        chunks = parallel_phase_chunks(
            args.benchmark, args.instructions, args.seed, scale,
            chunk_instructions=chunk, jobs=args.jobs,
            spill_parent=spill_parent)
    else:
        chunks = workload_chunks(workload, chunk_instructions=chunk)
    with TraceStreamWriter(spill_dir=spill_parent) as writer:
        writer.extend(chunks)

        def write_container(path):
            return writer.write_container(path, name=name, source=source,
                                          compress=args.compress)

        if args.out:
            manifest = write_container(args.out)
            where = args.out
        else:
            manifest = library.stage(write_container, name=name,
                                     force=args.force)
            where = library.path(name)
    print(f"exported {args.benchmark} -> {where}")
    _print_manifest(manifest)
    return 0
