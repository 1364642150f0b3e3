"""External trace formats: event parsers and exporters.

Three external formats normalize into the canonical
:class:`~repro.trace.record.Trace` arrays.  Each has one event parser
(``parse_<format>_events``) that yields bounded batches of aligned
event arrays, and :func:`parse_events` is the one dispatch over them,
in batches of :data:`DEFAULT_IMPORT_CHUNK` instructions unless told
otherwise.  :func:`import_trace` collects every batch and normalizes
them at once in RAM (:func:`assemble_trace`); it is the reference that
:func:`~repro.traceio.ingest.import_trace_streamed`, the bounded
pipeline behind ``trace import``, is checked against.

* ``champsim`` — ChampSim's 64-byte binary instruction records (``ip``,
  branch flag/direction, register lists, 2 destination + 4 source
  memory operands).  An instruction with several memory operands expands
  into one canonical micro-op per operand (loads in source order, then
  stores, then the branch micro-op if flagged); an instruction with
  neither becomes one ALU instruction.
* ``lackey`` — Valgrind Lackey / gem5-style text traces: ``I pc,size``
  opens an instruction, following ``L/S/M addr,size`` lines are its
  memory operands (an ``I`` with operands *is* the memory instruction —
  one canonical micro-op per operand, ``M`` = load then store; an ``I``
  with none is an ALU instruction).  A ``B pc,taken`` extension line
  carries branch direction (plain Lackey output has no branches and
  imports with an empty branch view).
* ``csv`` — a generic schema, one row per instruction:
  ``kind,addr,pc,taken`` where ``kind`` is ``L/S/B/A`` (or
  ``load/store/branch/alu``), ``addr`` is the byte address of a memory
  access (``0x`` hex or decimal), ``pc`` the static PC, and ``taken``
  the branch direction (``0/1``).  A leading header row is skipped.

Normalization is identical across formats: byte addresses become
cacheline numbers (``addr >> 6``), raw memory PCs are interned to dense
``int32`` ids (sorted-unique order, so interning is deterministic and
idempotent), and ``branch_mispred`` is synthesized by replaying the
branch stream through the Table 1 tournament predictor
(:class:`~repro.cpu.branch.TournamentPredictor`) — deterministically, so
the same input always yields the same canonical trace.

Exporters invert the same pipeline; in particular they choose branch
*directions* such that re-importing reproduces the original
``branch_mispred`` bit-for-bit (the direction is derived from the
predictor's own prediction, which importer and exporter replay
identically).  ``.gz``/``.bz2``/``.xz`` paths are (de)compressed
transparently.
"""

import bz2
import csv as csv_module
import gzip
import io
import lzma
import os

import numpy as np

from repro.cpu.branch import TournamentPredictor
from repro.cpu.config import ProcessorConfig
from repro.trace.record import Kind, Trace
from repro.util.units import CACHELINE_SHIFT


class TraceImportError(ValueError):
    """An external trace file is malformed."""


#: ChampSim's binary instruction record (little-endian, 64 bytes).
CHAMPSIM_DTYPE = np.dtype([
    ("ip", "<u8"),
    ("is_branch", "u1"),
    ("branch_taken", "u1"),
    ("dest_regs", "u1", (2,)),
    ("src_regs", "u1", (4,)),
    ("dest_mem", "<u8", (2,)),
    ("src_mem", "<u8", (4,)),
])
assert CHAMPSIM_DTYPE.itemsize == 64

#: Instructions per parse batch (ChampSim: records per buffered read),
#: for :func:`import_trace` and the streamed importer alike.
DEFAULT_IMPORT_CHUNK = 1 << 18


def _open_binary(path, mode="rb"):
    """Open ``path`` with transparent gz/bz2/xz (de)compression."""
    suffix = os.path.splitext(str(path))[1].lower()
    if suffix == ".gz":
        return gzip.open(path, mode)
    if suffix == ".bz2":
        return bz2.open(path, mode)
    if suffix == ".xz":
        return lzma.open(path, mode)
    return open(path, mode)


def _open_text(path, mode="r"):
    suffix = os.path.splitext(str(path))[1].lower()
    if suffix in (".gz", ".bz2", ".xz"):
        binary = _open_binary(path, mode + "b")
        return io.TextIOWrapper(binary, encoding="utf-8", newline="")
    return open(path, mode, encoding="utf-8", newline="")


# -- shared assembly ---------------------------------------------------------

def synthesize_mispredicts(branch_pcs, branch_taken, config=None,
                           predictor=None):
    """Replay a branch stream through the Table 1 tournament predictor.

    Returns the per-branch misprediction mask under an initially-cold,
    deterministically seeded predictor — the canonical ``branch_mispred``
    view for imported traces (Section 3.1.2 warms all strategies'
    predictors identically, so materializing one outcome stream keeps
    CPI comparisons strategy-independent).

    ``predictor`` lets the chunk-granular importer replay one persistent
    predictor across bounded batches: the replay is sequential, so
    feeding the stream in pieces is bit-identical to one call.
    """
    if predictor is None:
        predictor = TournamentPredictor(config or ProcessorConfig())
    mispred = np.zeros(len(branch_taken), dtype=bool)
    for i, (pc, taken) in enumerate(zip(branch_pcs, branch_taken)):
        mispred[i] = predictor.update(int(pc), bool(taken))
    return mispred


def invert_mispredicts(branch_pcs, branch_mispred, config=None):
    """Branch directions that make the predictor reproduce ``branch_mispred``.

    The exporter-side inverse of :func:`synthesize_mispredicts`: for each
    branch the direction is chosen as the predictor's own prediction
    XOR the desired misprediction bit, then the predictor is trained on
    it — so an importer replaying the same predictor recovers the
    original misprediction stream bit-for-bit.
    """
    predictor = TournamentPredictor(config or ProcessorConfig())
    taken = np.zeros(len(branch_mispred), dtype=bool)
    for i, (pc, mispred) in enumerate(zip(branch_pcs, branch_mispred)):
        direction = bool(predictor.predict(int(pc))) != bool(mispred)
        predictor.update(int(pc), direction)
        taken[i] = direction
    return taken


def assemble_trace(kinds, mem_addr, mem_pc, branch_pc, branch_taken,
                   name="imported"):
    """Normalize parsed event streams into a validated canonical Trace.

    ``kinds`` is the per-instruction kind stream; ``mem_addr``/``mem_pc``
    align with its LOAD/STORE entries in order, ``branch_pc``/
    ``branch_taken`` with its BRANCH entries.
    """
    kinds = np.asarray(kinds, dtype=np.uint8)
    mem_addr = np.asarray(mem_addr, dtype=np.uint64)
    mem_pc_raw = np.asarray(mem_pc, dtype=np.uint64)
    branch_pc = np.asarray(branch_pc, dtype=np.uint64)
    branch_taken = np.asarray(branch_taken, dtype=bool)

    mem_positions = np.flatnonzero(
        (kinds == Kind.LOAD) | (kinds == Kind.STORE))
    if mem_addr.shape[0] != mem_positions.shape[0]:
        raise TraceImportError(
            f"{mem_addr.shape[0]} memory operands for "
            f"{mem_positions.shape[0]} memory instructions")
    branch_positions = np.flatnonzero(kinds == Kind.BRANCH)
    if branch_pc.shape[0] != branch_positions.shape[0]:
        raise TraceImportError(
            f"{branch_pc.shape[0]} branch records for "
            f"{branch_positions.shape[0]} branch instructions")

    mem_line = (mem_addr >> CACHELINE_SHIFT).astype(np.int64)
    if mem_pc_raw.size:
        _, interned = np.unique(mem_pc_raw, return_inverse=True)
        mem_pc_ids = interned.astype(np.int32)
    else:
        mem_pc_ids = np.empty(0, dtype=np.int32)

    trace = Trace(
        kind=kinds,
        mem_instr=mem_positions.astype(np.int64),
        mem_line=mem_line,
        mem_pc=mem_pc_ids,
        mem_store=kinds[mem_positions] == Kind.STORE,
        branch_instr=branch_positions.astype(np.int64),
        branch_mispred=synthesize_mispredicts(branch_pc, branch_taken),
        name=name,
    )
    trace.validate()
    return trace


# -- ChampSim binary ---------------------------------------------------------

def _expand_champsim_records(records):
    """Micro-op expansion of a block of ChampSim records.

    Returns ``(kinds, mem_addr, mem_pc, branch_pc, branch_taken)`` event
    arrays in canonical order: per record, loads (source-operand order),
    then stores, then the branch micro-op; a record with no events
    contributes one ALU instruction.
    """
    n = records.shape[0]
    src = records["src_mem"]
    dst = records["dest_mem"]
    is_branch = records["is_branch"] != 0

    load_rec, load_slot = np.nonzero(src != 0)
    store_rec, store_slot = np.nonzero(dst != 0)
    branch_rec = np.flatnonzero(is_branch)
    has_event = np.zeros(n, dtype=bool)
    has_event[load_rec] = True
    has_event[store_rec] = True
    has_event[branch_rec] = True
    alu_rec = np.flatnonzero(~has_event)

    rec = np.concatenate((load_rec, store_rec, branch_rec, alu_rec))
    rank = np.concatenate((
        np.zeros(load_rec.shape[0], dtype=np.int8),
        np.full(store_rec.shape[0], 1, dtype=np.int8),
        np.full(branch_rec.shape[0], 2, dtype=np.int8),
        np.zeros(alu_rec.shape[0], dtype=np.int8),
    ))
    slot = np.concatenate((
        load_slot.astype(np.int8), store_slot.astype(np.int8),
        np.zeros(branch_rec.shape[0], dtype=np.int8),
        np.zeros(alu_rec.shape[0], dtype=np.int8),
    ))
    code = np.concatenate((
        np.full(load_rec.shape[0], Kind.LOAD, dtype=np.uint8),
        np.full(store_rec.shape[0], Kind.STORE, dtype=np.uint8),
        np.full(branch_rec.shape[0], Kind.BRANCH, dtype=np.uint8),
        np.full(alu_rec.shape[0], Kind.ALU, dtype=np.uint8),
    ))
    addr = np.concatenate((
        src[load_rec, load_slot],
        dst[store_rec, store_slot],
        np.zeros(branch_rec.shape[0], dtype=np.uint64),
        np.zeros(alu_rec.shape[0], dtype=np.uint64),
    ))

    order = np.lexsort((slot, rank, rec))
    rec, code, addr = rec[order], code[order], addr[order]
    mem_mask = (code == Kind.LOAD) | (code == Kind.STORE)
    branch_mask = code == Kind.BRANCH
    ips = records["ip"]
    return (
        code,
        addr[mem_mask],
        ips[rec[mem_mask]],
        ips[rec[branch_mask]],
        records["branch_taken"][rec[branch_mask]] != 0,
    )


def parse_champsim_events(path, batch_records):
    """Yield event batches of a ChampSim binary trace.

    Each batch is a dict of five aligned event arrays — ``kind`` (one
    entry per canonical instruction), ``mem_addr``/``mem_pc`` (one row
    per memory operand, in kind-stream order) and
    ``branch_pc``/``branch_taken`` (one row per branch) — covering
    ``batch_records`` input records.  Expansion is per-record, so any
    record-aligned batching yields the identical event stream.
    """
    total = 0
    with _open_binary(path) as handle:
        while True:
            blob = handle.read(max(1, batch_records)
                               * CHAMPSIM_DTYPE.itemsize)
            if not blob:
                break
            if len(blob) % CHAMPSIM_DTYPE.itemsize:
                raise TraceImportError(
                    f"{path!r}: truncated ChampSim record at byte "
                    f"{total + len(blob)} (records are "
                    f"{CHAMPSIM_DTYPE.itemsize} bytes)")
            total += len(blob)
            records = np.frombuffer(blob, dtype=CHAMPSIM_DTYPE)
            kinds, addr, mpc, bpc, taken = _expand_champsim_records(records)
            yield {"kind": kinds, "mem_addr": addr, "mem_pc": mpc,
                   "branch_pc": bpc, "branch_taken": taken}
    if total == 0:
        raise TraceImportError(f"{path!r}: empty ChampSim trace")


def export_champsim(trace, path):
    """Write ``trace`` as ChampSim records (one per canonical instruction).

    Branch directions are predictor-inverted so a re-import reproduces
    ``branch_mispred`` exactly; memory PCs are written as ``ip``.
    ChampSim marks absent operands with address 0, so cacheline 0 cannot
    be represented.
    """
    if trace.mem_line.size and int(trace.mem_line.min()) <= 0:
        raise ValueError(
            "ChampSim export cannot represent cacheline 0 (address 0 "
            "marks an absent operand); rebase the trace's address space")
    n = trace.n_instructions
    records = np.zeros(n, dtype=CHAMPSIM_DTYPE)
    mem_instr = trace.mem_instr
    records["ip"][mem_instr] = trace.mem_pc.astype(np.uint64)
    addr = (trace.mem_line.astype(np.uint64)) << CACHELINE_SHIFT
    loads = mem_instr[~trace.mem_store]
    stores = mem_instr[trace.mem_store]
    records["src_mem"][loads, 0] = addr[~trace.mem_store]
    records["dest_mem"][stores, 0] = addr[trace.mem_store]
    branch_pcs = np.zeros(trace.branch_instr.shape[0], dtype=np.uint64)
    taken = invert_mispredicts(branch_pcs, trace.branch_mispred)
    records["is_branch"][trace.branch_instr] = 1
    records["branch_taken"][trace.branch_instr] = taken
    with _open_binary(path, "wb") as handle:
        handle.write(records.tobytes())


# -- Valgrind Lackey / gem5 text ---------------------------------------------

def parse_lackey_events(path, batch_instructions):
    """Yield event batches of a Lackey-style text trace.

    Batches break only at instruction-group boundaries (an open ``I``
    group is never split), so any batch size yields the identical event
    stream; see :func:`parse_champsim_events` for the batch schema.
    """
    kinds, mem_addr, mem_pc = [], [], []
    branch_pc, branch_taken = [], []
    current_pc = 0
    pending_ops = None          # ops collected under the open I line
    total = 0

    def flush():
        nonlocal pending_ops
        if pending_ops is None:
            return
        if not pending_ops:
            kinds.append(Kind.ALU)
        else:
            for op, addr in pending_ops:
                _emit_mem(op, addr)
        pending_ops = None

    def _emit_mem(op, addr):
        if op in ("L", "M"):
            kinds.append(Kind.LOAD)
            mem_addr.append(addr)
            mem_pc.append(current_pc)
        if op in ("S", "M"):
            kinds.append(Kind.STORE)
            mem_addr.append(addr)
            mem_pc.append(current_pc)

    def snapshot():
        nonlocal total
        batch = _event_batch(kinds, mem_addr, mem_pc, branch_pc,
                             branch_taken)
        total += len(kinds)
        kinds.clear()
        mem_addr.clear()
        mem_pc.clear()
        branch_pc.clear()
        branch_taken.clear()
        return batch

    with _open_text(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("=="):
                continue
            parts = line.split()
            if len(parts) != 2 or parts[0] not in ("I", "L", "S", "M", "B"):
                raise TraceImportError(
                    f"{path!r}:{lineno}: unrecognized record {line!r}")
            op, operand = parts
            fields = operand.split(",")
            try:
                value = int(fields[0], 16)
            except ValueError:
                raise TraceImportError(
                    f"{path!r}:{lineno}: bad hex address in {line!r}")
            if op == "I":
                flush()
                if len(kinds) >= batch_instructions:
                    yield snapshot()
                current_pc = value
                pending_ops = []
            elif op == "B":
                flush()
                if len(kinds) >= batch_instructions:
                    yield snapshot()
                if len(fields) != 2 or fields[1] not in ("0", "1"):
                    raise TraceImportError(
                        f"{path!r}:{lineno}: branch record needs "
                        f"'B pc,taken' with taken 0|1, got {line!r}")
                kinds.append(Kind.BRANCH)
                branch_pc.append(value)
                branch_taken.append(fields[1] == "1")
            else:
                if pending_ops is not None:
                    pending_ops.append((op, value))
                else:
                    _emit_mem(op, value)
                    if len(kinds) >= batch_instructions:
                        yield snapshot()
        flush()
    if kinds:
        yield snapshot()
    if total == 0:
        raise TraceImportError(f"{path!r}: empty Lackey trace")


def _event_batch(kinds, mem_addr, mem_pc, branch_pc, branch_taken):
    return {
        "kind": np.asarray(kinds, dtype=np.uint8),
        "mem_addr": np.asarray(mem_addr, dtype=np.uint64),
        "mem_pc": np.asarray(mem_pc, dtype=np.uint64),
        "branch_pc": np.asarray(branch_pc, dtype=np.uint64),
        "branch_taken": np.asarray(branch_taken, dtype=bool),
    }


def export_lackey(trace, path):
    """Write ``trace`` as Lackey-style text (lossless round trip)."""
    taken = invert_mispredicts(
        np.zeros(trace.branch_instr.shape[0], dtype=np.uint64),
        trace.branch_mispred)
    branch_index = np.zeros(trace.n_instructions, dtype=np.int64)
    branch_index[trace.branch_instr] = np.arange(trace.branch_instr.shape[0])
    kind = trace.kind
    mem_cursor = 0
    with _open_text(path, "w") as handle:
        for i in range(trace.n_instructions):
            code = kind[i]
            if code == Kind.ALU:
                handle.write("I  0,1\n")
            elif code == Kind.BRANCH:
                handle.write(f"B  0,{int(taken[branch_index[i]])}\n")
            else:
                pc = int(trace.mem_pc[mem_cursor])
                addr = int(trace.mem_line[mem_cursor]) << CACHELINE_SHIFT
                op = "S" if trace.mem_store[mem_cursor] else "L"
                handle.write(f"I  {pc:x},1\n {op} {addr:x},8\n")
                mem_cursor += 1


# -- generic CSV -------------------------------------------------------------

_CSV_KINDS = {
    "l": Kind.LOAD, "load": Kind.LOAD,
    "s": Kind.STORE, "store": Kind.STORE,
    "b": Kind.BRANCH, "branch": Kind.BRANCH,
    "a": Kind.ALU, "alu": Kind.ALU,
}
_CSV_HEADER = ("kind", "addr", "pc", "taken")


def _parse_int(token, rowno, column, path):
    # Not int(token, 0): that base would reject zero-padded decimals
    # ("000123"), which fixed-width tooling commonly emits.
    try:
        stripped = token.lower()
        value = (int(stripped, 16) if stripped.startswith("0x")
                 else int(token, 10))
    except ValueError:
        raise TraceImportError(
            f"{path!r}:{rowno}: bad {column} value {token!r}")
    if not 0 <= value < 1 << 64:
        raise TraceImportError(
            f"{path!r}:{rowno}: {column} value {token!r} outside "
            "the 64-bit address range")
    return value


def parse_csv_events(path, batch_instructions):
    """Yield event batches of a generic-CSV trace (one row = one
    instruction; see :func:`parse_champsim_events` for the schema)."""
    kinds, mem_addr, mem_pc = [], [], []
    branch_pc, branch_taken = [], []
    total = 0
    with _open_text(path) as handle:
        reader = csv_module.reader(handle)
        for rowno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            token = row[0].strip().lower()
            if rowno == 1 and token == "kind":
                continue
            kind = _CSV_KINDS.get(token)
            if kind is None:
                raise TraceImportError(
                    f"{path!r}:{rowno}: unknown kind {row[0]!r} "
                    f"(expected one of {sorted(set(_CSV_KINDS))})")
            row = row + [""] * (len(_CSV_HEADER) - len(row))
            addr, pc, taken = (field.strip() for field in row[1:4])
            if kind in (Kind.LOAD, Kind.STORE):
                if not addr:
                    raise TraceImportError(
                        f"{path!r}:{rowno}: memory row without addr")
                kinds.append(kind)
                mem_addr.append(_parse_int(addr, rowno, "addr", path))
                mem_pc.append(_parse_int(pc, rowno, "pc", path) if pc else 0)
            elif kind == Kind.BRANCH:
                if taken not in ("0", "1"):
                    raise TraceImportError(
                        f"{path!r}:{rowno}: branch row needs taken 0|1, "
                        f"got {taken!r}")
                kinds.append(kind)
                branch_pc.append(_parse_int(pc, rowno, "pc", path)
                                 if pc else 0)
                branch_taken.append(taken == "1")
            else:
                kinds.append(Kind.ALU)
            if len(kinds) >= batch_instructions:
                total += len(kinds)
                yield _event_batch(kinds, mem_addr, mem_pc, branch_pc,
                                   branch_taken)
                for buffer in (kinds, mem_addr, mem_pc, branch_pc,
                               branch_taken):
                    buffer.clear()
    if kinds:
        total += len(kinds)
        yield _event_batch(kinds, mem_addr, mem_pc, branch_pc,
                           branch_taken)
    if total == 0:
        raise TraceImportError(f"{path!r}: empty CSV trace")


def export_csv(trace, path):
    """Write ``trace`` in the generic CSV schema (lossless round trip)."""
    taken = invert_mispredicts(
        np.zeros(trace.branch_instr.shape[0], dtype=np.uint64),
        trace.branch_mispred)
    branch_index = np.zeros(trace.n_instructions, dtype=np.int64)
    branch_index[trace.branch_instr] = np.arange(trace.branch_instr.shape[0])
    kind = trace.kind
    mem_cursor = 0
    with _open_text(path, "w") as handle:
        handle.write(",".join(_CSV_HEADER) + "\n")
        for i in range(trace.n_instructions):
            code = kind[i]
            if code == Kind.ALU:
                handle.write("A,,,\n")
            elif code == Kind.BRANCH:
                handle.write(f"B,,0,{int(taken[branch_index[i]])}\n")
            else:
                op = "S" if trace.mem_store[mem_cursor] else "L"
                addr = int(trace.mem_line[mem_cursor]) << CACHELINE_SHIFT
                pc = int(trace.mem_pc[mem_cursor])
                handle.write(f"{op},{addr:#x},{pc:#x},\n")
                mem_cursor += 1


# -- dispatch ----------------------------------------------------------------

#: Event-batch parser per external format: each yields the format's
#: event stream in bounded batches (record-count granularity for
#: ChampSim, instruction granularity for the text formats).
EVENT_PARSERS = {
    "champsim": parse_champsim_events,
    "lackey": parse_lackey_events,
    "csv": parse_csv_events,
}

EXPORTERS = {
    "champsim": export_champsim,
    "lackey": export_lackey,
    "csv": export_csv,
}

#: External format names accepted by the CLI and :func:`import_trace`.
FORMAT_NAMES = tuple(sorted(EVENT_PARSERS))


def parse_events(path, fmt, chunk_instructions=None):
    """The one format dispatch: ``fmt``'s event-batch stream of
    ``path``, in batches of ``chunk_instructions`` (default
    :data:`DEFAULT_IMPORT_CHUNK`).

    ChampSim batches are record-aligned; every record expands to at
    least one canonical instruction, so ``chunk`` records bound the
    batch from below at roughly ``chunk`` instructions.
    """
    try:
        parser = EVENT_PARSERS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown trace format {fmt!r} (expected one of {FORMAT_NAMES})")
    return parser(path, int(chunk_instructions or DEFAULT_IMPORT_CHUNK))


def _default_name(path):
    base = os.path.basename(str(path))
    for suffix in (".gz", ".bz2", ".xz"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    return os.path.splitext(base)[0] or "imported"


def import_trace(path, fmt, name=None):
    """Parse an external trace file into a canonical Trace, in RAM.

    The in-RAM reference of the streamed importer
    (:func:`~repro.traceio.ingest.import_trace_streamed`): every event
    batch is collected, then normalized at once by
    :func:`assemble_trace`.
    """
    parts = {key: [] for key in ("kind", "mem_addr", "mem_pc",
                                 "branch_pc", "branch_taken")}
    for batch in parse_events(path, fmt):
        for key in parts:
            parts[key].append(batch[key])
    # Every parser raises on an empty trace, so each list is non-empty.
    return assemble_trace(
        *(np.concatenate(parts[key]) for key in parts),
        name=name or _default_name(path))


def export_trace(trace, path, fmt):
    """Write a canonical Trace in an external format."""
    try:
        exporter = EXPORTERS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown trace format {fmt!r} (expected one of {FORMAT_NAMES})")
    exporter(trace, path)
