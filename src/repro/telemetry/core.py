"""Telemetry session: counters, timers, spans, and a JSONL event sink.

One :class:`TelemetrySession` per process.  The module-level facade in
:mod:`repro.telemetry` holds the active session (or ``None`` when
telemetry is off) so every instrumentation site costs a single
attribute load + ``is None`` test on the disabled path.

Modes (``REPRO_TELEMETRY``):

``off``
    No session.  Instrumented code paths take the early-out branch.
``counters``
    In-memory counters and aggregated timers only.  If a sink
    directory is configured, a single ``snapshot`` record is written
    per process at flush/exit — nothing is written per event, so the
    hot path stays allocation-free.
``trace``
    Everything ``counters`` does, plus a ``span`` record per
    non-hot-path span and ``point`` records for discrete events,
    streamed to a per-PID JSONL file.

Process model: the first session with a sink directory creates a run
directory ``run-<stamp>-p<pid>`` and exports it as
``REPRO_TELEMETRY_RUN`` so pool workers — whether forked or spawned —
append their own ``events-<pid>.jsonl`` to the *same* run.  Files are
opened unbuffered in append mode, so a line is durable as soon as it
is written and a forked child never replays the parent's buffer.
:func:`os.register_at_fork` rebuilds the child's session so it gets
its own file and zeroed counters.
"""

import atexit
import json
import os
import threading
import time

MODES = ("off", "counters", "trace")

_ALIASES = {
    "": "off", "0": "off", "off": "off", "false": "off", "no": "off",
    "none": "off",
    "1": "counters", "on": "counters", "true": "counters",
    "counters": "counters", "count": "counters",
    "trace": "trace", "full": "trace",
}

ENV_MODE = "REPRO_TELEMETRY"
ENV_DIR = "REPRO_TELEMETRY_DIR"
ENV_RUN = "REPRO_TELEMETRY_RUN"


def mode_from_env(environ=None):
    """Resolve ``REPRO_TELEMETRY`` to one of :data:`MODES`."""
    environ = os.environ if environ is None else environ
    raw = environ.get(ENV_MODE, "off").strip().lower()
    try:
        return _ALIASES[raw]
    except KeyError:
        raise ValueError(
            f"{ENV_MODE}={raw!r}: expected one of {'|'.join(MODES)}")


def default_sink_dir(environ=None):
    """Sink root: ``REPRO_TELEMETRY_DIR`` or ``<user cache>/telemetry``.

    Mirrors the store's root resolution without importing it (the
    store itself is instrumented, so telemetry must not import store).
    """
    environ = os.environ if environ is None else environ
    explicit = environ.get(ENV_DIR)
    if explicit:
        return explicit
    base = environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro", "telemetry")


def read_rss():
    """Current and peak resident set in KiB from ``/proc/self/status``.

    Returns ``(rss_kb, hwm_kb)``; ``(None, None)`` where /proc is
    unavailable (non-Linux).
    """
    try:
        with open("/proc/self/status", "rb") as handle:
            text = handle.read().decode("ascii", "replace")
    except OSError:
        return None, None
    rss = hwm = None
    for line in text.splitlines():
        if line.startswith("VmRSS:"):
            rss = int(line.split()[1])
        elif line.startswith("VmHWM:"):
            hwm = int(line.split()[1])
    return rss, hwm


def _active_backend():
    """The resolved kernel backend for snapshot records.

    Uses the registry (not the raw environment variable) so a
    ``native`` selection that fell back to ``scalar`` is reported as
    what actually ran.  Imported lazily to keep this module free of
    package dependencies at import time.
    """
    from repro import kernels

    try:
        return kernels.get_backend()
    except Exception:
        return os.environ.get("REPRO_KERNEL_BACKEND",
                              kernels.DEFAULT_BACKEND)


class TelemetrySession:
    """Per-process metric registry plus optional JSONL sink."""

    def __init__(self, mode, sink_dir=None, environ=None):
        if mode not in MODES or mode == "off":
            raise ValueError(f"bad session mode: {mode!r}")
        environ = os.environ if environ is None else environ
        self.mode = mode
        self.trace = mode == "trace"
        self.pid = os.getpid()
        self.started_unix = time.time()
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.counters = {}
        self.timers = {}  # name -> [calls, wall_s, cpu_s]
        self.run_dir = None
        self.owns_run = False
        self._file = None
        if sink_dir is not None:
            inherited = environ.get(ENV_RUN)
            if inherited and os.path.isdir(inherited):
                self.run_dir = inherited
            else:
                stamp = time.strftime("%Y%m%d-%H%M%S",
                                      time.gmtime(self.started_unix))
                run = os.path.join(sink_dir, f"run-{stamp}-p{self.pid}")
                os.makedirs(run, exist_ok=True)
                self.run_dir = run
                self.owns_run = True
                environ[ENV_RUN] = run

    # -- counters / timers -------------------------------------------------

    def count(self, name, n=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def add_time(self, name, wall, cpu=0.0, n=1):
        with self._lock:
            cell = self.timers.get(name)
            if cell is None:
                self.timers[name] = [n, wall, cpu]
            else:
                cell[0] += n
                cell[1] += wall
                cell[2] += cpu

    # -- spans -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        path = stack[-1][1] + "/" + name if stack else name
        handle = (name, path, time.perf_counter(), time.process_time())
        stack.append(handle)
        return handle

    def end(self, handle, fields=None, emit=True, rss=False):
        name, path, t_wall, t_cpu = handle
        wall = time.perf_counter() - t_wall
        cpu = time.process_time() - t_cpu
        stack = self._stack()
        if stack and stack[-1] is handle:
            stack.pop()
        elif handle in stack:  # unwound through an exception
            del stack[stack.index(handle):]
        self.add_time(name, wall, cpu)
        if emit and self.trace and self._file_ready():
            record = {
                "ev": "span", "name": name, "path": path,
                "ts": time.time(), "pid": self.pid,
                "wall_s": round(wall, 6), "cpu_s": round(cpu, 6),
            }
            if rss:
                rss_kb, hwm_kb = read_rss()
                if rss_kb is not None:
                    record["rss_kb"] = rss_kb
                    record["hwm_kb"] = hwm_kb
            if fields:
                record["fields"] = fields
            self._emit(record)
        return wall

    def event(self, name, fields=None):
        """A discrete trace-mode point event (no-op in counters mode)."""
        if not (self.trace and self._file_ready()):
            return
        record = {"ev": "point", "name": name,
                  "ts": time.time(), "pid": self.pid}
        if fields:
            record["fields"] = fields
        self._emit(record)

    # -- sink --------------------------------------------------------------

    def _file_ready(self):
        if self.run_dir is None:
            return False
        if self._file is None:
            path = os.path.join(self.run_dir, f"events-{self.pid}.jsonl")
            # Unbuffered append: every line is one atomic-enough write,
            # durable even if this worker is later SIGKILLed, and a
            # forked child inherits no pending buffer.
            self._file = open(path, "ab", buffering=0)
        return True

    def _emit(self, record):
        line = json.dumps(record, separators=(",", ":"),
                          sort_keys=True).encode("utf-8") + b"\n"
        with self._lock:
            self._file.write(line)

    def snapshot(self):
        """Point-in-time aggregate of this process's metrics."""
        rss_kb, hwm_kb = read_rss()
        with self._lock:
            counters = dict(self.counters)
            timers = {
                name: {"calls": cell[0],
                       "wall_s": round(cell[1], 6),
                       "cpu_s": round(cell[2], 6)}
                for name, cell in self.timers.items()
            }
        record = {
            "ev": "snapshot", "ts": time.time(), "pid": self.pid,
            "mode": self.mode,
            "started_unix": self.started_unix,
            "elapsed_s": round(time.perf_counter() - self._t0, 6),
            "counters": counters, "timers": timers,
            "backend": _active_backend(),
        }
        if rss_kb is not None:
            record["rss_kb"] = rss_kb
            record["hwm_kb"] = hwm_kb
        return record

    def flush(self):
        """Write a snapshot record (merge readers keep the last one)."""
        if self._file_ready():
            self._emit(self.snapshot())

    def close(self, environ=None):
        environ = os.environ if environ is None else environ
        try:
            self.flush()
        except (OSError, ValueError):
            pass
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self.owns_run and environ.get(ENV_RUN) == self.run_dir:
            del environ[ENV_RUN]
        self.owns_run = False
