"""Run-report aggregation over a telemetry run directory.

A run directory (``run-<stamp>-p<pid>`` under the sink root) holds one
``events-<pid>.jsonl`` per participating process.  Each file carries
zero or more ``span``/``point`` records (trace mode) and one or more
``snapshot`` records; counters and timers are monotonic within a
process, so the *last* snapshot per PID is that process's total.

:class:`RunReport` merges the per-PID files into one picture: summed
counters/timers across processes, the event stream ordered by wall
clock (optionally persisted as ``merged.jsonl``), per-process peak
RSS, and any ``matrix-reports.jsonl`` the pool dispatcher left
behind.  Renderers cover text, JSON, CSV, and a static standalone
HTML page built on the shared :mod:`repro.reporting.html`
primitives.  :meth:`RunReport.gate_metrics` derives the behavioral
regression surface (store hit rates, pool retries, fault firings) that
``benchmarks/bench.py`` gates alongside wall/RSS.
"""

import io
import json
import os

MERGED_NAME = "merged.jsonl"
MATRIX_NAME = "matrix-reports.jsonl"

#: Counter prefixes of the sampled watchpoints (CoolSim's gap profiling
#: and vicinity sampling), each with ``.resolved``, ``.dangling`` (kept
#: as cold) and ``.censored`` (dropped) totals.
SAMPLE_PREFIXES = ("coolsim.samples", "vicinity.samples")
SAMPLE_OUTCOMES = ("resolved", "dangling", "censored")


def list_runs(directory):
    """Run dirs under ``directory``, oldest first."""
    try:
        names = sorted(
            name for name in os.listdir(directory)
            if name.startswith("run-")
            and os.path.isdir(os.path.join(directory, name)))
    except OSError:
        return []
    return [os.path.join(directory, name) for name in names]


def latest_run(directory):
    runs = list_runs(directory)
    if not runs:
        raise FileNotFoundError(f"no telemetry runs under {directory}")
    return max(runs, key=os.path.getmtime)


def _read_jsonl(path):
    records = []
    try:
        with open(path, "rb") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    continue  # torn tail line from a killed worker
    except OSError:
        pass
    return records


class RunReport:
    """Merged view over one telemetry run directory."""

    def __init__(self, run_dir, processes, events):
        self.run_dir = run_dir
        #: pid -> final snapshot record (may be empty in trace-only runs)
        self.processes = processes
        #: span/point records across all processes, ordered by ts
        self.events = events
        self.counters = {}
        self.timers = {}
        for snap in processes.values():
            for name, value in snap.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, cell in snap.get("timers", {}).items():
                agg = self.timers.setdefault(
                    name, {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0})
                agg["calls"] += cell.get("calls", 0)
                agg["wall_s"] += cell.get("wall_s", 0.0)
                agg["cpu_s"] += cell.get("cpu_s", 0.0)

    @classmethod
    def from_dir(cls, run_dir, write_merged=True):
        processes = {}
        events = []
        for name in sorted(os.listdir(run_dir)):
            if not (name.startswith("events-") and name.endswith(".jsonl")):
                continue
            for record in _read_jsonl(os.path.join(run_dir, name)):
                kind = record.get("ev")
                if kind == "snapshot":
                    # last snapshot per pid wins (totals are monotonic)
                    processes[record.get("pid", name)] = record
                elif kind in ("span", "point"):
                    events.append(record)
        events.sort(key=lambda r: r.get("ts", 0.0))
        report = cls(run_dir, processes, events)
        if write_merged:
            report.write_merged()
        return report

    def write_merged(self):
        """Persist the cross-process event log as ``merged.jsonl``."""
        path = os.path.join(self.run_dir, MERGED_NAME)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.events:
                handle.write(json.dumps(record, separators=(",", ":"),
                                        sort_keys=True) + "\n")
            for pid in sorted(self.processes):
                handle.write(json.dumps(self.processes[pid],
                                        separators=(",", ":"),
                                        sort_keys=True) + "\n")
        return path

    # -- derived views -----------------------------------------------------

    def counter(self, name, default=0):
        return self.counters.get(name, default)

    def counters_with_prefix(self, prefix):
        return {name: value for name, value in sorted(self.counters.items())
                if name.startswith(prefix)}

    def timers_with_prefix(self, prefix):
        return {name: dict(cell) for name, cell in sorted(self.timers.items())
                if name.startswith(prefix)}

    def phases(self):
        return self.timers_with_prefix("phase.")

    def kernels(self):
        return self.timers_with_prefix("kernel.")

    def classification(self):
        """Whole-region Figure 3 classification timers (the Analyst's
        and CoolSim's classifier, kernels and statistical model)."""
        return self.timers_with_prefix("classify.")

    def store_totals(self):
        hits = self.counter("store.hit")
        misses = self.counter("store.miss")
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "memory_hits": self.counter("store.hit.memory"),
            "hit_rate": (hits / lookups) if lookups else None,
            "saves": self.counter("store.save"),
            "dropped_saves": self.counter("store.dropped_save"),
            "quarantined": self.counter("store.quarantine"),
            "degraded_roots": self.counter("store.degraded_root"),
            "by_kind": {
                "hit": self.counters_with_prefix("store.hit."),
                "miss": self.counters_with_prefix("store.miss."),
            },
        }

    def pool_totals(self):
        return self.counters_with_prefix("pool.")

    def fault_totals(self):
        return self.counters_with_prefix("fault.")

    def sample_totals(self):
        """``{prefix: {outcome: count}}`` for each sampled-watchpoint
        prefix the run counted."""
        return {
            prefix: {outcome: self.counter(f"{prefix}.{outcome}")
                     for outcome in SAMPLE_OUTCOMES}
            for prefix in SAMPLE_PREFIXES
            if any(f"{prefix}.{outcome}" in self.counters
                   for outcome in SAMPLE_OUTCOMES)}

    def gate_metrics(self):
        """The flat behavioral gate surface derived from this run.

        ``benchmarks/bench.py`` records these as the ``behavior``
        pseudo-suite and checks them against the committed baseline:
        store hit rate (overall and per label), pool retry/requeue and
        failure counts, fault firings.  The counts are deterministic
        for a fixed workload, so they catch behavioral drift — a change
        that silently halves warm-start hits — even when wall time and
        RSS stay flat.  Live labels (``live:<kind>:<lineage>#<k>``)
        fold into one ``live:<kind>`` rate, so a new lineage or
        watermark count renames no gate metric.
        """
        # Deferred: importing repro.live loads the simulator, and this
        # module otherwise needs only the standard library.
        from repro.live.artifacts import parse_live_label

        if not self.counters:
            return {}
        metrics = {}
        totals = self.store_totals()
        if totals["hit_rate"] is not None:
            metrics["store.hit_rate"] = round(totals["hit_rate"], 4)
        lookups = {}         # gate label -> [hits, misses]
        for kind, slot in (("hit", 0), ("miss", 1)):
            for name, count in totals["by_kind"][kind].items():
                label = name.split(".", 2)[2]
                if label == "memory":        # tier marker, not a label
                    continue
                live = parse_live_label(label)
                if live is not None:
                    label = f"live:{live[0]}"
                lookups.setdefault(label, [0, 0])[slot] += count
        for label, (hits, misses) in sorted(lookups.items()):
            if hits + misses:
                metrics[f"store.hit_rate.{label}"] = \
                    round(hits / (hits + misses), 4)
        metrics["pool.task.resubmitted"] = \
            self.counter("pool.task.resubmitted")
        metrics["pool.task.failures"] = sum(
            self.counter(f"pool.task.{kind}")
            for kind in ("crash", "timeout", "error", "aborted"))
        metrics["fault.fired"] = sum(self.fault_totals().values())
        return metrics

    def wall_seconds(self):
        if not self.processes:
            return None
        return max(snap.get("elapsed_s", 0.0)
                   for snap in self.processes.values())

    def rss_by_process(self):
        return {
            str(pid): {"hwm_kb": snap.get("hwm_kb"),
                       "rss_kb": snap.get("rss_kb")}
            for pid, snap in sorted(self.processes.items())
        }

    def matrix_reports(self):
        """MatrixReport dicts persisted by the pool dispatcher."""
        return _read_jsonl(os.path.join(self.run_dir, MATRIX_NAME))

    # -- renderers ---------------------------------------------------------

    def as_dict(self):
        return {
            "run_dir": self.run_dir,
            "mode": next((snap.get("mode")
                          for snap in self.processes.values()), None),
            "processes": len(self.processes),
            "events": len(self.events),
            "wall_seconds": self.wall_seconds(),
            "counters": dict(sorted(self.counters.items())),
            "timers": {name: dict(cell)
                       for name, cell in sorted(self.timers.items())},
            "store": self.store_totals(),
            "pool": self.pool_totals(),
            "faults": self.fault_totals(),
            "rss": self.rss_by_process(),
            "matrix_reports": len(self.matrix_reports()),
        }

    def to_json(self, indent=2):
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def to_csv(self):
        out = io.StringIO()
        out.write("record,name,calls,wall_s,cpu_s,value\n")
        for name, value in sorted(self.counters.items()):
            out.write(f"counter,{name},,,,{value}\n")
        for name, cell in sorted(self.timers.items()):
            out.write(f"timer,{name},{cell['calls']},"
                      f"{cell['wall_s']:.6f},{cell['cpu_s']:.6f},\n")
        return out.getvalue()

    def summary(self):
        store = self.store_totals()
        wall = self.wall_seconds()
        rate = store["hit_rate"]
        parts = [
            f"{len(self.processes)} process(es)",
            f"{len(self.events)} event(s)",
            f"wall {wall:.2f}s" if wall is not None else "wall n/a",
            (f"store {store['hits']}/{store['hits'] + store['misses']} hits"
             + (f" ({rate:.0%})" if rate is not None else "")),
        ]
        fired = sum(self.fault_totals().values())
        if fired:
            parts.append(f"{fired} fault(s) fired")
        return f"telemetry run {os.path.basename(self.run_dir)}: " + \
            ", ".join(parts)

    def render_text(self):
        lines = [self.summary(), ""]

        def table(title, rows):
            if not rows:
                return
            lines.append(title)
            lines.extend(rows)
            lines.append("")

        phases = self.phases()
        table("phases (wall / cpu / calls):", [
            f"  {name:<34s} {cell['wall_s']:>9.3f}s {cell['cpu_s']:>9.3f}s "
            f"{cell['calls']:>7d}"
            for name, cell in phases.items()])
        kernels = self.kernels()
        table("kernels (wall / calls):", [
            f"  {name:<34s} {cell['wall_s']:>9.3f}s {cell['calls']:>9d}"
            for name, cell in kernels.items()])
        # Front-end counts (built, shared) print in the calls column.
        table("classification (wall / calls):", [
            f"  {name:<34s} {cell['wall_s']:>9.3f}s {cell['calls']:>9d}"
            for name, cell in self.classification().items()] + [
            f"  {name:<34s} {'':>10s} {value:>9d}"
            for name, value in self.counters_with_prefix("classify.").items()])
        table("sampled watchpoints (resolved / dangling / censored):", [
            f"  {prefix:<34s} {cell['resolved']:>9d} {cell['dangling']:>9d} "
            f"{cell['censored']:>9d}"
            for prefix, cell in self.sample_totals().items()])
        store = self.store_totals()
        rate = store["hit_rate"]
        table("store:", [
            f"  hits {store['hits']} (memory {store['memory_hits']}), "
            f"misses {store['misses']}"
            + (f", hit rate {rate:.1%}" if rate is not None else ""),
            f"  saves {store['saves']}, dropped {store['dropped_saves']}, "
            f"quarantined {store['quarantined']}, "
            f"degraded roots {store['degraded_roots']}",
        ])
        pool = self.pool_totals()
        table("pool:", [f"  {name:<34s} {value:>9d}"
                        for name, value in pool.items()])
        faults = self.fault_totals()
        table("faults fired:", [f"  {name:<34s} {value:>9d}"
                                for name, value in faults.items()])
        other = {
            name: value for name, value in sorted(self.counters.items())
            if not name.startswith(("store.", "pool.", "fault.", "kernel.",
                                    "classify.") + SAMPLE_PREFIXES)
        }
        table("counters:", [f"  {name:<34s} {value:>9d}"
                            for name, value in other.items()])
        table("peak rss by process:", [
            f"  pid {pid:<8s} hwm {entry['hwm_kb'] or 0:>9d} KiB"
            for pid, entry in self.rss_by_process().items()])
        return "\n".join(lines).rstrip() + "\n"

    def render_html(self):
        from repro.reporting.html import html_page, html_table

        parts = []
        timers = [[name, cell["calls"], cell["wall_s"], cell["cpu_s"]]
                  for name, cell in sorted(self.timers.items())]
        if timers:
            parts.append("<h2>timers</h2>")
            parts.append(html_table(
                ["name", "calls", "wall s", "cpu s"], timers))
        counters = [[name, value]
                    for name, value in sorted(self.counters.items())]
        if counters:
            parts.append("<h2>counters</h2>")
            parts.append(html_table(["name", "value"], counters))
        gate = self.gate_metrics()
        if gate:
            parts.append("<h2>behavioral gate metrics</h2>")
            parts.append(html_table(["metric", "value"],
                                    [[name, value]
                                     for name, value in gate.items()]))
        if not parts:
            parts.append('<p class="note">no snapshots recorded</p>')
        return html_page(
            f"telemetry {os.path.basename(self.run_dir)}",
            "\n".join(parts), subtitle=self.summary())
