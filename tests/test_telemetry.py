"""Tests for the telemetry subsystem: sessions, sinks, reports, gate.

The load-bearing properties:

* **Inert when off.**  ``REPRO_TELEMETRY=off`` (the default) resolves
  the session to ``None``; every facade call is a no-op and results
  are bit-identical to an instrumented run on both kernel backends.
* **Near-zero overhead when counting.**  ``counters`` mode on a quick
  DeLorean run costs under 2% wall-clock over ``off``.
* **Durable, mergeable records.**  Trace mode streams JSONL that
  round-trips through :class:`RunReport`; parent and pool-worker
  files merge into one run whose counters reconcile with the store's
  own ledgers.
* **Warn-once seams still count every event.**  Degraded roots and
  dropped saves warn exactly once per process but increment their
  telemetry counters on every occurrence.
"""

import json
import os
import pathlib
import sys
import time
import warnings

import pytest

from repro import kernels, telemetry
from repro.core import DeLorean
from repro.core.dse import DesignSpaceExploration
from repro.caches.hierarchy import paper_hierarchy
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SuiteRunner
from repro.sampling.plan import SamplingPlan
from repro.store import ArtifactStore
from repro.telemetry import core as tcore
from repro.telemetry.report import MATRIX_NAME, MERGED_NAME, RunReport
from repro.vff.index import TraceIndex

from conftest import make_small_workload

TINY = ExperimentConfig(
    n_instructions=240_000,
    n_regions=2,
    names=("bwaves", "mcf"),
)


@pytest.fixture(autouse=True)
def _telemetry_isolation(monkeypatch):
    """Every test starts from lazy env resolution with a clean env."""
    telemetry.shutdown()
    monkeypatch.delenv(telemetry.ENV_MODE, raising=False)
    monkeypatch.delenv(telemetry.ENV_DIR, raising=False)
    monkeypatch.delenv(telemetry.ENV_RUN, raising=False)
    yield
    telemetry.shutdown()
    os.environ.pop(telemetry.ENV_RUN, None)


# -- modes and the off fast path -------------------------------------------

def test_mode_aliases_and_invalid(monkeypatch):
    for raw, want in (("off", "off"), ("0", "off"), ("false", "off"),
                      ("1", "counters"), ("on", "counters"),
                      ("counters", "counters"), ("trace", "trace"),
                      ("TRACE", "trace"), ("", "off")):
        monkeypatch.setenv(telemetry.ENV_MODE, raw)
        assert tcore.mode_from_env() == want, raw
    monkeypatch.setenv(telemetry.ENV_MODE, "verbose")
    with pytest.raises(ValueError, match="REPRO_TELEMETRY"):
        tcore.mode_from_env()


def test_off_by_default_is_inert(tmp_path):
    assert telemetry.session() is None
    assert telemetry.mode() == "off"
    assert not telemetry.enabled()
    assert telemetry.run_dir() is None
    telemetry.counter("store.hit")
    telemetry.add_time("kernel.bulk_warm", 0.1)
    telemetry.event("whatever", a=1)
    telemetry.flush()
    with telemetry.span("phase.test") as s:
        assert s is None
    assert list(tmp_path.iterdir()) == []       # nothing ever written


def test_counters_mode_without_sink_stays_in_memory():
    s = telemetry.configure("counters")
    assert s is telemetry.session()
    assert telemetry.mode() == "counters"
    assert telemetry.run_dir() is None          # no sink configured
    telemetry.counter("store.hit", 3)
    with telemetry.span("phase.x"):
        pass
    assert s.counters["store.hit"] == 3
    assert s.timers["phase.x"][0] == 1
    telemetry.flush()                           # no sink: still a no-op


# -- JSONL round-trip -------------------------------------------------------

def test_trace_jsonl_roundtrip(tmp_path):
    telemetry.configure("trace", directory=str(tmp_path))
    run_dir = telemetry.run_dir()
    assert run_dir and run_dir.startswith(str(tmp_path))
    assert os.environ[telemetry.ENV_RUN] == run_dir

    telemetry.counter("store.hit", 2)
    telemetry.counter("store.miss")
    telemetry.add_time("kernel.bulk_warm", 0.25, 0.2, n=4)
    telemetry.event("custom.marker", detail="abc")
    with telemetry.span("phase.outer", rss=True, benchmark="bw"):
        with telemetry.span("phase.inner"):
            pass
    telemetry.flush()

    files = [p for p in os.listdir(run_dir) if p.startswith("events-")]
    assert len(files) == 1
    records = [json.loads(line) for line in
               (pathlib.Path(run_dir) / files[0]).read_bytes().splitlines()]
    kinds = {r["ev"] for r in records}
    assert {"point", "span", "snapshot"} <= kinds
    spans = {r["name"]: r for r in records if r["ev"] == "span"}
    assert "phase.outer" in spans and "phase.inner" in spans
    # hierarchical path: the inner span carries its ancestry
    assert spans["phase.inner"]["path"].endswith("phase.inner")
    assert "phase.outer" in spans["phase.inner"]["path"]
    assert spans["phase.outer"]["fields"]["benchmark"] == "bw"
    assert spans["phase.outer"]["rss_kb"] > 0

    report = RunReport.from_dir(run_dir)
    assert report.counter("store.hit") == 2
    assert report.counter("store.miss") == 1
    cell = report.timers["kernel.bulk_warm"]
    assert cell["calls"] == 4
    assert cell["wall_s"] == pytest.approx(0.25)
    assert cell["cpu_s"] == pytest.approx(0.2)
    assert (pathlib.Path(run_dir) / MERGED_NAME).exists()
    # every renderer stays consistent with the aggregate
    assert "store 2/3 hits" in report.summary()
    assert json.loads(report.to_json())["counters"]["store.hit"] == 2
    assert "counter,store.hit,,,,2" in report.to_csv()
    assert "phase.outer" in report.render_text()
    assert "<html>" in report.render_html()


def test_snapshot_last_per_pid_wins(tmp_path):
    telemetry.configure("trace", directory=str(tmp_path))
    run_dir = telemetry.run_dir()
    telemetry.counter("x", 2)
    telemetry.flush()
    telemetry.counter("x")
    telemetry.flush()                   # totals are monotonic: x == 3
    report = RunReport.from_dir(run_dir, write_merged=False)
    assert report.counter("x") == 3     # last snapshot, not 2 + 3


def test_report_tolerates_torn_tail_line(tmp_path):
    telemetry.configure("trace", directory=str(tmp_path))
    run_dir = telemetry.run_dir()
    telemetry.counter("x", 7)
    telemetry.flush()
    telemetry.shutdown()
    event_file = next(pathlib.Path(run_dir).glob("events-*.jsonl"))
    with open(event_file, "ab") as handle:
        handle.write(b'{"ev": "snapshot", "pid": 1, "trunc')  # killed worker
    report = RunReport.from_dir(run_dir, write_merged=False)
    assert report.counter("x") == 7


# -- instrumented seams reconcile with the subsystems' own ledgers ---------

def test_store_counters_reconcile_with_store_ledger(tmp_path):
    telemetry.configure("trace", directory=str(tmp_path / "telemetry"))
    cache = tmp_path / "cache"

    cold_store = ArtifactStore(root=cache, enabled=True)
    cold = SuiteRunner(TINY, store=cold_store)
    cold_result = cold.run("bwaves", "DeLorean")
    warm_store = ArtifactStore(root=cache, enabled=True)
    warm = SuiteRunner(TINY, store=warm_store)
    warm.run("bwaves", "DeLorean")
    telemetry.flush()

    report = RunReport.from_dir(telemetry.run_dir())
    disk_hits = cold_store.disk_hits + warm_store.disk_hits
    disk_misses = cold_store.disk_misses + warm_store.disk_misses
    saves = cold_store.saves + warm_store.saves
    totals = report.store_totals()
    assert totals["hits"] - totals["memory_hits"] == disk_hits
    assert totals["misses"] == disk_misses
    assert totals["saves"] == saves
    assert totals["by_kind"]["hit"].get("store.hit.strategy-result") == 1

    # the warm run replayed from the store, so the strategy span fired
    # exactly once, and its wall time fits inside the process total
    # (result.wall_seconds is *modeled* simulator time, not host time)
    assert cold_result.wall_seconds > 0
    phases = report.phases()
    strategy_cell = phases["phase.strategy.DeLorean"]
    assert strategy_cell["calls"] == 1
    assert 0 < strategy_cell["wall_s"] <= report.wall_seconds() + 1e-6
    assert report.kernels()                   # kernel timers were recorded
    # The Analyst's whole-region classification has its own timer and
    # its own section of the text report.
    assert set(report.classification()) <= {"classify.region",
                                            "classify.region.scalar"}
    assert report.classification()
    assert "classification (wall / calls):" in report.render_text()


@pytest.mark.parametrize("backend", kernels.BACKENDS)
def test_dse_sweep_counts_shared_front_ends(tmp_path, backend):
    workload = make_small_workload()
    plan = SamplingPlan(n_instructions=workload.trace.n_instructions,
                        n_regions=2)
    configs = [paper_hierarchy(size << 20) for size in (1, 8, 64)]
    telemetry.configure("trace", directory=str(tmp_path))
    with kernels.use_backend(backend):
        DesignSpaceExploration().run(workload, plan, configs,
                                     index=TraceIndex(workload.trace))
    telemetry.flush()
    workload.release()

    report = RunReport.from_dir(telemetry.run_dir())
    built = report.counter("classify.front.built")
    shared = report.counter("classify.front.shared")
    if backend == "scalar":
        # The scalar reference classifies on each Analyst's own caches.
        assert (built, shared) == (0, 0)
        return
    # One front end per region; the other two Analysts reuse it.
    assert (built, shared) == (plan.n_regions, 2 * plan.n_regions)
    text = report.render_text()
    section = text[text.index("classification (wall / calls):"):]
    section = section[:section.index("\n\n")]
    assert "classify.front.built" in section
    assert "classify.front.shared" in section


def test_run_matrix_merges_parent_and_worker_files(tmp_path, monkeypatch):
    monkeypatch.setenv(telemetry.ENV_MODE, "trace")
    monkeypatch.setenv(telemetry.ENV_DIR, str(tmp_path))
    telemetry.shutdown()                       # rebuild from env

    store = ArtifactStore(root=tmp_path / "cache", enabled=True)
    runner = SuiteRunner(TINY, store=store)
    matrix = runner.run_matrix(strategies=("SMARTS", "DeLorean"),
                               max_workers=2)
    assert set(matrix) == {"SMARTS", "DeLorean"}
    run_dir = telemetry.run_dir()
    telemetry.flush()

    files = [p for p in os.listdir(run_dir) if p.startswith("events-")]
    assert len(files) >= 2                     # parent + worker(s)
    report = RunReport.from_dir(run_dir)
    assert len(report.processes) >= 2
    assert (pathlib.Path(run_dir) / MERGED_NAME).exists()

    pool = report.pool_totals()
    assert pool["pool.task.queued"] == len(TINY.names)
    assert pool["pool.task.completed"] == len(TINY.names)
    assert pool["pool.task.done"] == len(TINY.names)
    assert pool["pool.rounds"] >= 1
    # worker-side phases crossed the process boundary into the merge
    phases = report.phases()
    assert "phase.pool" in phases
    for strategy in ("SMARTS", "DeLorean"):
        assert phases[f"phase.strategy.{strategy}"]["calls"] \
            == len(TINY.names)
    # merged counters are the sum of the per-pid snapshots, and the
    # workers (not the parent) did the publishing on this cold matrix
    assert report.counter("store.save") == sum(
        snap.get("counters", {}).get("store.save", 0)
        for snap in report.processes.values())
    assert report.counter("store.save") >= store.saves

    # the pool dispatcher left its MatrixReport next to the event files
    assert (pathlib.Path(run_dir) / MATRIX_NAME).exists()
    payloads = report.matrix_reports()
    assert len(payloads) == 1
    from repro.reliability.report import MatrixReport
    replayed = MatrixReport.from_dict(payloads[0])
    assert sorted(replayed.completed) == sorted(TINY.names)
    assert not replayed.failed
    assert "2 tasks" in replayed.summary()


# -- bit-identity and overhead ---------------------------------------------

def _result_blob(result):
    import pickle
    return pickle.dumps((
        result.strategy, result.workload, result.wall_seconds,
        result.paper_equivalent_instructions,
        result.meter.ledger.as_dict(), result.extras,
        [(r.index, r.n_instructions, r.stats.counts,
          r.timing.total_cycles if r.timing is not None else None,
          r.extras) for r in result.regions],
    ))


@pytest.mark.parametrize("backend", kernels.BACKENDS)
def test_results_bit_identical_with_telemetry_on(tmp_path, backend):
    with kernels.use_backend(backend):
        telemetry.configure("off")
        off = SuiteRunner(TINY, store=ArtifactStore(enabled=False))
        blob_off = _result_blob(off.run("mcf", "DeLorean"))
        off.release()

        telemetry.configure("trace", directory=str(tmp_path))
        on = SuiteRunner(TINY, store=ArtifactStore(enabled=False))
        blob_on = _result_blob(on.run("mcf", "DeLorean"))
        on.release()
    assert blob_on == blob_off


def test_counters_overhead_under_two_percent():
    workload = make_small_workload()
    plan = SamplingPlan(n_instructions=workload.trace.n_instructions,
                        n_regions=2)
    index = TraceIndex(workload.trace)
    hierarchy = paper_hierarchy(8 << 20)

    def run_once():
        start = time.perf_counter()
        DeLorean().run(workload, plan, hierarchy, index=index, seed=1)
        return time.perf_counter() - start

    best = {"off": float("inf"), "counters": float("inf")}
    run_once()                                  # warm numpy/jit/page caches
    for _ in range(4):                          # interleave against drift
        for mode in ("off", "counters"):
            telemetry.configure(mode)
            best[mode] = min(best[mode], run_once())
    telemetry.configure("off")
    workload.release()
    # <2% wall overhead for counters mode, plus a 10 ms jitter floor so
    # a sub-resolution blip on a loaded CI box cannot flake the gate.
    assert best["counters"] <= best["off"] * 1.02 + 0.01, best


def _tally(samples, keeps_cold):
    """``(resolved, dangling, censored)`` of ``(position, reuse)``
    samples, one sample at a time."""
    resolved = sum(1 for _, reuse in samples if reuse >= 0)
    dangling = sum(1 for position, reuse in samples
                   if reuse < 0 and keeps_cold(position))
    return resolved, dangling, len(samples) - resolved - dangling


@pytest.mark.parametrize("backend", kernels.BACKENDS)
def test_sampled_watchpoint_counts_match_per_sample_tally(backend,
                                                          monkeypatch):
    """CoolSim's and vicinity sampling's resolved / dangling / censored
    counters equal a per-sample tally of the samples they resolved."""
    import numpy as np

    from repro.core.context import ExecutionContext
    from repro.core.vicinity import VicinitySampler
    from repro.sampling.coolsim import CoolSim
    from repro.statmodel.assoc import StrideDetector
    from repro.statmodel.histogram import ReuseHistogram
    from repro.statmodel.perpc import PerPCReuseStats
    from repro.vff.watchpoint import WatchpointEngine

    samples = []
    one, many = (WatchpointEngine.await_next_reuse,
                 WatchpointEngine.await_next_reuse_many)

    def record_one(self, line, position, limit):
        reuse, stops = one(self, line, position, limit)
        samples.append((position, reuse))
        return reuse, stops

    def record_many(self, positions, limit):
        reuse, stops = many(self, positions, limit)
        samples.extend(zip(np.asarray(positions).tolist(), reuse.tolist()))
        return reuse, stops

    monkeypatch.setattr(WatchpointEngine, "await_next_reuse", record_one)
    monkeypatch.setattr(WatchpointEngine, "await_next_reuse_many",
                        record_many)
    # A cold set with reuses longer than the windows, so every outcome
    # occurs.
    workload = make_small_workload(seed=5, n_instructions=90_000,
                                   cold_lines=1024)
    trace = workload.trace
    session = telemetry.configure("counters")
    with kernels.use_backend(backend):
        context = ExecutionContext(workload, index=TraceIndex(trace))
        machine = context.machine()
        plan = SamplingPlan(n_instructions=90_000, n_regions=3)
        spec = plan.regions()[1]
        CoolSim()._profile_gap(context, machine, spec, PerPCReuseStats(),
                               StrideDetector(), np.random.default_rng(1),
                               plan)
        gap_mid = (spec.warmup_start + spec.region_start) // 2
        coolsim = _tally(samples,
                         lambda position: trace.mem_instr[position] < gap_mid)
        samples.clear()
        n = trace.n_accesses
        VicinitySampler(machine, plan, density=2.5e-4,
                        rng=np.random.default_rng(7)).sample_window(
            ReuseHistogram(), n // 8, n // 2, (3 * n) // 4,
            paper_window_instructions=5e6, model_window_instructions=30_000)
        horizon = (n // 8 + (3 * n) // 4) // 2
        vicinity = _tally(samples, lambda position: position <= horizon)
    workload.release()
    for prefix, expected in (("coolsim.samples", coolsim),
                             ("vicinity.samples", vicinity)):
        counted = tuple(session.counters[f"{prefix}.{outcome}"]
                        for outcome in ("resolved", "dangling", "censored"))
        assert counted == expected, (prefix, backend)
        assert all(expected), (prefix, expected)


# -- warn-once diagnostics still count every occurrence --------------------

def test_degraded_root_warns_once_counts_twice(tmp_path):
    s = telemetry.configure("counters")
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")      # root cannot be created
    with pytest.warns(RuntimeWarning,
                      match="continuing with the cache disabled"):
        first = ArtifactStore(root=str(blocker), enabled=True)
    assert not first.enabled
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # second: must NOT warn
        second = ArtifactStore(root=str(blocker), enabled=True)
    assert not second.enabled
    assert s.counters["store.degraded_root"] == 2


def test_dropped_save_warns_once_counts_twice(tmp_path, monkeypatch):
    s = telemetry.configure("counters")
    store = ArtifactStore(root=tmp_path, enabled=True)

    def boom(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(store.disk, "put", boom)
    with pytest.warns(RuntimeWarning, match="further failed saves"):
        assert store.save({"k": 1}, {"v": 1}, label="demo") is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # second: must NOT warn
        assert store.save({"k": 2}, {"v": 2}, label="demo") is None
    assert store.write_errors == 2
    assert s.counters["store.dropped_save"] == 2
    # the memory tier still served this process despite the dropped save
    assert store.load({"k": 1}) == {"v": 1}


# -- CLI and the perf-gate logic -------------------------------------------

def test_telemetry_cli_report_and_summary(tmp_path, capsys):
    from repro.__main__ import main

    telemetry.configure("trace", directory=str(tmp_path))
    telemetry.counter("store.hit", 4)
    with telemetry.span("phase.demo"):
        pass
    telemetry.flush()
    run_dir = telemetry.run_dir()
    telemetry.shutdown()

    assert main(["telemetry", "ls", "--dir", str(tmp_path)]) == 0
    assert run_dir in capsys.readouterr().out
    assert main(["telemetry", "summary", "--dir", str(tmp_path)]) == 0
    assert "telemetry run" in capsys.readouterr().out
    assert main(["telemetry", "report", "--dir", str(tmp_path),
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counters"]["store.hit"] == 4
    out_file = tmp_path / "report.html"
    assert main(["telemetry", "report", "--run", run_dir, "--html",
                 "--out", str(out_file)]) == 0
    assert "<html>" in out_file.read_text()
    # empty sink root is an error, not a traceback
    assert main(["telemetry", "report",
                 "--dir", str(tmp_path / "empty")]) == 1


def test_bench_regression_gate_logic():
    bench_dir = str(pathlib.Path(__file__).resolve().parent.parent
                    / "benchmarks")
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    import bench

    clean = {"bulk_warm.vector_seconds": 10.0,
             "watchpoint_profile.vector_seconds": 0.1,
             "stack_distances.peak_rss_mb": 100.0}
    doc = {"suite": "kernels", "profile": "quick", "gate": dict(clean)}
    baseline = {"profiles": {"quick": {"kernels": dict(clean)}}}
    regressions, notes = bench.check_doc(doc, baseline)
    assert regressions == [] and notes == []

    # past both the 15% ratio and the absolute floor: wall trips,
    # while the RSS bump stays under its 8 MB floor
    bad = dict(doc, gate=dict(clean, **{
        "bulk_warm.vector_seconds": 11.6,
        "stack_distances.peak_rss_mb": 107.0}))
    regressions, _ = bench.check_doc(bad, baseline)
    assert len(regressions) == 1
    assert "bulk_warm" in regressions[0]
    # a >15% blip on a tiny metric stays under the absolute floor…
    floored = dict(doc, gate=dict(clean, **{
        "watchpoint_profile.vector_seconds": 0.3}))
    regressions, _ = bench.check_doc(floored, baseline)
    assert regressions == []
    # …and a large absolute jump below 15% stays green too
    ratio_ok = dict(doc, gate=dict(clean, **{
        "bulk_warm.vector_seconds": 11.0,
        "stack_distances.peak_rss_mb": 112.0}))
    regressions, _ = bench.check_doc(ratio_ok, baseline)
    assert regressions == []
    # missing baseline is a note, not a failure
    regressions, notes = bench.check_doc(
        dict(doc, profile="full"), baseline)
    assert regressions == [] and "no full baseline" in notes[0]
