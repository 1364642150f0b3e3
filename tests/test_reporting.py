"""Tests for the reporting subsystem: figures, trends, gates, HTML.

The load-bearing properties:

* **Self-contained artifacts.**  Every rendered page is one standalone
  document — doctype, inline CSS, inline SVG, no external assets —
  and every caller-supplied string (workload names, notes, titles) is
  escaped on the way in.
* **One gate policy.**  ``benchmarks/bench.py --check``, the trend
  report's drift flags and ``python -m repro report gate`` share
  :mod:`repro.reporting.gates`: direction-aware (hit rates are
  higher-is-better), floored per unit, 15% ratio.  A behavioral
  regression (error rate up, hit rate down) trips the gate even
  when every wall-clock metric is flat.
* **Idempotent history.**  Re-writing a bench record never
  double-appends its history; trends render from the committed
  records alone.
"""

import json
import pathlib
import sys

import pytest

from repro.reporting import gates
from repro.reporting.charts import svg_bar_chart, svg_line_chart
from repro.reporting.html import html_page, html_table
from repro.reporting.report import FigureReport
from repro.reporting.trends import TrendReport
from repro.telemetry.report import RunReport

HOSTILE = 'evil<script>&"name'


def _bench():
    bench_dir = str(pathlib.Path(__file__).resolve().parent.parent
                    / "benchmarks")
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    import bench
    return bench


# -- HTML / SVG primitives -------------------------------------------------

def test_html_page_is_standalone_and_escaped():
    page = html_page(HOSTILE, "<p>body</p>", subtitle=HOSTILE)
    assert page.startswith("<!doctype html>")
    assert "<html>" in page and "</html>" in page
    assert "<script>" not in page
    assert "evil&lt;script&gt;" in page
    # no external fetches: no href/src/import outside the svg xmlns
    assert "href=" not in page
    assert "@import" not in page


def test_html_table_escapes_and_aligns():
    table = html_table(["name", "value"],
                       [[HOSTILE, 1.23456], ["ok", None]], flagged=[1])
    assert "<script>" not in table and "evil&lt;script&gt;" in table
    assert '<td class="num">1.235</td>' in table
    assert '<tr class="flagged">' in table
    assert "<td>-</td>" in table          # None renders as a dash


def test_bar_chart_marks_and_escaping():
    svg = svg_bar_chart([HOSTILE, "b"], {"s1": [1.0, 2.0]},
                        title="t", y_label="u")
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "<script>" not in svg
    assert svg.count("<path") == 2        # one rounded bar per value
    assert svg.count("<title>") == 2      # native hover per mark
    assert "legend-label" not in svg      # single series: no legend box


def test_bar_chart_legend_for_multiple_series():
    svg = svg_bar_chart(["a"], {"s1": [1.0], "s2": [2.0]})
    assert "var(--series-1)" in svg and "var(--series-2)" in svg
    assert svg.count("legend-label") == 2


def test_bar_chart_empty_series_tolerated():
    assert "svg" in svg_bar_chart(["a"], {"s1": [None]})


def test_line_chart_baseline_and_gap_labels():
    svg = svg_line_chart(["p0", "p1", "p2"],
                         {"s": [1.0, None, 3.0]},
                         baseline=(2.0, "baseline 2"))
    assert 'stroke-dasharray="5,4"' in svg
    assert "baseline 2" in svg
    # the None gap must not shift hover labels onto the wrong x tick
    assert "p2 — s: 3" in svg
    assert "p1 — s" not in svg
    assert svg.count("<circle") == 2
    assert 'stroke-width="2"' in svg


def test_line_chart_logy_tick_labels_are_linear_values():
    svg = svg_line_chart(["a", "b"], {"s": [10.0, 100000.0]}, logy=True,
                         value_format="{:,.0f}")
    assert "100,000" in svg


# -- gate policy -----------------------------------------------------------

def test_gate_direction_and_floors():
    # lower-is-better wall metric: growth past ratio+floor regresses
    assert gates.classify("x.vector_seconds", 11.6, 10.0) == -1
    assert gates.classify("x.vector_seconds", 11.0, 10.0) == 0
    # higher-is-better hit rate: a drop regresses, a rise improves
    assert gates.classify("store.hit_rate", 0.44, 0.9) == -1
    assert gates.classify("store.hit_rate", 0.9, 0.44) == 1
    # sub-floor jitter on a rate stays green despite a >15% ratio
    assert gates.classify("x.error_rate", 0.0118, 0.01) == 0
    # behavioral counts: one stray retry is under the floor, a real
    # failure burst is not
    assert gates.classify("pool.task.failures", 2.0, 1.0) == 0
    assert gates.classify("pool.task.failures", 8.0, 1.0) == -1
    assert gates.metric_floor("x.peak_rss_mb") == gates.FLOOR_MB


def test_check_gate_formats_and_flat_wall_behavioral_trip():
    gate = {"x.error_rate": 0.22,
            "store.hit_rate": 0.44,
            "wall_seconds": 10.0}
    base = {"x.error_rate": 0.10,
            "store.hit_rate": 0.90,
            "wall_seconds": 10.0,
            "gone_metric": 1.0}
    regressions, notes = gates.check_gate("behavior", gate, base)
    assert len(regressions) == 3          # wall flat, behavior trips
    assert any("error_rate" in r for r in regressions)
    assert any("hit_rate" in r and "-51%" in r for r in regressions)
    # A baseline metric the run no longer measures fails the gate.
    assert any("gone_metric" in r and "but not measured" in r
               for r in regressions)
    assert not any("gone_metric" in n for n in notes)


def test_monotonic_drift():
    name = "x.vector_seconds"
    assert gates.monotonic_drift([1.0, 1.2, 1.4, 1.7], name)
    # not monotonic
    assert not gates.monotonic_drift([1.0, 1.5, 1.4, 1.7], name)
    # monotonic but the total slide stays under the floor
    assert not gates.monotonic_drift([1.0, 1.05, 1.1, 1.15], name)
    # too short a history
    assert not gates.monotonic_drift([1.0, 1.5, 2.0], name)
    # hit rates drift downward
    assert gates.monotonic_drift([0.9, 0.8, 0.7, 0.6], "store.hit_rate")
    assert not gates.monotonic_drift([0.6, 0.7, 0.8, 0.9],
                                     "store.hit_rate")


def test_bench_history_dedupe(tmp_path, monkeypatch):
    bench = _bench()
    entry = {"generated_utc": "2026-08-08T10:00:00Z", "profile": "full",
             "gate": {"x": 1.0}}
    # the prior record's own entry already in its history (the state a
    # double-write used to create) folds to one
    prior = {"gate": {"x": 1.0}, "generated_utc": entry["generated_utc"],
             "profile": "full", "history": [dict(entry)]}
    assert bench._history_from(prior, "kernels") == [entry]
    # distinct stamps all survive, trimmed to the limit
    prior = {"gate": {"x": 1.0}, "generated_utc": "T-last",
             "profile": "full",
             "history": [{"generated_utc": f"T{i}", "profile": "full",
                          "gate": {"x": float(i)}}
                         for i in range(bench.HISTORY_LIMIT + 5)]}
    history = bench._history_from(prior, "kernels")
    assert len(history) == bench.HISTORY_LIMIT
    assert history[-1]["generated_utc"] == "T-last"
    # legacy (no-gate) files fold once even across repeated rewrites
    legacy = {"kernels": {"bulk_warm": {"vector_seconds": 1.0}}}
    first = bench._history_from(legacy, "kernels")
    assert len(first) == 1 and first[0]["generated_utc"] is None
    again = bench._history_from(
        {"gate": {"x": 1.0}, "generated_utc": "T9", "profile": "full",
         "history": first + first}, "kernels")
    assert sum(1 for e in again if e["generated_utc"] is None) == 1


def test_bench_behavior_suite_roundtrip(tmp_path, monkeypatch):
    bench = _bench()
    monkeypatch.setattr(bench, "REPO_ROOT", tmp_path)
    metrics = {"derived": {"x.error_rate": 0.1,
                           "store.hit_rate": 0.9}}
    doc = bench.write_suite("behavior", metrics, profile="quick")
    assert doc["gate"] == metrics["derived"]
    # second write folds the first into history exactly once
    doc2 = bench.write_suite("behavior", metrics, profile="quick")
    assert len(doc2["history"]) == 1
    baseline = {"profiles": {"quick": {"behavior": doc["gate"]}}}
    assert bench.check_doc(doc2, baseline) == ([], [])
    worse = dict(doc2, gate={"x.error_rate": 0.22,
                             "store.hit_rate": 0.44})
    regressions, _ = bench.check_doc(worse, baseline)
    assert len(regressions) == 2


def test_quick_bench_record_leaves_the_committed_one_alone(tmp_path,
                                                          monkeypatch):
    bench = _bench()
    monkeypatch.setattr(bench, "REPO_ROOT", tmp_path)
    committed = tmp_path / "BENCH_behavior.json"
    full = bench.write_suite("behavior", {"derived": {"x.error_rate": 0.1}},
                             profile="full")
    before = committed.read_bytes()
    quick = bench.write_suite("behavior", {"derived": {"x.error_rate": 0.2}},
                              profile="quick")
    assert committed.read_bytes() == before
    assert quick["history"] == [] and full["profile"] == "full"
    record = tmp_path / ".benchmarks" / "BENCH_behavior.json"
    assert json.loads(record.read_text())["gate"] == {"x.error_rate": 0.2}


# -- RunReport derived metrics and HTML ------------------------------------

def _run_dir(tmp_path, counters):
    run = tmp_path / "run-20260808-120000-p1"
    run.mkdir()
    snap = {"ev": "snapshot", "pid": 1, "mode": "trace",
            "elapsed_s": 1.0, "counters": counters, "timers": {}}
    (run / "events-1.jsonl").write_text(json.dumps(snap) + "\n")
    return str(run)


def test_run_report_gate_metrics(tmp_path):
    run = _run_dir(tmp_path, {
        "kernel.bulk_warm.calls": 100, "kernel.bulk_warm.bailout": 10,
        "store.hit": 8, "store.miss": 2,
        "store.hit.memory": 3,
        "store.hit.delorean_run": 6, "store.miss.delorean_run": 2,
        "store.hit.dse_sweep": 2,
        "pool.task.resubmitted": 3, "pool.task.crash": 1,
        "pool.task.timeout": 1,
        "fault.fired.store_save.io_error": 2,
    })
    metrics = RunReport.from_dir(run, write_merged=False).gate_metrics()
    # The retired bulk-warm bailout counters derive nothing.
    assert not any("bailout" in name for name in metrics)
    assert metrics["store.hit_rate"] == 0.8
    assert metrics["store.hit_rate.delorean_run"] == 0.75
    assert metrics["store.hit_rate.dse_sweep"] == 1.0
    assert "store.hit_rate.memory" not in metrics
    assert metrics["pool.task.resubmitted"] == 3
    assert metrics["pool.task.failures"] == 2
    assert metrics["fault.fired"] == 2


def test_run_report_gate_metrics_fold_live_lineages(tmp_path):
    """Live labels of every lineage and watermark fold into one rate per
    artifact kind, so a new lineage renames no gate metric."""
    run = _run_dir(tmp_path, {
        "store.hit": 5, "store.miss": 3,
        "store.hit.live:index:25aee8dd13d6#1": 1,
        "store.hit.live:index:25aee8dd13d6#2": 1,
        "store.hit.live:index:4720edd5fd9d#1": 1,
        "store.miss.live:index:4720edd5fd9d#2": 1,
        "store.hit.live:result:4720edd5fd9d#1": 2,
        "store.miss.live:result:4720edd5fd9d#2": 2,
    })
    metrics = RunReport.from_dir(run, write_merged=False).gate_metrics()
    assert metrics["store.hit_rate.live:index"] == 0.75
    assert metrics["store.hit_rate.live:result"] == 0.5
    assert not any("#" in name for name in metrics)


def test_run_report_text_shows_sampled_watchpoints(tmp_path):
    run = _run_dir(tmp_path, {"coolsim.samples.resolved": 70,
                              "coolsim.samples.dangling": 2,
                              "coolsim.samples.censored": 5})
    text = RunReport.from_dir(run, write_merged=False).render_text()
    title = "sampled watchpoints (resolved / dangling / censored):"
    row = text.splitlines()[text.splitlines().index(title) + 1]
    assert row.split() == ["coolsim.samples", "70", "2", "5"]
    assert "vicinity.samples" not in text
    assert text.count("coolsim.samples") == 1


def test_run_report_html_escaped_and_empty_tolerant(tmp_path):
    run = _run_dir(tmp_path, {f"custom.{HOSTILE}": 1})
    page = RunReport.from_dir(run, write_merged=False).render_html()
    assert page.startswith("<!doctype html>") and "</html>" in page
    assert "<script>" not in page and "evil&lt;script&gt;" in page
    empty = tmp_path / "run-20260808-130000-p2"
    empty.mkdir()
    page = RunReport.from_dir(str(empty),
                              write_merged=False).render_html()
    assert "no snapshots recorded" in page


# -- FigureReport ----------------------------------------------------------

def _sections():
    return [{
        "figure": "fig5", "title": f"Figure 5 {HOSTILE}",
        "headers": ["benchmark", "DeLorean"],
        "rows": [[HOSTILE, 12.5], ["mcf", 37.0]],
        "charts": [svg_bar_chart([HOSTILE, "mcf"],
                                 {"DeLorean": [12.5, 37.0]})],
        "notes": [f"paper: {HOSTILE}"], "text": "",
        "seconds": 0.01,
    }]


def test_figure_report_html_golden_structure():
    report = FigureReport(_sections(), profile="quick",
                          benchmarks=(HOSTILE, "mcf"))
    page = report.render_html()
    assert page.startswith("<!doctype html>")
    assert page.count("</html>") == 1
    assert "<script>" not in page
    assert "evil&lt;script&gt;" in page
    assert "<svg" in page and "figure" in page
    assert "profile quick" in page
    # anchors: TOC entry and section heading agree
    assert '<a href="#fig5">' in page and '<h2 id="fig5">' in page


def test_figure_report_empty_and_serializers(tmp_path):
    empty = FigureReport([])
    assert "no figures collected" in empty.render_html()
    assert empty.to_csv() == "figure,row,column,value\n"

    report = FigureReport(_sections())
    payload = json.loads(report.to_json())
    assert payload["figures"]["fig5"]["rows"][1] == ["mcf", 37.0]
    csv_text = report.to_csv()
    assert "fig5,1,DeLorean,37.0" in csv_text
    paths = report.write(str(tmp_path / "out"))
    assert sorted(paths) == ["figures.csv", "figures.json",
                             "report.html"]
    for path in paths.values():
        assert pathlib.Path(path).stat().st_size > 0


def test_figure_report_build_tiny_runner():
    from repro.experiments import ExperimentConfig, SuiteRunner
    from repro.reporting.figures import resolve_figures

    runner = SuiteRunner(ExperimentConfig(
        names=("bwaves", "mcf"), n_instructions=240_000, n_regions=2))
    try:
        report = FigureReport.build(runner, ["fig5"], profile="quick")
    finally:
        runner.release()
    assert [s["figure"] for s in report.sections] == ["fig5"]
    section = report.sections[0]
    assert [row[0] for row in section["rows"]] == \
        ["bwaves", "mcf", "average"]
    assert section["charts"] and section["charts"][0].startswith("<svg")
    assert any("paper:" in note for note in section["notes"])
    assert report.config["n_regions"] == 2


def test_resolve_figures_selections():
    from repro.reporting.figures import (REGISTRY, default_figures,
                                         resolve_figures)

    assert resolve_figures("default") == default_figures()
    assert resolve_figures("all") == list(REGISTRY)
    assert "fig10" not in default_figures()
    for fig_id in ("fig5", "fig6", "fig9", "fig14"):
        assert fig_id in REGISTRY
    assert resolve_figures("fig5, fig14") == ["fig5", "fig14"]
    with pytest.raises(KeyError):
        resolve_figures("fig99")


# -- TrendReport -----------------------------------------------------------

def _write_record(root, suite, gates_by_run, profile="full"):
    entries = [{"generated_utc": f"2026-08-0{i + 1}T00:00:00Z",
                "profile": profile, "gate": gate}
               for i, gate in enumerate(gates_by_run)]
    doc = {"schema_version": 2, "suite": suite, "profile": profile,
           "generated_utc": entries[-1]["generated_utc"],
           "metrics": {}, "gate": gates_by_run[-1],
           "history": entries[:-1]}
    (root / f"BENCH_{suite}.json").write_text(json.dumps(doc))


def test_trend_report_series_drift_and_renderers(tmp_path):
    root = tmp_path
    _write_record(root, "kernels",
                  [{"bulk_warm.vector_seconds": v}
                   for v in (1.0, 1.2, 1.5, 1.9)])
    _write_record(root, "behavior",
                  [{"store.hit_rate": v}
                   for v in (0.9, 0.91, 0.9, 0.9)])
    (root / "benchmarks").mkdir()
    (root / "benchmarks" / "BASELINE.json").write_text(json.dumps({
        "profiles": {"full": {
            "kernels": {"bulk_warm.vector_seconds": 1.0}}}}))

    report = TrendReport(str(root))
    assert sorted(report.suites) == ["behavior", "kernels"]
    series = report.series("kernels", "full")
    assert series["bulk_warm.vector_seconds"]["values"] == \
        [1.0, 1.2, 1.5, 1.9]
    assert report.drifting("full") == \
        [("kernels", "bulk_warm.vector_seconds")]

    text = report.render_text("full")
    assert "monotonic drift" in text
    assert "store.hit_rate" in text and "+0%" in text
    assert "baseline 1" in text

    page = report.render_html("full")
    assert page.startswith("<!doctype html>")
    assert "MONOTONIC DRIFT" in page
    assert 'stroke-dasharray="5,4"' in page      # baseline annotation
    assert "1 metric(s) drifting" in page

    payload = report.as_dict("full")
    cell = payload["profiles"]["full"]["kernels"][
        "bulk_warm.vector_seconds"]
    assert cell["monotonic_drift"] is True and cell["baseline"] == 1.0


def test_trend_report_tolerates_junk_records(tmp_path):
    (tmp_path / "BENCH_bad.json").write_text("{not json")
    (tmp_path / "BENCH_legacy.json").write_text(json.dumps({"old": 1}))
    report = TrendReport(str(tmp_path))
    assert report.suites == {}
    assert "no committed bench history" in report.render_html("full")


# -- CLI -------------------------------------------------------------------

def test_report_cli_trends_and_gate(tmp_path, capsys, monkeypatch):
    from repro.__main__ import main

    _write_record(tmp_path, "kernels",
                  [{"bulk_warm.vector_seconds": 1.0}])
    (tmp_path / "benchmarks").mkdir()
    baseline_path = tmp_path / "benchmarks" / "BASELINE.json"
    baseline_path.write_text(json.dumps({
        "profiles": {"full": {
            "kernels": {"bulk_warm.vector_seconds": 1.0}}}}))

    assert main(["report", "trends", "--root", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "gate-metric trends" in out and "no monotonic drift" in out

    assert main(["report", "gate", "--root", str(tmp_path)]) == 0
    assert "gate passed" in capsys.readouterr().out

    # inject a regression into the committed record: gate exits 1
    _write_record(tmp_path, "kernels",
                  [{"bulk_warm.vector_seconds": 2.0}])
    assert main(["report", "gate", "--root", str(tmp_path),
                 "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False and len(
        payload["regressions"]) == 1

    html_out = tmp_path / "trends.html"
    assert main(["report", "trends", "--root", str(tmp_path),
                 "--html", "--out", str(html_out)]) == 0
    assert html_out.read_text().startswith("<!doctype html>")

    assert main(["report", "trends",
                 "--root", str(tmp_path / "nowhere")]) == 1


def test_report_cli_unknown_figure(capsys):
    from repro.__main__ import main

    assert main(["report", "figures", "--figures", "fig99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


# -- MatrixReport summary satellite ----------------------------------------

def test_matrix_summary_retry_and_fault_totals():
    from repro.reliability.report import MatrixReport

    report = MatrixReport()
    report.rounds = 2
    a = report.task("bwaves")
    a.attempts = 2
    a.record_failure("crash", "boom")
    a.status = "completed"
    b = report.task("mcf")
    b.attempts = 3
    b.record_failure("timeout", "slow")
    b.record_failure("timeout", "slow again")
    b.status = "failed"
    assert report.failures_by_kind == {"crash": 1, "timeout": 2}
    summary = report.summary(faults_fired=4)
    head = summary.splitlines()[0]
    assert "2 tasks" in head
    assert "3 failed attempt(s) (1 crash, 2 timeout)" in head
    assert "4 fault(s) fired" in head
    # without failures or faults the line stays as before
    clean = MatrixReport()
    clean.task("lbm").status = "completed"
    assert "failed attempt" not in clean.summary()
    assert "fault" not in clean.summary()
