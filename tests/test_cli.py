"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.__main__ import EXHIBITS, build_parser, main


def test_parser_accepts_exhibits():
    parser = build_parser()
    args = parser.parse_args(["fig8", "--quick"])
    assert args.exhibit == "fig8" and args.quick


def test_parser_rejects_unknown():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["fig99"])


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXHIBITS:
        assert name in out


def test_table1_command(capsys, tmp_path):
    out_file = tmp_path / "t1.txt"
    assert main(["table1", "--out", str(out_file)]) == 0
    assert "Table 1" in capsys.readouterr().out
    assert "ROB" in out_file.read_text()


def test_figure_with_tiny_config(capsys):
    code = main(["fig8", "--benchmarks", "bwaves",
                 "--instructions", "360000", "--regions", "3"])
    assert code == 0
    assert "Figure 8" in capsys.readouterr().out


def test_cache_stats_and_ls_json(capsys, tmp_path):
    assert main(["cache", "stats", "--dir", str(tmp_path), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 0 and stats["root"] == str(tmp_path)
    assert main(["cache", "ls", "--dir", str(tmp_path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_cache_ls_json_lists_entries(capsys, tmp_path):
    from repro.store import ArtifactStore

    store = ArtifactStore(root=tmp_path, enabled=True)
    store.save({"k": 1}, {"x": np.arange(4)}, label="demo")
    assert main(["cache", "ls", "--dir", str(tmp_path), "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert len(entries) == 1
    assert entries[0]["label"] == "demo" and not entries[0]["stale"]
    assert main(["cache", "stats", "--dir", str(tmp_path), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 1 and "demo" in stats["by_label"]


def test_trace_cli_import_info_ls_convert(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
    from repro.traceio import export_trace
    from tests.test_traceio import random_trace

    trace = random_trace(3, n_instructions=2_000)
    src = tmp_path / "fixture.csv"
    export_trace(trace, src, "csv")

    assert main(["trace", "import", str(src), "--format", "csv",
                 "--name", "clifix"]) == 0
    out = capsys.readouterr().out
    assert "imported" in out and "clifix" in out

    assert main(["trace", "info", "clifix", "--json"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["n_instructions"] == trace.n_instructions

    assert main(["trace", "ls", "--json"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert [entry["name"] for entry in listing] == ["clifix"]

    dst = tmp_path / "back.lackey"
    assert main(["trace", "convert", "clifix", str(dst),
                 "--to", "lackey"]) == 0
    assert dst.exists()


def test_trace_cli_rejects_unknown_format(tmp_path):
    with pytest.raises(SystemExit):
        main(["trace", "import", str(tmp_path / "x"), "--format", "elf"])


#: Keys every container manifest must expose to tooling.
MANIFEST_SCHEMA = {
    "format", "format_version", "name", "fingerprint", "n_instructions",
    "n_accesses", "n_branches", "n_pcs", "unique_lines",
    "footprint_bytes", "mem_fraction", "compressed", "source", "arrays",
}


def _csv_fixture(tmp_path, n_instructions=4_000, seed=3,
                 filename="fixture.csv"):
    from repro.traceio import export_trace
    from tests.test_traceio import random_trace

    trace = random_trace(seed, n_instructions=n_instructions)
    src = tmp_path / filename
    export_trace(trace, src, "csv")
    return trace, src


def test_trace_info_json_schema(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
    trace, src = _csv_fixture(tmp_path)
    assert main(["trace", "import", str(src), "--format", "csv",
                 "--name", "schemafix"]) == 0
    capsys.readouterr()
    assert main(["trace", "info", "schemafix", "--json"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert set(manifest) == MANIFEST_SCHEMA
    assert manifest["format"] == "repro-trace"
    assert manifest["n_instructions"] == trace.n_instructions
    assert manifest["n_accesses"] == trace.n_accesses
    assert manifest["source"] == {"path": str(src), "format": "csv"}
    assert set(manifest["arrays"]) == {
        "kind", "mem_instr", "mem_line", "mem_pc", "mem_store",
        "branch_instr", "branch_mispred"}
    for entry in manifest["arrays"].values():
        assert set(entry) == {"dtype", "shape"}


def test_trace_ls_json_schema(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
    _, src = _csv_fixture(tmp_path)
    assert main(["trace", "import", str(src), "--format", "csv",
                 "--name", "lsfix"]) == 0
    capsys.readouterr()
    assert main(["trace", "ls", "--json"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert len(listing) == 1
    assert set(listing[0]) == MANIFEST_SCHEMA
    assert listing[0]["name"] == "lsfix"


def test_cache_gc_json(capsys, tmp_path):
    assert main(["cache", "gc", "--dir", str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"root", "removed", "reclaimed_bytes",
                            "superseded_removed"}
    assert payload["root"] == str(tmp_path)
    assert payload["removed"] == 0 and payload["reclaimed_bytes"] == 0
    assert payload["superseded_removed"] == 0
    # A stale-schema blob is reclaimable and must be counted.
    from repro.store import ArtifactStore

    old = ArtifactStore(root=tmp_path, enabled=True, schema_version=0)
    old.save({"k": 1}, {"x": np.arange(8)}, label="stale")
    assert main(["cache", "gc", "--dir", str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["removed"] == 1 and payload["reclaimed_bytes"] > 0


def test_trace_import_chunked_matches_materialized(capsys, tmp_path,
                                                   monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
    _, src = _csv_fixture(tmp_path)
    assert main(["trace", "import", str(src), "--format", "csv",
                 "--name", "whole"]) == 0
    assert main(["trace", "import", str(src), "--format", "csv",
                 "--name", "chunked", "--chunk", "257"]) == 0
    capsys.readouterr()
    assert main(["trace", "info", "whole", "--json"]) == 0
    whole = json.loads(capsys.readouterr().out)
    assert main(["trace", "info", "chunked", "--json", "--verify"]) == 0
    chunked = json.loads(capsys.readouterr().out)
    assert chunked["fingerprint"] == whole["fingerprint"]
    assert chunked["n_instructions"] == whole["n_instructions"]
    # Re-importing identical content under the same name is a no-op...
    assert main(["trace", "import", str(src), "--format", "csv",
                 "--name", "chunked", "--chunk", "400"]) == 0
    # ...but different content needs --force.
    _, src2 = _csv_fixture(tmp_path, seed=9, filename="other.csv")
    capsys.readouterr()
    assert main(["trace", "import", str(src2), "--format", "csv",
                 "--name", "chunked", "--chunk", "400"]) == 1
    assert "already exists" in capsys.readouterr().err
    assert main(["trace", "import", str(src2), "--format", "csv",
                 "--name", "chunked", "--chunk", "400", "--force"]) == 0


def test_trace_import_chunked_rejects_bad_inputs(capsys, tmp_path,
                                                 monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
    _, src = _csv_fixture(tmp_path)
    # Non-positive chunk is a usage error, not a crash.
    assert main(["trace", "import", str(src), "--format", "csv",
                 "--name", "bad", "--chunk", "0"]) == 1
    assert "--chunk" in capsys.readouterr().err
    # A synthetic-suite-shadowing name fails before the import runs.
    assert main(["trace", "import", str(src), "--format", "csv",
                 "--name", "mcf", "--chunk", "64"]) == 1
    assert "shadows" in capsys.readouterr().err
    # Malformed rows fail cleanly and leave no library entry behind.
    broken = tmp_path / "broken.csv"
    broken.write_text("kind,addr,pc,taken\nL,0x40,0x1,\nQ,,,\n")
    assert main(["trace", "import", str(broken), "--format", "csv",
                 "--name", "bad", "--chunk", "64"]) == 1
    assert "unknown kind" in capsys.readouterr().err
    # Truncated binary input likewise.
    stub = tmp_path / "trunc.champsim"
    stub.write_bytes(b"\x00" * 37)
    assert main(["trace", "import", str(stub), "--format", "champsim",
                 "--name", "bad", "--chunk", "64"]) == 1
    assert "truncated" in capsys.readouterr().err
    assert main(["trace", "ls", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_synth_export_cli(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
    assert main(["synth", "export", "bwaves", "--instructions", "50000",
                 "--chunk", "9000", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "exported bwaves" in out
    assert main(["trace", "info", "bwaves.synth", "--json",
                 "--verify"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["n_instructions"] == 50_000
    assert manifest["source"]["generator"] == "synthetic"
    assert manifest["source"]["spec_fingerprint"]
    # The container matches the monolithic build bit for bit.
    from repro.trace.spec import benchmark_spec
    from repro.traceio import trace_fingerprint

    reference = benchmark_spec("bwaves").workload(
        n_instructions=50_000, seed=2).trace
    assert manifest["fingerprint"] == trace_fingerprint(reference)
    # Imported names run through the suite machinery unchanged.
    assert main(["trace", "ls", "--json"]) == 0
    assert [e["name"] for e in json.loads(capsys.readouterr().out)] == \
        ["bwaves.synth"]


def test_synth_export_noop_and_conflict_short_circuit(capsys, tmp_path,
                                                      monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
    args = ["synth", "export", "gamess", "--instructions", "30000"]
    assert main(args) == 0
    capsys.readouterr()
    # Identical parameters: settled from the manifest, no regeneration.
    assert main(args) == 0
    assert "already exported" in capsys.readouterr().out
    # Different parameters under the same name: refused upfront...
    assert main(["synth", "export", "gamess", "--instructions", "40000"]) \
        == 1
    assert "different generator parameters" in capsys.readouterr().err
    # ...unless forced.
    assert main(["synth", "export", "gamess", "--instructions", "40000",
                 "--force"]) == 0
    capsys.readouterr()
    assert main(["trace", "info", "gamess.synth", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["n_instructions"] == 40_000


def test_synth_export_rejections(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "lib"))
    assert main(["synth", "export", "nonesuch"]) == 1
    assert "unknown synthetic benchmark" in capsys.readouterr().err
    # Exporting *under a synthetic suite name* would shadow the
    # calibrated benchmark; the library refuses.
    assert main(["synth", "export", "bwaves", "--instructions", "20000",
                 "--name", "mcf"]) == 1
    assert "shadows" in capsys.readouterr().err
    assert main(["synth", "export", "bwaves", "--chunk", "-3"]) == 1
    assert "--chunk" in capsys.readouterr().err
    assert main(["synth", "export", "bwaves",
                 "--instructions", "0"]) == 1
    assert "--instructions" in capsys.readouterr().err


# -- live feeds ---------------------------------------------------------------
#
# Schema pins for ``live run|tail --json`` (one object per watermark)
# and the watermark-aware ``cache stats|ls|gc`` views.

#: Keys every per-watermark JSON line must expose.
LIVE_WATERMARK_SCHEMA = {"watermark", "instructions", "content_fp",
                         "results"}
#: Keys every per-strategy result summary must expose (extras ride on
#: top, strategy-specific).
LIVE_RESULT_SCHEMA = {"strategy", "workload", "cpi", "mpki", "seconds",
                      "mips"}

_LIVE_ARGS = ["--gap", "1000", "--region", "500", "--warming", "600",
              "--strategies", "SMARTS", "--name", "clifeed",
              "--seed", "3", "--json"]


def _live_fixture(tmp_path, n_instructions=2_300):
    from repro.live import chunk_trace, write_frame
    from repro.traceio import write_trace
    from tests.test_traceio import random_trace

    trace = random_trace(31, n_instructions=n_instructions)
    feed = tmp_path / "feed.rlf"
    with open(feed, "wb") as handle:
        for chunk in chunk_trace(trace, 317):
            write_frame(handle, chunk)
    container = tmp_path / "feed.trace.npz"
    write_trace(trace, container, name="clifeed")
    return trace, feed, container


def _watermark_lines(capsys):
    lines = [json.loads(line)
             for line in capsys.readouterr().out.splitlines() if line]
    for payload in lines:
        assert set(payload) == LIVE_WATERMARK_SCHEMA
        for summary in payload["results"].values():
            assert LIVE_RESULT_SCHEMA <= set(summary)
    return lines


def test_live_run_feed_json_schema(capsys, tmp_path):
    _, feed, _ = _live_fixture(tmp_path)
    assert main(["live", "run", "--feed", str(feed)] + _LIVE_ARGS) == 0
    lines = _watermark_lines(capsys)
    assert [p["watermark"] for p in lines] == [1, 2]
    assert [p["instructions"] for p in lines] == [1_000, 2_000]
    for payload in lines:
        assert set(payload["results"]) == {"SMARTS"}
        assert payload["results"]["SMARTS"]["workload"] == "clifeed"


def test_live_run_container_matches_feed(capsys, tmp_path):
    _, feed, container = _live_fixture(tmp_path)
    assert main(["live", "run", "--feed", str(feed)] + _LIVE_ARGS) == 0
    from_feed = _watermark_lines(capsys)
    assert main(["live", "run", "--container", str(container),
                 "--chunk", "129"] + _LIVE_ARGS) == 0
    from_container = _watermark_lines(capsys)
    # Same prefix, different transport and chunking: identical output.
    assert from_container == from_feed


def test_live_tail_json_schema(capsys, tmp_path):
    _, feed, container = _live_fixture(tmp_path)
    assert main(["live", "run", "--feed", str(feed)] + _LIVE_ARGS) == 0
    from_feed = _watermark_lines(capsys)
    assert main(["live", "tail", str(container), "--poll", "0.01",
                 "--idle-timeout", "0.1"] + _LIVE_ARGS) == 0
    assert _watermark_lines(capsys) == from_feed


def test_live_rejects_unknown_strategy(tmp_path):
    _, feed, _ = _live_fixture(tmp_path)
    with pytest.raises(SystemExit, match="unknown strategy"):
        main(["live", "run", "--feed", str(feed), "--gap", "1000",
              "--strategies", "Oracle"])


def test_live_tail_requires_source(tmp_path):
    with pytest.raises(SystemExit, match="container path"):
        main(["live", "tail", "--gap", "1000"])


def test_cache_watermark_views(capsys, tmp_path):
    _, feed, _ = _live_fixture(tmp_path)
    cache = tmp_path / "cache"
    assert main(["live", "run", "--feed", str(feed),
                 "--store", str(cache)] + _LIVE_ARGS) == 0
    capsys.readouterr()
    # stats: superseded watermark entries are counted...
    assert main(["cache", "stats", "--dir", str(cache), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["live_superseded"] == 1        # the result at wm 1
    # ...ls: every live entry names its lineage and watermark...
    assert main(["cache", "ls", "--dir", str(cache), "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    live = [e for e in entries if e["watermark"] is not None]
    assert {e["watermark"] for e in live} == {1, 2}
    assert len({e["lineage"] for e in live}) == 1
    # ...gc: superseded entries are reclaimed, latest survives.
    assert main(["cache", "gc", "--dir", str(cache), "--json"]) == 0
    swept = json.loads(capsys.readouterr().out)
    assert swept["superseded_removed"] == 1
    assert swept["reclaimed_bytes"] > 0
    assert main(["cache", "stats", "--dir", str(cache), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["live_superseded"] == 0
    assert main(["cache", "ls", "--dir", str(cache), "--json"]) == 0
    remaining = [e for e in json.loads(capsys.readouterr().out)
                 if e["watermark"] is not None]
    assert {e["watermark"] for e in remaining} == {2}


def test_cache_gc_reclaims_retired_index_epochs(capsys, tmp_path):
    """Index epochs an older version published beside each watermark's
    results count as superseded at every watermark: one ``cache gc``
    removes them all, the top result stays, and a second removes
    nothing."""
    from repro.live import artifacts
    from repro.store import ArtifactStore

    _, feed, _ = _live_fixture(tmp_path)
    cache = tmp_path / "cache"
    assert main(["live", "run", "--feed", str(feed),
                 "--store", str(cache)] + _LIVE_ARGS) == 0
    capsys.readouterr()
    store = ArtifactStore(root=cache, enabled=True)
    [(_, lineage)] = artifacts.watermark_census(store)
    for watermark in (1, 2):
        store.save_arrays({"artifact": "live-index", "watermark": watermark},
                          {"lines_positions": np.arange(watermark)},
                          label=artifacts.live_label("index", lineage,
                                                     watermark))
    assert main(["cache", "stats", "--dir", str(cache), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["live_superseded"] == 3
    assert main(["cache", "gc", "--dir", str(cache), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["superseded_removed"] == 3
    assert main(["cache", "ls", "--dir", str(cache), "--json"]) == 0
    remaining = [(e["label"], e["watermark"])
                 for e in json.loads(capsys.readouterr().out)]
    assert remaining == [(f"live:result:{lineage}#2", 2)]
    assert main(["cache", "gc", "--dir", str(cache), "--json"]) == 0
    swept = json.loads(capsys.readouterr().out)
    assert swept["superseded_removed"] == swept["removed"] == 0
