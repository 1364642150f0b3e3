"""Tests for the persistent artifact store and its warm-start wiring.

The load-bearing property is *round-trip fidelity*: every stored
artifact must deserialize bit-identical to the freshly computed one, and
a warm-started run (whole-result hit, or warm-up-bundle replay at a new
LLC size) must be indistinguishable from a cold one.  Like
``tests/test_kernels.py`` does for kernel backends, the round-trip
properties are exercised over several address engines, not one
hand-picked workload.
"""

import os
import pickle
import time
import tracemalloc

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SuiteRunner
from repro.sampling.plan import SamplingPlan
from repro.statmodel.histogram import ReuseHistogram
from repro.store import (
    ArtifactStore,
    DiskStore,
    LRUCache,
    SCHEMA_VERSION,
    cache_enabled_by_env,
    canonical_bytes,
    decode,
    encode,
    fingerprint,
    memo_key,
)
from repro.store.fingerprint import fingerprint_arrays
from repro.trace.address_space import AddressSpace
from repro.trace.engines import (
    MultiWorkingSetEngine,
    PointerChaseEngine,
    SequentialEngine,
    UniformWorkingSetEngine,
    WorkingSetComponent,
)
from repro.trace.phases import PhaseSpec
from repro.trace.workload import Workload
from repro.util.rng import child_rng
from repro.util.units import MIB
from repro.vff.index import TraceIndex

from conftest import make_small_workload


# -- workloads over different address engines ------------------------------

def make_pointer_chase_workload(seed=7, n_instructions=120_000):
    def factory():
        space = AddressSpace(seed=seed)
        hot = UniformWorkingSetEngine(space.allocate("hot", 64), n_pcs=4)
        heap = PointerChaseEngine(space.allocate("heap", 1024),
                                  child_rng(seed, "perm"), n_pcs=4)
        engine = MultiWorkingSetEngine([
            WorkingSetComponent(hot, weight=0.7, pc_base=0),
            WorkingSetComponent(heap, weight=0.3, pc_base=4),
        ])
        return [PhaseSpec("main", n_instructions, engine, mem_fraction=0.4,
                          branch_fraction=0.1, mispredict_rate=0.03)]
    return Workload("chase", factory, seed=seed)


def make_streaming_workload(seed=9, n_instructions=120_000):
    def factory():
        space = AddressSpace(seed=seed)
        hot = UniformWorkingSetEngine(space.allocate("hot", 48), n_pcs=4)
        stream = SequentialEngine(space.allocate("stream", 4096), n_pcs=2)
        engine = MultiWorkingSetEngine([
            WorkingSetComponent(hot, weight=0.75, pc_base=0),
            WorkingSetComponent(stream, weight=0.25, pc_base=4),
        ])
        return [PhaseSpec("main", n_instructions, engine, mem_fraction=0.4,
                          branch_fraction=0.1, mispredict_rate=0.03)]
    return Workload("stream", factory, seed=seed)


ENGINE_WORKLOADS = {
    "mixed": make_small_workload,
    "chase": make_pointer_chase_workload,
    "stream": make_streaming_workload,
}


def result_blob(result):
    """Canonical bytes covering every observable field of a result."""
    return pickle.dumps((
        result.strategy, result.workload, result.wall_seconds,
        result.paper_equivalent_instructions,
        result.meter.ledger.as_dict(), result.extras,
        [(r.index, r.n_instructions, r.stats.counts,
          r.timing.total_cycles if r.timing is not None else None,
          r.extras) for r in result.regions],
    ))


def report_blob(report):
    return pickle.dumps((
        [result_blob(r) for r in report.results],
        report.wall_seconds, report.core_seconds,
        report.single_config_core_seconds, report.extras,
    ))


# -- fingerprints ----------------------------------------------------------

def test_fingerprint_dict_order_insensitive():
    assert fingerprint({"a": 1, "b": [2, 3]}) == \
        fingerprint({"b": [2, 3], "a": 1})


def test_fingerprint_distinguishes_values_and_types():
    assert fingerprint(1) != fingerprint(1.0)
    assert fingerprint("1") != fingerprint(1)
    assert fingerprint([1, 2]) != fingerprint([2, 1])
    assert fingerprint({"a": 1}) != fingerprint({"a": 2})
    assert fingerprint(1.0) != fingerprint(1.0 + 2**-50)


def test_fingerprint_numpy_and_dataclasses():
    a = np.arange(8, dtype=np.int64)
    assert fingerprint(a) == fingerprint(a.copy())
    assert fingerprint(a) != fingerprint(a.astype(np.int32))
    plan = SamplingPlan(n_instructions=120_000, n_regions=3)
    same = SamplingPlan(n_instructions=120_000, n_regions=3)
    other = SamplingPlan(n_instructions=120_000, n_regions=4)
    assert fingerprint(plan) == fingerprint(same)
    assert fingerprint(plan) != fingerprint(other)


def test_fingerprint_sets_and_rejects_opaque_objects():
    assert fingerprint({1, 2, 3}) == fingerprint({3, 2, 1})
    with pytest.raises(TypeError):
        fingerprint(object())


def test_fingerprint_arrays_hashes_columns_in_place(tmp_path):
    """Batched column hashing equals the monolithic encoding for mapped,
    strided, bool and empty columns, and hashes a contiguous mapped
    column through its buffer: no batch is copied onto the heap."""
    path = tmp_path / "column.npy"
    column = np.lib.format.open_memmap(path, mode="w+", dtype=np.int64,
                                       shape=(4 << 20,))
    column[:] = np.arange(column.shape[0]) * 3
    column.flush()
    del column
    mapped = np.load(path, mmap_mode="r")
    columns = {"mapped": (mapped, 999_983),
               "strided": (np.arange(3_000, dtype=np.int32)[::7], 5),
               "flags": (np.arange(41) % 3 == 0, 5),
               "empty": (np.empty(0, dtype=np.int64), 5)}
    for name, (array, batch_rows) in columns.items():
        assert fingerprint_arrays({name: array}, batch_rows) == \
            fingerprint({name: array}), name
    arrays = {name: array for name, (array, _) in columns.items()}
    assert fingerprint_arrays(arrays) == fingerprint(arrays)

    tracemalloc.start()
    try:
        fingerprint_arrays({"mapped": mapped})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_canonical_bytes_stable():
    value = {"nested": {"x": (1, 2.5, None, True)}, "arr": np.ones(3)}
    assert canonical_bytes(value) == canonical_bytes(value)


def test_memo_key_handles_unhashable_options():
    # The old tuple(sorted(options.items())) memo key raised TypeError
    # for dict/list-valued options.
    options = {"explorer_specs": [{"a": 1}], "weights": [1, 2]}
    assert memo_key(options) == memo_key(dict(reversed(options.items())))


# -- LRU memory tier -------------------------------------------------------

def test_lru_eviction_by_entries():
    cache = LRUCache(max_entries=2, max_bytes=1 << 20)
    cache.put("a", 1, 10)
    cache.put("b", 2, 10)
    assert cache.get("a") == 1          # refresh: b becomes LRU
    cache.put("c", 3, 10)
    assert cache.get("b") is None and cache.get("a") == 1
    assert cache.evictions == 1


def test_lru_eviction_by_bytes():
    cache = LRUCache(max_entries=10, max_bytes=100)
    cache.put("a", "x", 60)
    cache.put("b", "y", 60)             # exceeds budget: evicts a
    assert cache.get("a") is None and cache.get("b") == "y"
    assert cache.total_bytes == 60


def test_lru_rejects_oversized_entry():
    cache = LRUCache(max_entries=10, max_bytes=100)
    cache.put("big", "z", 1000)
    assert "big" not in cache and len(cache) == 0


# -- codecs ----------------------------------------------------------------

def test_encode_decode_array_mapping_roundtrip():
    tables = {
        "a": np.arange(100, dtype=np.int64),
        "b": np.linspace(0, 1, 33),
        "c": np.array([True, False, True]),
    }
    kind, payload = encode(tables)
    assert kind == "pkl"
    decoded = decode(kind, payload)
    assert set(decoded) == set(tables)
    for name in tables:
        assert decoded[name].dtype == tables[name].dtype
        assert np.array_equal(decoded[name], tables[name])


def test_encode_decode_object_roundtrip():
    obj = {"histogram": ReuseHistogram.from_state([1, 5], [2.0, 1.0], 3.0),
           "tuple": (1, "x")}
    kind, payload = encode(obj)
    assert kind == "pkl"
    decoded = decode(kind, payload)
    assert decoded["tuple"] == (1, "x")
    assert decoded["histogram"].state()[2] == 3.0


# -- disk tier -------------------------------------------------------------

def test_disk_put_get_roundtrip(tmp_path):
    disk = DiskStore(tmp_path, SCHEMA_VERSION)
    disk.put("ab" * 32, "pkl", b"payload", label="test")
    header, payload = disk.get("ab" * 32)
    assert payload == b"payload"
    assert header["label"] == "test" and header["schema"] == SCHEMA_VERSION


def test_disk_stale_schema_invisible_and_gc(tmp_path):
    old = DiskStore(tmp_path, SCHEMA_VERSION)
    old.put("aa" * 32, "pkl", b"old")
    new = DiskStore(tmp_path, SCHEMA_VERSION + 1)
    assert new.get("aa" * 32) is None
    new.put("bb" * 32, "pkl", b"new")
    removed, reclaimed = new.gc()
    assert removed == 1 and reclaimed > 0
    assert old.get("aa" * 32) is None
    assert new.get("bb" * 32) is not None


def test_disk_corrupt_blob_is_a_miss(tmp_path):
    disk = DiskStore(tmp_path, SCHEMA_VERSION)
    path = disk.put("cc" * 32, "pkl", b"data")
    path.write_bytes(b"garbage")
    assert disk.get("cc" * 32) is None
    removed, _ = disk.gc()
    assert removed == 1


def test_disk_gc_reclaims_old_temp_litter_spares_fresh(tmp_path):
    from repro.store.disk import TMP_GRACE_SECONDS
    disk = DiskStore(tmp_path, SCHEMA_VERSION)
    disk.put("dd" * 32, "pkl", b"data")
    stale = disk.path_for("dd" * 32).with_name("x.123.deadbeef.tmp")
    stale.write_bytes(b"partial")
    past = time.time() - TMP_GRACE_SECONDS - 60
    os.utime(stale, (past, past))
    fresh = disk.path_for("dd" * 32).with_name("y.456.cafef00d.tmp")
    fresh.write_bytes(b"in-flight")        # may belong to a live writer
    removed, _ = disk.gc()
    assert removed == 1 and not stale.exists()
    assert fresh.exists()
    assert disk.get("dd" * 32) is not None


def test_disk_put_survives_concurrent_temp_sweep(tmp_path, monkeypatch):
    """A `cache clear`/`gc` racing a writer's rename must not crash it."""
    disk = DiskStore(tmp_path, SCHEMA_VERSION)
    real_replace = os.replace
    def sweep_then_replace(src, dst):
        os.unlink(src)                     # the concurrent sweep wins
        return real_replace(src, dst)      # raises FileNotFoundError
    monkeypatch.setattr("repro.store.disk.os.replace", sweep_then_replace)
    disk.put("ab" * 32, "pkl", b"data")    # must not raise
    assert disk.get("ab" * 32) is None     # publish was lost, harmlessly


def test_store_corrupt_payload_is_a_miss(tmp_path):
    """A valid header over a torn payload must read as a miss."""
    store = ArtifactStore(root=tmp_path, enabled=True)
    digest = store.save({"k": "torn"}, {"value": 1})
    path = store.disk.path_for(digest)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])            # truncate the zlib stream
    fresh = ArtifactStore(root=tmp_path, enabled=True)
    assert fresh.load({"k": "torn"}) is None
    assert fresh.disk_misses == 1


def test_disk_clear(tmp_path):
    disk = DiskStore(tmp_path, SCHEMA_VERSION)
    disk.put("ee" * 32, "pkl", b"1")
    disk.put("ff" * 32, "npz", b"2")
    assert disk.clear() == 2
    assert disk.stats()["entries"] == 0


# -- two-tier store --------------------------------------------------------

def test_store_save_load_and_memory_promotion(tmp_path):
    store = ArtifactStore(root=tmp_path, enabled=True)
    key = {"artifact": "x", "n": 1}
    store.save(key, {"value": 42}, label="x")
    assert store.load(key) == {"value": 42}        # memory hit
    fresh = ArtifactStore(root=tmp_path, enabled=True)
    assert fresh.load(key) == {"value": 42}        # disk hit
    assert fresh.disk_hits == 1
    assert fresh.load(key) == {"value": 42}
    assert fresh.memory.hits == 1                  # promoted


def test_store_disabled_is_inert(tmp_path):
    store = ArtifactStore(root=tmp_path, enabled=False)
    assert store.save({"k": 1}, "v") is None
    assert store.load({"k": 1}) is None
    assert not store.contains({"k": 1})
    assert not (tmp_path / "objects").exists()


def test_store_env_switch(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    assert not cache_enabled_by_env()
    monkeypatch.setenv("REPRO_CACHE", "on")
    assert cache_enabled_by_env()
    monkeypatch.delenv("REPRO_CACHE")
    assert cache_enabled_by_env()


def test_store_schema_bump_invalidates(tmp_path):
    v1 = ArtifactStore(root=tmp_path, enabled=True)
    v1.save({"k": 1}, "value")
    v2 = ArtifactStore(root=tmp_path, enabled=True,
                       schema_version=SCHEMA_VERSION + 1)
    assert v2.load({"k": 1}) is None


def test_store_get_or_create(tmp_path):
    store = ArtifactStore(root=tmp_path, enabled=True)
    calls = []
    def compute():
        calls.append(1)
        return "computed"
    assert store.get_or_create({"k": 2}, compute) == "computed"
    assert store.get_or_create({"k": 2}, compute) == "computed"
    assert len(calls) == 1


# -- artifact round-trips over address engines -----------------------------

@pytest.mark.parametrize("engine", sorted(ENGINE_WORKLOADS))
def test_trace_index_tables_roundtrip(engine, tmp_path):
    """A spilled index published to the store and reopened memory-mapped
    answers queries like an in-RAM sort of the same trace."""
    workload = ENGINE_WORKLOADS[engine]()
    trace = workload.trace
    index = TraceIndex(trace)
    store = ArtifactStore(root=tmp_path, enabled=True)
    key = {"artifact": "trace-index-spill", "trace_fingerprint": engine}
    TraceIndex.build_spilled(trace, store, key).close()
    restored = TraceIndex.open(trace, store, key)
    assert restored is not None and restored.mapped
    lines = np.unique(trace.mem_line)[:50]
    lo, hi = trace.n_accesses // 4, 3 * trace.n_accesses // 4
    counts_a, last_a = index.window_access_counts(lines, lo, hi)
    counts_b, last_b = restored.window_access_counts(lines, lo, hi)
    assert np.array_equal(counts_a, counts_b)
    assert np.array_equal(last_a, last_b)
    for line in lines[:10].tolist():
        assert (index.last_access_before(line, hi)
                == restored.last_access_before(line, hi))
    positions = np.arange(0, hi, 37)
    for a, b in zip(index.batch_await_reuse(positions, hi),
                    restored.batch_await_reuse(positions, hi)):
        assert np.array_equal(a, b)
    restored.close()
    workload.release()


@pytest.mark.parametrize("engine", sorted(ENGINE_WORKLOADS))
def test_histogram_state_roundtrip(engine):
    workload = ENGINE_WORKLOADS[engine]()
    trace = workload.trace
    histogram = ReuseHistogram()
    from repro.caches.stack import reuse_and_stack_distances
    reuse, _ = reuse_and_stack_distances(trace.mem_line[:40_000])
    histogram.add_many(reuse[::7])
    restored = ReuseHistogram.from_state(*histogram.state())
    d_a, w_a = histogram.distances()
    d_b, w_b = restored.distances()
    assert np.array_equal(d_a, d_b) and np.array_equal(w_a, w_b)
    assert restored.cold == histogram.cold
    k = np.arange(0, 5000, 17)
    assert np.array_equal(histogram.ccdf(k), restored.ccdf(k))
    assert histogram.quantile(0.5) == restored.quantile(0.5)
    workload.release()


@pytest.mark.parametrize("engine", sorted(ENGINE_WORKLOADS))
@pytest.mark.parametrize("strategy", ["SMARTS", "CoolSim", "DeLorean"])
def test_strategy_result_roundtrip(engine, strategy):
    from repro.experiments.runner import STRATEGIES
    workload = ENGINE_WORKLOADS[engine]()
    plan = SamplingPlan(
        n_instructions=workload.trace.n_instructions, n_regions=3)
    from repro.caches.hierarchy import paper_hierarchy
    hierarchy = paper_hierarchy(8 * MIB)
    result = STRATEGIES[strategy]().run(
        workload, plan, hierarchy, index=TraceIndex(workload.trace), seed=1)
    decoded = decode(*encode(result))
    assert result_blob(decoded) == result_blob(result)
    workload.release()


def test_dse_report_roundtrip():
    from repro.core.dse import DesignSpaceExploration
    from repro.caches.hierarchy import paper_hierarchy
    workload = make_small_workload()
    plan = SamplingPlan(
        n_instructions=workload.trace.n_instructions, n_regions=3)
    configs = [paper_hierarchy(s * MIB) for s in (1, 8, 64)]
    report = DesignSpaceExploration().run(
        workload, plan, configs, index=TraceIndex(workload.trace), seed=1)
    decoded = decode(*encode(report))
    assert report_blob(decoded) == report_blob(report)
    workload.release()


# -- warm-start through the suite runner -----------------------------------

TINY = ExperimentConfig(
    n_instructions=360_000,
    n_regions=3,
    names=("bwaves", "mcf"),
)


def test_runner_warm_start_is_bit_identical(tmp_path):
    off = SuiteRunner(TINY, store=ArtifactStore(enabled=False))
    cold = SuiteRunner(TINY, store=ArtifactStore(root=tmp_path, enabled=True))
    for strategy in ("SMARTS", "DeLorean"):
        r_off = off.run("bwaves", strategy)
        r_cold = cold.run("bwaves", strategy)
        assert result_blob(r_off) == result_blob(r_cold)

    warm_store = ArtifactStore(root=tmp_path, enabled=True)
    warm = SuiteRunner(TINY, store=warm_store)
    for strategy in ("SMARTS", "DeLorean"):
        r_warm = warm.run("bwaves", strategy)
        assert result_blob(r_warm) == result_blob(off.run("bwaves", strategy))
    assert warm_store.saves == 0           # nothing was recomputed
    assert warm_store.disk_hits >= 2


def test_runner_persists_no_position_index(tmp_path):
    """The runner's context builds and holds the trace index; no
    position-only ``trace-index`` artifact reaches the store, and a
    second runner on that store still matches a store-off run."""
    store = ArtifactStore(root=tmp_path, enabled=True)
    cold = SuiteRunner(TINY, store=store)
    cold.run("bwaves", "DeLorean")
    assert cold._active_context._index is not None
    assert "trace-index" not in store.disk.stats()["by_label"]

    warm = SuiteRunner(TINY, store=ArtifactStore(root=tmp_path, enabled=True))
    off = SuiteRunner(TINY, store=ArtifactStore(enabled=False))
    r_warm = warm.run("bwaves", "DeLorean", llc_paper_bytes=512 * MIB)
    r_off = off.run("bwaves", "DeLorean", llc_paper_bytes=512 * MIB)
    assert result_blob(r_warm) == result_blob(r_off)
    assert "trace-index" not in store.disk.stats()["by_label"]


def test_runner_warm_start_skips_simulation(tmp_path, monkeypatch):
    cold = SuiteRunner(TINY, store=ArtifactStore(root=tmp_path, enabled=True))
    expected = cold.run("mcf", "DeLorean")

    # A warm runner must never instantiate a strategy: poison the table.
    import repro.experiments.runner as runner_module
    monkeypatch.setattr(runner_module, "STRATEGIES", {})
    warm = SuiteRunner(TINY, store=ArtifactStore(root=tmp_path, enabled=True))
    result = warm.run("mcf", "DeLorean")
    assert result_blob(result) == result_blob(expected)


def test_delorean_warmup_replay_across_llc(tmp_path):
    """Warm-up bundles are LLC-independent: a run at a new cache size
    replays the stored scout/explorer products bit-identically."""
    off = SuiteRunner(TINY, store=ArtifactStore(enabled=False))
    store = ArtifactStore(root=tmp_path, enabled=True)
    cold = SuiteRunner(TINY, store=store)
    cold.run("bwaves", "DeLorean")                     # publishes the bundle

    warm_store = ArtifactStore(root=tmp_path, enabled=True)
    warm = SuiteRunner(TINY, store=warm_store)
    r_warm = warm.run("bwaves", "DeLorean", llc_paper_bytes=512 * MIB)
    r_off = off.run("bwaves", "DeLorean", llc_paper_bytes=512 * MIB)
    assert result_blob(r_warm) == result_blob(r_off)
    # the 512 MiB result itself was new (one save), but the warm-up came
    # from the store rather than being recomputed
    assert warm_store.disk_hits >= 1
    assert warm_store.saves == 1


def test_dse_warmup_replay_across_sizes(tmp_path):
    sizes_a = tuple(s * MIB for s in (1, 8))
    sizes_b = tuple(s * MIB for s in (1, 8, 64, 512))
    off = SuiteRunner(TINY, store=ArtifactStore(enabled=False))
    cold = SuiteRunner(TINY, store=ArtifactStore(root=tmp_path, enabled=True))
    cold.run_dse("mcf", sizes_a)

    warm = SuiteRunner(TINY, store=ArtifactStore(root=tmp_path, enabled=True))
    r_warm = warm.run_dse("mcf", sizes_b)
    r_off = off.run_dse("mcf", sizes_b)
    assert report_blob(r_warm) == report_blob(r_off)


def test_runner_accepts_unhashable_strategy_options():
    """The memo key used to raise TypeError for dict/list options."""
    from repro.core.explorer import DEFAULT_EXPLORERS
    runner = SuiteRunner(TINY, store=ArtifactStore(enabled=False))
    result = runner.run("bwaves", "DeLorean",
                        explorer_specs=list(DEFAULT_EXPLORERS))
    again = runner.run("bwaves", "DeLorean",
                       explorer_specs=list(DEFAULT_EXPLORERS))
    assert result is again


def test_parallel_workers_share_store(tmp_path):
    store = ArtifactStore(root=tmp_path, enabled=True)
    runner = SuiteRunner(TINY, store=store)
    matrix = runner.run_matrix(strategies=("SMARTS", "DeLorean"),
                               max_workers=2)
    reference = SuiteRunner(
        TINY, store=ArtifactStore(enabled=False)).run_matrix(
            strategies=("SMARTS", "DeLorean"))
    for strategy in matrix:
        for name in matrix[strategy]:
            assert result_blob(matrix[strategy][name]) == \
                result_blob(reference[strategy][name])
    # the workers published; the parent never re-simulated
    assert store.disk.stats()["entries"] > 0

    warm = SuiteRunner(TINY, store=ArtifactStore(root=tmp_path, enabled=True))
    warm_matrix = warm.run_matrix(strategies=("SMARTS", "DeLorean"),
                                  max_workers=2)
    assert warm.store.saves == 0
    for strategy in warm_matrix:
        for name in warm_matrix[strategy]:
            assert result_blob(warm_matrix[strategy][name]) == \
                result_blob(reference[strategy][name])


def test_cli_cache_subcommand(tmp_path, capsys, monkeypatch):
    from repro.__main__ import main
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    store = ArtifactStore(root=tmp_path, enabled=True)
    store.save({"k": 1}, {"v": np.arange(4)}, label="demo")
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "entries" in out and "demo" in out
    assert main(["cache", "ls"]) == 0
    assert "demo" in capsys.readouterr().out
    assert main(["cache", "gc"]) == 0
    capsys.readouterr()
    assert main(["cache", "clear"]) == 0
    assert "removed 1" in capsys.readouterr().out


def test_cli_cache_handles_legacy_npz_blob_without_decoding(
        tmp_path, capsys, monkeypatch):
    """Stores written before the npz codec went keep compressed ``npz``
    array blobs; listing, scrubbing and clearing read only headers and
    checksums, never the payload codec."""
    import io
    import json as json_module
    from repro.__main__ import main

    buffer = io.BytesIO()
    np.savez_compressed(buffer, positions=np.arange(64))
    digest = "cd" * 32
    DiskStore(tmp_path, SCHEMA_VERSION).put(
        digest, "npz", buffer.getvalue(), label="trace-index")

    def refuse(*_):
        raise AssertionError("maintenance decoded a blob")
    monkeypatch.setattr("repro.store.store.decode", refuse)
    monkeypatch.setattr("repro.store.serialize.decode", refuse)

    assert main(["cache", "ls", "--dir", str(tmp_path), "--json"]) == 0
    [entry] = json_module.loads(capsys.readouterr().out)
    assert (entry["digest"], entry["kind"], entry["label"]) == \
        (digest, "npz", "trace-index")
    assert main(["cache", "verify", "--dir", str(tmp_path), "--json"]) == 0
    report = json_module.loads(capsys.readouterr().out)
    assert report["checked"] == 1 and report["counts"] == {"ok": 1}
    assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert not DiskStore(tmp_path, SCHEMA_VERSION).contains(digest)


# -- memory-mapped (npzm) artifacts ------------------------------------------

def test_save_arrays_load_mapped_roundtrip(tmp_path):
    """npzm blobs stream out and serve back as read-only memory maps."""
    store = ArtifactStore(root=tmp_path, enabled=True)
    arrays = {
        "a": np.arange(10_000, dtype=np.int64),
        "b": np.linspace(0.0, 1.0, 513),
        "empty": np.empty(0, dtype=np.int64),
    }
    key = {"artifact": "mapped-demo"}
    digest = store.save_arrays(key, arrays, label="spill")
    assert digest == store.digest(key)

    views = store.load_mapped(key)
    for name, expected in arrays.items():
        got = views[name]
        assert got.dtype == expected.dtype
        assert np.array_equal(np.asarray(got), expected), name
        if expected.size:
            assert isinstance(got, np.memmap), name
    with pytest.raises((ValueError, TypeError)):
        views["a"][0] = 99                       # read-only views

    # The ordinary load path decodes the same payload into RAM.
    loaded = store.load(key)
    for name, expected in arrays.items():
        assert np.array_equal(loaded[name], expected)


def test_load_mapped_falls_back_for_compressed_npz(tmp_path):
    store = ArtifactStore(root=tmp_path, enabled=True)
    store.save({"k": "z"}, {"x": np.arange(64)})
    got = store.load_mapped({"k": "z"})
    assert np.array_equal(got["x"], np.arange(64))


def test_load_mapped_miss_and_disabled(tmp_path):
    store = ArtifactStore(root=tmp_path, enabled=True)
    assert store.load_mapped({"missing": True}) is None
    disabled = ArtifactStore(root=tmp_path, enabled=False)
    assert disabled.save_arrays({"k": 1}, {"x": np.arange(3)}) is None
    assert disabled.load_mapped({"k": 1}) is None


def test_save_arrays_streams_memmap_sources(tmp_path):
    """Spill-file memmaps stream into the blob without materializing."""
    source = np.lib.format.open_memmap(
        tmp_path / "spill.npy", mode="w+", dtype=np.int64, shape=(5_000,))
    source[:] = np.arange(5_000)
    source.flush()
    store = ArtifactStore(root=tmp_path / "store", enabled=True)
    store.save_arrays({"k": "mm"}, {"t": source})
    views = store.load_mapped({"k": "mm"})
    assert np.array_equal(np.asarray(views["t"]), np.arange(5_000))


def test_cli_cache_gc_json(tmp_path, capsys, monkeypatch):
    import json as json_module
    from repro.__main__ import main
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    ArtifactStore(root=tmp_path, enabled=True).save(
        {"k": 1}, {"v": np.arange(4)}, label="demo")
    assert main(["cache", "gc", "--json"]) == 0
    payload = json_module.loads(capsys.readouterr().out)
    assert payload == {"root": str(tmp_path), "removed": 0,
                       "reclaimed_bytes": 0, "superseded_removed": 0}
