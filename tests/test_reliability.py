"""Chaos differential harness for the reliability layer.

The pinned invariant: under every injected fault schedule, a run either
completes **bit-identical** to the fault-free run, or fails cleanly with
a structured error and **zero partial store entries** — never silently
wrong results, never a half-written blob served later.

Covers the three reliability layers (fault injection, self-healing
store, resilient pool), the advisory-lock concurrency story, scratch
cleanup on SIGTERM, the reader-open fault seam and the ``cache verify``
scrubber CLI.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SuiteRunner
from repro.reliability.faults import (
    FaultPlan,
    FaultSpecError,
    clear_plan,
    fault_point,
    inject,
)
from repro.reliability.locks import FileLock
from repro.reliability.report import (
    KIND_CRASH,
    MatrixExecutionError,
)
from repro.reliability.cleanup import (
    register_scratch,
    registered_scratch,
    unregister_scratch,
)
from repro.reliability.retry import pool_backoff, pool_retries, pool_timeout
from repro.store import ArtifactStore
from repro.traceio.container import TraceFormatError, write_trace
from repro.traceio.reader import TraceReader
from tests.conftest import make_small_workload


@pytest.fixture(autouse=True)
def _pristine_fault_state(monkeypatch):
    """No plan leaks into or out of any test."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    clear_plan()
    yield
    clear_plan()


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


# -- fault plan semantics ----------------------------------------------------

class TestFaultPlan:
    def test_spec_round_trip(self):
        spec = "seed=7;store.write:torn@frac=0.25,n=3;pool.task:crash@times=1"
        plan = FaultPlan.from_spec(spec)
        assert plan.seed == 7
        assert len(plan.rules) == 2
        again = FaultPlan.from_spec(plan.to_spec())
        assert again.to_spec() == plan.to_spec()

    @pytest.mark.parametrize("bad", [
        "nonsense",
        "bogus.site:eio",
        "store.write:nosuchmode",
        "store.write:torn@frac",
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(FaultSpecError):
            FaultPlan.from_spec(bad)

    def test_nth_visit_fires_exactly_once(self):
        plan = inject("store.read:eio@n=3")
        fired = [plan.check("store.read") is not None for _ in range(6)]
        assert fired == [False, False, True, False, False, False]

    def test_after_fires_from_kth_visit(self):
        plan = inject("store.read:eio@after=2,times=2")
        fired = [plan.check("store.read") is not None for _ in range(4)]
        assert fired == [False, True, True, False]

    def test_probability_is_deterministic(self):
        draws_a = [FaultPlan.from_spec("seed=5;store.read:eio@p=0.5")
                   .check("store.read") is not None for _ in range(1)]
        plan_a = FaultPlan.from_spec("seed=5;store.read:eio@p=0.5")
        plan_b = FaultPlan.from_spec("seed=5;store.read:eio@p=0.5")
        seq_a = [plan_a.check("store.read") is not None for _ in range(64)]
        seq_b = [plan_b.check("store.read") is not None for _ in range(64)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)
        other = FaultPlan.from_spec("seed=6;store.read:eio@p=0.5")
        seq_c = [other.check("store.read") is not None for _ in range(64)]
        assert seq_a != seq_c
        assert draws_a  # first-draw sequence prefix matches, trivially

    def test_times_global_across_plans_with_state_dir(self, tmp_path):
        spec = f"state={tmp_path / 'counters'};store.read:eio@times=2"
        first = FaultPlan.from_spec(spec)
        second = FaultPlan.from_spec(spec)      # a different "process"
        fires = sum(plan.check("store.read") is not None
                    for plan in (first, second, first, second))
        assert fires == 2

    def test_env_plan_is_picked_up_and_cleared(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "store.read:eio@n=1")
        clear_plan()
        assert fault_point("store.read") is not None
        assert fault_point("store.read") is None
        monkeypatch.delenv("REPRO_FAULTS")
        clear_plan()
        assert fault_point("store.read") is None


# -- self-healing store ------------------------------------------------------

def flip_payload_byte(store, digest):
    path = store.disk.path_for(digest)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))


class TestSelfHealingStore:
    def test_verify_on_read_quarantines_corruption(self, tmp_path):
        store = ArtifactStore(root=tmp_path, enabled=True)
        digest = store.save({"k": "victim"}, {"x": 1}, label="victim")
        flip_payload_byte(store, digest)
        fresh = ArtifactStore(root=tmp_path, enabled=True)  # no memory tier
        assert fresh.load({"k": "victim"}) is None
        assert not store.disk.path_for(digest).exists()
        assert (store.disk.quarantine_dir / f"{digest}.blob").exists()
        assert fresh.stats()["disk"]["quarantined"] == 1

    def test_torn_write_is_caught_on_read(self, tmp_path):
        store = ArtifactStore(root=tmp_path, enabled=True)
        inject("store.write:torn@n=1")
        digest = store.save({"k": "torn"}, {"x": list(range(100))})
        assert digest is not None            # the write itself "succeeded"
        fresh = ArtifactStore(root=tmp_path, enabled=True)
        assert fresh.load({"k": "torn"}) is None
        assert (store.disk.quarantine_dir / f"{digest}.blob").exists()

    def test_bit_flip_is_caught_on_read(self, tmp_path):
        store = ArtifactStore(root=tmp_path, enabled=True)
        inject("store.write:flip@n=1")
        digest = store.save({"k": "flip"}, {"x": list(range(100))})
        fresh = ArtifactStore(root=tmp_path, enabled=True)
        assert fresh.load({"k": "flip"}) is None
        assert fresh.disk.verify_digest(digest, repair=False) in (
            "corrupt", "missing")

    def test_enospc_degrades_to_dropped_save(self, tmp_path):
        store = ArtifactStore(root=tmp_path, enabled=True)
        inject("store.write:enospc@n=1")
        with pytest.warns(RuntimeWarning, match="write failed"):
            assert store.save({"k": "a"}, {"x": 1}) is None
        assert store.write_errors == 1
        # the run continues; the next save (fault exhausted) persists
        assert store.save({"k": "b"}, {"x": 2}) is not None
        fresh = ArtifactStore(root=tmp_path, enabled=True)
        assert fresh.load({"k": "a"}) is None
        assert fresh.load({"k": "b"}) == {"x": 2}

    def test_read_eio_is_a_miss_not_a_crash(self, tmp_path):
        store = ArtifactStore(root=tmp_path, enabled=True)
        store.save({"k": "r"}, {"x": 3})
        fresh = ArtifactStore(root=tmp_path, enabled=True)
        inject("store.read:eio@n=1")
        assert fresh.load({"k": "r"}) is None
        assert fresh.load({"k": "r"}) == {"x": 3}   # next read is clean

    def test_unwritable_root_falls_back_to_disabled(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory should be")
        root = blocker / "cache"                # mkdir → NotADirectoryError
        with pytest.warns(RuntimeWarning, match="not writable"):
            store = ArtifactStore(root=root, enabled=True)
        assert not store.enabled
        assert store.save({"k": 1}, {"x": 1}) is None
        assert store.load({"k": 1}) is None
        assert store.stats()["disk"]["entries"] == 0
        # warned once per root, not once per open
        import warnings as _warnings
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            ArtifactStore(root=root, enabled=True)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    def test_verify_scrub_and_repair(self, tmp_path):
        store = ArtifactStore(root=tmp_path, enabled=True)
        ok_digest = store.save({"k": "good"}, {"x": 1}, label="good")
        bad_digest = store.save({"k": "bad"}, {"x": 2}, label="bad")
        flip_payload_byte(store, bad_digest)
        statuses = {e["digest"]: e["status"]
                    for e in store.verify(repair=False)}
        assert statuses[ok_digest] == "ok"
        assert statuses[bad_digest] == "corrupt"
        assert store.disk.path_for(bad_digest).exists()   # not repaired yet
        statuses = {e["digest"]: e["status"]
                    for e in store.verify(repair=True)}
        assert statuses[bad_digest] == "corrupt"
        assert not store.disk.path_for(bad_digest).exists()
        assert (store.disk.quarantine_dir / f"{bad_digest}.blob").exists()
        # quarantine freed the address: a republish heals the store
        fresh = ArtifactStore(root=tmp_path, enabled=True)
        assert fresh.save({"k": "bad"}, {"x": 2}, label="bad") is not None
        assert all(e["status"] == "ok" for e in fresh.verify())


# -- advisory locks and concurrent access ------------------------------------

class TestLocksAndConcurrency:
    def test_shared_locks_coexist_exclusive_waits(self, tmp_path):
        path = tmp_path / ".lock"
        a, b, x = FileLock(path), FileLock(path), FileLock(path)
        assert a.acquire(exclusive=False, timeout=0)
        assert b.acquire(exclusive=False, timeout=0)
        assert not x.acquire(exclusive=True, timeout=0)
        a.release()
        b.release()
        assert x.acquire(exclusive=True, timeout=0)
        x.release()

    def test_gc_spares_unreadable_blobs_while_readers_live(self, tmp_path):
        store = ArtifactStore(root=tmp_path, enabled=True)
        digest = store.save({"k": "mapped"}, {"x": 1})
        path = store.disk.path_for(digest)
        path.write_bytes(b"garbage, not a blob")    # unreadable header
        reader = FileLock(store.disk.lock_path)
        assert reader.acquire(exclusive=False, timeout=0)
        try:
            removed, _ = store.disk.gc(lock_timeout=0.1)
            assert path.exists()     # cannot prove it is not mapped
        finally:
            reader.release()
        removed, _ = store.disk.gc(lock_timeout=0.1)
        assert removed == 1
        assert not path.exists()

    def test_concurrent_same_digest_publish(self, tmp_path):
        script = textwrap.dedent("""
            import sys
            from repro.store import ArtifactStore
            store = ArtifactStore(root=sys.argv[1], enabled=True)
            digest = store.save({"k": "race"}, {"x": list(range(2000))})
            print(digest)
        """)
        env = dict(os.environ, REPRO_CACHE="on")
        procs = [subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path)],
            stdout=subprocess.PIPE, text=True, env=env)
            for _ in range(2)]
        digests = [p.communicate()[0].strip() for p in procs]
        assert all(p.returncode == 0 for p in procs)
        assert digests[0] == digests[1]
        store = ArtifactStore(root=tmp_path, enabled=True)
        assert store.load({"k": "race"}) == {"x": list(range(2000))}
        # the losing writer left no temp litter behind
        assert not list(store.disk.objects_dir.glob("*/*.tmp"))
        assert store.stats()["disk"]["entries"] == 1

    def test_mapped_views_survive_blob_removal(self, tmp_path):
        store = ArtifactStore(root=tmp_path, enabled=True)
        arrays = {"t": np.arange(4096, dtype=np.int64)}
        digest = store.save_arrays({"k": "views"}, arrays)
        views = store.load_mapped({"k": "views"})
        assert store.disk._reader_lock is not None   # lock held while live
        store.disk.delete(digest)                    # gc'd under the mmap
        assert np.array_equal(np.asarray(views["t"]),
                              arrays["t"])           # inode keeps the pages
        views = None
        store.release_locks()
        assert store.disk._reader_lock is None

    def test_maintenance_waits_for_cross_process_reader(self, tmp_path):
        """`cache clear` blocks on another process's live mapped views."""
        # Handshake instead of a fixed child sleep: the child holds its
        # mapped views until the parent says so, so neither a slow parent
        # (child gone before the lock probe) nor a slow child can race
        # the assertions.
        script = textwrap.dedent("""
            import sys
            from repro.store import ArtifactStore
            store = ArtifactStore(root=sys.argv[1], enabled=True)
            views = store.load_mapped({"k": "held"})
            assert views is not None
            print("mapped", flush=True)
            sys.stdin.readline()        # parent releases us explicitly
        """)
        store = ArtifactStore(root=tmp_path, enabled=True)
        store.save_arrays({"k": "held"},
                          {"t": np.arange(64, dtype=np.int64)})
        env = dict(os.environ, REPRO_CACHE="on")
        child = subprocess.Popen([sys.executable, "-c", script,
                                  str(tmp_path)],
                                 stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE, text=True, env=env)
        try:
            assert child.stdout.readline().strip() == "mapped"
            # while the child's shared lock is live the exclusive
            # maintenance lock is unavailable ...
            assert store.disk._maintenance_lock(timeout=0.1) is None
            # ... and becomes available once the child exits
            child.stdin.write("done\n")
            child.stdin.close()
            child.wait(timeout=10)
            lock = store.disk._maintenance_lock(timeout=5.0)
            assert lock is not None
            lock.release()
        finally:
            child.kill()
            child.wait()


# -- scratch cleanup ---------------------------------------------------------

class TestScratchCleanup:
    def test_registry_bookkeeping(self, tmp_path):
        path = str(tmp_path / "scratch")
        os.makedirs(path)
        register_scratch(path)
        assert path in registered_scratch()
        unregister_scratch(path)
        assert path not in registered_scratch()

    def test_spill_registers_owned_directory(self):
        from repro.traceio.spill import ArraySpill
        spill = ArraySpill({"x": np.int64})
        assert spill.directory in registered_scratch()
        spill.close()
        assert spill.directory not in registered_scratch()
        assert not os.path.exists(spill.directory)

    def test_sigterm_sweeps_scratch(self, tmp_path):
        script = textwrap.dedent("""
            import signal, sys
            import numpy as np
            from repro.traceio.spill import ArraySpill
            spill = ArraySpill({"x": np.int64})
            spill.append("x", np.arange(10, dtype=np.int64))
            print(spill.directory, flush=True)
            signal.pause()
        """)
        child = subprocess.Popen([sys.executable, "-c", script],
                                 stdout=subprocess.PIPE, text=True,
                                 env=dict(os.environ))
        try:
            scratch = child.stdout.readline().strip()
            assert os.path.isdir(scratch)
            child.send_signal(signal.SIGTERM)
            child.wait(timeout=10)
        finally:
            child.kill()
            child.wait()
        assert not os.path.exists(scratch)
        # the default disposition was re-raised: died *by* SIGTERM
        assert child.returncode == -signal.SIGTERM

    def test_sigterm_sweeps_store_temp_and_index_scratch(self, tmp_path):
        """A worker killed mid-publish (a pool tearing down its workers
        sends SIGTERM) leaves neither the blob's temp file nor the index
        builder's spill directories under the store root."""
        script = textwrap.dedent("""
            import signal, sys
            import numpy as np
            import repro.store.store as store_module
            from repro.store import ArtifactStore
            from repro.trace.record import Trace
            from repro.vff.index import TraceIndex

            def blocked(handle, arrays):
                handle.write(b"partial payload")
                print("blocked", flush=True)
                signal.pause()

            store_module.write_arrays_stream = blocked
            store = ArtifactStore(root=sys.argv[1], enabled=True)
            lines = np.arange(5_000, dtype=np.int64) % 97
            trace = Trace(kind=np.zeros(5_000, dtype=np.uint8),
                          mem_instr=np.arange(5_000, dtype=np.int64),
                          mem_line=lines,
                          mem_pc=np.zeros(5_000, dtype=np.int32),
                          mem_store=np.zeros(5_000, dtype=bool),
                          branch_instr=np.empty(0, dtype=np.int64),
                          branch_mispred=np.empty(0, dtype=bool))
            TraceIndex.build_spilled(trace, store, {"index": 1},
                                     chunk_accesses=1_000)
        """)
        root = tmp_path / "store"
        child = subprocess.Popen([sys.executable, "-c", script, str(root)],
                                 stdout=subprocess.PIPE, text=True,
                                 env=dict(os.environ))
        try:
            assert child.stdout.readline().strip() == "blocked"
            litter = sorted(p.name for p in root.rglob("*") if p.is_file())
            assert any(name.endswith(".tmp") for name in litter), litter
            assert any(name.endswith("_positions.npy")
                       for name in litter), litter
            assert any(name.endswith("_succ.bin") for name in litter), litter
            child.send_signal(signal.SIGTERM)
            child.wait(timeout=10)
        finally:
            child.kill()
            child.wait()
        # The store's advisory lock file (build_spilled's reopen probe
        # takes the reader lock) is part of its layout, not scratch.
        assert [p for p in root.rglob("*")
                if p.is_file() and p != root / ".lock"] == []
        assert not list(root.glob("live-*"))
        assert child.returncode == -signal.SIGTERM

    def test_forked_child_never_sweeps_parent_scratch(self, tmp_path):
        """A forked worker inherits the SIGTERM handler but not its
        parent's registry: killing it sweeps its own scratch only."""
        script = textwrap.dedent("""
            import os, signal, sys
            from repro.reliability.cleanup import register_scratch
            parent_dir, child_file = sys.argv[1:3]
            os.makedirs(parent_dir)
            register_scratch(parent_dir)
            ready, notify = os.pipe()
            pid = os.fork()
            if pid == 0:
                open(child_file, "w").close()
                register_scratch(child_file)
                os.write(notify, b"x")
                while True:
                    signal.pause()
            os.read(ready, 1)
            os.kill(pid, signal.SIGTERM)
            _, status = os.waitpid(pid, 0)
            print(os.WIFSIGNALED(status)
                  and os.WTERMSIG(status) == signal.SIGTERM,
                  os.path.exists(child_file), os.path.isdir(parent_dir))
        """)
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "parent-scratch"),
             str(tmp_path / "child.tmp")],
            capture_output=True, text=True, env=dict(os.environ),
            check=True, timeout=60)
        # died by SIGTERM, its file swept, the parent's directory intact
        assert out.stdout.split() == ["True", "False", "True"]

    def test_orderly_exit_sweeps_unclosed_scratch(self):
        script = textwrap.dedent("""
            import numpy as np
            from repro.traceio.spill import ArraySpill
            spill = ArraySpill({"x": np.int64})
            print(spill.directory, flush=True)
            # never closed: atexit sweeps it
        """)
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True,
                             env=dict(os.environ), check=True)
        scratch = out.stdout.strip()
        assert scratch and not os.path.exists(scratch)


# -- reader-open fault seam --------------------------------------------------

class TestReaderFault:
    def test_injected_open_failure_is_structured(self, tmp_path):
        trace = make_small_workload(n_instructions=8_000).trace
        path = tmp_path / "t.trace.npz"
        write_trace(trace, path)
        inject("reader.open:eio@n=1")
        with pytest.raises(TraceFormatError, match="injected"):
            TraceReader(path).trace()
        # the failure was transient; the next open succeeds
        assert TraceReader(path).trace().n_instructions == \
            trace.n_instructions


# -- resilient pool: chaos differential --------------------------------------

CHAOS = ExperimentConfig(
    n_instructions=40_000,
    n_regions=2,
    names=("bwaves", "mcf"),
)
STRATS = ("DeLorean",)


@pytest.fixture(scope="module")
def baseline():
    """Fault-free ground truth, computed once per module."""
    runner = SuiteRunner(CHAOS, store=ArtifactStore(enabled=False))
    matrix = runner.run_matrix(strategies=STRATS)
    return {(s, n): result_blob(matrix[s][n])
            for s in matrix for n in matrix[s]}


def chaos_matrix(tmp_path, spec=None, max_workers=2):
    """One faulted pooled run against a fresh store; (matrix, runner)."""
    if spec is not None:
        inject(spec)
    store = ArtifactStore(root=tmp_path / "cache", enabled=True)
    runner = SuiteRunner(CHAOS, store=store)
    matrix = runner.run_matrix(strategies=STRATS, max_workers=max_workers)
    return matrix, runner


def assert_identical(matrix, baseline):
    for strategy in matrix:
        for name in matrix[strategy]:
            assert result_blob(matrix[strategy][name]) == \
                baseline[(strategy, name)], (strategy, name)


def assert_no_partial_entries(store):
    """Zero partial store entries.

    No temp litter, and every blob is either intact or *detectably*
    corrupt (the checksum scrub flags it, so it can never be served) —
    an injected write fault must not leave an entry that verifies clean
    with garbage inside.
    """
    assert not list(store.disk.objects_dir.glob("*/*.tmp"))
    assert all(e["status"] in ("ok", "corrupt")
               for e in store.verify(repair=False))


class TestResilientPool:
    @pytest.mark.parametrize("schedule", [
        "seed=1;store.write:torn@n=1",
        "seed=2;store.write:flip@n=1",
        "STATE;store.write:enospc@times=1",
        "STATE;pool.task:error@times=1",
        "STATE;pool.task:slow@seconds=0.2,times=1",
        "STATE;pool.task:crash@times=1",
    ])
    def test_faulted_run_is_bit_identical(self, tmp_path, monkeypatch,
                                          baseline, schedule):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
        spec = schedule.replace("STATE", f"state={tmp_path / 'faults'}")
        matrix, runner = chaos_matrix(tmp_path, spec)
        assert_identical(matrix, baseline)
        assert_no_partial_entries(runner.store)
        # any corrupt blob the faults left behind degrades to a cache
        # miss on the next run — a fault-free warm start over the same
        # store is still bit-identical, never served garbage
        clear_plan()
        warm = SuiteRunner(CHAOS, store=ArtifactStore(
            root=tmp_path / "cache", enabled=True))
        assert_identical(warm.run_matrix(strategies=STRATS), baseline)

    def test_killed_worker_recovers_and_is_reported(self, tmp_path,
                                                    monkeypatch, baseline):
        """The kill-a-worker demo: SIGKILL mid-round, campaign completes."""
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
        spec = f"state={tmp_path / 'faults'};pool.task:crash@times=1"
        matrix, runner = chaos_matrix(tmp_path, spec)
        assert_identical(matrix, baseline)
        report = runner.last_matrix_report
        assert report is not None
        assert report.rounds >= 2
        assert report.pool_rebuilds >= 1
        assert not report.failed
        kinds = {f.kind for t in report.tasks.values() for f in t.failures}
        assert KIND_CRASH in kinds
        assert report.recovered         # visible in the structured report
        assert "recovered" in report.summary()

    def test_hung_worker_times_out_and_retries(self, tmp_path, monkeypatch,
                                               baseline):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "3")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
        # The injected hang (120s) dwarfs the pass bound (60s): a healthy
        # run finishes in seconds even on loaded CI, and a broken timeout
        # path cannot sneak under the bound by scheduler luck.
        spec = (f"state={tmp_path / 'faults'};"
                "pool.task:hang@seconds=120,times=1")
        start = time.monotonic()
        matrix, runner = chaos_matrix(tmp_path, spec)
        assert time.monotonic() - start < 60    # did not sit out the hang
        assert_identical(matrix, baseline)
        report = runner.last_matrix_report
        assert not report.failed
        kinds = {f.kind for t in report.tasks.values() for f in t.failures}
        assert "timeout" in kinds

    def test_exhausted_retries_fail_cleanly(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_RETRIES", "1")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
        inject("pool.task:error")       # every attempt of every task dies
        store = ArtifactStore(root=tmp_path / "cache", enabled=True)
        runner = SuiteRunner(CHAOS, store=store)
        with pytest.raises(MatrixExecutionError) as excinfo:
            runner.run_matrix(strategies=STRATS, max_workers=2)
        report = excinfo.value.report
        assert sorted(report.failed) == ["bwaves", "mcf"]
        for record in report.tasks.values():
            assert record.attempts == 2          # initial + one retry
            assert all(f.kind == "error" for f in record.failures)
        # the error message is actionable without worker tracebacks
        assert "injected pool.task error" in str(excinfo.value)
        assert_no_partial_entries(store)

    def test_crash_after_publish_resumes_from_store(self, tmp_path,
                                                    monkeypatch, baseline):
        """Checkpoint/resume: a worker that dies *after* publishing costs
        a round, not a recomputation."""
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
        # the task seam is visited at entry (hit 1) and exit (hit 2):
        # n=2 crashes exactly one worker after its results are on disk.
        # One worker runs the tasks in turn, so no second task is caught
        # mid-run (recorded as a crash and re-run) when the pool dies.
        spec = f"state={tmp_path / 'faults'};pool.task:crash@n=2,times=1"
        matrix, runner = chaos_matrix(tmp_path, spec, max_workers=1)
        assert_identical(matrix, baseline)
        report = runner.last_matrix_report
        assert report.rounds >= 2
        assert not report.failed
        crashed = [t for t in report.tasks.values()
                   if any(f.kind == KIND_CRASH for f in t.failures)]
        assert crashed
        # the resume pass adopted the dead worker's published results —
        # no second dispatch of the crashed task was needed
        assert all(t.attempts == 1 for t in crashed)
        assert_no_partial_entries(runner.store)

    def test_fault_free_pool_run_matches_baseline(self, tmp_path, baseline):
        matrix, runner = chaos_matrix(tmp_path, spec=None)
        assert_identical(matrix, baseline)
        report = runner.last_matrix_report
        assert report.rounds == 1
        assert report.pool_rebuilds == 0
        assert report.total_failures == 0
        assert_no_partial_entries(runner.store)


# -- cache verify CLI --------------------------------------------------------

class TestPoolEnvironment:
    """The pool's three variables reject values that would crash or spin
    it, naming the variable — and the pool reads them before any worker
    starts."""

    @pytest.mark.parametrize("name, reader, raw", [
        ("REPRO_TASK_TIMEOUT", pool_timeout, "inf"),
        ("REPRO_TASK_TIMEOUT", pool_timeout, "-inf"),
        ("REPRO_TASK_TIMEOUT", pool_timeout, "nan"),
        ("REPRO_TASK_TIMEOUT", pool_timeout, "abc"),
        ("REPRO_TASK_RETRIES", pool_retries, "abc"),
        ("REPRO_TASK_RETRIES", pool_retries, "-1"),
        ("REPRO_TASK_RETRIES", pool_retries, "1.5"),
        ("REPRO_RETRY_BACKOFF", pool_backoff, "abc"),
        ("REPRO_RETRY_BACKOFF", pool_backoff, "-5"),
        ("REPRO_RETRY_BACKOFF", pool_backoff, "inf"),
        ("REPRO_RETRY_BACKOFF", pool_backoff, "nan"),
    ])
    def test_bad_values_name_the_variable(self, monkeypatch, name, reader,
                                          raw):
        monkeypatch.setenv(name, raw)
        with pytest.raises(ValueError, match=name):
            reader()

    @pytest.mark.parametrize("name, reader, raw, expected", [
        ("REPRO_TASK_TIMEOUT", pool_timeout, None, None),
        ("REPRO_TASK_TIMEOUT", pool_timeout, "", None),
        ("REPRO_TASK_TIMEOUT", pool_timeout, "0", None),
        ("REPRO_TASK_TIMEOUT", pool_timeout, "-2", None),
        ("REPRO_TASK_TIMEOUT", pool_timeout, "2.5", 2.5),
        ("REPRO_TASK_RETRIES", pool_retries, None, 2),
        ("REPRO_TASK_RETRIES", pool_retries, "0", 0),
        ("REPRO_TASK_RETRIES", pool_retries, "3", 3),
        ("REPRO_RETRY_BACKOFF", pool_backoff, None, 0.25),
        ("REPRO_RETRY_BACKOFF", pool_backoff, "0", 0.0),
        ("REPRO_RETRY_BACKOFF", pool_backoff, "1.5", 1.5),
    ])
    def test_valid_values(self, monkeypatch, name, reader, raw, expected):
        if raw is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, raw)
        assert reader() == expected

    def test_bad_timeout_fails_before_any_task(self, tmp_path, monkeypatch):
        import repro.reliability.pool as pool_module

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", no_pool)
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "inf")
        runner = SuiteRunner(CHAOS, store=ArtifactStore(
            root=tmp_path / "cache", enabled=True))
        with pytest.raises(ValueError, match="REPRO_TASK_TIMEOUT"):
            runner.run_matrix(strategies=STRATS, max_workers=1)
        report = runner.last_matrix_report
        assert report.rounds == 0
        assert all(t.attempts == 0 for t in report.tasks.values())


class TestParallelExportChaos:
    """The parallel synth exporter rides the same resilient pool."""

    def _chunks(self, benchmark="calculix", jobs=3):
        from repro.trace.parallel import parallel_phase_chunks
        from repro.trace.spec import DEFAULT_SCALE

        return parallel_phase_chunks(
            benchmark, 60_000, 3, DEFAULT_SCALE,
            chunk_instructions=9_000, jobs=jobs)

    @pytest.mark.parametrize("schedule", [
        "STATE;pool.task:crash@times=1",
        "STATE;pool.task:error@times=1",
    ])
    def test_faulted_export_is_bit_identical(self, tmp_path, monkeypatch,
                                             schedule):
        from repro.store.fingerprint import fingerprint_arrays
        from repro.trace.record import trace_from_chunks
        from repro.traceio.container import trace_arrays

        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
        reference = trace_from_chunks(self._chunks(jobs=1))
        inject(schedule.replace("STATE", f"state={tmp_path / 'faults'}"))
        faulted = trace_from_chunks(self._chunks())
        assert (fingerprint_arrays(trace_arrays(faulted))
                == fingerprint_arrays(trace_arrays(reference)))

    def test_hung_worker_times_out_and_retries(self, tmp_path, monkeypatch):
        from repro.store.fingerprint import fingerprint_arrays
        from repro.trace.record import trace_from_chunks
        from repro.traceio.container import trace_arrays

        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "3")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
        reference = trace_from_chunks(self._chunks(jobs=1))
        # The 120s hang dwarfs the 60s pass bound, as in the matrix
        # runner's hung-worker case.
        inject(f"state={tmp_path / 'faults'};"
               "pool.task:hang@seconds=120,times=1")
        start = time.monotonic()
        faulted = trace_from_chunks(self._chunks())
        assert time.monotonic() - start < 60    # did not sit out the hang
        assert (fingerprint_arrays(trace_arrays(faulted))
                == fingerprint_arrays(trace_arrays(reference)))

    def test_exhausted_retries_fail_cleanly(self, tmp_path, monkeypatch):
        from repro.trace.parallel import PhaseGenerationError

        monkeypatch.setenv("REPRO_TASK_RETRIES", "1")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
        inject("pool.task:error")      # every attempt of every task dies
        with pytest.raises(PhaseGenerationError) as excinfo:
            list(self._chunks())
        assert "failed 2 times" in str(excinfo.value)
        assert "InjectedFault" in str(excinfo.value)


class TestCacheVerifyCLI:
    def test_verify_repair_cycle(self, tmp_path, capsys):
        from repro.__main__ import main
        store = ArtifactStore(root=tmp_path, enabled=True)
        store.save({"k": "good"}, {"x": 1}, label="good")
        bad = store.save({"k": "bad"}, {"x": 2}, label="bad")
        assert main(["cache", "verify", "--dir", str(tmp_path)]) == 0
        assert "2 ok" in capsys.readouterr().out

        flip_payload_byte(store, bad)
        # corruption without --repair: nonzero exit, blob left in place
        assert main(["cache", "verify", "--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "corrupt" in out and "--repair" in out
        assert store.disk.path_for(bad).exists()

        assert main(["cache", "verify", "--repair", "--json",
                     "--dir", str(tmp_path)]) == 0
        payload = capsys.readouterr().out
        assert '"corrupt"' in payload
        assert not store.disk.path_for(bad).exists()
        assert (store.disk.quarantine_dir / f"{bad}.blob").exists()

        assert main(["cache", "verify", "--dir", str(tmp_path)]) == 0
        assert "1 ok" in capsys.readouterr().out
