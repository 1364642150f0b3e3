"""Suite runner: build workloads once, memoize and persist strategy runs.

Several figures share the same underlying runs (Figures 5-8 all come from
one SMARTS/CoolSim/DeLorean sweep at the 8 MiB-equivalent LLC), so the
runner memoizes ``(benchmark, strategy, llc, options)`` results for the
lifetime of the process and keeps at most one workload's trace and index
in memory at a time.

Memoization is backed by the persistent artifact store
(:mod:`repro.store`): results, design-space reports and trace-index
position tables are addressed by stable fingerprints of (workload spec,
experiment config, strategy + options), so a second ``python -m repro``
invocation — or a DSE sweep weeks later — warm-starts from disk instead
of re-simulating.  ``REPRO_CACHE=off`` restores purely in-process
memoization.

Benchmark names resolve through :mod:`repro.traceio` first — imported
traces (and process-registered workloads) run through the identical
machinery with a per-workload sampling plan and content-fingerprinted
store keys — then fall back to the synthetic SPEC specs.

The benchmark matrix is embarrassingly parallel across workloads — every
(benchmark, strategy) run is independent, traces are rebuilt
deterministically from specs, and results are plain picklable
dataclasses.  ``run_all`` / ``run_matrix`` therefore accept
``max_workers``: a process pool fans out one task per *benchmark* (so
each worker process builds a trace and its index exactly once and runs
every requested strategy against it).  Workers share the parent's cache
directory — the disk tier's atomic writes make that safe — and hand back
store digests rather than pickled results when the store is enabled.

The pool is **resilient** (:mod:`repro.reliability`): every dispatched
task gets a per-task timeout (``REPRO_TASK_TIMEOUT``) and a retry
budget (``REPRO_TASK_RETRIES``, default 2) with exponential backoff and
deterministic jitter (``REPRO_RETRY_BACKOFF``); a killed or crashed
worker breaks one round, not the campaign — the pool is rebuilt and the
unfinished tasks re-dispatched, resuming from any result digests a
dying worker already published.  Every attempt is recorded in a
:class:`~repro.reliability.report.MatrixReport`
(``runner.last_matrix_report``); tasks that remain failed after the
budget raise one structured
:class:`~repro.reliability.report.MatrixExecutionError` naming each
failed benchmark and its last failure, instead of whichever raw
traceback the pool happened to surface first.

Imported workloads run **end-to-end in streaming mode**: every strategy
executes on one shared :class:`~repro.core.context.ExecutionContext`
whose trace is the container's memory-mapped view and whose
:class:`~repro.vff.index.TraceIndex` is built in bounded windows and
*spilled* through the store (``REPRO_INDEX_SPILL``, default ``auto``),
then served back as memory-mapped tables.  Pool workers open readers
and mapped indices by content digest from the shared store root —
arrays never cross the process boundary, and a run's resident set
scales with the sampled regions rather than the trace length.
"""

import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro import telemetry
from repro.caches.hierarchy import paper_hierarchy
from repro.core.context import ExecutionContext, index_spill_mode, wants_spill
from repro.core.delorean import DeLorean
from repro.core.dse import DesignSpaceExploration
from repro.reliability.faults import active_plan, visit_task_seam
from repro.reliability.report import (
    KIND_ABORTED,
    KIND_CRASH,
    KIND_ERROR,
    KIND_TIMEOUT,
    MatrixExecutionError,
    MatrixReport,
)
from repro.reliability.retry import (
    kill_pool_workers,
    pool_backoff,
    pool_retries,
    pool_timeout,
    sleep_before_retry,
)
from repro.sampling.coolsim import CoolSim
from repro.sampling.plan import SamplingPlan
from repro.sampling.smarts import Smarts
from repro.store import ArtifactStore, get_store, memo_key
from repro.trace.spec import benchmark_spec, SPEC2006_NAMES
from repro.traceio import (
    is_process_local,
    resolve_workload,
    workload_fingerprint,
)
from repro.vff.index import TraceIndex

STRATEGIES = {
    "SMARTS": Smarts,
    "CoolSim": CoolSim,
    "DeLorean": DeLorean,
}


#: The shared ``pool.task`` seam visit (worker entry / exit) — see
#: :func:`repro.reliability.faults.visit_task_seam`.
_visit_task_seam = visit_task_seam


#: Worker teardown on deadline breach — see
#: :func:`repro.reliability.retry.kill_pool_workers`.
_kill_pool_workers = kill_pool_workers


def _run_benchmark_worker(config, name, strategies, llc, options, backend,
                          store_root, fault_spec=None):
    """Run the requested strategies for one benchmark (worker process).

    Module-level so it pickles; builds the workload/index once and
    reuses it across strategies, mirroring the sequential
    benchmark-major order.  The parent's kernel backend is applied
    explicitly — under spawn/forkserver start methods a fresh
    interpreter would otherwise fall back to the environment default.

    With a shared store (``store_root``), each result is published to
    disk and only its digest crosses the process boundary; without one
    — or when the publish failed (full disk) — the pickled results
    travel over the pipe as before.

    ``fault_spec`` re-arms the parent's fault plan in this worker on
    every task attempt (campaign-global ``times=`` limits live in the
    plan's shared state dir); the ``pool.task`` seam is visited at entry
    and again before returning.
    """
    from repro import kernels
    from repro.reliability.faults import inject

    if fault_spec is not None:
        inject(fault_spec)
    _visit_task_seam(name, "entry")
    kernels.set_backend(backend)
    telemetry.counter("pool.task.started")
    with telemetry.span("pool.task", rss=True, benchmark=name,
                        strategies=list(strategies)):
        store = (ArtifactStore(root=store_root, enabled=True)
                 if store_root else ArtifactStore(enabled=False))
        runner = SuiteRunner(config, store=store)
        results = {}
        for strategy in strategies:
            result = runner.run(name, strategy, llc, **options)
            digest = None
            if store.enabled:
                digest = store.digest(
                    runner._result_store_key(name, strategy, llc, options))
            if digest is not None and store.disk.contains(digest):
                results[strategy] = ("digest", digest)
            else:
                # Store off, or the publish was dropped (ENOSPC/EIO
                # degradation): ship the result itself.
                results[strategy] = ("result", result)
        runner.release()
    telemetry.counter("pool.task.completed")
    _visit_task_seam(name, "exit")
    # The parent merges per-PID event files whenever it reads the run;
    # flushing here (not only at interpreter exit) keeps this worker's
    # totals visible even if the pool later SIGKILLs it.
    telemetry.flush()
    return name, results


class SuiteRunner:
    """Runs strategies over the benchmark suite with memoization."""

    def __init__(self, config, store=None):
        self.config = config
        self.store = store if store is not None else get_store()
        self._results = {}
        self._active_workload = None
        self._active_index = None
        self._active_context = None
        #: The :class:`MatrixReport` of the most recent pooled
        #: ``run_matrix`` dispatch (None before the first one).
        self.last_matrix_report = None

    @property
    def names(self):
        return self.config.names or SPEC2006_NAMES

    # -- store addressing ----------------------------------------------------

    def _config_key(self):
        """The config fields that determine simulation outcomes.

        ``names`` (which benchmarks to evaluate) and the default LLC
        sizes are deliberately excluded: a bwaves/SMARTS run at a given
        LLC is the same artifact whichever suite subset requested it.
        """
        return (self.config.n_instructions, self.config.n_regions,
                self.config.footprint_scale, self.config.seed)

    def _imported_fingerprint(self, name):
        """Content fingerprint when ``name`` is an imported/registered
        workload, else None.  Mixed into the in-process memo keys *and*
        the store keys, so imported runs are addressed by trace
        *content* — never by a name that a synthetic benchmark, a
        different import, or a replaced registration might also carry."""
        return workload_fingerprint(name)

    def _benchmark_identity(self, name):
        """What addresses a benchmark in store keys.

        Synthetic benchmarks keep their historical name-based identity;
        imported/registered workloads are addressed *purely* by content
        fingerprint — the registry name is a label, so renaming or
        re-importing the same trace warm-starts from existing artifacts.
        """
        fp = self._imported_fingerprint(name)
        if fp is not None:
            return {"trace_fingerprint": fp}
        return {"benchmark": name}

    def _run_config_key(self, name):
        """Config identity for result/DSE keys.

        Imported workloads take their trace length from the container
        manifest (see :meth:`_plan_for`), so ``config.n_instructions``
        cannot affect their results and must not fragment their
        content-addressed artifacts; the seed still seeds the
        strategies' own sampling streams.
        """
        if workload_fingerprint(name) is not None:
            return ("imported", self.config.n_regions,
                    self.config.footprint_scale, self.config.seed)
        return self._config_key()

    def _result_store_key(self, name, strategy, llc, strategy_options):
        return {
            "artifact": "strategy-result",
            "config": self._run_config_key(name),
            "strategy": strategy,
            "llc_paper_bytes": llc,
            "options": strategy_options,
            **self._benchmark_identity(name),
        }

    def _dse_store_key(self, name, sizes, options):
        return {
            "artifact": "dse-report",
            "config": self._run_config_key(name),
            "llc_paper_bytes": tuple(sizes),
            "options": options,
            **self._benchmark_identity(name),
        }

    def _index_store_key(self, name, artifact="trace-index"):
        identity = self._benchmark_identity(name)
        if "trace_fingerprint" not in identity:
            # Streamed synthetics are not in the registry/library but do
            # carry a content fingerprint (from their blob manifest) —
            # use it, so their index artifact is content-addressed like
            # an imported trace's.
            workload = self._active_workload
            if workload is not None and workload.name == name:
                fp = getattr(workload, "trace_fingerprint", None)
                if fp is not None:
                    identity = {"trace_fingerprint": fp}
        if "trace_fingerprint" in identity:
            # The position index is a pure function of the trace.  The
            # spilled variant intentionally matches
            # ``ExecutionContext._default_index_key`` so standalone
            # strategy runs and suite runs share one artifact.
            return {"artifact": artifact, **identity}
        return {
            "artifact": artifact,
            "n_instructions": self.config.n_instructions,
            "seed": self.config.seed,
            "footprint_scale": self.config.footprint_scale,
            **identity,
        }

    # -- workload management -------------------------------------------------

    def _workload(self, name):
        active = self._active_workload
        if active is not None and active.name == name:
            # The name alone is not identity for imported/registered
            # workloads: a replaced registration or force-reimported
            # container must evict the cached workload, not be served
            # its predecessor's trace.
            current = workload_fingerprint(name)
            if current is None or current == getattr(
                    active, "trace_fingerprint", None):
                return active
        self._release_active()
        self._active_workload = self._build_workload(name)
        return self._active_workload

    def _build_workload(self, name):
        """Resolve ``name``: imported/registered traces first, then the
        synthetic SPEC specs.  Imported names therefore work everywhere
        a benchmark name does (figures, matrices, DSE sweeps).

        Under ``REPRO_INDEX_SPILL=always`` (with an enabled store) the
        synthetic suite streams too: traces generate chunk-by-chunk into
        spilled store blobs and are served memory-mapped, bit-identical
        to the materialized build, so the whole matrix runs bounded.
        """
        imported = resolve_workload(name)
        if imported is not None:
            return imported
        materialize = not (index_spill_mode() == "always"
                           and self.store.enabled)
        with telemetry.span("phase.workload", rss=True, benchmark=name):
            return benchmark_spec(name).workload(
                n_instructions=self.config.n_instructions,
                seed=self.config.seed,
                scale=self.config.footprint_scale,
                materialize=materialize,
                store=self.store,
            )

    def _plan_for(self, workload):
        """The sampling plan for one workload.

        Synthetic workloads share the config's plan; imported traces
        carry their own length (from the container manifest), so their
        regions are spread over the *actual* trace with the config's
        region count and footprint scale.
        """
        n = getattr(workload, "n_instructions", None)
        if n is None or int(n) == self.config.n_instructions:
            return self.config.plan()
        return SamplingPlan(
            n_instructions=int(n),
            n_regions=self.config.n_regions,
            footprint_scale=self.config.footprint_scale,
        )

    def _index(self, name):
        workload = self._workload(name)
        if self._active_index is not None:
            return self._active_index
        if wants_spill(workload):
            # Streaming mode: bounded construction, spilled through the
            # store, served as memory-mapped tables.  Pool workers
            # sharing the store root open the same blob by digest — the
            # first builder publishes, everyone else maps.
            key = (self._index_store_key(name, artifact="trace-index-spill")
                   if self.store.enabled else None)
            with telemetry.span("phase.index", rss=True, benchmark=name,
                                spilled=self.store.enabled):
                self._active_index = TraceIndex.build_spilled(
                    workload.trace, self.store, key)
        else:
            key = self._index_store_key(name)
            tables = self.store.load(key, label="trace-index")
            if tables is not None:
                self._active_index = TraceIndex.from_tables(
                    workload.trace, tables)
            else:
                with telemetry.span("phase.index", rss=True,
                                    benchmark=name, spilled=False):
                    self._active_index = TraceIndex(workload.trace)
                self.store.save(key, self._active_index.tables(),
                                label="trace-index")
        return self._active_index

    def _context(self, name):
        """The shared execution context for one benchmark's runs."""
        workload = self._workload(name)
        if (self._active_context is None
                or self._active_context.workload is not workload):
            self._active_context = ExecutionContext(
                workload, index=self._index(name), store=self.store,
                seed=self.config.seed)
        return self._active_context

    # -- running ---------------------------------------------------------------

    def run(self, name, strategy, llc_paper_bytes=None, **strategy_options):
        """Run one (benchmark, strategy) pair; memoized and persisted.

        ``strategy`` is a key of :data:`STRATEGIES`; ``strategy_options``
        are forwarded to the strategy constructor (e.g.
        ``prefetcher=True`` or ``vicinity_density=1e-4``).  Lookup order
        is process memo, then the artifact store; a computed result is
        published to both.
        """
        llc = llc_paper_bytes or self.config.llc_paper_bytes
        key = (name, self._imported_fingerprint(name), strategy, llc,
               memo_key(strategy_options))
        if key in self._results:
            return self._results[key]
        store_key = self._result_store_key(name, strategy, llc,
                                           strategy_options)
        cached = self.store.load(store_key, label="strategy-result")
        if cached is not None:
            self._results[key] = cached
            return cached

        workload = self._workload(name)
        context = self._context(name)
        plan = self._plan_for(workload)
        hierarchy = paper_hierarchy(llc, scale=self.config.footprint_scale)
        strat = STRATEGIES[strategy](**strategy_options)
        with telemetry.span(f"phase.strategy.{strategy}", rss=True,
                            benchmark=name, llc=llc):
            result = strat.run(workload, plan, hierarchy,
                               seed=self.config.seed, context=context)
        self._results[key] = result
        self.store.save(store_key, result, label="strategy-result")
        return result

    def run_all(self, strategy, llc_paper_bytes=None, max_workers=None,
                **strategy_options):
        """Run one strategy over the whole suite; returns {name: result}.

        Iterates benchmark-major so each trace is built once and released
        before the next (memoized reruns are free).  With ``max_workers``
        the missing benchmarks fan out over a process pool.
        """
        if max_workers is not None:
            matrix = self.run_matrix((strategy,), llc_paper_bytes,
                                     max_workers=max_workers,
                                     **strategy_options)
            return matrix[strategy]
        return {
            name: self.run(name, strategy, llc_paper_bytes,
                           **strategy_options)
            for name in self.names
        }

    def run_matrix(self, strategies=("SMARTS", "CoolSim", "DeLorean"),
                   llc_paper_bytes=None, max_workers=None,
                   **strategy_options):
        """All strategies over the suite, benchmark-major for cache reuse.

        ``max_workers`` switches to a per-benchmark process fan-out
        (``0`` means one worker per CPU).  Memoized and store-resident
        results are reused; only benchmarks with at least one missing
        (strategy, llc, options) combination are dispatched, workers
        publish into the shared store and return digests, and their
        results land in the memo table so later sequential calls stay
        free.
        """
        llc = llc_paper_bytes or self.config.llc_paper_bytes
        opts_key = memo_key(strategy_options)
        if max_workers is not None:
            missing = {}                     # name -> strategies to compute
            for name in self.names:
                fingerprint = self._imported_fingerprint(name)
                todo = []
                for strategy in strategies:
                    key = (name, fingerprint, strategy, llc, opts_key)
                    if key in self._results:
                        continue
                    cached = self.store.load(
                        self._result_store_key(
                            name, strategy, llc, strategy_options),
                        label="strategy-result")
                    if cached is not None:
                        self._results[key] = cached
                        continue
                    todo.append(strategy)
                if todo and not is_process_local(name):
                    # Process-registered workloads cannot be resolved in
                    # a pool worker (the registry is per-process; a
                    # same-named library entry would silently shadow
                    # them) — the sequential sweep below computes them
                    # in-process.
                    missing[name] = tuple(todo)
            if missing:
                self._dispatch_matrix_pool(missing, llc, strategy_options,
                                           max_workers, opts_key)
        matrix = {strategy: {} for strategy in strategies}
        for name in self.names:
            for strategy in strategies:
                matrix[strategy][name] = self.run(
                    name, strategy, llc, **strategy_options)
        return matrix

    # -- resilient pool dispatch ---------------------------------------------

    def _dispatch_matrix_pool(self, missing, llc, strategy_options,
                              max_workers, opts_key):
        """Fan the missing tasks over a process pool with fault recovery.

        Rounds of dispatch: every pending task is submitted, harvested
        with a per-task timeout, and — on a crash, hang, or error —
        retried in the next round against a fresh pool, after a
        checkpoint pass that adopts any result digests a dying worker
        already published.  Collateral casualties of a torn-down pool
        (``aborted``) do not consume retry budget; real failures do.
        Raises :class:`MatrixExecutionError` when tasks remain failed
        after ``REPRO_TASK_RETRIES``.
        """
        from repro import kernels

        backend = kernels.get_backend()
        store_root = self.store.root if self.store.enabled else None
        plan = active_plan()
        fault_spec = plan.spec if plan is not None else None
        max_pool = max_workers or os.cpu_count() or 1
        timeout = pool_timeout()
        retries = pool_retries()
        backoff = pool_backoff()
        report = MatrixReport()
        self.last_matrix_report = report
        pending = {}
        for name, todo in missing.items():
            report.task(name, todo)
            pending[name] = tuple(todo)
        telemetry.counter("pool.task.queued", len(pending))

        span_handle = None
        s = telemetry.session()
        if s is not None:
            span_handle = s.begin("phase.pool")
        try:
            self._dispatch_rounds(pending, report, llc, strategy_options,
                                  opts_key, max_pool, timeout, retries,
                                  backoff, backend, store_root, fault_spec)
        finally:
            if s is not None:
                s.count("pool.rounds", report.rounds)
                if report.pool_rebuilds:
                    s.count("pool.rebuilds", report.pool_rebuilds)
                s.end(span_handle, {"tasks": len(report.tasks),
                                    "rounds": report.rounds}, True, True)
            self._persist_matrix_report(report)
            telemetry.flush()
        if report.failed:
            raise MatrixExecutionError(report)

    def _persist_matrix_report(self, report):
        """Append this dispatch's MatrixReport to the telemetry run.

        ``python -m repro matrix report`` replays it after the fact; a
        failed dispatch is persisted too (the report is most valuable
        exactly then).
        """
        run_dir = telemetry.run_dir()
        if run_dir is None:
            return
        try:
            with open(os.path.join(run_dir, "matrix-reports.jsonl"),
                      "a", encoding="utf-8") as handle:
                handle.write(json.dumps(report.as_dict(),
                                        sort_keys=True) + "\n")
        except OSError:
            pass

    def _dispatch_rounds(self, pending, report, llc, strategy_options,
                         opts_key, max_pool, timeout, retries, backoff,
                         backend, store_root, fault_spec):
        while pending:
            report.rounds += 1
            if report.rounds > 1:
                # Checkpoint/resume: a worker that died *after*
                # publishing costs nothing — its digests are already in
                # the shared store.
                pending = self._resume_from_store(
                    pending, llc, strategy_options, opts_key, report)
                if not pending:
                    break
                report.backoff_seconds += sleep_before_retry(
                    report.rounds - 1, base=backoff,
                    seed=self.config.seed,
                    label=",".join(sorted(pending)))
            workers = min(max_pool, len(pending))
            telemetry.event("pool.round", round=report.rounds,
                            pending=len(pending), workers=workers)
            pool = ProcessPoolExecutor(max_workers=workers)
            futures = {}
            for name, todo in sorted(pending.items()):
                report.task(name).attempts += 1
                telemetry.counter("pool.task.submitted")
                if report.rounds > 1:
                    telemetry.counter("pool.task.resubmitted")
                futures[pool.submit(
                    _run_benchmark_worker, self.config, name, todo, llc,
                    strategy_options, backend, store_root,
                    fault_spec)] = name
            completed, torn_down = self._harvest_round(
                pool, futures, report, llc, timeout, opts_key)
            if torn_down:
                report.pool_rebuilds += 1
            for name in completed:
                report.task(name).status = "completed"
                telemetry.counter("pool.task.done")
                del pending[name]
            for name in sorted(pending):
                record = report.task(name)
                real = [f for f in record.failures
                        if f.kind != KIND_ABORTED]
                if len(real) > retries:
                    record.status = "failed"
            pending = {name: todo for name, todo in pending.items()
                       if report.task(name).status != "failed"}

    def _resume_from_store(self, pending, llc, strategy_options, opts_key,
                           report):
        """Adopt store-resident results; the still-missing remainder."""
        remaining = {}
        for name, todo in pending.items():
            fingerprint = self._imported_fingerprint(name)
            left = []
            for strategy in todo:
                cached = self.store.load(
                    self._result_store_key(
                        name, strategy, llc, strategy_options),
                    label="strategy-result")
                if cached is None:
                    left.append(strategy)
                else:
                    self._results[(name, fingerprint, strategy, llc,
                                   opts_key)] = cached
            if left:
                remaining[name] = tuple(left)
            else:
                report.task(name).status = "completed"
        return remaining

    def _harvest_round(self, pool, futures, report, llc, timeout,
                       opts_key):
        """Collect one dispatch round; ``(completed names, torn_down)``.

        A worker death surfaces as ``BrokenProcessPool`` on *every*
        outstanding future — tasks observed running just before are
        recorded as ``crash`` (their work is lost either way), the rest
        as ``aborted`` collateral that retries for free.  A task
        exceeding the deadline gets ``timeout`` and the pool's workers
        are killed (a running call cannot be interrupted); queued tasks
        cancel cleanly and ride the next round as ``aborted``.
        """
        completed = set()
        torn_down = False
        not_done = set(futures)
        deadline = (None if timeout is None
                    else {f: time.monotonic() + timeout for f in futures})
        try:
            while not_done:
                wait_for = None
                if deadline is not None:
                    wait_for = max(0.0,
                                   min(deadline[f] for f in not_done)
                                   - time.monotonic())
                running = {f for f in not_done if f.running()}
                done, not_done = wait(not_done, timeout=wait_for,
                                      return_when=FIRST_COMPLETED)
                for future in done:
                    name = futures[future]
                    record = report.task(name)
                    try:
                        _, payloads = future.result()
                    except BrokenProcessPool:
                        torn_down = True
                        if future in running:
                            record.record_failure(
                                KIND_CRASH,
                                "worker process died abruptly")
                        else:
                            record.record_failure(
                                KIND_ABORTED,
                                "pool torn down before the task ran")
                    except Exception as exc:
                        record.record_failure(
                            KIND_ERROR, f"{type(exc).__name__}: {exc}")
                    else:
                        self._adopt_worker_payloads(name, payloads, llc,
                                                    opts_key)
                        completed.add(name)
                if deadline is not None and not_done:
                    now = time.monotonic()
                    expired = {f for f in not_done if deadline[f] <= now}
                    if expired:
                        torn_down = True
                        for future in not_done:
                            record = report.task(futures[future])
                            if future in expired and not future.cancel():
                                record.record_failure(
                                    KIND_TIMEOUT,
                                    f"exceeded the {timeout:g}s "
                                    "per-task timeout")
                            else:
                                record.record_failure(
                                    KIND_ABORTED,
                                    "pool torn down around a "
                                    "timed-out task")
                        _kill_pool_workers(pool)
                        not_done = set()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return completed, torn_down

    def _adopt_worker_payloads(self, name, payloads, llc, opts_key):
        fingerprint = self._imported_fingerprint(name)
        for strategy, (tag, value) in payloads.items():
            if tag == "digest":
                result = self.store.load_digest(
                    value, label="strategy-result")
                if result is None:
                    # gc raced us, or the blob failed its checksum and
                    # was quarantined: the sequential sweep recomputes
                    # this strategy in-process.
                    continue
            else:
                result = value
            self._results[(name, fingerprint, strategy, llc,
                           opts_key)] = result

    def run_dse(self, name, llc_paper_bytes_list=None, **options):
        """Design-space sweep for one benchmark (shared warm-up).

        The report is memoized and persisted like single runs; on a
        report miss the underlying warm-up bundle may still hit the
        store (it is LLC-independent), in which case only the Analysts
        execute.
        """
        sizes = llc_paper_bytes_list or self.config.sweep_llc_paper_bytes
        key = (name, self._imported_fingerprint(name), "DSE", tuple(sizes),
               memo_key(options))
        if key in self._results:
            return self._results[key]
        store_key = self._dse_store_key(name, sizes, options)
        cached = self.store.load(store_key, label="dse-report")
        if cached is not None:
            self._results[key] = cached
            return cached
        workload = self._workload(name)
        context = self._context(name)
        plan = self._plan_for(workload)
        configs = [paper_hierarchy(size, scale=self.config.footprint_scale)
                   for size in sizes]
        with telemetry.span("phase.dse", rss=True, benchmark=name,
                            sizes=len(configs)):
            report = DesignSpaceExploration(**options).run(
                workload, plan, configs, seed=self.config.seed,
                context=context)
        self._results[key] = report
        self.store.save(store_key, report, label="dse-report")
        return report

    def _release_active(self):
        """Close every resource of the active benchmark.

        Order matters: the index's memory-mapped table views unmap
        first, then the workload's streaming :class:`TraceReader` drops
        its zip-member memmaps.  Pool-worker paths run through here too
        (``_run_benchmark_worker`` calls :meth:`release`), so a
        ``run_matrix`` over imported workloads leaks no mappings.
        """
        if self._active_index is not None:
            close = getattr(self._active_index, "close", None)
            if close is not None:
                close()
        if self._active_workload is not None:
            self._active_workload.release()
        self._active_workload = None
        self._active_index = None
        self._active_context = None

    def release(self):
        """Drop the active workload/trace/index — closing streaming
        readers and mapped index views (results stay memoized)."""
        self._release_active()
        # No mapped store views remain: release the shared reader lock
        # so another process's ``cache gc`` is not held up by us.
        release_locks = getattr(self.store, "release_locks", None)
        if release_locks is not None:
            release_locks()
