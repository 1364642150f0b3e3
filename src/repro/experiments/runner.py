"""Suite runner: build workloads once, memoize and persist strategy runs.

Several figures share the same underlying runs (Figures 5-8 all come from
one SMARTS/CoolSim/DeLorean sweep at the 8 MiB-equivalent LLC), so the
runner memoizes ``(benchmark, strategy, llc, options)`` results for the
lifetime of the process and keeps at most one workload's trace and index
in memory at a time.

Memoization is backed by the persistent artifact store
(:mod:`repro.store`): results and design-space reports are addressed by
stable fingerprints of (workload spec, experiment config, strategy +
options), so a second ``python -m repro`` invocation — or a DSE sweep
weeks later — warm-starts from disk instead of re-simulating.
``REPRO_CACHE=off`` restores purely in-process memoization.  The trace
index is not persisted here: each benchmark's
:class:`~repro.core.context.ExecutionContext` builds and owns it
(sorting in RAM is faster than loading stored tables), spilling it
through the store only in streaming mode (below).

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

The pool is **resilient** (:func:`repro.reliability.pool.run_rounds`,
shared with ``synth export --jobs``): every dispatched task gets a
per-task timeout (``REPRO_TASK_TIMEOUT``) and a retry budget
(``REPRO_TASK_RETRIES``, default 2) with exponential backoff and
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

from repro import telemetry
from repro.caches.hierarchy import paper_hierarchy
from repro.core.context import ExecutionContext, index_spill_mode
from repro.core.delorean import DeLorean
from repro.core.dse import DesignSpaceExploration
from repro.reliability.faults import active_plan, visit_task_seam
from repro.reliability.pool import run_rounds
from repro.reliability.report import MatrixExecutionError, MatrixReport
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

STRATEGIES = {
    "SMARTS": Smarts,
    "CoolSim": CoolSim,
    "DeLorean": DeLorean,
}


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
    visit_task_seam(name, "entry")
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
    visit_task_seam(name, "exit")
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

    def _context(self, name):
        """The shared execution context for one benchmark's runs.

        The context builds the trace index lazily, under the spill
        policy, and owns it until :meth:`_release_active`.
        """
        workload = self._workload(name)
        if (self._active_context is None
                or self._active_context.workload is not workload):
            self._active_context = ExecutionContext(
                workload, store=self.store, seed=self.config.seed)
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
        """Fan the missing tasks over the resilient pool.

        :func:`~repro.reliability.pool.run_rounds` owns the rounds,
        timeouts, retries and crash attribution; a retry round first
        adopts any result digests a dying worker already published
        (:meth:`_resume_from_store`).  Raises
        :class:`MatrixExecutionError` when tasks remain failed after
        ``REPRO_TASK_RETRIES``.
        """
        from repro import kernels

        backend = kernels.get_backend()
        store_root = self.store.root if self.store.enabled else None
        plan = active_plan()
        fault_spec = plan.spec if plan is not None else None

        def submit(pool, name, todo):
            return pool.submit(
                _run_benchmark_worker, self.config, name, todo, llc,
                strategy_options, backend, store_root, fault_spec)

        def resume(pending):
            return self._resume_from_store(pending, llc, strategy_options,
                                           opts_key)

        report = MatrixReport()
        self.last_matrix_report = report
        for name, todo in missing.items():
            report.task(name, todo)

        span_handle = None
        s = telemetry.session()
        if s is not None:
            span_handle = s.begin("phase.pool")
        try:
            done = run_rounds(missing, report, submit, max_workers,
                              self.config.seed, resume=resume,
                              site="run_matrix")
            for name, (_, payloads) in done.items():
                self._adopt_worker_payloads(name, payloads, llc, opts_key)
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

    def _resume_from_store(self, pending, llc, strategy_options, opts_key):
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
        return remaining

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

        The context closes its index first (unmapping its table views),
        then releases the workload, whose streaming
        :class:`TraceReader` drops its zip-member memmaps.  Pool-worker
        paths run through here too (``_run_benchmark_worker`` calls
        :meth:`release`), so a ``run_matrix`` over imported workloads
        leaks no mappings.
        """
        if self._active_context is not None:
            self._active_context.release()
        elif self._active_workload is not None:
            self._active_workload.release()
        self._active_workload = None
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
