"""The resilient process pool: rounds of dispatch with bounded retries.

Every pooled fan-out runs through :func:`run_rounds` — the matrix
runner's per-benchmark tasks (``SuiteRunner.run_matrix``) and the
parallel synthetic exporter's per-phase tasks (``synth export --jobs``).
Each round submits every pending task to a fresh
``ProcessPoolExecutor`` and harvests it under a per-task deadline
(``REPRO_TASK_TIMEOUT``).  A crashed, hung or raising task is retried
in the next round after a deterministic backoff
(``REPRO_RETRY_BACKOFF``), until its real failures exceed the budget
(``REPRO_TASK_RETRIES``).  Collateral of a torn-down pool retries for
free.  Every attempt is recorded in a
:class:`~repro.reliability.report.MatrixReport`.
"""

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro import telemetry
from repro.reliability.report import (
    KIND_ABORTED,
    KIND_CRASH,
    KIND_ERROR,
    KIND_TIMEOUT,
)
from repro.reliability.retry import (
    pool_backoff,
    pool_retries,
    pool_timeout,
    sleep_before_retry,
)


def run_rounds(pending, report, submit, max_workers, seed, resume=None,
               site=None):
    """Run ``pending`` tasks on the pool; ``{task: worker result}``.

    ``pending`` maps each task to its payload and ``submit(pool, task,
    payload)`` returns the task's future.  The three environment
    variables are read (and validated) once, before any worker starts.
    From the second round on, ``resume(pending)`` (optional) adopts
    work a dying worker already finished — its tasks are marked
    completed — and returns the still-pending remainder.  A task whose
    non-``aborted`` failures exceed the retry budget is marked failed
    and dropped; the caller reads ``report.failed``.  ``max_workers``
    of ``0``/None means one worker per CPU; ``seed`` seeds the backoff
    jitter and ``site`` labels the ``pool.round`` telemetry events.
    """
    timeout = pool_timeout()
    retries = pool_retries()
    backoff = pool_backoff()
    max_workers = max_workers or os.cpu_count() or 1
    pending = dict(pending)
    telemetry.counter("pool.task.queued", len(pending))
    results = {}
    while pending:
        report.rounds += 1
        if report.rounds > 1:
            if resume is not None:
                remaining = resume(pending)
                for task in pending.keys() - remaining.keys():
                    report.task(task).status = "completed"
                pending = dict(remaining)
                if not pending:
                    break
            report.backoff_seconds += sleep_before_retry(
                report.rounds - 1, base=backoff, seed=seed,
                label=",".join(str(task) for task in sorted(pending)))
        workers = min(max_workers, len(pending))
        telemetry.event("pool.round", round=report.rounds,
                        pending=len(pending), workers=workers, site=site)
        pool = ProcessPoolExecutor(max_workers=workers)
        futures = {}
        for task in sorted(pending):
            report.task(task).attempts += 1
            telemetry.counter("pool.task.submitted")
            if report.rounds > 1:
                telemetry.counter("pool.task.resubmitted")
            futures[submit(pool, task, pending[task])] = task
        completed, torn_down = _harvest(pool, futures, report, timeout)
        if torn_down:
            report.pool_rebuilds += 1
        for task, result in completed.items():
            report.task(task).status = "completed"
            telemetry.counter("pool.task.done")
            results[task] = result
            del pending[task]
        for task in sorted(pending):
            record = report.task(task)
            real = [f for f in record.failures if f.kind != KIND_ABORTED]
            if len(real) > retries:
                record.status = "failed"
                del pending[task]
    return results


def _harvest(pool, futures, report, timeout):
    """Collect one round; ``({task: result}, torn_down)``.

    A worker death surfaces as ``BrokenProcessPool`` on *every*
    outstanding future — tasks observed running just before are
    recorded as ``crash`` (their work is lost either way), the rest as
    ``aborted`` collateral that retries for free.  Past the deadline,
    running tasks get ``timeout`` and the pool's workers are killed (a
    running call cannot be interrupted); queued tasks cancel cleanly
    and ride the next round as ``aborted``.
    """
    completed = {}
    torn_down = False
    not_done = set(futures)
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        while not_done:
            wait_for = (None if deadline is None
                        else max(0.0, deadline - time.monotonic()))
            running = {f for f in not_done if f.running()}
            done, not_done = wait(not_done, timeout=wait_for,
                                  return_when=FIRST_COMPLETED)
            for future in done:
                task = futures[future]
                record = report.task(task)
                try:
                    completed[task] = future.result()
                except BrokenProcessPool:
                    torn_down = True
                    if future in running:
                        record.record_failure(
                            KIND_CRASH, "worker process died abruptly")
                    else:
                        record.record_failure(
                            KIND_ABORTED,
                            "pool torn down before the task ran")
                except Exception as exc:
                    record.record_failure(
                        KIND_ERROR, f"{type(exc).__name__}: {exc}")
            if (not_done and deadline is not None
                    and time.monotonic() >= deadline):
                torn_down = True
                for future in not_done:
                    record = report.task(futures[future])
                    if future.cancel():
                        record.record_failure(
                            KIND_ABORTED,
                            "pool torn down around a timed-out task")
                    else:
                        record.record_failure(
                            KIND_TIMEOUT,
                            f"exceeded the {timeout:g}s per-task timeout")
                _kill_workers(pool)
                not_done = set()
    finally:
        # A clean round joins the pool (no atexit noise at interpreter
        # shutdown); a torn-down one cannot — its workers are dead.
        pool.shutdown(wait=not torn_down, cancel_futures=True)
    return completed, torn_down


def _kill_workers(pool):
    """Forcibly end a pool whose task exceeded its deadline.

    ``ProcessPoolExecutor`` cannot interrupt a running call; killing the
    worker processes is the only way to reclaim a hung task.  The pool
    is broken afterwards; the next round builds a fresh one.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except (OSError, AttributeError):
            pass
