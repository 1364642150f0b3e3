"""Fault-tolerant execution: injection, retries, locks, cleanup, reports.

Three cooperating layers keep large campaigns alive (ROADMAP:
"Fault-tolerant execution"):

* **Deterministic fault injection** (:mod:`repro.reliability.faults`) —
  a seedable, replayable :class:`FaultPlan` (``REPRO_FAULTS`` or
  :func:`inject`) that fires at the real seams: blob writes/reads in
  the store, container opens in the trace reader, task entry and exit
  in pool workers.  The chaos differential harness
  (``tests/test_reliability.py``) uses it to pin the invariant that a
  faulted run either completes bit-identical to the fault-free run or
  fails with a structured, actionable error.
* **Self-healing store** — per-blob checksums verified on read,
  quarantine + transparent recomputation of corrupt artifacts, advisory
  locks (:mod:`repro.reliability.locks`) so maintenance cannot delete
  blobs under live memmaps, and ``python -m repro cache verify`` as the
  scrubber.
* **Resilient pool** — one round-and-harvest loop
  (:func:`repro.reliability.pool.run_rounds`) shared by ``run_matrix``
  and ``synth export --jobs``: per-task timeouts, retry with
  exponential backoff + deterministic jitter
  (:mod:`repro.reliability.retry`, whose environment readers reject
  malformed values), ``BrokenProcessPool`` recovery, checkpoint/resume
  from published store digests, and :class:`MatrixReport` /
  :class:`MatrixExecutionError` instead of raw tracebacks
  (:mod:`repro.reliability.report`).
"""

from repro.reliability.cleanup import (
    register_scratch,
    registered_scratch,
    unregister_scratch,
)
from repro.reliability.faults import (
    SITES,
    FaultPlan,
    FaultRule,
    FaultSpecError,
    InjectedFault,
    active_plan,
    clear_plan,
    fault_point,
    inject,
    raise_io_fault,
)
from repro.reliability.locks import FileLock
from repro.reliability.report import (
    MatrixExecutionError,
    MatrixReport,
    TaskFailure,
    TaskRecord,
)
from repro.reliability.retry import (
    backoff_delay,
    pool_backoff,
    pool_retries,
    pool_timeout,
    sleep_before_retry,
)

__all__ = [
    "SITES",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "FileLock",
    "InjectedFault",
    "MatrixExecutionError",
    "MatrixReport",
    "TaskFailure",
    "TaskRecord",
    "active_plan",
    "backoff_delay",
    "clear_plan",
    "fault_point",
    "inject",
    "pool_backoff",
    "pool_retries",
    "pool_timeout",
    "raise_io_fault",
    "register_scratch",
    "registered_scratch",
    "sleep_before_retry",
    "unregister_scratch",
]
