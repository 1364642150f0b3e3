"""Scratch cleanup that survives interrupts and SIGTERM.

The chunked pipelines (streamed import, synthetic generation, index
building) stage gigabytes in scratch directories, and store publishes
write each blob to a temp file first.  Their ``finally`` blocks already
clean up on exceptions — including ``KeyboardInterrupt`` — but a
SIGTERM (a batch scheduler's kill, a supervisor timeout, a process pool
tearing down its workers) tears the process down without unwinding the
stack, leaving orphaned spill and temp files behind.

This registry closes that hole: every owned scratch directory or temp
file is registered at creation and unregistered when its owner removes
or renames it; an ``atexit`` hook plus a chaining SIGTERM handler sweep
whatever is still registered when the process dies.  The handler
re-raises the default SIGTERM disposition after sweeping, so exit codes
and parent-observed signals are unchanged.

A forked child starts with an empty registry: it inherits the handler
but none of its parent's paths, so a pool tearing down its forked
workers never sweeps scratch the parent still reads.
"""

import atexit
import os
import shutil
import signal
import threading

_REGISTRY = set()
# Reentrant: the SIGTERM handler sweeps on the main thread, which may be
# holding the lock in register/unregister when the signal arrives.
_LOCK = threading.RLock()
_INSTALLED = False
_PREVIOUS_HANDLER = None


def _sweep():
    """Remove every still-registered scratch path (idempotent)."""
    with _LOCK:
        paths = sorted(_REGISTRY)
        _REGISTRY.clear()
    for path in paths:
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
            continue
        try:
            os.remove(path)
        except OSError:
            pass


def _on_sigterm(signum, frame):
    _sweep()
    previous = _PREVIOUS_HANDLER
    if callable(previous):
        previous(signum, frame)
        return
    # Restore the default disposition and re-deliver, so the process
    # still dies *by SIGTERM* (wait status, not a plain exit code).
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


def _install():
    global _INSTALLED, _PREVIOUS_HANDLER
    if _INSTALLED:
        return
    _INSTALLED = True
    atexit.register(_sweep)
    try:
        _PREVIOUS_HANDLER = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        # Not the main thread (or no signal support): atexit still
        # covers orderly interpreter shutdown.
        _PREVIOUS_HANDLER = None


def _after_fork_in_child():
    global _LOCK
    _LOCK = threading.RLock()      # another parent thread may hold it
    _REGISTRY.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def register_scratch(path):
    """Track ``path`` (a directory or a file) for sweep-on-exit;
    returns ``path`` unchanged."""
    with _LOCK:
        _REGISTRY.add(str(path))
    _install()
    return path


def unregister_scratch(path):
    """Stop tracking ``path`` (its owner removed or renamed it)."""
    with _LOCK:
        _REGISTRY.discard(str(path))


def registered_scratch():
    """Currently tracked scratch paths (sorted; for tests/diagnostics)."""
    with _LOCK:
        return sorted(_REGISTRY)
