"""Simulation kernels and backend selection.

The hot paths — bulk LRU warming, the fused L1+LLC hierarchy warm,
a detailed region's classification past the L1 (LLC, MSHRs and
capacity predictor), stack-distance profiling, emptying a cache's
sets, walking a run of misses through the MSHRs, synthetic trace
generation's kind, branch and mixture draws, and the in-RAM trace
index build — exist in two equivalent implementations:

* ``scalar`` — the original per-access Python loops, the numpy trace
  generator and the bounded index builder
  (:class:`~repro.vff.index.LiveIndexBuilder`, one append and one
  seal), kept as the reference semantics and as the path of hosts
  without a C compiler;
* ``native`` (the default) — the same work compiled from
  ``_native.c`` (:mod:`repro.kernels.native` builds it on first use
  into ``<cache>/kernels/``), bit-identical to ``scalar`` in every
  regime.  Its generation loops draw each double from the caller's own
  numpy bit generator, so every trace, fingerprint and store key is
  the numpy generator's; its index build counts the distinct lines in
  a hash table and places every access in one pass, with no sort of
  the accesses.

Under any backend but ``scalar`` the numpy batch paths of
classification, SMARTS's regions, CoolSim's gap profiling, vicinity
sampling, warm-up and the trace index's window queries (Scout,
watchpoint profiling) also engage; they are equivalent to their scalar
loops too.

The active backend is chosen per process: the ``REPRO_KERNEL_BACKEND``
environment variable seeds the default, :func:`set_backend` switches it,
and :func:`use_backend` scopes a switch.  Call sites dispatch through
:func:`get_backend`, so the scalar reference stays one flag away for
equivalence testing.

Selecting ``native`` never hard-fails: when the extension cannot be
built or loaded the selection resolves to ``scalar`` at dispatch time —
one :class:`RuntimeWarning` naming the cause plus a
``kernel.native.unavailable`` telemetry counter on the first resolution,
never an import error.
"""

import contextlib
import os
import warnings

from repro.kernels import native

BACKENDS = ("scalar", "native")
DEFAULT_BACKEND = "native"

_backend = os.environ.get("REPRO_KERNEL_BACKEND", DEFAULT_BACKEND)
if _backend not in BACKENDS:
    raise ValueError(
        f"REPRO_KERNEL_BACKEND must be one of {BACKENDS}, got {_backend!r}")

#: True once the native->scalar fallback has been reported.
_native_fallback_reported = False


def native_available():
    """True when the compiled extension is loaded on this host, building
    it on the first call (resolved once per process)."""
    return native.load() is not None


def _resolve(name):
    """Degrade ``native`` to ``scalar`` when the extension is absent."""
    global _native_fallback_reported
    if name != "native" or native_available():
        return name
    if not _native_fallback_reported:
        _native_fallback_reported = True
        warnings.warn(
            "kernel backend 'native' is unavailable "
            f"({native.unavailable_cause()}); falling back to 'scalar'",
            RuntimeWarning, stacklevel=3)
        from repro import telemetry
        telemetry.counter("kernel.native.unavailable")
    return "scalar"


def get_backend():
    """The active kernel backend (``"scalar"`` or ``"native"``), after
    fallback resolution."""
    return _resolve(_backend)


def requested_backend():
    """The selected backend before fallback resolution."""
    return _backend


def set_backend(name):
    """Select the kernel backend process-wide; returns the previous one."""
    global _backend
    if name not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {name!r}")
    previous = _backend
    _backend = name
    return previous


@contextlib.contextmanager
def use_backend(name):
    """Context manager scoping a backend switch."""
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)
