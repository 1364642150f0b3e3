"""Imported workloads: the registry bridge into the suite machinery.

Two layers make an imported trace a first-class benchmark name:

* :class:`TraceLibrary` — an on-disk directory of native containers
  (``$REPRO_TRACE_DIR``, default ``<cache>/traces`` next to the artifact
  store), written once by ``python -m repro trace import`` and shared by
  every later process, including parallel suite-runner workers;
* a **process registry** for programmatic workloads
  (:func:`register_workload`), which lets tests and notebooks inject any
  Workload object under a name without touching disk.

:func:`resolve_workload` is what the
:class:`~repro.experiments.runner.SuiteRunner` consults before falling
back to the synthetic SPEC specs, so ``run``/``run_matrix``/``run_dse``
and every figure harness accept imported names unchanged.
"""

import os
import re
import shutil
import tempfile

from repro.reliability.cleanup import register_scratch, unregister_scratch
from repro.store.store import default_cache_dir
from repro.trace.spec import SPEC2006_NAMES
from repro.trace.workload import Workload
from repro.traceio.container import (
    manifest_path,
    read_manifest,
    trace_fingerprint,
    write_manifest_sidecar,
    write_trace,
)
from repro.traceio.reader import TraceReader

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_CONTAINER_SUFFIX = ".trace.npz"

#: ``workload_fingerprint`` cache for library entries:
#: container path -> (manifest mtime_ns, fingerprint).  Keyed on the
#: sidecar's mtime so a force-replaced container invalidates itself.
_LIBRARY_FP_CACHE = {}


def default_trace_dir():
    """The trace library root the environment implies."""
    explicit = os.environ.get("REPRO_TRACE_DIR")
    if explicit:
        return explicit
    return os.path.join(default_cache_dir(), "traces")


def _check_name(name):
    if not _NAME_RE.match(name or ""):
        raise ValueError(
            f"invalid trace name {name!r} (letters, digits, '._-' only)")
    return name


def _check_not_spec_name(name):
    """Refuse names of the synthetic suite: shadowing them would
    silently alias two different experiments under one identity."""
    if name in SPEC2006_NAMES:
        raise ValueError(
            f"{name!r} shadows a synthetic SPEC2006 benchmark; "
            "import/register the trace under a different name")
    return name


class ImportedWorkload(Workload):
    """A Workload whose trace lives in a native container on disk.

    ``streaming=True`` (the default) opens the container through the
    memory-mapped :class:`~repro.traceio.reader.TraceReader`, so the
    trace's arrays page in on demand and a suite run never holds more
    of it in RAM than the strategies actually touch; ``streaming=False``
    materializes it fully on first use.  Either way ``release()``
    drops everything and the trace reopens lazily, exactly like the
    synthetic workloads.
    """

    def __init__(self, name=None, path=None, streaming=True):
        manifest = read_manifest(path)
        super().__init__(
            _check_name(name or manifest["name"]),
            phase_factory=None,
            seed=0,
            metadata={"imported_from": str(path), "manifest": manifest},
        )
        self.path = str(path)
        self.manifest = manifest
        self.streaming = bool(streaming)
        #: Content address of the trace (from the manifest); store keys
        #: for imported runs are derived from this, never from the name.
        self.trace_fingerprint = manifest["fingerprint"]
        self._reader = None

    @property
    def n_instructions(self):
        """Trace length from the manifest (no trace build needed)."""
        return int(self.manifest["n_instructions"])

    @property
    def trace(self):
        if self._trace is None:
            self._reader = TraceReader(self.path)
            if self.streaming:
                # No whole-trace validation scan on open: the container
                # was validated at import and the reader cross-checks
                # array shapes against the manifest; faulting every page
                # in just to re-check sortedness would defeat streaming.
                self._trace = self._reader.trace(validate=False)
            else:
                # A fully materialized trace needs no live reader: drop
                # the zip-member memmaps immediately instead of holding
                # the container mapped until release().
                self._trace = self._reader.materialize()
                self._reader.close()
                self._reader = None
        return self._trace

    def release(self):
        self._trace = None
        if self._reader is not None:
            self._reader.close()
            self._reader = None

    def __repr__(self):
        mode = "streaming" if self.streaming else "materialized"
        built = "open" if self._trace is not None else "lazy"
        return (f"ImportedWorkload({self.name!r}, "
                f"{self.n_instructions:,} instructions, {mode}, {built})")


class TraceLibrary:
    """A directory of named native trace containers."""

    def __init__(self, root=None):
        self.root = str(root) if root is not None else default_trace_dir()
        self.root = os.path.expanduser(self.root)

    def path(self, name):
        """Container path for ``name`` (whether or not it exists)."""
        return os.path.join(self.root, _check_name(name) + _CONTAINER_SUFFIX)

    def contains(self, name):
        try:
            path = self.path(name)
        except ValueError:
            return False
        return os.path.exists(path) and os.path.exists(manifest_path(path))

    def names(self):
        """Sorted names of every *complete* container in the library.

        A container npz without its manifest sidecar (an interrupted
        import, or a manually deleted file) is invisible here, matching
        :meth:`contains` — listing must never crash on broken entries.
        """
        try:
            entries = os.listdir(self.root)
        except FileNotFoundError:
            return []
        return sorted(
            name for name in (entry[: -len(_CONTAINER_SUFFIX)]
                              for entry in entries
                              if entry.endswith(_CONTAINER_SUFFIX))
            if self.contains(name))

    def manifest(self, name):
        return read_manifest(self.path(name))

    def add(self, trace, name=None, source=None, compress=False,
            force=False):
        """Persist ``trace`` under ``name``; returns the manifest.

        :func:`~repro.traceio.container.write_trace` into a staging
        directory, adopted by :meth:`add_container` (see :meth:`stage`),
        so re-adding an identical trace is a no-op and a *different*
        trace under an existing name requires ``force=True``.
        Synthetic SPEC2006 names are refused, like
        :func:`register_workload`.
        """
        name = _check_not_spec_name(_check_name(name or trace.name))
        return self.stage(
            lambda path: write_trace(trace, path, name=name, source=source,
                                     compress=compress),
            name=name, force=force)

    def stage(self, write_container, name=None, force=False):
        """Write a container through a staging directory, then adopt it.

        ``write_container(staged_path)`` writes the container pair at
        the given path and returns its manifest.  Staging happens inside
        the library root (same filesystem, so adoption is two renames),
        then :meth:`add_container` applies the one no-op/force rule.
        Returns the manifest now served under ``name`` (default: the
        staged manifest's name).
        """
        os.makedirs(self.root, exist_ok=True)
        scratch = register_scratch(
            tempfile.mkdtemp(prefix=".staged-", dir=self.root))
        try:
            staged = os.path.join(scratch, "staged" + _CONTAINER_SUFFIX)
            manifest = write_container(staged)
            return self.add_container(staged,
                                      name=name or manifest["name"],
                                      force=force)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            unregister_scratch(scratch)

    def add_container(self, path, name=None, force=False):
        """Adopt a finished container (npz + sidecar) into the library.

        The one no-op/force rule of the library: re-adding identical
        content is a no-op (the staged files are simply discarded),
        different content under an existing name needs ``force=True``.
        The decision reads only the manifests, never the arrays.  Files
        move sidecar-first, mirroring :func:`write_trace`'s crash
        ordering.  Returns the manifest now served under ``name``.
        """
        manifest = read_manifest(path)
        name = _check_not_spec_name(_check_name(name or manifest["name"]))
        if self.contains(name) and not force:
            existing = self.manifest(name)
            if existing["fingerprint"] == manifest["fingerprint"]:
                return existing
            raise FileExistsError(
                f"trace {name!r} already exists in {self.root} with "
                "different content (pass force=True / --force to replace)")
        destination = self.path(name)
        os.makedirs(self.root, exist_ok=True)
        if manifest["name"] != name:
            manifest = dict(manifest, name=name)
            write_manifest_sidecar(manifest_path(path), manifest)
        os.replace(manifest_path(path), manifest_path(destination))
        os.replace(str(path), destination)
        return manifest

    def remove(self, name):
        """Delete a container (and sidecar); True if anything was removed."""
        path = self.path(name)
        removed = False
        for target in (path, manifest_path(path)):
            try:
                os.remove(target)
                removed = True
            except FileNotFoundError:
                pass
        return removed

    def workload(self, name, streaming=True):
        """An :class:`ImportedWorkload` over a library entry."""
        if not self.contains(name):
            raise KeyError(f"no imported trace {name!r} in {self.root}")
        return ImportedWorkload(name, self.path(name), streaming=streaming)


# -- process registry --------------------------------------------------------

_PROCESS_REGISTRY = {}


def register_workload(workload, replace=False):
    """Make ``workload`` resolvable by name in this process.

    Names of the synthetic SPEC suite are refused — shadowing them would
    silently alias two different experiments under one artifact-store
    identity.
    """
    name = _check_not_spec_name(_check_name(workload.name))
    if name in _PROCESS_REGISTRY and not replace:
        raise ValueError(f"workload {name!r} already registered "
                         "(pass replace=True)")
    _PROCESS_REGISTRY[name] = workload
    return workload


def unregister_workload(name):
    """Remove a process registration; True if it existed."""
    return _PROCESS_REGISTRY.pop(name, None) is not None


def registered_names():
    """Names currently registered in this process (sorted)."""
    return sorted(_PROCESS_REGISTRY)


def resolve_workload(name, library=None, streaming=True):
    """The imported/registered workload called ``name``, or None.

    Lookup order: process registry, then the trace library (on-disk
    imports resolve identically in parallel worker processes).
    Synthetic SPEC2006 names never resolve here — a library entry
    created under an old version (or by hand) cannot shadow the
    calibrated suite.
    """
    workload = _PROCESS_REGISTRY.get(name)
    if workload is not None:
        return workload
    if name in SPEC2006_NAMES:
        return None
    lib = library if library is not None else TraceLibrary()
    if lib.contains(name):
        return lib.workload(name, streaming=streaming)
    return None


def is_process_local(name):
    """True when ``name`` resolves through this process's registry —
    such workloads must not be dispatched to pool workers, which only
    see the on-disk library (and would silently simulate a same-named
    library entry instead of the registered object)."""
    return name in _PROCESS_REGISTRY


def workload_fingerprint(name, library=None):
    """Content fingerprint for an imported/registered name, else None.

    Used by the suite runner to address both its in-process memo table
    and the store artifacts: imported runs are keyed by trace *content*,
    so renaming or re-importing the same trace warm-starts from the
    existing artifacts, and replacing a trace under a reused name (a
    ``replace=True`` re-registration, a ``force=True`` library add)
    never serves the old trace's results.  Registered workloads without
    a container hash their built trace once (cached on the object);
    library entries read the manifest, cached per container mtime.
    """
    workload = _PROCESS_REGISTRY.get(name)
    if workload is not None:
        fp = getattr(workload, "trace_fingerprint", None)
        if fp is None:
            fp = trace_fingerprint(workload.trace)
            workload.trace_fingerprint = fp
        return fp
    if name in SPEC2006_NAMES:       # synthetic names never resolve here
        return None
    lib = library if library is not None else TraceLibrary()
    if not lib.contains(name):
        return None
    path = lib.path(name)
    try:
        token = os.stat(manifest_path(path)).st_mtime_ns
    except OSError:
        return None
    cached = _LIBRARY_FP_CACHE.get(path)
    if cached is not None and cached[0] == token:
        return cached[1]
    fp = read_manifest(path)["fingerprint"]
    _LIBRARY_FP_CACHE[path] = (token, fp)
    return fp
