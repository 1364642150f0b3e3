"""The two-tier artifact store: LRU memory over content-addressed disk.

``ArtifactStore`` is the facade the rest of the system talks to:

* ``save(key, obj)`` fingerprints the structured ``key`` (workload spec,
  config, strategy options, ... — the schema version is mixed in
  automatically), encodes ``obj`` and publishes it to both tiers;
* ``load(key)`` consults memory, then disk, promoting on a disk hit;
* ``get_or_create(key, compute)`` is the memoize-through idiom.

Configuration comes from the environment by default:

* ``REPRO_CACHE`` — ``off``/``0``/``false`` disables everything (every
  ``load`` misses, every ``save`` is a no-op: exact pre-store behavior);
* ``REPRO_CACHE_DIR`` — store root (default ``$XDG_CACHE_HOME/repro`` or
  ``~/.cache/repro``).

Bumping :data:`SCHEMA_VERSION` invalidates every existing entry at once:
addresses change (the version is part of every fingerprint) and old
blobs are refused by the disk tier and reclaimed by ``gc``.

**Reliability.**  The store degrades, never crashes a run:

* an unwritable (or un-creatable) root is detected at open — one
  warning, then the store behaves exactly like ``REPRO_CACHE=off``;
* a write failure mid-run (disk full, I/O error) drops that save —
  one warning, ``write_errors`` counts them — and the run continues on
  recomputation;
* a corrupt blob (torn write, flipped bit) fails its checksum on read,
  is quarantined by the disk tier and reported as a miss; ``verify``
  (``python -m repro cache verify``) is the batch scrubber.
"""

import os
import warnings

from repro import telemetry
from repro.store.disk import DiskStore
from repro.store.fingerprint import fingerprint
from repro.store.memory import LRUCache
from repro.store.serialize import (
    KIND_NPZ_MAPPED,
    KINDS,
    decode,
    encode,
    mapped_arrays,
    write_arrays_stream,
)

#: Version of every persisted artifact layout.  Bump on any change to
#: the serialized forms (results, warm-up bundles, index tables) or to
#: key construction; stale entries are then ignored and garbage-collected.
SCHEMA_VERSION = 1

_DISABLED_VALUES = ("off", "0", "false", "no")


def default_cache_dir():
    """The store root the environment implies."""
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return explicit
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join("~", ".cache")
    return os.path.join(base, "repro")


def cache_enabled_by_env():
    return os.environ.get(
        "REPRO_CACHE", "on").strip().lower() not in _DISABLED_VALUES


#: Roots already warned about (one warning per root per process).
_WARNED_ROOTS = set()


def _root_writable(root):
    """Probe-write the store root; False for read-only/broken paths.

    ``os.access`` lies for privileged users and network mounts, so the
    check is an actual create-and-unlink of a probe file.
    """
    try:
        os.makedirs(root, exist_ok=True)
        probe = os.path.join(
            root, f".writable.{os.getpid()}.{os.urandom(4).hex()}")
        with open(probe, "w"):
            pass
        os.unlink(probe)
    except OSError:
        return False
    return True


def _warn_unusable_root(root, reason):
    # The counter fires per degradation event (visible post-run in the
    # telemetry report) even though the warning stays once-per-root.
    telemetry.counter("store.degraded_root")
    if root in _WARNED_ROOTS:
        return
    _WARNED_ROOTS.add(root)
    warnings.warn(
        f"artifact store root {root!r} is {reason}; continuing with the "
        "cache disabled (REPRO_CACHE=off behavior) — set REPRO_CACHE_DIR "
        "to a writable directory to re-enable warm starts",
        RuntimeWarning, stacklevel=3)


class ArtifactStore:
    """Two-tier (memory LRU + content-addressed disk) artifact store."""

    def __init__(self, root=None, enabled=None, memory_entries=128,
                 memory_bytes=256 * 1024 * 1024,
                 schema_version=SCHEMA_VERSION):
        if enabled is None:
            enabled = cache_enabled_by_env()
        self.enabled = bool(enabled)
        root = str(root) if root is not None else default_cache_dir()
        self.memory = LRUCache(max_entries=memory_entries,
                               max_bytes=memory_bytes)
        self.disk = DiskStore(root, schema_version)
        #: Canonical (``~``-expanded) root, matching the disk tier's.
        self.root = str(self.disk.root)
        self.schema_version = int(schema_version)
        self.disk_hits = 0
        self.disk_misses = 0
        self.saves = 0
        #: Disk writes dropped because of I/O failures (ENOSPC, EIO...).
        self.write_errors = 0
        if self.enabled and not _root_writable(self.root):
            # Unwritable/read-only cache dir: warn once, then behave
            # exactly like REPRO_CACHE=off instead of raising mid-run.
            _warn_unusable_root(self.root, "not writable")
            self.enabled = False

    # -- addressing ----------------------------------------------------------

    def digest(self, key):
        """Store address of a structured key (schema version mixed in)."""
        return fingerprint(("repro-store", self.schema_version, key))

    # -- core operations -----------------------------------------------------

    @staticmethod
    def _count_lookup(outcome, label, tier=None):
        """``store.hit``/``store.miss`` counters, attributed by label."""
        s = telemetry.session()
        if s is None:
            return
        s.count(f"store.{outcome}")
        if tier:
            s.count(f"store.{outcome}.{tier}")
        if label:
            s.count(f"store.{outcome}.{label}")

    def load(self, key, label=""):
        """The artifact stored under ``key``, or None."""
        if not self.enabled:
            return None
        return self.load_digest(self.digest(key), label=label)

    def load_digest(self, digest, label=""):
        """Like :meth:`load` but addressed by a precomputed digest."""
        if not self.enabled:
            return None
        cached = self.memory.get(digest)
        if cached is not None:
            self._count_lookup("hit", label, tier="memory")
            return cached
        blob = self.disk.get(digest)
        if blob is None or blob[0]["kind"] not in KINDS:
            # A kind this version does not decode (a legacy ``npz``
            # blob, or one another version wrote at this schema) is
            # not corrupt: a miss that leaves it for ``cache gc``/
            # ``clear``.
            self.disk_misses += 1
            self._count_lookup("miss", label)
            return None
        header, payload = blob
        try:
            obj = decode(header["kind"], payload)
        except Exception:
            # Truncated/corrupt payload behind a valid header *and*
            # checksum (pre-checksum blob, or a codec-level defect):
            # every artifact is recomputable, so quarantine and miss.
            self.disk.quarantine(digest)
            self.disk_misses += 1
            self._count_lookup("miss", label)
            return None
        self.memory.put(digest, obj, len(payload))
        self.disk_hits += 1
        self._count_lookup("hit", label or header.get("label"))
        return obj

    def _publish_failed(self, label, exc):
        """Degrade one failed disk publish to a dropped save (warn once).

        A full or failing disk mid-campaign must not kill the run — the
        artifact is recomputable and the atomic-write protocol guarantees
        the failed publish left no partial entry behind.
        """
        self.write_errors += 1
        telemetry.counter("store.dropped_save")
        telemetry.event("store.dropped_save", label=label or "artifact",
                        error=str(exc))
        if self.write_errors == 1:
            warnings.warn(
                f"artifact store write failed ({label or 'artifact'}: "
                f"{exc}); this and any further failed saves are dropped — "
                "the run continues without persisting them",
                RuntimeWarning, stacklevel=3)

    def save(self, key, obj, label=""):
        """Publish ``obj`` under ``key``; returns its digest (or None).

        A disk-tier I/O failure (ENOSPC, EIO) drops the save — one
        warning, counted in ``write_errors`` — rather than aborting the
        run; the memory tier still holds the object for this process.
        """
        if not self.enabled:
            return None
        digest = self.digest(key)
        kind, payload = encode(obj)
        try:
            self.disk.put(digest, kind, payload, label=label)
        except OSError as exc:
            self._publish_failed(label, exc)
            self.memory.put(digest, obj, len(payload))
            return None
        self.memory.put(digest, obj, len(payload))
        self.saves += 1
        self._count_lookup("save", label)
        return digest

    def save_arrays(self, key, arrays, label=""):
        """Publish an array mapping as a memory-mappable (npzm) blob.

        ``arrays`` values may be ``np.memmap`` views over spill files:
        they are streamed into the blob member-by-member, so peak RAM is
        bounded by the I/O buffer rather than the table size.  The
        memory tier is bypassed — mapped artifacts are meant to be
        *served from disk*, not to evict everything else from the LRU.
        Like :meth:`save`, an I/O failure drops the publish (the caller
        sees the miss on reopen and falls back to its in-RAM path).
        """
        if not self.enabled:
            return None
        digest = self.digest(key)
        try:
            self.disk.put_stream(
                digest, KIND_NPZ_MAPPED,
                lambda handle: write_arrays_stream(handle, arrays),
                label=label)
        except OSError as exc:
            self._publish_failed(label, exc)
            return None
        self.saves += 1
        self._count_lookup("save", label)
        return digest

    def load_mapped(self, key, label=""):
        """Read-only memory-mapped views of an array-mapping artifact.

        Works for ``npzm`` blobs (zero-copy views inside the blob file);
        any other kind falls back to a regular :meth:`load` so callers
        need not care how the artifact was published.  Returns None on a
        miss.  Views are *not* promoted to the memory tier.

        The payload is *not* re-hashed here — that would fault the whole
        blob in, defeating streaming (``cache verify`` is the scrubber
        that does) — but a structurally torn blob fails the archive open
        and is quarantined like any other corrupt entry.  While views
        are live the process holds the store's advisory lock *shared*,
        so destructive maintenance (``cache gc``/``clear``) in another
        process waits instead of deleting blobs under the memmaps.
        """
        if not self.enabled:
            return None
        digest = self.digest(key)
        self.disk.acquire_reader_lock()
        located = self.disk.locate(digest)
        if located is None:
            self.disk_misses += 1
            self._count_lookup("miss", label)
            return None
        header, path, offset = located
        if header.get("kind") != KIND_NPZ_MAPPED:
            return self.load_digest(digest, label=label)
        try:
            views = mapped_arrays(path, offset)
        except Exception:
            # Torn write / corrupt archive: every artifact is
            # recomputable, so quarantine it and report a miss.
            self.disk.quarantine(digest)
            self.disk_misses += 1
            self._count_lookup("miss", label)
            return None
        self.disk_hits += 1
        self._count_lookup("hit", label or header.get("label"),
                           tier="mapped")
        return views

    def release_locks(self):
        """Drop the shared reader lock once mapped views are closed.

        Called by :meth:`ExecutionContext.release
        <repro.core.context.ExecutionContext.release>` / the suite
        runner after unmapping; a crashed process needs no cleanup (the
        kernel drops ``flock`` locks with it).
        """
        self.disk.release_reader_lock()

    def verify(self, repair=False):
        """Scrub the disk tier: re-hash every blob against its header.

        Yields one record per blob (see :meth:`DiskStore.verify
        <repro.store.disk.DiskStore.verify>`); with ``repair``, corrupt
        blobs are quarantined as they are found.  A disabled store
        yields nothing.
        """
        if not self.enabled:
            return
        yield from self.disk.verify(repair=repair)

    def delete(self, key):
        """Drop ``key`` from both tiers; True if anything was removed.

        The disk tier is write-once (``put`` never overwrites), so a key
        whose artifact must be *replaced* — a verification-rejected
        synthetic-trace blob or its manifest — deletes first, then saves.
        """
        if not self.enabled:
            return False
        digest = self.digest(key)
        in_memory = self.memory.discard(digest)
        on_disk = self.disk.delete(digest)
        return in_memory or on_disk

    def contains(self, key):
        if not self.enabled:
            return False
        digest = self.digest(key)
        return digest in self.memory or self.disk.contains(digest)

    def get_or_create(self, key, compute, label=""):
        """``load(key)`` or ``compute()``-then-``save`` on a miss."""
        cached = self.load(key, label=label)
        if cached is not None:
            return cached
        obj = compute()
        self.save(key, obj, label=label)
        return obj

    # -- introspection -------------------------------------------------------

    def stats(self):
        """Combined tier statistics (process counters + disk census)."""
        disk = self.disk.stats() if self.enabled else {
            "root": self.root, "entries": 0, "bytes": 0,
            "stale_entries": 0, "quarantined": 0, "by_label": {},
            "schema": self.schema_version}
        return {
            "enabled": self.enabled,
            "memory": self.memory.stats(),
            "disk": disk,
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "saves": self.saves,
            "write_errors": self.write_errors,
        }


_store = None


def get_store():
    """The process-wide store (built from the environment on first use)."""
    global _store
    if _store is None:
        _store = ArtifactStore()
    return _store


def configure(root=None, enabled=None, **options):
    """Replace the process-wide store (tests, CLI); returns it."""
    global _store
    _store = ArtifactStore(root=root, enabled=enabled, **options)
    return _store


def disabled_store():
    """A store that never hits and never writes (for ``REPRO_CACHE=off``
    call sites that want an explicit object rather than None)."""
    return ArtifactStore(enabled=False)
