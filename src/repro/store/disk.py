"""Content-addressed on-disk tier with atomic, self-verifying writes.

Layout::

    <root>/objects/<digest[:2]>/<digest>.blob
    <root>/quarantine/<digest>.blob          (corrupt blobs, moved aside)
    <root>/.lock                             (advisory reader/maintenance lock)

Each blob is self-describing: a magic string, a JSON header (schema
version, artifact kind, human label, payload SHA-256), then the encoded
payload.  Writes go to a unique temp file in the final directory
followed by ``os.replace``, so process-parallel suite-runner workers can
publish into one shared store without locks: readers only ever see
complete blobs, and two writers racing on the same digest produce the
same content anyway.

**Self-healing reads.**  The header records the payload's SHA-256
(patched in after the payload streams for :meth:`put_stream`); ``get``
re-hashes on every read and a mismatching blob — a torn write from a
crashed host, a flipped bit from a sick disk — is *quarantined* (moved
to ``<root>/quarantine/``) and reported as a miss, so callers fall back
to recomputation instead of crashing or silently consuming garbage.
:meth:`verify` is the batch scrubber behind ``python -m repro cache
verify``.

**Advisory locking.**  Maintenance that deletes files (``gc``,
``clear``) takes the store lock *exclusive* before sweeping; processes
serving memory-mapped artifacts hold it *shared* for their lifetime
(see :meth:`ArtifactStore.load_mapped
<repro.store.store.ArtifactStore.load_mapped>`), so a ``cache clear``
waits for live memmaps instead of deleting blobs under them.  The lock
is advisory — on timeout, ``gc`` still reclaims what is provably safe
(temp litter and stale-schema blobs, which are never served) and leaves
the rest.

Entries written under an older schema version are never served — they
are invisible to ``get`` and reclaimed by ``gc``.
"""

import hashlib
import json
import os
import pathlib
import struct
import time

from repro import telemetry
from repro.reliability.cleanup import register_scratch, unregister_scratch
from repro.reliability.faults import fault_point
from repro.reliability.locks import FileLock

MAGIC = b"REPROSTORE1\n"
_TMP_SUFFIX = ".tmp"
#: ``gc`` leaves temp files younger than this alone: they may belong to
#: a live writer that has not yet issued its ``os.replace``.
TMP_GRACE_SECONDS = 300.0
#: Placeholder patched with the real payload hash after streaming.
_SHA_PLACEHOLDER = "0" * 64
#: Bytes hashed per step when verifying payloads without loading them.
_HASH_CHUNK = 1 << 20
#: Default wait for the exclusive maintenance lock before degrading.
LOCK_TIMEOUT_SECONDS = 5.0


def _hash_file_from(handle, offset):
    """SHA-256 of ``handle``'s bytes from ``offset`` to EOF (chunked)."""
    handle.seek(offset)
    hasher = hashlib.sha256()
    while True:
        chunk = handle.read(_HASH_CHUNK)
        if not chunk:
            return hasher.hexdigest()
        hasher.update(chunk)


class DiskStore:
    """The persistent content-addressed layer of the artifact store."""

    def __init__(self, root, schema_version):
        self.root = pathlib.Path(root).expanduser()
        self.schema_version = int(schema_version)
        self.quarantined = 0
        self._reader_lock = None

    # -- paths ---------------------------------------------------------------

    @property
    def objects_dir(self):
        return self.root / "objects"

    @property
    def quarantine_dir(self):
        return self.root / "quarantine"

    @property
    def lock_path(self):
        return self.root / ".lock"

    def path_for(self, digest):
        return self.objects_dir / digest[:2] / f"{digest}.blob"

    # -- locking -------------------------------------------------------------

    def acquire_reader_lock(self):
        """Hold the store lock shared (idempotent).

        Taken by processes serving memory-mapped artifacts; released by
        :meth:`release_reader_lock` or process exit (the kernel drops
        ``flock`` locks with the process, so a crashed reader never
        wedges maintenance).
        """
        if self._reader_lock is not None and self._reader_lock.held:
            return
        lock = FileLock(self.lock_path)
        try:
            lock.acquire(exclusive=False, timeout=None)
        except OSError:
            return                 # unwritable root: lock is best-effort
        self._reader_lock = lock

    def release_reader_lock(self):
        if self._reader_lock is not None:
            self._reader_lock.release()
            self._reader_lock = None

    def _maintenance_lock(self, timeout):
        """An exclusive lock attempt for gc/clear; None if unavailable.

        Our *own* shared reader lock is dropped first (distinct
        ``flock`` descriptors conflict even within one process) — when
        this process is the one asking for maintenance, its surviving
        memmaps are safe anyway: POSIX keeps mapped pages alive via the
        inode.  It is re-acquired by the next :meth:`acquire_reader_lock`.
        """
        self.release_reader_lock()
        lock = FileLock(self.lock_path)
        try:
            acquired = lock.acquire(exclusive=True, timeout=timeout)
        except OSError:
            return None
        return lock if acquired else None

    # -- read ----------------------------------------------------------------

    def _read_blob(self, path, header_only=False):
        """``(header, payload, payload_offset)`` of a blob, or None.

        ``header_only`` skips the payload read (``payload`` is None):
        the metadata operations — ``entries``/``stats``/``gc``/
        ``locate`` — only need the few header bytes, not gigabytes of
        artifact data.  ``payload_offset`` is where the encoded payload
        starts inside the blob file.
        """
        try:
            fault = fault_point("store.read")
            if fault is not None:
                raise fault.os_error()
            with open(path, "rb") as handle:
                if handle.read(len(MAGIC)) != MAGIC:
                    return None
                (header_len,) = struct.unpack(">I", handle.read(4))
                header = json.loads(handle.read(header_len).decode("utf-8"))
                offset = handle.tell()
                payload = None if header_only else handle.read()
        except (OSError, ValueError, struct.error,
                json.JSONDecodeError, UnicodeDecodeError):
            return None
        return header, payload, offset

    def get(self, digest):
        """``(header, payload)`` for ``digest`` or None (missing/stale).

        Verify-on-read: a payload whose hash does not match the header's
        recorded SHA-256 is quarantined and reported as a miss — every
        artifact is recomputable, so corruption degrades to a cache
        miss, never to garbage served as results.
        """
        path = self.path_for(digest)
        blob = self._read_blob(path)
        if blob is None or blob[0].get("schema") != self.schema_version:
            return None
        header, payload, _ = blob
        recorded = header.get("sha256")
        if recorded is not None and \
                hashlib.sha256(payload).hexdigest() != recorded:
            self.quarantine(digest)
            return None
        return header, payload

    def locate(self, digest):
        """``(header, path, payload_offset)`` without reading the payload.

        The offset is what the memory-mapped (``npzm``) serving path
        needs.  Returns None for missing/stale/corrupt blobs.  The
        payload is *not* hashed here — that would fault the whole blob
        in, defeating streaming; see :meth:`verify_digest` for the
        explicit check and :meth:`verify` for the batch scrubber.
        """
        path = self.path_for(digest)
        blob = self._read_blob(path, header_only=True)
        if blob is None or blob[0].get("schema") != self.schema_version:
            return None
        return blob[0], path, blob[2]

    def contains(self, digest):
        return self.get(digest) is not None

    def verify_digest(self, digest, repair=True):
        """Re-hash one blob's payload against its header.

        Returns ``"ok"``, ``"corrupt"`` (quarantined when ``repair``),
        ``"unverified"`` (pre-checksum blob), ``"stale"`` or
        ``"missing"``.
        """
        path = self.path_for(digest)
        blob = self._read_blob(path, header_only=True)
        if blob is None:
            status = "corrupt" if path.exists() else "missing"
            if status == "corrupt" and repair:
                self.quarantine(digest)
            return status
        header, _, offset = blob
        if header.get("schema") != self.schema_version:
            return "stale"
        recorded = header.get("sha256")
        if recorded is None:
            return "unverified"
        try:
            with open(path, "rb") as handle:
                actual = _hash_file_from(handle, offset)
        except OSError:
            return "missing"
        if actual != recorded:
            if repair:
                self.quarantine(digest)
            return "corrupt"
        return "ok"

    # -- write ---------------------------------------------------------------

    def _header_bytes(self, kind, label, sha256):
        return json.dumps({
            "schema": self.schema_version,
            "kind": kind,
            "label": label,
            "sha256": sha256,
        }).encode("utf-8")

    def _tmp_path(self, path):
        return path.with_name(
            f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}{_TMP_SUFFIX}")

    @staticmethod
    def _apply_write_fault(fault, handle, payload_offset):
        """Corrupt the finished temp file per an injected write fault.

        ``torn`` truncates the payload to ``frac`` of its length (a
        write that lost its tail but whose rename survived — the
        classic crashed-host blob); ``flip`` flips one payload bit (a
        storage-layer corruption).  The header's checksum describes the
        *intended* payload, so verify-on-read catches both.
        """
        if fault is None or fault.mode not in ("torn", "flip"):
            return
        handle.flush()
        end = handle.seek(0, os.SEEK_END)
        size = max(0, end - payload_offset)
        if size == 0:
            return
        if fault.mode == "torn":
            frac = fault.param("frac", 0.5)
            handle.truncate(payload_offset + int(size * frac))
        else:
            position = payload_offset + (fault.hits * 8191) % size
            handle.seek(position)
            byte = handle.read(1)
            handle.seek(position)
            handle.write(bytes([(byte[0] if byte else 0) ^ 0x01]))

    def _publish(self, path, kind, label, write_payload):
        """Shared put/put_stream core: tmp write → checksum → rename.

        ``write_payload(handle)`` streams the payload; the header's
        checksum field is patched afterwards by re-reading the temp
        file (the payload may have been written out of order — zipfile
        seeks back to fix member headers — so hashing the write stream
        would be wrong).  The temp file is removed on any failure and
        registered for the SIGTERM sweep: a crashed, killed or ENOSPC'd
        publish leaves zero partial entries.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        fault = fault_point("store.write")
        if fault is not None and fault.mode in ("enospc", "eio"):
            raise fault.os_error()
        header = self._header_bytes(kind, label, _SHA_PLACEHOLDER)
        sha_field = header.index(_SHA_PLACEHOLDER.encode())
        tmp = register_scratch(self._tmp_path(path))
        try:
            with open(tmp, "w+b") as handle:
                handle.write(MAGIC)
                handle.write(struct.pack(">I", len(header)))
                handle.write(header)
                payload_offset = handle.tell()
                write_payload(handle)
                digest = _hash_file_from(handle, payload_offset)
                handle.seek(len(MAGIC) + 4 + sha_field)
                handle.write(digest.encode())
                self._apply_write_fault(fault, handle, payload_offset)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            unregister_scratch(tmp)
            raise
        try:
            os.replace(tmp, path)
        except FileNotFoundError:
            # A concurrent `cache clear`/`gc` swept our temp file away.
            # Every artifact is recomputable, so a lost publish is
            # harmless — don't abort the experiment run over it.
            pass
        finally:
            unregister_scratch(tmp)
        return path

    def put(self, digest, kind, payload, label=""):
        """Atomically publish a blob; returns its final path."""
        path = self.path_for(digest)
        if path.exists():
            return path
        return self._publish(path, kind, label,
                             lambda handle: handle.write(payload))

    def put_stream(self, digest, kind, writer, label=""):
        """Like :meth:`put`, but ``writer(handle)`` streams the payload.

        The payload never exists as one in-RAM bytes object — this is
        how multi-hundred-MB spilled index tables are published with
        bounded peak memory.  Same atomicity (and checksumming) as
        :meth:`put`; the post-write checksum pass re-reads the temp
        file sequentially, so peak RAM stays bounded.
        """
        path = self.path_for(digest)
        if path.exists():
            return path
        return self._publish(path, kind, label, writer)

    def delete(self, digest):
        """Remove a blob if present; True if anything was removed.

        ``put``/``put_stream`` are deliberately write-once — racing
        writers of a content-addressed key produce identical bytes, so
        first-wins is correct.  Keys whose *value can legitimately
        change* (a synthetic-trace manifest after its stale blob is
        invalidated) must therefore delete before republishing.
        """
        try:
            os.remove(self.path_for(digest))
            return True
        except OSError:
            return False

    def quarantine(self, digest):
        """Move a (presumably corrupt) blob aside; its new path or None.

        Quarantined blobs live under ``<root>/quarantine/`` for
        post-mortem inspection; the content address is free again, so
        the next publish of the key simply recomputes.  Moving (not
        deleting) is also mmap-safe on POSIX: a reader that still has
        the old file mapped keeps its pages via the inode.
        """
        path = self.path_for(digest)
        target = self.quarantine_dir / path.name
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            return None
        self.quarantined += 1
        telemetry.counter("store.quarantine")
        telemetry.event("store.quarantine", digest=digest[:16])
        return target

    # -- maintenance ---------------------------------------------------------

    @staticmethod
    def _size_of(path):
        """File size, or -1 if a concurrent writer/gc removed it."""
        try:
            return path.stat().st_size
        except OSError:
            return -1

    def entries(self):
        """Yield ``(digest, header, size_bytes)`` for every readable blob."""
        if not self.objects_dir.is_dir():
            return
        for path in sorted(self.objects_dir.glob("*/*.blob")):
            blob = self._read_blob(path, header_only=True)
            if blob is None:
                continue
            size = self._size_of(path)
            if size < 0:
                continue
            yield path.stem, blob[0], size

    def verify(self, repair=False):
        """Scrub the store: re-hash every blob against its header.

        Yields ``{"digest", "status", "bytes", "label"}`` per blob —
        ``status`` as in :meth:`verify_digest`, plus ``corrupt`` for
        unreadable blob files (bad magic/header).  With ``repair``,
        corrupt blobs are quarantined as they are found.
        """
        if not self.objects_dir.is_dir():
            return
        for path in sorted(self.objects_dir.glob("*/*.blob")):
            digest = path.stem
            blob = self._read_blob(path, header_only=True)
            if blob is None:
                if not path.exists():
                    continue       # swept concurrently
                if repair:
                    self.quarantine(digest)
                yield {"digest": digest, "status": "corrupt",
                       "bytes": max(0, self._size_of(path)), "label": "?"}
                continue
            header, _, _ = blob
            size = max(0, self._size_of(path))   # before any quarantine move
            status = self.verify_digest(digest, repair=repair)
            if status == "missing":
                continue
            yield {
                "digest": digest,
                "status": status,
                "bytes": size,
                "label": header.get("label") or header.get("kind", "?"),
            }

    def stats(self):
        """Aggregate counts: entries, bytes, per-label breakdown."""
        n_entries = 0
        n_bytes = 0
        n_stale = 0
        by_label = {}
        for _, header, size in self.entries():
            if header.get("schema") != self.schema_version:
                n_stale += 1
                continue
            n_entries += 1
            n_bytes += size
            label = header.get("label") or header.get("kind", "?")
            entry = by_label.setdefault(label, {"entries": 0, "bytes": 0})
            entry["entries"] += 1
            entry["bytes"] += size
        n_quarantined = 0
        if self.quarantine_dir.is_dir():
            n_quarantined = sum(
                1 for entry in self.quarantine_dir.iterdir()
                if entry.suffix == ".blob")
        return {
            "root": str(self.root),
            "schema": self.schema_version,
            "entries": n_entries,
            "bytes": n_bytes,
            "stale_entries": n_stale,
            "quarantined": n_quarantined,
            "by_label": by_label,
        }

    def gc(self, lock_timeout=LOCK_TIMEOUT_SECONDS):
        """Remove stale-schema blobs, unreadable blobs and temp litter.

        Temp files younger than :data:`TMP_GRACE_SECONDS` are spared —
        they may belong to a writer that has not yet renamed them into
        place.  Returns ``(n_removed, bytes_reclaimed)``.

        Takes the maintenance lock exclusive first; if live readers (or
        publishers) hold it past ``lock_timeout``, only the provably
        safe sweep runs — expired temp files and stale-schema blobs,
        neither of which is ever served or mapped — and unreadable
        blobs are left for a later pass.
        """
        removed = 0
        reclaimed = 0
        if not self.objects_dir.is_dir():
            return removed, reclaimed
        lock = self._maintenance_lock(lock_timeout)
        try:
            now = time.time()
            for path in self.objects_dir.glob(f"*/*{_TMP_SUFFIX}"):
                try:
                    stat = path.stat()
                except OSError:
                    continue    # a concurrent writer just renamed it away
                if now - stat.st_mtime < TMP_GRACE_SECONDS:
                    continue    # possibly a live writer's in-flight file
                path.unlink(missing_ok=True)
                reclaimed += stat.st_size
                removed += 1
            for path in self.objects_dir.glob("*/*.blob"):
                blob = self._read_blob(path, header_only=True)
                if blob is None:
                    # Unreadable: without the exclusive lock this could
                    # be a blob some process has mapped (a reader cannot
                    # tell corrupt from busy) — only sweep it when the
                    # lock proves no readers exist.
                    if lock is None:
                        continue
                elif blob[0].get("schema") == self.schema_version:
                    continue
                size = self._size_of(path)
                if size < 0:
                    continue
                path.unlink(missing_ok=True)
                reclaimed += size
                removed += 1
        finally:
            if lock is not None:
                lock.release()
        return removed, reclaimed

    def clear(self, lock_timeout=LOCK_TIMEOUT_SECONDS):
        """Remove every blob; returns the number removed.

        Waits up to ``lock_timeout`` for the exclusive maintenance lock
        so live memory-mapped readers finish first; the lock is
        advisory, so after the timeout the sweep proceeds anyway (POSIX
        keeps mapped pages alive via the inode — readers survive, they
        just cannot be joined by new ones).
        """
        removed = 0
        if not self.objects_dir.is_dir():
            return removed
        lock = self._maintenance_lock(lock_timeout)
        try:
            for path in self.objects_dir.glob("*/*"):
                if path.suffix == ".blob" or path.name.endswith(_TMP_SUFFIX):
                    path.unlink(missing_ok=True)
                    removed += 1
        finally:
            if lock is not None:
                lock.release()
        return removed
