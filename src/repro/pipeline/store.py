"""Content-addressed artifact store with a JSON run manifest.

Artifacts live under ``<root>/objects/<sha256>.blob`` — one file per
artifact in the store's own object format (:func:`pack_object`)::

    magic      8 bytes   b"RPROBJ\\x00\\x01"
    prefix     <IQI      header length, body length, CRC32
    header     JSON      sort_keys: {"arrays": [directory], "meta": meta}
    body       zlib      the arrays' raw bytes, concatenated (each
                         padded to a 16-byte offset), one level-1 stream

Each directory entry is ``{"name", "dtype", "shape", "offset",
"nbytes"}`` locating one array in the decompressed body.  The CRC32
covers header and body, so any truncation, bit flip, bad magic or
length mismatch fails the read.  ``<root>/manifest.json`` records
what each object *is* (key, kind, params, dep addresses, size,
creation time), so ``repro artifacts list`` can explain the cache and
``repro artifacts gc`` can sweep objects no current plan reaches.

Properties the pipeline relies on:

* **Content addressing** — the digest covers the producing spec and
  every upstream digest (:func:`~repro.pipeline.artifacts.node_digest`),
  so invalidation is automatic: a changed scale or sweep spec simply
  addresses different objects and the stale ones become garbage.
* **Corruption tolerance** — a truncated or corrupted object file is
  treated as a miss (and deleted); the executor recomputes it.  A
  corrupt manifest resets to empty without touching object files.
  Files of an older layout (``<sha256>.npz``) are never read: their
  addresses read as clean misses and ``gc`` sweeps them.
* **Write atomicity** — objects are written to a temp file and renamed
  into place, so a crashed run never leaves a half-written object
  under a valid address.  Manifest records are queued per ``put`` and
  merged to disk once per executor run (``flush_manifest``), read-
  before-write so concurrent runs sharing a cache directory keep each
  other's entries.  (A run killed before its flush leaves valid but
  manifest-untracked objects; ``has``/``gc`` key on digests, not the
  manifest, so correctness is unaffected.)
* **Concurrency** — the manifest read-merge-write (``flush_manifest``
  and ``gc``'s rewrite) runs under an advisory cross-process
  :class:`~repro.pipeline.locking.FileLock` (``<root>/.lock``), so
  concurrent runs sharing one cache directory cannot drop each other's
  records even when their flushes are truly simultaneous.  ``gc``
  additionally re-merges this process's still-pending records into the
  rewritten manifest, and sweeps stale ``*.tmp`` litter left by
  crashed writers.

Chaos hooks: with an active :class:`~repro.faults.FaultPlan`, ``put``
can raise an injected write error (``store-write`` site) or garble the
object file after a successful write (``corrupt`` site) — the executor
and the read-side corruption tolerance are tested through exactly
these paths.  Without a plan both hooks are no-ops.

A store with ``root=None`` is memory-only: artifacts are cached for
the process lifetime but nothing touches disk (``--no-cache``).
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import time
import zlib
from collections.abc import Mapping
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from .. import faults
from .locking import FileLock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .artifacts import ArtifactNode, PipelineConfig

__all__ = ["SERVE_INFO_NAME", "SERVE_LOCK_NAME", "ArtifactStore", "ManifestEntry"]

#: File suffix of one stored object (``<digest>.blob``).
OBJECT_SUFFIX = ".blob"

_MAGIC = b"RPROBJ\x00\x01"
#: header length, body length, CRC32 of header + body.
_PREFIX = struct.Struct("<IQI")
#: Every array starts at a multiple of this in the decompressed body,
#: so decoded arrays are aligned for any numeric dtype.
_ALIGN = 16
#: One fast deflate pass: objects are written on every cold run and
#: read back at most a few times, so level 1 buys most of the size at
#: a fraction of the default level's CPU.
_LEVEL = 1

#: Long-lived lock a ``repro serve`` scheduler holds on its cache root
#: (see :attr:`ArtifactStore.serve_lock`) and the holder-identity file
#: written next to it.
SERVE_LOCK_NAME = ".serve.lock"
SERVE_INFO_NAME = "serve.json"

#: Temp litter from a *crashed* writer is only swept by gc once it is
#: this old (seconds): a live concurrent writer's temp file is never
#: older, so sweeping cannot race an in-progress put.
TMP_LITTER_MIN_AGE = 3600.0


def pack_object(arrays: Mapping[str, np.ndarray], meta: Any) -> bytes:
    """Serialize ``arrays`` plus JSON-able ``meta`` into one object blob."""
    directory = []
    compressor = zlib.compressobj(_LEVEL)
    parts = []
    offset = 0
    for name, value in arrays.items():
        array = np.asarray(value, order="C")
        if array.dtype.hasobject or array.dtype.fields is not None:
            raise TypeError(f"array {name!r}: dtype {array.dtype} cannot be stored")
        pad = -offset % _ALIGN
        if pad:
            parts.append(compressor.compress(bytes(pad)))
            offset += pad
        directory.append({
            "name": name,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
            "nbytes": array.nbytes,
        })
        parts.append(compressor.compress(array))
        offset += array.nbytes
    parts.append(compressor.flush())
    body = b"".join(parts)
    header = json.dumps(
        {"arrays": directory, "meta": meta}, sort_keys=True, separators=(",", ":")
    ).encode()
    crc = zlib.crc32(body, zlib.crc32(header))
    return b"".join((_MAGIC, _PREFIX.pack(len(header), len(body), crc), header, body))


def unpack_object(blob: bytes) -> tuple[dict[str, np.ndarray], Any]:
    """Invert :func:`pack_object`; ``ValueError`` on any damage.

    The CRC is checked before anything is parsed, so a blob that passes
    it is exactly what :func:`pack_object` wrote.  The decoded arrays
    are writable and share one aligned buffer.
    """
    start = len(_MAGIC) + _PREFIX.size
    if len(blob) < start or not blob.startswith(_MAGIC):
        raise ValueError("not a store object (bad magic or truncated prefix)")
    header_len, body_len, crc = _PREFIX.unpack_from(blob, len(_MAGIC))
    if len(blob) != start + header_len + body_len:
        raise ValueError(f"object length {len(blob)} does not match its prefix")
    header = blob[start : start + header_len]
    body = blob[start + header_len :]
    if zlib.crc32(body, zlib.crc32(header)) != crc:
        raise ValueError("object CRC mismatch")
    decoded = json.loads(header)
    buffer = np.frombuffer(zlib.decompress(body), dtype=np.uint8).copy()
    arrays = {}
    for entry in decoded["arrays"]:
        offset = entry["offset"]
        view = buffer[offset : offset + entry["nbytes"]].view(entry["dtype"])
        arrays[entry["name"]] = view.reshape(tuple(entry["shape"]))
    return arrays, decoded["meta"]


class ManifestEntry(dict):
    """One manifest record (a dict with attribute sugar for readability)."""

    @property
    def digest(self) -> str:
        return self["digest"]


class ArtifactStore:
    """Hash-keyed artifact files plus the run manifest.

    Parameters
    ----------
    root:
        Store directory (created on first write).  ``None`` keeps
        artifacts in memory only.
    """

    def __init__(self, root: str | Path | None) -> None:
        self.root = Path(root) if root is not None else None
        self._memory: dict[str, Any] = {}
        self._pending_manifest: dict[str, dict[str, Any]] = {}
        self._lock: FileLock | None = None
        self._serve_lock: FileLock | None = None

    @property
    def lock(self) -> FileLock:
        """The store's cross-process advisory lock (disk stores only).

        Serializes manifest merges and run-report checkpoints across
        runs sharing this cache directory.  Reentrant within one
        store object.
        """
        assert self.root is not None, "memory-only stores have nothing to lock"
        if self._lock is None:
            self._lock = FileLock(self.root / ".lock")
        return self._lock

    @property
    def serve_lock(self) -> FileLock:
        """The *service* lock on this cache directory (``.serve.lock``).

        A ``repro serve`` scheduler holds it for its whole lifetime —
        distinct from :attr:`lock`, which is taken and released around
        each manifest merge.  Destructive maintenance (``repro
        artifacts gc``) takes it with ``acquire(timeout=…)`` first and
        fails fast with the holder's identity (:meth:`read_serve_info`)
        instead of deleting a live server's in-progress artifacts.
        Being an OS-level ``flock``, it self-releases if the server
        dies, so a stale pid never wedges maintenance.
        """
        assert self.root is not None, "memory-only stores have nothing to lock"
        if self._serve_lock is None:
            self._serve_lock = FileLock(self.root / SERVE_LOCK_NAME)
        return self._serve_lock

    # -- serve holder info ----------------------------------------------

    @property
    def serve_info_path(self) -> Path | None:
        return self.root / SERVE_INFO_NAME if self.root is not None else None

    def write_serve_info(self, info: Mapping[str, Any]) -> None:
        """Record who holds :attr:`serve_lock` (pid, address, started).

        Written by the scheduler *after* it takes the serve lock, so a
        reader that just failed to acquire the lock can name the
        holder in its error message.
        """
        path = self.serve_info_path
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(dict(info), indent=1, sort_keys=True))
        os.replace(tmp, path)

    def read_serve_info(self) -> dict[str, Any] | None:
        """The recorded serve-lock holder, or ``None`` (absent/corrupt)."""
        path = self.serve_info_path
        if path is None or not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return data if isinstance(data, dict) else None

    def clear_serve_info(self) -> None:
        path = self.serve_info_path
        if path is not None:
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)

    # -- paths ----------------------------------------------------------

    @property
    def objects_dir(self) -> Path | None:
        return self.root / "objects" if self.root is not None else None

    @property
    def manifest_path(self) -> Path | None:
        return self.root / "manifest.json" if self.root is not None else None

    def object_path(self, digest: str) -> Path | None:
        return self.objects_dir / f"{digest}{OBJECT_SUFFIX}" if self.root is not None else None

    # -- membership and access ------------------------------------------

    def has(self, digest: str) -> bool:
        """True if the artifact is available (memory or disk)."""
        if digest in self._memory:
            return True
        path = self.object_path(digest)
        return path is not None and path.exists()

    def get(self, digest: str, node: "ArtifactNode") -> Any | None:
        """The stored value, or ``None`` on a miss *or* a corrupt object.

        Corrupt/truncated objects are deleted so the address reads as a
        clean miss from then on.
        """
        if digest in self._memory:
            return self._memory[digest]
        path = self.object_path(digest)
        if path is None or not path.exists():
            return None
        try:
            value = node.decode(*unpack_object(path.read_bytes()))
        except Exception:
            # Truncated download, torn write, CRC mismatch, schema drift:
            # all read as a miss; the executor recomputes and rewrites.
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._memory[digest] = value
        return value

    def put(
        self,
        digest: str,
        node: "ArtifactNode",
        value: Any,
        config: "PipelineConfig",
        dep_digests: Mapping[str, str] | None = None,
        fault_token: str | None = None,
    ) -> None:
        """Store a value under its content address.

        The value is memoized in process only *after* the object write
        succeeds, so a persistence failure (raised to the caller) never
        leaves this store claiming an artifact it does not hold.  The
        manifest record is queued; callers batch it to disk with
        :meth:`flush_manifest` (the executor does, once per run).

        ``fault_token`` names this write for the chaos hooks (the
        executor passes the node's attempt token); it defaults to the
        digest and has no effect without an active fault plan.
        """
        if self.root is None:
            self._memory[digest] = value
            return
        arrays, meta = node.encode(value)
        objects = self.objects_dir
        assert objects is not None
        objects.mkdir(parents=True, exist_ok=True)
        path = self.object_path(digest)
        assert path is not None
        faults.inject("store-write", fault_token or digest)
        # Per-process temp name: concurrent runs sharing a cache dir may
        # race to write the same digest; each must land its own temp
        # file, with os.replace arbitrating (last rename wins, both
        # contents are identical by content addressing).
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                blob = pack_object(arrays, meta)
                fh.write(blob)
            os.replace(tmp, path)
        finally:
            # Failed write: do not leave temp litter.  The cleanup must
            # itself be exception-safe — the file may already be gone
            # (successful rename, or a concurrent gc sweeping litter) and
            # an unlink race here would otherwise mask the original
            # write exception.
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
        faults.inject_corruption(path, fault_token or digest)
        self._memory[digest] = value
        self._pending_manifest[digest] = {
            "key": node.key,
            "kind": node.kind,
            "params": node.params(config),
            "deps": dict(dep_digests or {}),
            "bytes": len(blob),
            "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        }

    def flush_manifest(self) -> None:
        """Merge queued manifest records into ``manifest.json``.

        The read-merge-write runs under the store's cross-process
        :attr:`lock`, so records from other runs sharing the cache
        directory are preserved even when flushes are simultaneous,
        and one run costs one manifest write instead of one per
        artifact.
        """
        if self.root is None or not self._pending_manifest:
            return
        with self.lock:
            manifest = self.manifest()
            manifest.update(self._pending_manifest)
            self._write_manifest(manifest)
        self._pending_manifest.clear()

    # -- manifest --------------------------------------------------------

    def manifest(self) -> dict[str, dict[str, Any]]:
        """The manifest mapping digest -> record ({} when absent/corrupt)."""
        path = self.manifest_path
        if path is None or not path.exists():
            return {}
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return {}
        return data if isinstance(data, dict) else {}

    def _write_manifest(self, manifest: dict[str, dict[str, Any]]) -> None:
        path = self.manifest_path
        if path is None:
            return
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(manifest, sort_keys=True, separators=(",", ":")))
        os.replace(tmp, path)

    def entries(self) -> list[ManifestEntry]:
        """Manifest records (plus digest), newest first."""
        entries = [
            ManifestEntry(dict(record, digest=digest))
            for digest, record in self.manifest().items()
        ]
        entries.sort(key=lambda e: (e.get("created") or "", e.digest), reverse=True)
        return entries

    # -- garbage collection ----------------------------------------------

    def gc(self, live: set[str], *, dry_run: bool = False) -> tuple[int, int]:
        """Delete objects whose digest is not in ``live``.

        Returns ``(objects_removed, bytes_reclaimed)`` — with
        ``dry_run=True`` nothing is touched and the counts describe
        what *would* be removed.  Untracked files in the objects
        directory (manifest lost, older layouts such as
        ``<digest>.npz``, whatever their digest) are swept by the same
        rule, as is ``*.tmp`` litter left behind by crashed writers
        (only once :data:`TMP_LITTER_MIN_AGE` old, so a live concurrent
        writer's in-progress temp file is never touched).

        The manifest rewrite runs under the store's cross-process
        :attr:`lock` and re-merges this process's still-pending records
        for live digests, so a gc racing concurrent writers never loses
        their (or its own) entries.
        """
        objects = self.objects_dir
        if objects is None or not objects.exists():
            return (0, 0)
        removed = reclaimed = 0
        # Litter age is judged against file mtimes, which are wall-clock:
        # monotonic time cannot be compared to them.
        now = time.time()  # repro: noqa[D102] -- mtime comparison needs wall clock
        for litter in sorted(objects.glob("*.tmp")):
            try:
                stat = litter.stat()
            except OSError:
                continue
            if now - stat.st_mtime < TMP_LITTER_MIN_AGE:
                continue
            if not dry_run:
                try:
                    litter.unlink()
                except OSError:
                    continue
            removed += 1
            reclaimed += stat.st_size
        for path in sorted(objects.iterdir()):
            digest = path.stem
            if path.suffix == ".tmp" or (path.suffix == OBJECT_SUFFIX and digest in live):
                continue
            size = path.stat().st_size
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    continue
                if path.suffix == OBJECT_SUFFIX:
                    self._memory.pop(digest, None)
            removed += 1
            reclaimed += size
        if not dry_run:
            with self.lock:
                manifest = self.manifest()
                pruned = {d: r for d, r in manifest.items() if d in live}
                for digest, record in self._pending_manifest.items():
                    if digest in live:
                        pruned.setdefault(digest, dict(record))
                if pruned != manifest:
                    self._write_manifest(pruned)
        return (removed, reclaimed)
