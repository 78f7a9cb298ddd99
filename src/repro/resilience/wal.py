"""Durable append-only logs: one framing, one fsync policy, one recovery.

Every durable writer uses this module: the per-session write-ahead log
(:class:`WriteAheadLog`), the disk store's segment and name logs
(:mod:`repro.storage`), and files replaced atomically (:func:`write_atomic`).

Framing of one record (the WAL's and the segment log's)::

    +------------+------------+---------------------+
    | length: u32 big-endian  |  payload bytes      |
    | crc32:  u32 big-endian  |  (JSON / columnar)  |
    +------------+------------+---------------------+

The 8-byte header carries the payload length and the CRC32 of the
payload, so recovery can distinguish the three ways a crash can leave
the file tail:

* **clean** -- the last record parses and its CRC matches;
* **torn** -- the file ends inside a header or payload (the process was
  killed mid-``write``, or the filesystem persisted a partial block);
* **corrupt** -- the length parses but the CRC does not match (a torn
  payload whose length bytes survived).

In the torn/corrupt cases :meth:`AppendLog.recover` truncates the file
back to the last clean record boundary and replay proceeds with every
fully-written record -- the crash loses at most the one append that
never returned to its caller, never anything acknowledged.  The encoder
and the scan share one payload bound, so a writer never acknowledges a
record its reader would discard as a corrupt tail.

Durability policy (``fsync``): every append is flushed to the OS, so
under every policy a record survives process death (SIGKILL, OOM) once
its append returns; ``fsync`` adds power-loss durability.  ``"always"``
fsyncs after every append, ``"batch"`` (the default) every
``batch_every`` appends and on checkpoint or close, ``"never"`` not at
all.  See DESIGN.md "Failure model and recovery" for the trade-offs.
"""

from __future__ import annotations

import io
import json
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.resilience.faults import fault_point
from repro.utils.exceptions import ReproError, ValidationError

__all__ = [
    "FSYNC_POLICIES",
    "DEFAULT_BATCH_EVERY",
    "AppendLog",
    "WalCorruptionError",
    "WriteAheadLog",
    "frame_payload",
    "fsync_directory",
    "read_records",
    "scan",
    "write_atomic",
]

#: Accepted values of the fsync policy.
FSYNC_POLICIES = ("always", "batch", "never")

#: Appends between fsyncs under the "batch" policy.
DEFAULT_BATCH_EVERY = 32

_HEADER = struct.Struct(">II")  # (payload length, payload crc32)

#: The largest payload a log writes or reads.  A corrupt header must not
#: make the reader allocate gigabytes, and a writer must refuse what the
#: reader would treat as a corrupt tail.  256 MiB is far beyond any
#: ingest chunk or snapshot envelope a session produces.
_MAX_RECORD_BYTES = 256 * 1024 * 1024


class WalCorruptionError(ReproError):
    """A WAL record failed its CRC or framing check (not a torn tail)."""


def frame_payload(payload: bytes) -> bytes:
    """Prefix ``payload`` with its ``(length, crc32)`` header.

    Raises :class:`ValidationError` for a payload beyond the log bound,
    before anything is written.
    """
    if len(payload) > _MAX_RECORD_BYTES:
        raise ValidationError(
            f"log record of {len(payload)} bytes exceeds the "
            f"{_MAX_RECORD_BYTES}-byte bound"
        )
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan(
    raw: bytes, decode: "Callable[[bytes], Any]"
) -> "tuple[list[Any], int]":
    """Parse framed records from ``raw``; returns (items, clean_offset).

    ``decode`` maps one CRC-verified payload to an item, or to ``None``
    for malformed content.  ``clean_offset`` is the byte offset just
    past the last record that parsed *and* passed its CRC -- everything
    beyond it is a torn or corrupt tail that recovery should truncate.
    """
    items: list[Any] = []
    offset = 0
    total = len(raw)
    while offset + _HEADER.size <= total:
        length, crc = _HEADER.unpack_from(raw, offset)
        if length > _MAX_RECORD_BYTES:
            break  # corrupt header: treat as tail
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            break  # torn payload
        payload = raw[start:end]
        if zlib.crc32(payload) != crc:
            break  # corrupt payload
        item = decode(payload)
        if item is None:
            break  # CRC collision on garbage; vanishingly unlikely
        items.append(item)
        offset = end
    return items, offset


def fsync_directory(path: "str | os.PathLike[str]") -> None:
    """fsync a directory, making renames and new entries in it durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_atomic(
    path: "str | os.PathLike[str]",
    data: bytes,
    *,
    fsync: bool = True,
    fsync_dir: bool = True,
    fault: "str | None" = None,
) -> None:
    """Replace ``path`` with ``data``: scratch file, fsync, ``os.replace``.

    A crash at any point leaves either the previous file or the new one,
    never a torn mix.  ``fault`` names a fault point fired just before
    the replace; ``fsync_dir`` also makes the rename itself durable.
    """
    path = Path(path)
    scratch = path.with_suffix(path.suffix + ".tmp")
    with open(scratch, "wb") as handle:
        handle.write(data)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    if fault is not None:
        fault_point(fault)
    os.replace(scratch, path)
    if fsync_dir:
        fsync_directory(path.parent)


class AppendLog:
    """One append-only file: lazy handle, fsync policy, torn-tail recovery.

    :meth:`write` gets bytes out of user space (SIGKILL-safe once it
    returns); ``sync(None)`` then fsyncs if the policy says so.  Callers
    fire their own fault point between the two.  Every fsync first calls
    ``sync()`` on each of ``sync_first`` (logs that must be durable
    before this one).  Policy fsyncs fire ``before_fsync`` and count in
    ``syncs``; :meth:`fsync`, :meth:`close` and truncation do neither.
    """

    def __init__(
        self,
        path: "str | os.PathLike[str]",
        *,
        fsync: str = "batch",
        batch_every: int = DEFAULT_BATCH_EVERY,
        before_fsync: "str | None" = None,
        sync_first: "Sequence[Any]" = (),
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValidationError(
                f"unknown fsync policy {fsync!r}; expected one of "
                f"{', '.join(FSYNC_POLICIES)}"
            )
        if batch_every < 1:
            raise ValidationError(f"batch_every must be >= 1, got {batch_every}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync
        self.batch_every = int(batch_every)
        self._before_fsync = before_fsync
        self._sync_first = tuple(sync_first)
        self._file: "io.BufferedWriter | None" = None
        self._lock = threading.RLock()
        self.appends = 0
        self.syncs = 0
        self.unsynced = 0

    def _handle(self) -> "io.BufferedWriter":
        if self._file is None:
            self._file = open(self.path, "ab")
        return self._file

    def write(self, data: bytes) -> int:
        """Write and flush ``data``; returns the file offset after it."""
        with self._lock:
            handle = self._handle()
            handle.write(data)
            handle.flush()
            self.appends += 1
            self.unsynced += 1
            return handle.tell()

    def sync(self, force: "bool | None" = True) -> None:
        """fsync what was written: always (``True``), if the policy says
        so (``None``), or not (``False``); never under "never"."""
        if self.fsync_policy == "never":
            return
        with self._lock:
            if force is None:
                force = (
                    self.fsync_policy == "always" or self.unsynced >= self.batch_every
                )
            if force and self._file is not None:
                self._fsync_locked(counted=True)

    def fsync(self) -> None:
        """fsync the file whatever the policy (sealing, name logs)."""
        with self._lock:
            self._fsync_locked(counted=False)

    def _fsync_locked(self, *, counted: bool) -> None:
        handle = self._handle()
        for log in self._sync_first:
            log.sync()
        handle.flush()
        if counted and self._before_fsync is not None:
            fault_point(self._before_fsync)
        os.fsync(handle.fileno())
        if counted:
            self.syncs += 1
        self.unsynced = 0

    def counters(self) -> "dict[str, int]":
        """The ``appends``/``syncs``/``unsynced`` block of ``stats()``."""
        return {
            "appends": self.appends, "syncs": self.syncs, "unsynced": self.unsynced
        }

    def size(self) -> int:
        """Current end-of-log offset (0 for a not-yet-written log)."""
        with self._lock:
            if self._file is not None:
                return self._file.tell()
            return self.path.stat().st_size if self.path.exists() else 0

    def recover(
        self, decode: "Callable[[bytes], Any]"
    ) -> "tuple[list[Any], memoryview]":
        """Read every clean record, truncating any torn/corrupt tail.

        Returns the records and the clean prefix of the file.  Must run
        before appending to a log a crashed process may have written, or
        the torn tail ends up mid-file where the scan cannot skip it.
        """
        with self._lock:
            self.close(fsync=False)
            try:
                raw = self.path.read_bytes()
            except FileNotFoundError:
                raw = b""
            items, clean_offset = scan(raw, decode)
            if clean_offset < len(raw):
                self.truncate(clean_offset)
            return items, memoryview(raw)[:clean_offset]

    def truncate(self, offset: int) -> None:
        """Cut the file back to ``offset`` bytes, then fsync it."""
        with self._lock:
            self.close(fsync=False)
            for log in self._sync_first:
                log.sync()
            with open(self.path, "r+b") as handle:
                handle.truncate(offset)
                os.fsync(handle.fileno())
            self.unsynced = 0

    def close(self, *, fsync: bool = True) -> None:
        """Flush, fsync (unless ``fsync=False`` or policy "never"), close."""
        with self._lock:
            if self._file is None:
                return
            if fsync and self.fsync_policy != "never":
                self._fsync_locked(counted=False)
            self._file.close()
            self._file = None


def _encode(record: "dict[str, Any]") -> bytes:
    # Insertion order must survive the round-trip: snapshot payloads in
    # create records carry first-seen dict order (counts, values) that
    # the serving layer exposes byte-for-byte, so no sort_keys here.
    payload = json.dumps(
        record, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    return frame_payload(payload)


def _decode(payload: bytes) -> "dict[str, Any] | None":
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


def scan_records(raw: bytes) -> "tuple[list[dict[str, Any]], int]":
    """Parse framed JSON records from ``raw``; see :func:`scan`."""
    return scan(raw, _decode)


def read_records(path: "str | os.PathLike[str]") -> "list[dict[str, Any]]":
    """All clean records of the log at ``path`` (missing file = no records)."""
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return []
    return scan_records(raw)[0]


class WriteAheadLog:
    """One append-only journal of JSON records with configurable fsync policy.

    Not thread-safe by itself: callers serialize appends (the serving
    layer appends under the session's exclusive write lock, which is the
    ordering the log records must reflect anyway).
    """

    def __init__(
        self,
        path: "str | os.PathLike[str]",
        *,
        fsync: str = "batch",
        batch_every: int = DEFAULT_BATCH_EVERY,
    ) -> None:
        self._log = AppendLog(
            path, fsync=fsync, batch_every=batch_every, before_fsync="wal.before_fsync"
        )
        self.path = self._log.path
        self.fsync_policy = fsync
        self.batch_every = self._log.batch_every

    def append(self, record: "dict[str, Any]", *, sync: "bool | None" = None) -> int:
        """Append one record; returns the file offset *after* the record.

        The frame is flushed to the OS unconditionally (that is what
        makes a SIGKILL after ``append`` returns lose nothing), then
        fsynced according to the policy.  ``sync=True`` forces an fsync
        regardless of policy (used for rare, must-be-durable records
        like session creation).  A record beyond the log bound raises
        :class:`ValidationError` before anything is written.
        """
        end = self._log.write(_encode(record))
        fault_point("wal.after_append")
        self._log.sync(sync)
        return end

    def sync(self) -> None:
        """Flush and fsync whatever has been appended so far."""
        self._log.sync()

    def tell(self) -> int:
        """Current end-of-log offset (0 for a not-yet-written log)."""
        return self._log.size()

    def recover(self) -> "list[dict[str, Any]]":
        """Read every clean record, truncating any torn/corrupt tail."""
        return self._log.recover(_decode)[0]

    def rewrite(self, records: "list[dict[str, Any]]") -> None:
        """Atomically replace the log's contents with ``records``.

        Used by checkpointing: after a snapshot is durably on disk, the
        log is rewritten to only the records the snapshot does not cover
        (usually none).  Write-to-scratch + ``os.replace`` means a crash
        mid-rewrite leaves the previous log intact.
        """
        data = b"".join(_encode(record) for record in records)
        self._log.close(fsync=False)
        durable = self.fsync_policy != "never"
        write_atomic(self.path, data, fsync=durable, fsync_dir=False)
        self._log.unsynced = 0

    def close(self) -> None:
        """Flush, fsync (unless policy is "never") and close the handle."""
        self._log.close()

    def stats(self) -> "dict[str, Any]":
        """Counters for ``/stats``: appends, fsyncs, bytes on disk."""
        return {
            **self._log.counters(),
            "bytes": self._log.size(),
            "fsync_policy": self.fsync_policy,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WriteAheadLog({str(self.path)!r}, fsync={self.fsync_policy!r})"
