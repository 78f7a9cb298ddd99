"""Append-only name dictionaries: index <-> string for entities/sources.

Segment frames store entities and sources as fixed-width ``u32`` indices
(:mod:`repro.storage.segments`); this module persists the index order.
Each file is a sequence of length-prefixed UTF-8 entries::

    +------------------------+----------------+
    | length: u32 big-endian | UTF-8 bytes    |
    +------------------------+----------------+

Entry ``i`` is the name of index ``i`` -- which, by construction, is
*first-seen order*: the disk store assigns indices in the order entities
and sources first appear, exactly the dict order the in-memory
:class:`~repro.data.progressive.IntegrationState` maintains.  That is
what makes materializing dicts from the arrays byte-identical to the
in-memory store.

Names referencing a frame are flushed *before* the frame and fsynced
before every fsync of the segment log, so every index a durable frame
mentions resolves.  A crash can leave the opposite: a durable name whose
frame never made it.  Attach heals that by truncating the file back to
the entries the recovered state actually references.  The file is a
:class:`repro.resilience.wal.AppendLog`, with entries of its own format.
"""

from __future__ import annotations

import os
import struct

from repro.resilience.wal import AppendLog
from repro.utils.exceptions import ReproError

__all__ = ["NameCorruptionError", "NameLog"]

_LEN = struct.Struct(">I")

#: A single name longer than this is a corrupt length prefix.
_MAX_NAME_BYTES = 1024 * 1024


class NameCorruptionError(ReproError):
    """A name-log entry failed its framing check mid-file."""


class NameLog:
    """One append-only length-prefixed string file."""

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        self._log = AppendLog(path)
        self.path = self._log.path
        # Entries an earlier, possibly killed, process wrote may not be
        # durable yet: count them as pending so the first sync covers them.
        if self.path.is_file() and self.path.stat().st_size:
            self._log.unsynced = 1

    def append(self, names: "list[str]") -> None:
        """Append entries for ``names`` (flushed to the OS, not fsynced)."""
        if not names:
            return
        chunks: list[bytes] = []
        for name in names:
            raw = name.encode("utf-8")
            chunks.append(_LEN.pack(len(raw)))
            chunks.append(raw)
        self._log.write(b"".join(chunks))

    def sync(self) -> None:
        """fsync pending appends, whatever the store's fsync policy."""
        if self._log.unsynced:
            self._log.fsync()

    def read_all(self) -> "tuple[list[str], int]":
        """Decode every clean entry; returns (names, clean_offset).

        Trailing bytes that do not parse as a complete entry are a torn
        tail (crash mid-append) -- the caller decides whether to
        truncate (writer mode) or ignore them (read-only attach).
        """
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return [], 0
        names: list[str] = []
        offset = 0
        total = len(raw)
        while offset + _LEN.size <= total:
            (length,) = _LEN.unpack_from(raw, offset)
            if length > _MAX_NAME_BYTES:
                break  # corrupt length prefix: treat as tail
            start = offset + _LEN.size
            end = start + length
            if end > total:
                break  # torn entry
            try:
                names.append(raw[start:end].decode("utf-8"))
            except UnicodeDecodeError:
                break
            offset = end
        return names, offset

    def truncate_to_entries(self, names: "list[str]", keep: int) -> None:
        """Truncate the file to its first ``keep`` entries.

        ``names`` must be the full decode from :meth:`read_all`; the
        byte offset is recomputed from the kept prefix.  Used by attach
        to drop names whose referencing frame never became durable.
        """
        offset = sum(_LEN.size + len(name.encode("utf-8")) for name in names[:keep])
        self._log.truncate(offset)

    def close(self) -> None:
        self._log.close()
