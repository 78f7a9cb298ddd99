"""The append-only columnar segment log: CRC-framed observation chunks.

One ingest chunk becomes one *frame* in the active segment file.  The
segment log is a :class:`repro.resilience.wal.AppendLog` -- the same
``(length, crc32)`` framing, payload bound, fsync policy and torn-tail
recovery as the write-ahead log -- whose payload is columnar binary
instead of JSON::

    +--------------------------+------------------------------------+
    | length: u32 big-endian   |  kind:          u8                 |
    | crc32:  u32 big-endian   |  state_version: u64 big-endian     |
    +--------------------------+  n_rows:        u32 big-endian     |
                               |  entity_idx:    u32[n] little      |
                               |  source_idx:    u32[n] little      |
                               |  value:         f64[n] little      |
                               |  sequence:      i64[n] little      |
                               |  flags:         u8 [n] (bit0:      |
                               |    observation carried the         |
                               |    session attribute)              |
                               +------------------------------------+

``kind`` 0 is an observation chunk; ``kind`` 1 is a *seed* frame whose
payload after the fixed header is compact JSON (an aggregate baseline
adopted via ``from_sample``/``restore``, which has no per-observation
stream to log).  Entity/source ids are indices into the append-only
name dictionaries (:mod:`repro.storage.names`), which are flushed
*before* the frame that references them and fsynced before every fsync
of the segment log (its ``sync_first`` logs).

Sealing (checkpoint) fsyncs the active file, renames it to
``seg-<index>.seg`` (immutable from then on), fsyncs the directory, and
hands the sealed entry to the manifest.  The ``storage.before_seal`` /
``storage.after_seal`` fault points bracket the rename;
``storage.after_frame`` fires after a frame is flushed but before the
invariant arrays absorb it.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.resilience.faults import fault_point
from repro.resilience.wal import (
    DEFAULT_BATCH_EVERY,
    AppendLog,
    frame_payload,
    fsync_directory,
    scan,
)
from repro.utils.exceptions import ReproError

__all__ = [
    "FRAME_OBSERVATIONS",
    "FRAME_SEED",
    "Frame",
    "SegmentCorruptionError",
    "SegmentLog",
    "encode_frame",
    "encode_seed_frame",
    "scan_frames",
    "read_frames",
    "segment_name",
]

_FRAME_META = struct.Struct(">BQI")  # (kind, state_version, n_rows)

#: Frame kinds.
FRAME_OBSERVATIONS = 0
FRAME_SEED = 1

#: Fixed-width little-endian column dtypes of an observation frame.
_DT_ENTITY = np.dtype("<u4")
_DT_SOURCE = np.dtype("<u4")
_DT_VALUE = np.dtype("<f8")
_DT_SEQUENCE = np.dtype("<i8")
_DT_FLAGS = np.dtype("u1")

#: flags bit0: the observation carried the session attribute.
FLAG_HAS_VALUE = 1

#: Per-row payload bytes (used to validate frame lengths).
_ROW_BYTES = (
    _DT_ENTITY.itemsize
    + _DT_SOURCE.itemsize
    + _DT_VALUE.itemsize
    + _DT_SEQUENCE.itemsize
    + _DT_FLAGS.itemsize
)


class SegmentCorruptionError(ReproError):
    """A sealed segment failed its CRC or framing check."""


@dataclass(frozen=True)
class Frame:
    """One decoded frame of the segment log."""

    kind: int
    state_version: int
    entity_idx: np.ndarray
    source_idx: np.ndarray
    values: np.ndarray
    sequences: np.ndarray
    flags: np.ndarray
    seed: "dict[str, Any] | None" = None

    @property
    def n_rows(self) -> int:
        return int(self.entity_idx.shape[0])


def encode_frame(
    state_version: int,
    entity_idx: np.ndarray,
    source_idx: np.ndarray,
    values: np.ndarray,
    sequences: np.ndarray,
    flags: np.ndarray,
) -> bytes:
    """Encode one observation chunk as a framed payload."""
    n = int(entity_idx.shape[0])
    payload = b"".join(
        (
            _FRAME_META.pack(FRAME_OBSERVATIONS, state_version, n),
            np.ascontiguousarray(entity_idx, dtype=_DT_ENTITY).tobytes(),
            np.ascontiguousarray(source_idx, dtype=_DT_SOURCE).tobytes(),
            np.ascontiguousarray(values, dtype=_DT_VALUE).tobytes(),
            np.ascontiguousarray(sequences, dtype=_DT_SEQUENCE).tobytes(),
            np.ascontiguousarray(flags, dtype=_DT_FLAGS).tobytes(),
        )
    )
    return frame_payload(payload)


def encode_seed_frame(state_version: int, seed: "dict[str, Any]") -> bytes:
    """Encode an aggregate-baseline seed frame (compact JSON payload)."""
    body = json.dumps(seed, separators=(",", ":"), allow_nan=False).encode("utf-8")
    return frame_payload(_FRAME_META.pack(FRAME_SEED, state_version, 0) + body)


_EMPTY_U4 = np.empty(0, dtype=_DT_ENTITY)
_EMPTY_F8 = np.empty(0, dtype=_DT_VALUE)
_EMPTY_I8 = np.empty(0, dtype=_DT_SEQUENCE)
_EMPTY_U1 = np.empty(0, dtype=_DT_FLAGS)


def _decode_payload(payload: bytes) -> "Frame | None":
    """Decode one CRC-verified payload; None means malformed content."""
    if len(payload) < _FRAME_META.size:
        return None
    kind, version, n_rows = _FRAME_META.unpack_from(payload, 0)
    body = payload[_FRAME_META.size:]
    if kind == FRAME_SEED:
        try:
            seed = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        return Frame(
            FRAME_SEED, version, _EMPTY_U4, _EMPTY_U4,
            _EMPTY_F8, _EMPTY_I8, _EMPTY_U1, seed=seed,
        )
    if kind != FRAME_OBSERVATIONS or len(body) != n_rows * _ROW_BYTES:
        return None
    offset = 0

    def column(dtype: np.dtype) -> np.ndarray:
        nonlocal offset
        width = dtype.itemsize * n_rows
        array = np.frombuffer(body, dtype=dtype, count=n_rows, offset=offset)
        offset += width
        return array

    return Frame(
        FRAME_OBSERVATIONS,
        version,
        column(_DT_ENTITY),
        column(_DT_SOURCE),
        column(_DT_VALUE),
        column(_DT_SEQUENCE),
        column(_DT_FLAGS),
    )


def scan_frames(raw: bytes) -> "tuple[list[Frame], int]":
    """Parse frames from ``raw``; see :func:`repro.resilience.wal.scan`."""
    return scan(raw, _decode_payload)


def read_frames(path: "str | os.PathLike[str]", *, sealed: bool = False) -> list[Frame]:
    """All clean frames of the segment at ``path`` (missing file = none).

    ``sealed=True`` asserts the file is an immutable sealed segment: any
    trailing garbage is corruption, not a recoverable torn tail.
    """
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return []
    frames, clean_offset = scan_frames(raw)
    if sealed and clean_offset != len(raw):
        raise SegmentCorruptionError(
            f"sealed segment {Path(path).name} is corrupt at byte {clean_offset}"
        )
    return frames


def segment_name(index: int) -> str:
    """Canonical file name of sealed segment ``index`` (1-based)."""
    return f"seg-{index:08d}.seg"


class SegmentLog:
    """The active (appendable) segment plus the seal operation.

    Not thread-safe: callers serialize appends (the disk store appends
    under the session's exclusive write lock, same as the WAL).  Every
    fsync of the active segment first syncs the ``sync_first`` logs.
    """

    ACTIVE_NAME = "active.seg"

    def __init__(
        self,
        directory: "str | os.PathLike[str]",
        *,
        fsync: str = "batch",
        batch_every: int = DEFAULT_BATCH_EVERY,
        sync_first: "tuple[Any, ...]" = (),
    ) -> None:
        self.directory = Path(directory)
        self.active_path = self.directory / self.ACTIVE_NAME
        self._log = AppendLog(
            self.active_path,
            fsync=fsync,
            batch_every=batch_every,
            sync_first=sync_first,
        )
        # Running shape of the active segment, maintained across appends
        # so sealing can record (rows, bytes, crc) without re-reading.
        self._active_rows = 0
        self._active_frames = 0
        self._active_crc = 0
        self._active_bytes = 0

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #

    def append(self, frame_bytes: bytes, n_rows: int, *, sync: "bool | None" = None) -> None:
        """Append one encoded frame; flushed to the OS unconditionally.

        The flush is what makes a SIGKILL after ``append`` returns lose
        nothing; the fsync policy decides power-loss durability exactly
        as for the WAL.  ``storage.after_frame`` fires once the frame is
        out of user space but before the invariant arrays absorb it.
        """
        self._log.write(frame_bytes)
        self._active_rows += int(n_rows)
        self._active_frames += 1
        self._active_crc = zlib.crc32(frame_bytes, self._active_crc)
        self._active_bytes += len(frame_bytes)
        fault_point("storage.after_frame")
        self._log.sync(sync)

    def sync(self) -> None:
        """Flush and fsync whatever has been appended so far."""
        self._log.sync()

    # ------------------------------------------------------------------ #
    # Recovery and sealing
    # ------------------------------------------------------------------ #

    def recover_active(self) -> list[Frame]:
        """Read the active segment, truncating any torn/corrupt tail.

        Must run before :meth:`append` on a directory that may have been
        written by a crashed process.  Rebuilds the running (rows, crc,
        bytes) counters.
        """
        frames, clean = self._log.recover(_decode_payload)
        self._active_rows = sum(f.n_rows for f in frames)
        self._active_frames = len(frames)
        self._active_crc = zlib.crc32(clean)
        self._active_bytes = len(clean)
        return frames

    def seal(self, index: int) -> "dict[str, Any] | None":
        """Seal the active segment as ``seg-<index>.seg``.

        Returns the manifest entry ``{"segment", "frames", "rows",
        "bytes", "crc"}`` or ``None`` when the active segment holds no
        frames (nothing to seal).  The caller writes the manifest; a
        crash between the rename and that write leaves an *orphan*
        sealed segment which attach adopts by scanning the directory.
        """
        if self._active_frames == 0:
            return None
        self._log.fsync()
        self._log.close(fsync=False)
        fault_point("storage.before_seal")
        sealed_path = self.directory / segment_name(index)
        os.rename(self.active_path, sealed_path)
        fsync_directory(self.directory)
        fault_point("storage.after_seal")
        entry = {
            "segment": sealed_path.name,
            "frames": self._active_frames,
            "rows": self._active_rows,
            "bytes": self._active_bytes,
            "crc": self._active_crc,
        }
        self._active_rows = 0
        self._active_frames = 0
        self._active_crc = 0
        self._active_bytes = 0
        return entry

    def sealed_segments(self) -> list[Path]:
        """Every sealed segment in the directory, in index order."""
        return sorted(self.directory.glob("seg-*.seg"))

    def close(self) -> None:
        """Flush, fsync (unless policy is "never") and close the handle."""
        self._log.close()

    @property
    def active_rows(self) -> int:
        """Rows currently in the active (unsealed) segment."""
        return self._active_rows

    def stats(self) -> "dict[str, Any]":
        """Counters for ``/stats``: appends, fsyncs, active-segment shape."""
        return {
            **self._log.counters(),
            "active_frames": self._active_frames,
            "active_rows": self._active_rows,
            "active_bytes": self._active_bytes,
            "fsync_policy": self._log.fsync_policy,
        }
