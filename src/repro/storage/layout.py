"""On-disk layout of one session store, and the manifest that anchors it.

A disk-backed session lives in one directory::

    <store_dir>/
        manifest.json          # atomic (os.replace) anchor, see below
        segments/
            active.seg         # appendable segment (repro.storage.segments)
            seg-00000001.seg   # sealed, immutable
            ...
        names/
            entities.dat       # first-seen-order name dictionaries
            sources.dat        #   (repro.storage.names)
        invariants/
            meta.bin           # mmapped aggregate state
            counts.u64  values.f64  sources.u64  freq.u64

``manifest.json`` is the only file replaced in place (scratch + fsync +
``os.replace`` + directory fsync: :func:`repro.resilience.wal.write_atomic`,
the same writer as the registry's checkpoint files) and
records: the session config (attribute, table name, default estimator
spec, count method), the seeded source sizes, the sealed-segment list
with per-file (frames, rows, bytes, crc32), and the counters at the
last seal.  Everything the manifest does not cover is recovered from
the active segment's clean tail -- so a crash at *any* instruction
between two manifest writes loses nothing durable.

Sealed segments that a crash orphaned (renamed before the manifest
write -- the ``storage.after_seal`` window) are adopted by scanning the
``segments/`` directory: names beyond the manifest's list are scanned
frame by frame and re-listed at the next manifest write.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.resilience.wal import write_atomic
from repro.utils.exceptions import ReproError

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "StorageError",
    "StoreLayout",
    "write_json_atomic",
]

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA = "repro.storage/v1"


class StorageError(ReproError):
    """A store directory is malformed beyond what recovery can heal."""


def write_json_atomic(path: Path, payload: "dict[str, Any]") -> None:
    """Write JSON durably and atomically (see :func:`write_atomic`)."""
    write_atomic(path, json.dumps(payload, indent=2, allow_nan=False).encode("utf-8"))


class StoreLayout:
    """Path arithmetic plus manifest read/write for one store directory."""

    def __init__(self, directory: "str | os.PathLike[str]") -> None:
        self.directory = Path(directory)

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def segments_dir(self) -> Path:
        return self.directory / "segments"

    @property
    def names_dir(self) -> Path:
        return self.directory / "names"

    @property
    def invariants_dir(self) -> Path:
        return self.directory / "invariants"

    @property
    def entities_path(self) -> Path:
        return self.names_dir / "entities.dat"

    @property
    def sources_path(self) -> Path:
        return self.names_dir / "sources.dat"

    def create_directories(self) -> None:
        for path in (
            self.directory,
            self.segments_dir,
            self.names_dir,
            self.invariants_dir,
        ):
            path.mkdir(parents=True, exist_ok=True)

    def exists(self) -> bool:
        """True when the directory holds an initialized store (a manifest)."""
        return self.manifest_path.is_file()

    def read_manifest(self) -> "dict[str, Any] | None":
        """The manifest payload, or None for an uninitialized directory."""
        try:
            raw = self.manifest_path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StorageError(
                f"store manifest {self.manifest_path} is not valid JSON "
                "(the manifest is replaced atomically; this is not crash "
                "damage but external corruption)"
            ) from exc
        if payload.get("schema") != MANIFEST_SCHEMA:
            raise StorageError(
                f"store manifest {self.manifest_path} has schema "
                f"{payload.get('schema')!r}; expected {MANIFEST_SCHEMA!r}"
            )
        return payload

    def write_manifest(
        self,
        *,
        config: "dict[str, Any]",
        seed_source_sizes: "list[int]",
        sealed: "list[dict[str, Any]]",
        state_version: int,
        n: int,
        n_ingested: int,
    ) -> "dict[str, Any]":
        payload = {
            "schema": MANIFEST_SCHEMA,
            "config": dict(config),
            "seed_source_sizes": list(seed_source_sizes),
            "sealed": list(sealed),
            "state_version": int(state_version),
            "n": int(n),
            "n_ingested": int(n_ingested),
        }
        write_json_atomic(self.manifest_path, payload)
        return payload

    def transfer_files(self) -> "list[Path]":
        """Every file a store transfer must ship, manifest last.

        The manifest is written last on the receiving side too, so an
        interrupted unpack never looks like a complete store.
        """
        files: list[Path] = []
        for directory in (self.segments_dir, self.names_dir, self.invariants_dir):
            if directory.is_dir():
                files.extend(sorted(p for p in directory.iterdir() if p.is_file()))
        files.append(self.manifest_path)
        return files
