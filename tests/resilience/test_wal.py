"""Unit tests of the write-ahead log: framing, recovery, checkpoints."""

from __future__ import annotations

import struct

import pytest

from repro.resilience.wal import (
    DEFAULT_BATCH_EVERY,
    WriteAheadLog,
    read_records,
    scan_records,
)
from repro.utils.exceptions import ValidationError

RECORDS = [
    {"op": "create", "snapshot": {"attribute": "value"}},
    {"op": "ingest", "v": 1, "observations": [["a", "s1", {"value": 1.0}, -1]]},
    {"op": "ingest", "v": 2, "observations": [["b", "s1", {"value": 2.0}, -1]]},
]


@pytest.fixture
def wal(tmp_path):
    log = WriteAheadLog(tmp_path / "session.wal", fsync="never")
    yield log
    log.close()


class TestFraming:
    def test_round_trip(self, wal):
        for record in RECORDS:
            wal.append(record)
        wal.close()
        assert read_records(wal.path) == RECORDS

    def test_append_returns_monotonic_offsets(self, wal):
        offsets = [wal.append(record) for record in RECORDS]
        assert offsets == sorted(offsets)
        assert offsets[-1] == wal.path.stat().st_size

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_records(tmp_path / "absent.wal") == []

    def test_insertion_order_survives_the_round_trip(self, wal):
        # Dict order is semantic: snapshot payloads inside create records
        # carry first-seen counts/values order that the serving layer
        # exposes byte-for-byte after a replay.  Sorting here would make
        # a WAL-recovered session differ from the one that wrote it.
        record = {
            "op": "create",
            "snapshot": {"counts": {"gamma": 2, "alpha": 3, "beta": 1}},
        }
        wal.append(record)
        wal.close()
        raw = wal.path.read_bytes()
        assert b'{"gamma":2,"alpha":3,"beta":1}' in raw
        assert list(read_records(wal.path)[0]["snapshot"]["counts"]) == [
            "gamma",
            "alpha",
            "beta",
        ]


class TestRecovery:
    def _write_then_corrupt(self, wal, keep_bytes_off_the_end):
        for record in RECORDS:
            wal.append(record)
        wal.close()
        raw = wal.path.read_bytes()
        wal.path.write_bytes(raw[: len(raw) - keep_bytes_off_the_end])

    def test_clean_log_recovers_everything(self, wal):
        for record in RECORDS:
            wal.append(record)
        assert wal.recover() == RECORDS

    def test_torn_payload_is_truncated(self, wal):
        self._write_then_corrupt(wal, keep_bytes_off_the_end=3)
        assert wal.recover() == RECORDS[:2]
        # The torn bytes are gone: a fresh append lands on a clean boundary.
        wal.append({"op": "ingest", "v": 3, "observations": []})
        assert read_records(wal.path) == RECORDS[:2] + [
            {"op": "ingest", "v": 3, "observations": []}
        ]

    def test_torn_header_is_truncated(self, wal):
        for record in RECORDS:
            wal.append(record)
        wal.close()
        with open(wal.path, "ab") as handle:
            handle.write(b"\x00\x00\x00")  # half a header
        assert wal.recover() == RECORDS

    def test_corrupt_crc_is_truncated(self, wal):
        for record in RECORDS:
            wal.append(record)
        wal.close()
        raw = bytearray(wal.path.read_bytes())
        raw[-1] ^= 0xFF  # flip a payload byte of the last record
        wal.path.write_bytes(bytes(raw))
        assert wal.recover() == RECORDS[:2]

    def test_corruption_mid_file_drops_the_tail(self, wal):
        offsets = [wal.append(record) for record in RECORDS]
        wal.close()
        raw = bytearray(wal.path.read_bytes())
        raw[offsets[0] + 10] ^= 0xFF  # inside the second record
        wal.path.write_bytes(bytes(raw))
        # Everything from the corruption on is indistinguishable from a
        # torn tail; only the clean prefix survives.
        assert wal.recover() == RECORDS[:1]

    def test_absurd_length_header_is_treated_as_tail(self, wal):
        wal.append(RECORDS[0])
        wal.close()
        with open(wal.path, "ab") as handle:
            handle.write(struct.pack(">II", 2**31, 0) + b"xx")
        assert wal.recover() == RECORDS[:1]

    def test_scan_reports_clean_offset(self):
        records, offset = scan_records(b"garbage that is no header")
        assert records == [] and offset == 0


class TestRewrite:
    def test_rewrite_replaces_contents(self, wal):
        for record in RECORDS:
            wal.append(record)
        wal.rewrite(RECORDS[2:])
        assert read_records(wal.path) == RECORDS[2:]

    def test_rewrite_to_empty(self, wal):
        wal.append(RECORDS[0])
        wal.rewrite([])
        assert wal.path.stat().st_size == 0
        assert wal.recover() == []

    def test_append_after_rewrite(self, wal):
        wal.append(RECORDS[0])
        wal.rewrite([RECORDS[1]])
        wal.append(RECORDS[2])
        assert read_records(wal.path) == RECORDS[1:]


class TestFsyncPolicies:
    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="fsync policy"):
            WriteAheadLog(tmp_path / "x.wal", fsync="sometimes")

    def test_bad_batch_every_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="batch_every"):
            WriteAheadLog(tmp_path / "x.wal", fsync="batch", batch_every=0)

    def test_always_syncs_every_append(self, tmp_path):
        log = WriteAheadLog(tmp_path / "a.wal", fsync="always")
        for record in RECORDS:
            log.append(record)
        assert log.stats()["syncs"] == len(RECORDS)
        assert log.stats()["unsynced"] == 0
        log.close()

    def test_batch_syncs_at_the_boundary(self, tmp_path):
        log = WriteAheadLog(tmp_path / "b.wal", fsync="batch", batch_every=3)
        log.append(RECORDS[0])
        log.append(RECORDS[1])
        assert log.stats()["syncs"] == 0 and log.stats()["unsynced"] == 2
        log.append(RECORDS[2])
        assert log.stats()["syncs"] == 1 and log.stats()["unsynced"] == 0
        log.close()

    def test_never_still_flushes_to_the_os(self, tmp_path):
        log = WriteAheadLog(tmp_path / "n.wal", fsync="never")
        log.append(RECORDS[0])
        # Bytes are in the page cache even with the handle still open:
        # another reader sees the full record (this is what makes the
        # policy SIGKILL-safe, if not power-loss-safe).
        assert read_records(log.path) == RECORDS[:1]
        assert log.stats()["syncs"] == 0
        log.close()

    def test_forced_sync_overrides_batching(self, tmp_path):
        log = WriteAheadLog(tmp_path / "f.wal", fsync="batch")
        log.append(RECORDS[0], sync=True)
        assert log.stats()["syncs"] == 1
        log.close()

    def test_default_batch_every(self, tmp_path):
        log = WriteAheadLog(tmp_path / "d.wal")
        assert log.batch_every == DEFAULT_BATCH_EVERY
        assert log.fsync_policy == "batch"
        log.close()


def test_stats_surface(tmp_path):
    log = WriteAheadLog(tmp_path / "s.wal", fsync="never")
    log.append(RECORDS[0])
    stats = log.stats()
    assert set(stats) == {"appends", "syncs", "unsynced", "bytes", "fsync_policy"}
    assert stats["appends"] == 1
    assert stats["bytes"] == log.tell()
    log.close()


def test_every_acknowledged_record_survives_recovery(tmp_path, monkeypatch):
    # The writer and the recovery scan share one payload bound, shrunk
    # here so a "large" record is cheap to build.  A record beyond it
    # must be refused before any byte is written: were it written, the
    # scan would stop at it and truncate it together with every record
    # acknowledged after it.
    from repro.resilience import wal as wal_module

    monkeypatch.setattr(wal_module, "_MAX_RECORD_BYTES", 1024)
    big = {"op": "create", "snapshot": {"padding": "x" * 2048}}
    log = WriteAheadLog(tmp_path / "big.wal", fsync="never")
    acknowledged = []
    for record in (RECORDS[0], big, RECORDS[1]):
        try:
            log.append(record)
        except ValidationError:
            continue
        acknowledged.append(record)
    log.close()
    assert WriteAheadLog(tmp_path / "big.wal").recover() == acknowledged
    assert big not in acknowledged
    with pytest.raises(ValidationError, match="bound"):
        log.rewrite([big])
    assert read_records(log.path) == acknowledged
