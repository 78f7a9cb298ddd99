"""Unit tests of the columnar segment log: framing, torn tails, sealing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage.segments import (
    FRAME_OBSERVATIONS,
    FRAME_SEED,
    SegmentCorruptionError,
    SegmentLog,
    encode_frame,
    encode_seed_frame,
    read_frames,
    scan_frames,
    segment_name,
)
from repro.utils.exceptions import ValidationError


def make_frame(version, n, offset=0):
    """A deterministic observation frame with ``n`` rows."""
    entity = np.arange(offset, offset + n, dtype="<u4")
    source = np.arange(n, dtype="<u4") % 3
    values = np.linspace(0.5, 9.5, n)
    sequences = np.arange(n, dtype="<i8") - 1
    flags = (np.arange(n) % 2).astype("u1")
    return encode_frame(version, entity, source, values, sequences, flags)


class TestFraming:
    def test_roundtrip_preserves_every_column(self):
        raw = make_frame(7, 5, offset=10)
        frames, clean = scan_frames(raw)
        assert clean == len(raw)
        (frame,) = frames
        assert frame.kind == FRAME_OBSERVATIONS
        assert frame.state_version == 7
        assert frame.n_rows == 5
        assert frame.entity_idx.tolist() == [10, 11, 12, 13, 14]
        assert frame.source_idx.tolist() == [0, 1, 2, 0, 1]
        assert frame.values.tolist() == pytest.approx(
            np.linspace(0.5, 9.5, 5).tolist()
        )
        assert frame.sequences.tolist() == [-1, 0, 1, 2, 3]
        assert frame.flags.tolist() == [0, 1, 0, 1, 0]

    def test_column_dtypes_are_fixed_width_little_endian(self):
        frames, _ = scan_frames(make_frame(1, 3))
        (frame,) = frames
        assert frame.entity_idx.dtype == np.dtype("<u4")
        assert frame.source_idx.dtype == np.dtype("<u4")
        assert frame.values.dtype == np.dtype("<f8")
        assert frame.sequences.dtype == np.dtype("<i8")
        assert frame.flags.dtype == np.dtype("u1")

    def test_seed_frame_roundtrip(self):
        seed = {"counts": {"a": 2}, "n": 2}
        frames, clean = scan_frames(encode_seed_frame(4, seed))
        (frame,) = frames
        assert clean > 0
        assert frame.kind == FRAME_SEED
        assert frame.state_version == 4
        assert frame.n_rows == 0
        assert frame.seed == seed

    def test_concatenated_frames_parse_in_order(self):
        raw = make_frame(1, 2) + make_frame(2, 3) + make_frame(3, 1)
        frames, clean = scan_frames(raw)
        assert clean == len(raw)
        assert [f.state_version for f in frames] == [1, 2, 3]
        assert [f.n_rows for f in frames] == [2, 3, 1]


class TestTornTails:
    def test_torn_payload_stops_at_last_clean_boundary(self):
        good = make_frame(1, 4)
        raw = good + make_frame(2, 4)[:-3]
        frames, clean = scan_frames(raw)
        assert [f.state_version for f in frames] == [1]
        assert clean == len(good)

    def test_torn_header_stops_at_last_clean_boundary(self):
        good = make_frame(1, 4)
        frames, clean = scan_frames(good + b"\x00\x01\x02")
        assert len(frames) == 1
        assert clean == len(good)

    def test_corrupt_crc_stops_the_scan(self):
        good = make_frame(1, 4)
        bad = bytearray(make_frame(2, 4))
        bad[-1] ^= 0xFF  # flip one payload byte; the CRC no longer matches
        frames, clean = scan_frames(good + bytes(bad))
        assert [f.state_version for f in frames] == [1]
        assert clean == len(good)

    def test_absurd_length_header_is_treated_as_tail(self):
        good = make_frame(1, 2)
        garbage = b"\xff\xff\xff\xff" + b"\x00" * 10
        frames, clean = scan_frames(good + garbage)
        assert len(frames) == 1
        assert clean == len(good)

    def test_empty_input_is_no_frames(self):
        assert scan_frames(b"") == ([], 0)


class TestSegmentLog:
    def test_recover_active_truncates_torn_tail(self, tmp_path):
        log = SegmentLog(tmp_path, fsync="never")
        log.append(make_frame(1, 3), 3)
        log.append(make_frame(2, 2), 2)
        log.close()
        raw = log.active_path.read_bytes()
        log.active_path.write_bytes(raw + make_frame(3, 2)[:-5])

        recovered = SegmentLog(tmp_path, fsync="never")
        frames = recovered.recover_active()
        assert [f.state_version for f in frames] == [1, 2]
        assert recovered.active_rows == 5
        assert recovered.active_path.read_bytes() == raw  # tail gone

    def test_append_after_recovery_extends_cleanly(self, tmp_path):
        log = SegmentLog(tmp_path, fsync="never")
        log.append(make_frame(1, 3), 3)
        log.close()
        raw = log.active_path.read_bytes()
        log.active_path.write_bytes(raw + b"\x01\x02\x03")

        recovered = SegmentLog(tmp_path, fsync="never")
        recovered.recover_active()
        recovered.append(make_frame(2, 1), 1)
        recovered.close()
        frames, clean = scan_frames(recovered.active_path.read_bytes())
        assert [f.state_version for f in frames] == [1, 2]
        assert clean == recovered.active_path.stat().st_size

    def test_seal_renames_and_reports_exact_entry(self, tmp_path):
        import zlib

        log = SegmentLog(tmp_path, fsync="never")
        first, second = make_frame(1, 3), make_frame(2, 2)
        log.append(first, 3)
        log.append(second, 2)
        entry = log.seal(1)
        assert entry == {
            "segment": segment_name(1),
            "frames": 2,
            "rows": 5,
            "bytes": len(first) + len(second),
            "crc": zlib.crc32(first + second),
        }
        sealed = tmp_path / segment_name(1)
        assert sealed.is_file()
        assert not log.active_path.exists()
        assert log.active_rows == 0
        assert [f.state_version for f in read_frames(sealed, sealed=True)] == [1, 2]

    def test_seal_with_empty_active_returns_none(self, tmp_path):
        log = SegmentLog(tmp_path, fsync="never")
        assert log.seal(1) is None
        assert not (tmp_path / segment_name(1)).exists()

    def test_sealed_segments_sort_by_index(self, tmp_path):
        log = SegmentLog(tmp_path, fsync="never")
        for index in (1, 2, 10):
            log.append(make_frame(index, 1), 1)
            log.seal(index)
        names = [p.name for p in log.sealed_segments()]
        assert names == [segment_name(1), segment_name(2), segment_name(10)]

    def test_sealed_read_rejects_trailing_garbage(self, tmp_path):
        log = SegmentLog(tmp_path, fsync="never")
        log.append(make_frame(1, 2), 2)
        log.seal(1)
        sealed = tmp_path / segment_name(1)
        sealed.write_bytes(sealed.read_bytes() + b"\x00garbage")
        with pytest.raises(SegmentCorruptionError, match="corrupt at byte"):
            read_frames(sealed, sealed=True)

    def test_read_frames_missing_file_is_empty(self, tmp_path):
        assert read_frames(tmp_path / "nope.seg") == []

    def test_batch_policy_counts_syncs(self, tmp_path):
        log = SegmentLog(tmp_path, fsync="batch", batch_every=2)
        log.append(make_frame(1, 1), 1)
        assert log.stats()["syncs"] == 0
        log.append(make_frame(2, 1), 1)
        stats = log.stats()
        assert stats["syncs"] == 1
        assert stats["unsynced"] == 0
        assert stats["appends"] == 2
        log.close()

    def test_always_policy_syncs_every_append(self, tmp_path):
        log = SegmentLog(tmp_path, fsync="always")
        log.append(make_frame(1, 1), 1)
        log.append(make_frame(2, 1), 1)
        assert log.stats()["syncs"] == 2
        log.close()

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown fsync policy"):
            SegmentLog(tmp_path, fsync="sometimes")

    def test_bad_batch_every_rejected(self, tmp_path):
        # Same validation as the write-ahead log: 0 is not "every append".
        with pytest.raises(ValidationError, match="batch_every"):
            SegmentLog(tmp_path, fsync="batch", batch_every=0)
