"""Disk-store parity and recovery against the in-memory oracle.

The contract under test: a :class:`~repro.storage.store.DiskStore`
session serves **byte-identical** payloads to a
:class:`~repro.storage.store.MemoryStore` session fed the same stream
-- including dict iteration order, which the JSON serializations
inherit -- and re-attaching the directory after a close (clean or not)
recovers exactly the durable prefix.
"""

from __future__ import annotations

import os

import pytest

from repro.api.session import OpenWorldSession
from repro.resilience.faults import InjectedFaultError, arm, disarm
from repro.storage.store import DiskStore, MemoryStore, open_store
from repro.storage.layout import StorageError
from repro.utils.exceptions import ValidationError
from storage_helpers import (
    ATTRIBUTE,
    CHUNKS,
    ESTIMATOR,
    assert_same_surfaces,
    disk_session,
    memory_session,
    observations,
)


@pytest.fixture(autouse=True)
def _no_armed_faults():
    disarm()
    yield
    disarm()


class TestParity:
    def test_every_surface_byte_identical(self, tmp_path):
        disk = disk_session(tmp_path / "store", CHUNKS)
        assert_same_surfaces(disk, memory_session(CHUNKS))

    def test_parity_holds_after_each_chunk(self, tmp_path):
        disk = disk_session(tmp_path / "store")
        memory = memory_session()
        for chunk in CHUNKS:
            disk.ingest(observations(chunk))
            memory.ingest(observations(chunk))
            assert_same_surfaces(disk, memory)

    def test_dict_materialization_preserves_first_seen_order(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        session.store.seal()
        session.close()
        attached = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        oracle = memory_session(CHUNKS)
        state = attached.store.state
        assert list(state.counts) == list(oracle.store.state.counts)
        assert list(state.per_source) == list(oracle.store.state.per_source)
        assert state.frequencies == oracle.store.state.frequencies

    def test_counters_match_without_materializing(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        session.store.seal()
        session.close()
        store = DiskStore(tmp_path / "store")
        oracle = memory_session(CHUNKS)
        assert not store.materialized
        assert store.n == oracle.n
        assert store.c == oracle.c
        assert store.n_sources == oracle.n_sources
        assert not store.materialized  # counters came from the mmap meta
        store.close()


class TestAttach:
    def test_attach_restores_counters_and_surfaces(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        session.store.seal()
        session.close()
        attached = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        assert attached.state_version == len(CHUNKS)
        assert attached.n_ingested == sum(len(c) for c in CHUNKS)
        assert_same_surfaces(attached, memory_session(CHUNKS))

    def test_attach_replays_unsealed_tail(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        session.close()  # never sealed: every frame sits in active.seg
        attached = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        assert attached.state_version == len(CHUNKS)
        assert_same_surfaces(attached, memory_session(CHUNKS))

    def test_attach_replays_tail_past_a_seal(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS[:2])
        session.store.seal()
        for chunk in CHUNKS[2:]:
            session.ingest(observations(chunk))
        session.close()  # chunks 3..4 are an unsealed tail
        attached = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        assert attached.state_version == len(CHUNKS)
        assert_same_surfaces(attached, memory_session(CHUNKS))

    def test_attach_can_keep_ingesting(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS[:2])
        session.store.seal()
        session.close()
        attached = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        for chunk in CHUNKS[2:]:
            attached.ingest(observations(chunk))
        assert_same_surfaces(attached, memory_session(CHUNKS))

    def test_empty_store_refuses_attach(self, tmp_path):
        store = DiskStore(tmp_path / "store")
        with pytest.raises(ValidationError, match="no session state"):
            OpenWorldSession.attach(store)


class TestRecovery:
    def test_torn_active_tail_loses_exactly_the_torn_chunk(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        session.close()
        active = tmp_path / "store" / "segments" / "active.seg"
        active.write_bytes(active.read_bytes()[:-5])
        # Simulate power loss: the invariant meta that absorbed the torn
        # chunk did not survive either, so the segments are authoritative.
        os.unlink(tmp_path / "store" / "invariants" / "meta.bin")
        attached = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        assert attached.state_version == len(CHUNKS) - 1
        assert_same_surfaces(attached, memory_session(CHUNKS[:-1]))

    def test_committed_arrays_survive_a_torn_segment_tail(self, tmp_path):
        # SIGKILL ordering: the arrays committed the chunk before the
        # tail was torn (external damage), so the mmap copy still serves
        # the full state -- aggregates never depend on re-reading frames.
        session = disk_session(tmp_path / "store", CHUNKS)
        session.close()
        active = tmp_path / "store" / "segments" / "active.seg"
        active.write_bytes(active.read_bytes()[:-5])
        attached = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        assert attached.state_version == len(CHUNKS)
        assert_same_surfaces(attached, memory_session(CHUNKS))

    def test_applying_flag_forces_rebuild_from_segments(self, tmp_path):
        from repro.storage.invariants import InvariantStore

        session = disk_session(tmp_path / "store", CHUNKS)
        session.close()
        # A crash between begin_apply and commit leaves the flag raised.
        invariants = InvariantStore(tmp_path / "store" / "invariants")
        invariants.begin_apply()
        invariants.close()
        store = DiskStore(tmp_path / "store")
        attached = OpenWorldSession.attach(store)
        assert attached.state_version == len(CHUNKS)
        assert_same_surfaces(attached, memory_session(CHUNKS))
        # The rebuild rewrote the arrays and cleared the flag: a second
        # attach takes the fast path again.
        attached.close()
        fresh = DiskStore(tmp_path / "store")
        assert not fresh.materialized
        fresh.close()

    def test_corrupt_meta_forces_rebuild_from_segments(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        session.close()
        meta = tmp_path / "store" / "invariants" / "meta.bin"
        raw = bytearray(meta.read_bytes())
        raw[3] ^= 0xFF  # fails the CRC check
        meta.write_bytes(bytes(raw))
        attached = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        assert attached.state_version == len(CHUNKS)
        assert_same_surfaces(attached, memory_session(CHUNKS))

    def test_orphan_sealed_segment_is_adopted(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        arm("storage.after_seal:raise")
        with pytest.raises(InjectedFaultError):
            session.store.seal()  # renamed, but the manifest write was lost
        disarm()
        session.close()
        sealed = tmp_path / "store" / "segments" / "seg-00000001.seg"
        assert sealed.is_file()

        store = DiskStore(tmp_path / "store")
        attached = OpenWorldSession.attach(store)
        assert attached.state_version == len(CHUNKS)
        assert_same_surfaces(attached, memory_session(CHUNKS))
        # The next seal writes the manifest that now lists the orphan.
        assert store.seal()
        attached.close()
        final = DiskStore(tmp_path / "store")
        manifest = final._layout.read_manifest()
        assert [e["segment"] for e in manifest["sealed"]] == [sealed.name]
        final.close()

    def test_crash_before_seal_keeps_the_active_segment(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        arm("storage.before_seal:raise")
        with pytest.raises(InjectedFaultError):
            session.store.seal()
        disarm()
        session.close()
        assert (tmp_path / "store" / "segments" / "active.seg").is_file()
        attached = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        assert attached.state_version == len(CHUNKS)
        assert_same_surfaces(attached, memory_session(CHUNKS))

    def test_data_without_manifest_or_invariants_fails_loudly(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS)
        session.close()
        os.unlink(tmp_path / "store" / "manifest.json")
        os.unlink(tmp_path / "store" / "invariants" / "meta.bin")
        with pytest.raises(StorageError, match="no manifest"):
            DiskStore(tmp_path / "store")


class TestSeedAdoption:
    def test_restore_into_disk_store_matches_memory(self, tmp_path):
        snapshot = memory_session(CHUNKS[:2]).snapshot().to_dict()
        restored = OpenWorldSession.restore(
            snapshot, store=DiskStore(tmp_path / "store")
        )
        oracle = OpenWorldSession.restore(snapshot)
        assert_same_surfaces(restored, oracle)
        for chunk in CHUNKS[2:]:
            restored.ingest(observations(chunk))
            oracle.ingest(observations(chunk))
        assert_same_surfaces(restored, oracle)

    def test_seed_frame_survives_reattach(self, tmp_path):
        snapshot = memory_session(CHUNKS[:2]).snapshot().to_dict()
        restored = OpenWorldSession.restore(
            snapshot, store=DiskStore(tmp_path / "store")
        )
        for chunk in CHUNKS[2:]:
            restored.ingest(observations(chunk))
        restored.store.seal()
        restored.close()
        attached = OpenWorldSession.attach(DiskStore(tmp_path / "store"))
        oracle = OpenWorldSession.restore(snapshot)
        for chunk in CHUNKS[2:]:
            oracle.ingest(observations(chunk))
        assert attached.state_version == restored.state_version
        assert_same_surfaces(attached, oracle)

    def test_load_state_refuses_a_nonempty_store(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS[:1])
        snapshot = memory_session(CHUNKS[:2]).snapshot().to_dict()
        with pytest.raises(StorageError, match="already holds state"):
            OpenWorldSession.restore(snapshot, store=session.store)

    def test_load_state_rejects_multi_attribute_samples(self, tmp_path):
        store = DiskStore(tmp_path / "store")
        store.bind_config(
            {
                "attribute": ATTRIBUTE,
                "table_name": "data",
                "estimator": ESTIMATOR,
                "count_method": "chao92",
            }
        )
        with pytest.raises(StorageError, match="exactly the session attribute"):
            store.load_state(
                counts={"a": 1},
                values={"a": {ATTRIBUTE: 1.0, "other": 2.0}},
                per_source={"s1": 1},
                frequencies={1: 1},
                n=1,
                seed_source_sizes=(),
                n_ingested=1,
                state_version=1,
            )


class TestConfigBinding:
    def test_rebinding_a_different_config_is_rejected(self, tmp_path):
        session = disk_session(tmp_path / "store", CHUNKS[:1])
        session.store.seal()
        session.close()
        with pytest.raises(StorageError, match="cannot re-bind"):
            OpenWorldSession(
                "other", estimator=ESTIMATOR, store=DiskStore(tmp_path / "store")
            )

    def test_estimator_instances_cannot_be_persisted(self, tmp_path):
        store = DiskStore(tmp_path / "store")
        with pytest.raises(StorageError, match="spec-string estimator"):
            store.bind_config(
                {
                    "attribute": ATTRIBUTE,
                    "table_name": "data",
                    "estimator": object(),
                    "count_method": "chao92",
                }
            )

    def test_open_store_dispatch(self, tmp_path):
        assert isinstance(open_store("memory"), MemoryStore)
        disk = open_store("disk", tmp_path / "store", fsync="never")
        assert isinstance(disk, DiskStore)
        disk.close()
        with pytest.raises(StorageError, match="requires a directory"):
            open_store("disk")
        with pytest.raises(StorageError, match="unknown store kind"):
            open_store("tape")


class TestFsyncOrder:
    """Under "batch" a frame becomes power-loss durable at the segment
    log's periodic fsync; every name it references must be durable by
    then, or a restart after power loss finds a durable frame pointing
    past the durable names."""

    @staticmethod
    def record_fsyncs(monkeypatch, directory):
        """Record each fsync: the file it hit, that file's size, and the
        sizes of both name logs at the time."""
        names = [directory / "names" / "entities.dat", directory / "names" / "sources.dat"]
        events = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            info = os.fstat(fd)
            sizes = {path: path.stat().st_size if path.exists() else 0 for path in names}
            events.append(((info.st_dev, info.st_ino), info.st_size, sizes))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        return names, events

    @staticmethod
    def assert_names_durable_at_each_segment_fsync(directory, names, events):
        def key(path):
            info = path.stat()
            return (info.st_dev, info.st_ino)

        segment = key(directory / "segments" / "active.seg")
        by_key = {key(path): path for path in names}
        durable = {path: 0 for path in names}
        segment_fsyncs = 0
        for file_key, size, sizes in events:
            if file_key in by_key:
                durable[by_key[file_key]] = size
            elif file_key == segment:
                segment_fsyncs += 1
                assert durable == sizes
        return segment_fsyncs

    def test_names_are_durable_before_every_segment_fsync(self, tmp_path, monkeypatch):
        directory = tmp_path / "store"
        names, events = self.record_fsyncs(monkeypatch, directory)
        session = OpenWorldSession(
            ATTRIBUTE,
            estimator=ESTIMATOR,
            store=DiskStore(directory, fsync="batch", batch_every=2),
        )
        for chunk in CHUNKS:  # every chunk introduces new names
            session.ingest(observations(chunk))
        session.close()
        fsyncs = self.assert_names_durable_at_each_segment_fsync(directory, names, events)
        assert fsyncs >= len(CHUNKS) // 2

    @pytest.mark.filterwarnings("ignore::ResourceWarning")  # the "dead" writer's files
    def test_names_a_killed_writer_left_are_synced_before_its_frames(
        self, tmp_path, monkeypatch
    ):
        # A killed process leaves its names and frames in the page cache,
        # unsynced.  The next process's first segment fsync makes those
        # frames durable, so it must make their names durable first,
        # even when it appends no new name itself.
        directory = tmp_path / "store"
        disk_session(directory, CHUNKS)  # never closed: the process "died"
        names, events = self.record_fsyncs(monkeypatch, directory)
        session = OpenWorldSession.attach(
            DiskStore(directory, fsync="batch", batch_every=1)
        )
        session.ingest(observations([("a", "s1", 10.0)]))  # no new name
        fsyncs = self.assert_names_durable_at_each_segment_fsync(directory, names, events)
        assert fsyncs >= 1
        session.close()
