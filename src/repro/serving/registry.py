"""Served sessions and the thread-safe registry that multiplexes them.

:class:`ServedSession` is the concurrency boundary around one
:class:`~repro.api.session.OpenWorldSession`: a writer-preferring
reader/writer lock (ingests exclusive, estimates/queries/snapshots
shared), with every read answer flowing through the server-wide
version-keyed :class:`~repro.serving.cache.EstimateCache` and
:class:`~repro.serving.batcher.CoalescingBatcher`, and every unexpected
estimator failure feeding the session's
:class:`~repro.resilience.breaker.CircuitBreaker`.

:class:`SessionRegistry` manages the named sessions of one serving
process -- creation, lookup, deletion, aggregate statistics -- and the
state-dir persistence model:

* :meth:`save_state` checkpoints each **dirty** session into its own
  atomically-replaced JSON file under ``<state_dir>/sessions/``, then
  rotates that session's write-ahead log down to the records the
  checkpoint does not cover (clean sessions are skipped entirely);
* between checkpoints, every committed ingest is journaled to the
  session's WAL (:mod:`repro.resilience.wal`) **before** the session
  mutates, so ungraceful death (SIGKILL, OOM) loses nothing that was
  acknowledged;
* :meth:`load_state` restores the per-session checkpoints (falling back
  to a legacy monolithic ``sessions.json``, which is migrated to the
  per-session layout at the next save) and replays each WAL tail on
  top -- deduplicated by ``state_version``, so a crash *between* the
  checkpoint replace and the log rotation replays records the snapshot
  already covers exactly zero times.  Session creations are journaled
  (a ``create`` head record); deletions write a durable
  ``<name>.tombstone`` file *before* any state is unlinked, so the
  session *set* is as crash-safe as the session contents.

With ``store="disk"`` new sessions persist through
:class:`~repro.storage.store.DiskStore`: the segment log -- not the WAL
-- is the write-ahead copy of the observations, so WAL records shrink
to slim ``{"op": "ingest", "v": ..., "rows": ...}`` references, a
checkpoint becomes a segment *seal* plus a small manifest write (sealed
segments are never rewritten, unlike the JSON snapshot which re-encoded
the full sample every time), and restart is an O(1) mmap attach instead
of an O(n) JSON parse.  Served surfaces stay byte-identical across
store kinds.

The recovery invariant all of this serves: state after crash + replay is
bit-identical to the never-crashed run -- the same invariant the chunked
-vs-one-shot ingest parity rests on, extended across process death.

Served payloads are the ``repro.result/v1`` dicts of the underlying
session calls, with one deliberate exception: the ``runtime`` execution
metadata of an :class:`~repro.core.estimator.Estimate` is nulled.  A
cache hit must be byte-identical to the miss that populated it, and
wall times are the one nondeterministic field of an otherwise
deterministic payload (the experiment harness strips them from its JSON
for the same reason).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import re
import shutil
import threading
from pathlib import Path
from typing import Any

from repro.api.session import OpenWorldSession
from repro.data.records import Observation
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.wal import (
    WalCorruptionError,
    WriteAheadLog,
    fsync_directory,
    write_atomic,
)
from repro.serving.batcher import CoalescingBatcher
from repro.serving.cache import DEFAULT_CACHE_ENTRIES, EstimateCache, request_key
from repro.serving.locks import RWLock
from repro.serving.versions import VersionGate
from repro.storage.store import STORE_KINDS, DiskStore
from repro.storage.transfer import archive_header, unpack_archive
from repro.utils.exceptions import ReproError, ValidationError

__all__ = [
    "DuplicateSessionError",
    "UnknownSessionError",
    "ServedSession",
    "SessionRegistry",
    "STATE_SCHEMA",
    "SESSION_STATE_SCHEMA",
    "STATE_FILENAME",
    "WAL_DIRNAME",
    "SESSIONS_DIRNAME",
    "STORE_DIRNAME",
]

#: Envelope identifier of the registry's persisted state (and /stats).
STATE_SCHEMA = "repro.serving/v1"

#: Envelope identifier of one per-session checkpoint file.
SESSION_STATE_SCHEMA = "repro.serving-session/v1"

#: Legacy monolithic checkpoint file (read for migration, never written).
STATE_FILENAME = "sessions.json"

#: Subdirectory of the state dir holding the per-session WALs.
WAL_DIRNAME = "wal"

#: Subdirectory holding per-session checkpoint and tombstone files.
SESSIONS_DIRNAME = "sessions"

#: Subdirectory holding per-session disk stores.
STORE_DIRNAME = "store"

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class DuplicateSessionError(ValidationError):
    """A session with the requested name already exists (HTTP 409)."""


class UnknownSessionError(ValidationError):
    """No session with the requested name exists (HTTP 404)."""


def _served_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """Normalize a result payload for serving (null the runtime block)."""
    if "runtime" in payload:
        payload = dict(payload)
        payload["runtime"] = None
    return payload


# ---------------------------------------------------------------------- #
# WAL record conventions
# ---------------------------------------------------------------------- #
#
# Record shapes living in a session's journal:
#
#   {"op": "create", "snapshot": <SessionSnapshot envelope>}
#       Head record of a memory-store session created after the last
#       checkpoint, carrying the session's state *at registration*
#       (trivial for ``create``, possibly mid-stream for ``adopt``).  A
#       surviving create record *overrides* any same-named checkpoint
#       file: checkpointing removes create records, so one can only
#       survive when the name was (re)created afterwards.
#
#   {"op": "create_store"}
#       Head record of a disk-store session: the store directory, not
#       the journal, carries the state.
#
#   {"op": "ingest", "v": <post-ingest state_version>,
#    "observations": [[entity_id, source_id, attributes, sequence], ...]}
#       One committed ingest chunk of a memory-store session.  Replay
#       applies records with v > the restored session's state_version,
#       in order, and asserts the version matches after each -- the
#       bit-identity check.
#
#   {"op": "ingest", "v": <post-ingest state_version>, "rows": <count>}
#       Slim reference appended *after* a disk store committed the
#       chunk (the segment log is the write-ahead copy there).  Replay
#       only validates: a reference beyond the store's recovered version
#       means the store lost an acknowledged chunk.
#
#   {"op": "drop"}
#       Legacy in-file tombstone (pre per-session checkpoint files).
#       Deletions now write a durable ``<name>.tombstone`` *file*
#       before unlinking any state; the in-file form is still honored
#       on load so old state dirs migrate cleanly.


def _create_record(session: OpenWorldSession) -> "dict[str, Any] | None":
    """The WAL head record carrying the session's state at registration.

    ``None`` for sessions built around an estimator *instance*: those
    cannot be snapshotted, so they are served memory-only.
    """
    if session.default_spec is None:
        return None
    return {"op": "create", "snapshot": session.snapshot().to_dict()}


def _ingest_record(version: int, chunk: "list[Observation]") -> dict[str, Any]:
    return {
        "op": "ingest",
        "v": int(version),
        "observations": [
            [obs.entity_id, obs.source_id, dict(obs.attributes), obs.sequence]
            for obs in chunk
        ],
    }


def _decode_observations(items: "list[Any]") -> list[Observation]:
    return [
        Observation(entity_id, attributes, source_id, int(sequence))
        for entity_id, source_id, attributes, sequence in items
    ]


class ServedSession:
    """One named session behind a reader/writer lock and the answer cache.

    Parameters
    ----------
    name:
        Registry name.
    session:
        The wrapped :class:`OpenWorldSession`.
    cache / batcher:
        The server-wide answer cache and coalescer (shared across
        sessions; keys carry the epoch-qualified session name).
    epoch:
        Registry-assigned unique instance number, baked into the cache
        keys so a recreated name never reaches a predecessor's entries.
    backend / workers:
        Optional :mod:`repro.parallel` overrides passed through to
        ``estimate`` so the Monte-Carlo grid of spec-configured sessions
        shards across the server's configured backend.
    wal:
        Optional :class:`~repro.resilience.wal.WriteAheadLog` journaling
        this session's ingests (appended under the write lock, *before*
        the session mutates).
    breaker:
        Optional :class:`~repro.resilience.breaker.CircuitBreaker` fed
        by unexpected estimator failures on the compute path.
    """

    def __init__(
        self,
        name: str,
        session: OpenWorldSession,
        *,
        cache: EstimateCache,
        batcher: CoalescingBatcher,
        backend: "str | None" = None,
        workers: "int | None" = None,
        epoch: int = 0,
        wal: "WriteAheadLog | None" = None,
        breaker: "CircuitBreaker | None" = None,
    ) -> None:
        self.name = name
        self._session = session
        self._cache = cache
        self._batcher = batcher
        self._backend = backend
        self._workers = workers
        self._wal = wal
        self._breaker = breaker
        self._lock = RWLock()
        # Cache/coalescing keys carry the registry-assigned epoch, not the
        # bare name: deleting a session and recreating the name must never
        # let the new instance hit the old instance's entries (their
        # state_version counters both start at 0).
        self._cache_name = f"{name}#{epoch}"
        # THE freshness primitive of this session: every "has version v
        # arrived yet?" question -- long-poll waits, subscription pushes,
        # the cluster router's replica gate -- goes through this one
        # VersionGate rather than growing another ad-hoc mechanism.
        self._gate = VersionGate(session.state_version)
        self._stats_lock = threading.Lock()
        self._ingest_requests = 0
        self._read_requests = 0
        self._subscribers_started = 0
        self._subscribers_active = 0
        self._subscriber_pushes = 0
        self._subscriber_disconnects = 0
        # Version covered by the last durable checkpoint of this session
        # (-1 = never checkpointed, so even an empty session gets its
        # first per-session checkpoint file written).
        self.checkpointed_version = -1

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #

    def ingest(self, observations: "list[Observation] | Observation") -> dict[str, Any]:
        """Exclusive ingest; returns the post-ingest version and counts.

        Write-ahead discipline: the chunk is validated without mutating
        anything, journaled to the WAL (flushed at least to the OS), and
        only then committed -- so a SIGKILL at *any* instruction of this
        method either loses an unacknowledged chunk entirely or replays
        it exactly once, never half of it.

        Old cache entries need no explicit purge: they are keyed by the
        superseded version, unreachable from now on, and will age out of
        the LRU bound.

        A disk-store session inverts the journaling order: the store's
        segment log *is* the write-ahead copy (names + frame flushed
        before the state mutates, inside ``session.ingest``), so the WAL
        only receives a slim ``{"v", "rows"}`` reference afterwards --
        there is no second full copy of the observations to rewrite on
        every rotation.
        """
        with self._lock.write_locked():
            chunk = list(self._session.prepare_ingest(observations))
            if self._session.store_kind == "disk":
                ingested = self._session.ingest(chunk)
                if ingested and self._wal is not None:
                    self._wal.append(
                        {
                            "op": "ingest",
                            "v": self._session.state_version,
                            "rows": ingested,
                        }
                    )
            else:
                if chunk and self._wal is not None:
                    self._wal.append(
                        _ingest_record(self._session.state_version + 1, chunk)
                    )
                ingested = self._session.ingest(chunk)
            with self._stats_lock:
                self._ingest_requests += 1
            # Publish the new version while still write-locked: a waiter
            # released by this advance that immediately estimates is
            # serialized behind the ingest, so it can never observe a
            # version the session has not fully reached.
            self._gate.advance(self._session.state_version)
            return {
                "session": self.name,
                "ingested": ingested,
                "state_version": self._session.state_version,
                "n": self._session.n,
                "c": self._session.c,
            }

    # ------------------------------------------------------------------ #
    # Version waits (the unified freshness primitive)
    # ------------------------------------------------------------------ #

    @property
    def state_version(self) -> int:
        """The session's published ``state_version`` (lock-free read)."""
        return self._gate.version

    @property
    def retired(self) -> bool:
        """True once the session has been removed from its registry."""
        return self._gate.closed

    def wait_for_version(
        self, version: int, timeout: "float | None" = None
    ) -> "int | None":
        """Block until ``state_version`` reaches ``version``.

        THE freshness wait of the serving layer (see
        :mod:`repro.serving.versions`): long-poll ``?wait_version=``,
        the subscription stream, and the cluster router's replica gate
        all funnel through this method.  Returns the published version
        once reached, the current (possibly lower) version if the
        session is retired mid-wait, or ``None`` on timeout.

        Never waits under the session's reader/writer lock -- an
        abandoned waiter can therefore never block an ingest.
        """
        return self._gate.wait_for(version, timeout)

    def close_gate(self) -> None:
        """Retire the version gate, releasing every parked waiter."""
        self._gate.close()

    # ------------------------------------------------------------------ #
    # Subscriber accounting (asserted via /stats in tests)
    # ------------------------------------------------------------------ #

    def subscriber_started(self) -> None:
        with self._stats_lock:
            self._subscribers_started += 1
            self._subscribers_active += 1

    def subscriber_finished(self, *, disconnected: bool = False) -> None:
        with self._stats_lock:
            self._subscribers_active -= 1
            if disconnected:
                self._subscriber_disconnects += 1

    def subscriber_pushed(self) -> None:
        with self._stats_lock:
            self._subscriber_pushes += 1

    # ------------------------------------------------------------------ #
    # Cached, coalesced reads
    # ------------------------------------------------------------------ #

    def estimate_payload(
        self,
        spec: "str | None" = None,
        attribute: "str | None" = None,
        timeout: "float | None" = None,
        *,
        mode: "str | None" = None,
    ) -> dict[str, Any]:
        """The served ``estimate`` envelope (cache -> coalescer -> session)."""
        return self.estimate_payloads([spec], attribute, timeout=timeout, mode=mode)[0]

    def estimate_payloads(
        self,
        specs: "list[str | None]",
        attribute: "str | None" = None,
        timeout: "float | None" = None,
        *,
        mode: "str | None" = None,
    ) -> list[dict[str, Any]]:
        """Several estimator specs against one state, fanned out as a batch.

        Distinct specs run through the batcher's execution backend;
        duplicate specs (within the batch or already in flight from other
        requests) compute once.  ``timeout`` (seconds) bounds the whole
        batch; expiry raises :class:`~repro.resilience.admission.
        DeadlineExceededError` while any led computation finishes in the
        background and still reaches the cache.

        ``mode`` selects the estimation path (see
        :meth:`repro.api.session.OpenWorldSession.estimate`): delta-vs-
        batch parity makes the payloads byte-identical, so the cache key
        deliberately excludes the mode -- but ``mode="delta"`` still
        validates estimator capability *before* the cache lookup, so an
        unsupported request fails loudly instead of riding a warm entry.
        """
        detail = attribute or self._session.attribute
        if mode == "delta":
            for spec in specs:
                self._session.validate_delta(spec, attribute)
        pairs = []
        results: list[Any] = [None] * len(specs)
        for index, spec in enumerate(specs):
            spec_key = self._canonical_spec(spec)
            key = request_key(
                self._cache_name, self._session.state_version, "estimate", spec_key, detail
            )
            cached = self._cache.get(key)
            with self._stats_lock:
                self._read_requests += 1
            if cached is not None:
                results[index] = cached
            else:
                pairs.append(
                    (
                        index,
                        key,
                        self._estimate_computation(
                            spec, spec_key, attribute, detail, mode
                        ),
                    )
                )
        if pairs:
            computed = self._batcher.execute_many(
                [(key, fn) for _, key, fn in pairs], timeout=timeout
            )
            for (index, _, _), payload in zip(pairs, computed):
                results[index] = payload
        return results

    def estimate_payload_at(
        self,
        spec: "str | None" = None,
        attribute: "str | None" = None,
        timeout: "float | None" = None,
        *,
        mode: "str | None" = None,
    ) -> "tuple[int, dict[str, Any]]":
        """A consistent ``(state_version, payload)`` pair.

        The subscription push path needs to label each pushed envelope
        with the exact version it reflects.  The cached read path does
        not expose the version it hit, so this re-reads the published
        version around the lookup and only accepts the pair when both
        reads agree -- versions are monotonic, so agreement means the
        cache lookup and any computation in between were keyed at that
        version.  Bounded retries; the race window is one ingest wide.
        """
        for _ in range(100):
            before = self._gate.version
            payload = self.estimate_payloads(
                [spec], attribute, timeout=timeout, mode=mode
            )[0]
            if self._gate.version == before:
                return before, payload
        # Pathological write pressure: serve the freshest pair under the
        # read lock directly (uncoalesced, but exact).
        with self._lock.read_locked():
            version = self._session.state_version
            estimate = self._guarded(
                lambda: self._session.estimate(attribute, spec, mode=mode)
            )
        return version, _served_payload(estimate.to_dict())

    def _estimate_computation(self, spec, spec_key, attribute, detail, mode=None):
        # backend/workers overrides only apply to spec-configured
        # estimators; a session built around an estimator *instance*
        # (in-process embedding only) rejects them.
        spec_configured = spec is not None or self._session.default_spec is not None

        def compute() -> dict[str, Any]:
            with self._lock.read_locked():
                # Version and estimate are read under one shared-lock
                # acquisition: ingests hold the write side, so this
                # (version, payload) pair is consistent by construction --
                # the invariant that makes version-keyed caching exact.
                version = self._session.state_version
                estimate = self._guarded(
                    lambda: self._session.estimate(
                        attribute,
                        spec,
                        backend=self._backend if spec_configured else None,
                        workers=self._workers if spec_configured else None,
                        mode=mode,
                    )
                )
            payload = _served_payload(estimate.to_dict())
            self._cache.put(
                request_key(self._cache_name, version, "estimate", spec_key, detail),
                payload,
            )
            return payload

        return compute

    def query_payload(
        self,
        sql: str,
        spec: "str | None" = None,
        closed_world: bool = False,
        timeout: "float | None" = None,
    ) -> dict[str, Any]:
        """The served ``query`` envelope, cached and coalesced like estimates."""
        if not isinstance(sql, str) or not sql.strip():
            raise ValidationError("query requires a non-empty 'sql' string")
        spec_key = self._canonical_spec(spec)
        detail = f"{'closed' if closed_world else 'open'}:{sql}"
        key = request_key(
            self._cache_name, self._session.state_version, "query", spec_key, detail
        )
        with self._stats_lock:
            self._read_requests += 1
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        def compute() -> dict[str, Any]:
            with self._lock.read_locked():
                version = self._session.state_version
                answer = self._guarded(
                    lambda: self._session.query(
                        sql, spec=spec, closed_world=closed_world
                    )
                )
            payload = _served_payload(answer.to_dict())
            self._cache.put(
                request_key(self._cache_name, version, "query", spec_key, detail),
                payload,
            )
            return payload

        return self._batcher.execute(key, compute, timeout=timeout)

    def _guarded(self, fn):
        """Run one estimator computation through the circuit breaker.

        :class:`~repro.utils.exceptions.ReproError` subclasses are
        client-class outcomes (bad spec, empty session) and say nothing
        about estimator health; anything else is an estimator failure
        and counts toward tripping the breaker.
        """
        breaker = self._breaker
        if breaker is None:
            return fn()
        breaker.before_call()
        try:
            result = fn()
        except ReproError:
            raise
        except BaseException:
            breaker.record_failure()
            raise
        breaker.record_success()
        return result

    def snapshot_payload(self) -> dict[str, Any]:
        """The session's snapshot envelope (shared lock, never cached)."""
        with self._lock.read_locked():
            return self._session.snapshot().to_dict()

    # ------------------------------------------------------------------ #
    # WAL checkpointing
    # ------------------------------------------------------------------ #

    def checkpoint_wal(self, snapshot_version: int) -> None:
        """Rotate the WAL down to records newer than ``snapshot_version``.

        Runs under the write lock so no ingest can append between the
        cut-off decision and the rewrite.  Called *after* the checkpoint
        file is durably in place: the create record (now redundant) and
        every covered ingest record are dropped; anything newer -- an
        ingest that raced the snapshot collection -- is kept.
        """
        if self._wal is None:
            return
        with self._lock.write_locked():
            records = self._wal.recover()
            keep = [
                record
                for record in records
                if record.get("op") == "ingest"
                and int(record.get("v", 0)) > int(snapshot_version)
            ]
            self._wal.rewrite(keep)

    @property
    def dirty(self) -> bool:
        """True when state has advanced past the last durable checkpoint."""
        return self._session.state_version > self.checkpointed_version

    def seal_store(self) -> int:
        """Seal a disk store's active segment (the disk-mode checkpoint).

        Under the write lock, so the sealed version is exact.  Returns
        the session's ``state_version`` the seal covers.
        """
        with self._lock.write_locked():
            version = self._session.state_version
            self._session.store.seal()
            return version

    @contextlib.contextmanager
    def store_archive(self):
        """Freeze the session and yield ``(header, files, version)``.

        The disk-mode transfer source: seals the active segment, syncs
        every store file, and yields the archive header plus the file
        list (see :func:`repro.storage.transfer.archive_header`).  The
        write lock is held for the whole ``with`` block, so the files
        cannot change while the caller streams them -- a migration has
        quiesced the session anyway, which bounds the lock hold time.
        """
        with self._lock.write_locked():
            store = self._session.store
            if store.kind != "disk":
                raise ValidationError(
                    f"session {self.name!r} is not disk-backed; transfer it "
                    "with the snapshot envelope (GET .../snapshot) instead"
                )
            version = self._session.state_version
            store.seal()
            store.sync()
            header, files = archive_header(
                store.directory, session=self.name, state_version=version
            )
            yield header, files, version

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def info(self) -> dict[str, Any]:
        """JSON-safe description for session listings and ``/stats``."""
        with self._lock.read_locked():
            session = self._session
            spec = session.default_spec
            return {
                "session": self.name,
                "attribute": session.attribute,
                "table_name": session.table_name,
                "estimator": spec.to_string() if spec is not None else None,
                "n": session.n,
                "c": session.c,
                "n_ingested": session.n_ingested,
                "sources": session.n_sources,
                "state_version": session.state_version,
            }

    def stats(self) -> dict[str, Any]:
        """:meth:`info` plus request counters and the resilience blocks."""
        out = self.info()
        with self._stats_lock:
            out["ingest_requests"] = self._ingest_requests
            out["read_requests"] = self._read_requests
            out["subscribers"] = {
                "started": self._subscribers_started,
                "active": self._subscribers_active,
                "pushed": self._subscriber_pushes,
                "disconnects": self._subscriber_disconnects,
                "waiters": self._gate.waiters,
            }
        out["estimator_cache"] = self._session.estimator_cache_stats()
        if self._breaker is not None:
            out["circuit_breaker"] = self._breaker.stats()
        if self._wal is not None:
            out["wal"] = self._wal.stats()
        if self._session.store_kind != "memory":
            # Memory sessions stay byte-identical to the pre-storage
            # /stats surface; only non-default stores add their block.
            out["store"] = self._session.store.stats()
        return out

    def _canonical_spec(self, spec: "str | None") -> str:
        """The spec component of cache keys ("" = the session default)."""
        from repro.api.specs import EstimatorSpec

        if spec is not None:
            return EstimatorSpec.of(spec).to_string()
        default = self._session.default_spec
        return default.to_string() if default is not None else ""


class SessionRegistry:
    """Thread-safe named :class:`ServedSession` store of one serving process.

    Parameters
    ----------
    backend / workers:
        :mod:`repro.parallel` overrides handed to every served estimate
        (``process`` here shards the Monte-Carlo grid; the batcher's
        request fan-out stays on threads).
    cache_entries:
        LRU bound of the shared answer cache.
    state_dir:
        Enables crash-safe persistence: per-session write-ahead logs
        under ``<state_dir>/wal/`` plus the per-session checkpoint
        files under ``<state_dir>/sessions/`` written by
        :meth:`save_state`.  Without it the registry is memory-only
        (the pre-WAL behavior); :meth:`save_state` / :meth:`load_state`
        may still be called with an explicit directory for
        snapshot-only persistence.
    store:
        State store of newly created sessions: ``"memory"`` (default)
        or ``"disk"`` (requires ``state_dir``; stores live under
        ``<state_dir>/store/<name>/``).  Sessions recovered by
        :meth:`load_state` keep whatever store their on-disk state
        says, regardless of this setting.
    wal_fsync / wal_batch_every:
        Durability policy of the WALs (see :class:`WriteAheadLog`).
    breaker_threshold / breaker_cooldown:
        Per-session circuit-breaker settings; ``breaker_threshold=0``
        disables the breakers.  ``breaker_clock`` is injectable for
        tests.
    """

    def __init__(
        self,
        *,
        backend: "str | None" = None,
        workers: "int | None" = None,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
        state_dir: "str | os.PathLike[str] | None" = None,
        store: str = "memory",
        wal_fsync: str = "batch",
        wal_batch_every: "int | None" = None,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
        breaker_clock: Any = None,
    ) -> None:
        if store not in STORE_KINDS:
            raise ValidationError(
                f"unknown store kind {store!r}; expected one of "
                f"{', '.join(STORE_KINDS)}"
            )
        if store == "disk" and state_dir is None:
            raise ValidationError(
                "store='disk' requires a state_dir to hold the stores"
            )
        self._backend = backend
        self._workers = workers
        self._store = store
        self.cache = EstimateCache(cache_entries)
        self.batcher = CoalescingBatcher(
            "thread" if backend == "process" else (backend or "serial"), workers
        )
        self._lock = threading.Lock()
        self._sessions: dict[str, ServedSession] = {}
        self._epochs = itertools.count(1)
        self._state_dir = Path(state_dir) if state_dir is not None else None
        self._wal_fsync = wal_fsync
        self._wal_batch_every = wal_batch_every
        self._breaker_threshold = int(breaker_threshold)
        self._breaker_cooldown = float(breaker_cooldown)
        self._breaker_clock = breaker_clock
        self._phase = "ready"
        self._phase_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # State-dir paths
    # ------------------------------------------------------------------ #

    @property
    def store_mode(self) -> str:
        """Store kind of newly created sessions ("memory" or "disk")."""
        return self._store

    def store_path(self, name: str) -> Path:
        """Directory of ``name``'s disk store (requires a state dir)."""
        if self._state_dir is None:
            raise ValidationError("disk stores require a state_dir")
        return self._state_dir / STORE_DIRNAME / name

    def _sessions_dir(self, directory: "Path | None" = None) -> Path:
        base = directory if directory is not None else self._state_dir
        if base is None:
            raise ValidationError("no state directory configured")
        return Path(base) / SESSIONS_DIRNAME

    def _checkpoint_path(self, name: str, directory: "Path | None" = None) -> Path:
        return self._sessions_dir(directory) / f"{name}.json"

    def _tombstone_path(self, name: str, directory: "Path | None" = None) -> Path:
        return self._sessions_dir(directory) / f"{name}.tombstone"

    # ------------------------------------------------------------------ #
    # Readiness
    # ------------------------------------------------------------------ #

    @property
    def phase(self) -> str:
        """Lifecycle phase: "ready", or "recovering" during WAL replay."""
        with self._phase_lock:
            return self._phase

    def _set_phase(self, phase: str) -> None:
        with self._phase_lock:
            self._phase = phase

    @property
    def ready(self) -> bool:
        """True once restore/replay has finished (or was never needed)."""
        return self.phase == "ready"

    # ------------------------------------------------------------------ #
    # Session lifecycle
    # ------------------------------------------------------------------ #

    def create(
        self,
        name: str,
        attribute: str,
        *,
        table_name: str = "data",
        estimator: str = "bucket",
        count_method: str = "chao92",
    ) -> ServedSession:
        """Create and register a fresh named session (409 on duplicates)."""
        self._validated_name(name)
        session = OpenWorldSession(
            attribute,
            table_name=table_name,
            estimator=estimator,
            count_method=count_method,
            store=self._new_store(name),
        )
        try:
            return self._register(name, session, journal_create=True)
        except DuplicateSessionError:
            session.close()
            raise

    def _new_store(self, name: str):
        """A fresh store for a new session ``name`` (None = memory default)."""
        if self._store != "disk":
            return None
        with self._lock:
            registered = name in self._sessions
        path = self.store_path(name)
        if not registered and path.exists():
            # Leftover store of a dead incarnation (a crash between the
            # durable tombstone and the directory unlink): the tombstone
            # made the deletion authoritative, so this is garbage.
            shutil.rmtree(path)
        return DiskStore(path, fsync=self._wal_fsync, **(
            {"batch_every": self._wal_batch_every}
            if self._wal_batch_every is not None
            else {}
        ))

    def adopt(self, name: str, session: OpenWorldSession) -> ServedSession:
        """Register an existing session object under ``name``."""
        self._validated_name(name)
        return self._register(name, session, journal_create=True)

    def restore_session(
        self, name: str, payload: "dict[str, Any]"
    ) -> ServedSession:
        """Materialize ``name`` from a snapshot envelope (replace-if-newer).

        The receiving half of a cluster migration or replica push.  The
        semantics make retries safe and the migration fence checkable:

        * no current session -> restore and register (journaling a WAL
          create record carrying the envelope, so the copy survives a
          crash of *this* worker too);
        * current session at an **older** ``state_version`` -> replace
          it (a replica catching up, or a re-migration onto a stale
          leftover);
        * current session at the **same or newer** version -> no-op
          that keeps the current instance (the idempotent-retry case).

        Either way the returned session's ``info()['state_version']`` is
        what the caller fences on: it equals the envelope's version
        exactly when this worker now holds the transferred state.
        """
        self._validated_name(name)
        if self._store == "disk":
            return self._restore_session_disk(name, payload)
        session = OpenWorldSession.restore(payload)
        with self._lock:
            existing = self._sessions.get(name)
        if existing is not None:
            with existing._lock.read_locked():
                current_version = existing._session.state_version
            if current_version >= session.state_version:
                return existing
            self.remove(name)
        return self._register(name, session, journal_create=True)

    def _restore_session_disk(
        self, name: str, payload: "dict[str, Any]"
    ) -> ServedSession:
        """Disk-mode snapshot restore: seed an incoming store, promote it.

        The store is built in ``store/.incoming-<name>`` and only moved
        to its final path once fully seeded, so a crash mid-restore can
        never leave a half-written store under the live name; the boot
        scavenger (:meth:`_scavenge_store_dir`) discards interrupted
        promotions -- they were never acknowledged, so the sender
        retries them.
        """
        incoming = self.store_path(f".incoming-{name}")
        if incoming.exists():
            shutil.rmtree(incoming)
        store = DiskStore(incoming, fsync=self._wal_fsync)
        try:
            session = OpenWorldSession.restore(payload, store=store)
            store.sync()
            (incoming / ".complete").touch()
        except BaseException:
            store.close()
            shutil.rmtree(incoming, ignore_errors=True)
            raise
        version = session.state_version
        session.close()
        return self._promote_incoming(name, incoming, version)

    def restore_store(self, name: str, read) -> ServedSession:
        """Receive a streamed store archive (the disk-mode migration body).

        ``read(n)`` supplies the raw archive bytes (header line + file
        contents, see :mod:`repro.storage.transfer`).  The archive is
        unpacked into ``store/.incoming-<name>`` and attached there to
        validate its integrity before promotion; the replace-if-newer
        and fencing semantics are exactly those of
        :meth:`restore_session`.
        """
        self._validated_name(name)
        if self._store != "disk":
            raise ValidationError(
                "this server keeps sessions in memory (--store memory); "
                "push a snapshot envelope to .../restore instead"
            )
        incoming = self.store_path(f".incoming-{name}")
        if incoming.exists():
            shutil.rmtree(incoming)
        try:
            unpack_archive(read, incoming)
            store = DiskStore(incoming, fsync=self._wal_fsync)
            session = OpenWorldSession.attach(store)
        except BaseException:
            shutil.rmtree(incoming, ignore_errors=True)
            raise
        version = session.state_version
        session.close()
        return self._promote_incoming(name, incoming, version)

    def _promote_incoming(
        self, name: str, incoming: Path, version: int
    ) -> ServedSession:
        """Make a fully-seeded incoming store the live one for ``name``.

        Replace-if-newer against any current session, then a single
        ``os.rename`` flips the directory into place and the session is
        re-attached from disk -- reopening after the rename is cheaper
        to reason about than proving every held fd survives it.
        """
        with self._lock:
            existing = self._sessions.get(name)
        if existing is not None:
            with existing._lock.read_locked():
                current_version = existing._session.state_version
            if current_version >= version:
                shutil.rmtree(incoming, ignore_errors=True)
                return existing
            self.remove(name)  # durable tombstone + store dir removal
        final = self.store_path(name)
        if final.exists():  # pragma: no cover - remove() already purged it
            shutil.rmtree(final)
        (incoming / ".complete").unlink(missing_ok=True)
        os.rename(incoming, final)
        attached = OpenWorldSession.attach(
            DiskStore(final, fsync=self._wal_fsync)
        )
        return self._register(name, attached, journal_create=True)

    def _register(
        self,
        name: str,
        session: OpenWorldSession,
        *,
        journal_create: bool = False,
        wal: "WriteAheadLog | None" = None,
    ) -> ServedSession:
        if wal is None and self._state_dir is not None:
            if session.store_kind == "disk":
                create: "dict[str, Any] | None" = {"op": "create_store"}
            else:
                create = _create_record(session)
            if create is not None:
                # A durable tombstone of a deleted previous incarnation
                # is superseded by this (re)creation.
                if journal_create:
                    self._tombstone_path(name).unlink(missing_ok=True)
                wal = self._open_wal(name)
                if journal_create:
                    # rewrite (not append): the file may hold stale
                    # records of a deleted previous incarnation of this
                    # name.
                    wal.rewrite([create])
        breaker = (
            CircuitBreaker(
                self._breaker_threshold,
                self._breaker_cooldown,
                **(
                    {"clock": self._breaker_clock}
                    if self._breaker_clock is not None
                    else {}
                ),
            )
            if self._breaker_threshold > 0
            else None
        )
        served = ServedSession(
            name,
            session,
            cache=self.cache,
            batcher=self.batcher,
            backend=self._backend,
            workers=self._workers,
            epoch=next(self._epochs),
            wal=wal,
            breaker=breaker,
        )
        with self._lock:
            if name in self._sessions:
                if wal is not None:
                    wal.close()
                raise DuplicateSessionError(f"session {name!r} already exists")
            self._sessions[name] = served
        return served

    def _open_wal(self, name: str) -> WriteAheadLog:
        kwargs: dict[str, Any] = {"fsync": self._wal_fsync}
        if self._wal_batch_every is not None:
            kwargs["batch_every"] = self._wal_batch_every
        return WriteAheadLog(
            self._state_dir / WAL_DIRNAME / f"{name}.wal", **kwargs
        )

    def get(self, name: str) -> ServedSession:
        """The served session called ``name`` (404 when absent)."""
        with self._lock:
            served = self._sessions.get(name)
        if served is None:
            raise UnknownSessionError(
                f"unknown session {name!r}; "
                f"{len(self._sessions)} session(s) registered"
            )
        return served

    def remove(self, name: str) -> None:
        """Forget the session called ``name`` (404 when absent).

        With a state dir, a durable ``<name>.tombstone`` file is written
        **before** any state is unlinked: a crash at any point after it
        cannot resurrect the session (load honors the tombstone and
        finishes the cleanup), and a crash before it leaves the session
        fully intact -- deletion is atomic at the tombstone write.  The
        WAL, checkpoint file and (for disk sessions) the store directory
        are then removed.

        Its cache entries become unreachable and age out of the LRU bound
        like superseded versions do: keys carry the instance's unique
        epoch, so even a recreated session with the same name can never
        hit them.
        """
        with self._lock:
            served = self._sessions.pop(name, None)
        if served is None:
            raise UnknownSessionError(f"unknown session {name!r}")
        # Retire the version gate first: every parked waiter (long-poll
        # or subscriber) wakes immediately and observes ``retired``
        # instead of blocking until its timeout against a dead name.
        served.close_gate()
        if self._state_dir is None:
            served._session.close()
            return
        # Under the session's write lock: an in-flight ingest that
        # grabbed the served object before the pop must not append
        # behind the deletion.
        with served._lock.write_locked():
            self._write_tombstone(name)
            if served._wal is not None:
                served._wal.close()
            (self._state_dir / WAL_DIRNAME / f"{name}.wal").unlink(missing_ok=True)
            self._checkpoint_path(name).unlink(missing_ok=True)
            served._session.close()
            if served._session.store_kind == "disk":
                shutil.rmtree(self.store_path(name), ignore_errors=True)

    def _write_tombstone(self, name: str) -> None:
        self._sessions_dir().mkdir(parents=True, exist_ok=True)
        write_atomic(self._tombstone_path(name), b"{}\n")

    def names(self) -> list[str]:
        """Registered session names, sorted."""
        with self._lock:
            return sorted(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def sessions(self) -> list[ServedSession]:
        """Stable-ordered served sessions (for listings and persistence)."""
        with self._lock:
            return [self._sessions[name] for name in sorted(self._sessions)]

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    def stats(self) -> dict[str, Any]:
        """The ``/stats`` payload: caches, coalescer, per-session blocks."""
        return {
            "schema": STATE_SCHEMA,
            "phase": self.phase,
            "sessions": [served.stats() for served in self.sessions()],
            "answer_cache": self.cache.stats(),
            "coalescer": self.batcher.stats(),
        }

    # ------------------------------------------------------------------ #
    # State-dir persistence
    # ------------------------------------------------------------------ #

    def _resolved_state_dir(
        self, state_dir: "str | os.PathLike[str] | None"
    ) -> Path:
        if state_dir is not None:
            return Path(state_dir)
        if self._state_dir is None:
            raise ValidationError(
                "no state directory: pass one explicitly or construct the "
                "registry with state_dir=..."
            )
        return self._state_dir

    def save_state(
        self, state_dir: "str | os.PathLike[str] | None" = None
    ) -> Path:
        """Checkpoint every **dirty** session under ``state_dir/sessions/``.

        Each session gets its own checkpoint file, written next to its
        final location, fsynced, and moved into place with
        :func:`os.replace` -- so a crash mid-write leaves that session's
        previous checkpoint intact, never a torn file, and a large
        session set no longer rewrites one monolithic JSON on every
        save.  Sessions whose ``state_version`` has not advanced since
        their last checkpoint are skipped entirely.

        Memory-store sessions checkpoint their full snapshot envelope;
        disk-store sessions *seal* their active segment (the manifest
        write inside the store is the durability point -- sealed
        segments are never rewritten) and the checkpoint file holds just
        the covered version.  Either way the session's WAL is then
        rotated down to the records the checkpoint does not cover, and
        leftovers of deleted sessions (tombstones whose state is gone,
        orphan journals) are purged.

        Returns the ``sessions/`` directory.
        """
        directory = self._resolved_state_dir(state_dir)
        sessions_dir = self._sessions_dir(directory)
        sessions_dir.mkdir(parents=True, exist_ok=True)
        legacy = directory / STATE_FILENAME
        for served in self.sessions():
            if not served.dirty:
                continue
            if served._session.default_spec is None:
                continue  # estimator-instance sessions are memory-only
            if served._session.store_kind == "disk":
                version = served.seal_store()
                payload: dict[str, Any] = {
                    "schema": SESSION_STATE_SCHEMA,
                    "store": "disk",
                    "state_version": version,
                }
            else:
                snapshot = served.snapshot_payload()
                version = int(snapshot["state_version"])
                payload = {
                    "schema": SESSION_STATE_SCHEMA,
                    "store": "memory",
                    "snapshot": snapshot,
                }
            self._write_checkpoint_file(
                self._checkpoint_path(served.name, directory), payload
            )
            # The checkpoint is durable; rotate the journal behind it.
            served.checkpoint_wal(version)
            served.checkpointed_version = max(
                served.checkpointed_version, version
            )
        # Every live session now has its own file; the legacy monolithic
        # checkpoint (if this state dir predates the split) is stale the
        # moment any per-session file supersedes it, so drop it.
        if legacy.exists():
            legacy.unlink()
            fsync_directory(directory)
        self._purge_orphan_wals(directory)
        self._purge_dead_state(directory)
        return sessions_dir

    @staticmethod
    def _write_checkpoint_file(path: Path, payload: "dict[str, Any]") -> None:
        raw = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        write_atomic(path, raw.encode("utf-8"), fault="registry.before_replace")

    def _purge_dead_state(self, directory: Path) -> None:
        """Clean up leftovers of deleted sessions (idempotent, crash-safe).

        A tombstone file is only unlinked once every trace of its
        session (journal, checkpoint, store directory) is gone, so a
        crash in the middle of this sweep re-runs it harmlessly.
        """
        sessions_dir = self._sessions_dir(directory)
        with self._lock:
            live = set(self._sessions)
        if sessions_dir.is_dir():
            for path in sessions_dir.glob("*.tombstone"):
                name = path.name[: -len(".tombstone")]
                if name in live:
                    continue  # recreated name; _register clears it
                (directory / WAL_DIRNAME / f"{name}.wal").unlink(missing_ok=True)
                (sessions_dir / f"{name}.json").unlink(missing_ok=True)
                store_dir = directory / STORE_DIRNAME / name
                if store_dir.exists():
                    shutil.rmtree(store_dir, ignore_errors=True)
                path.unlink(missing_ok=True)
            for path in sessions_dir.glob("*.json"):
                if path.stem not in live:
                    path.unlink(missing_ok=True)

    def _purge_orphan_wals(self, directory: Path) -> None:
        wal_dir = directory / WAL_DIRNAME
        if not wal_dir.is_dir():
            return
        with self._lock:
            live = set(self._sessions)
        for path in wal_dir.glob("*.wal"):
            if path.stem not in live:
                path.unlink(missing_ok=True)

    def load_state(
        self, state_dir: "str | os.PathLike[str] | None" = None
    ) -> list[str]:
        """Restore the checkpoint, then replay each WAL tail on top.

        Missing state files are not an error (first boot of a fresh
        ``--state-dir``).  Torn or corrupt WAL tails are truncated at
        the last clean record boundary (CRC framing); a record that
        replays to the *wrong* state version raises
        :class:`~repro.resilience.wal.WalCorruptionError` -- that is a
        bug or foreign tampering, not a crash artifact, and silently
        serving wrong answers is worse than refusing to start.

        Sets :attr:`phase` to ``"recovering"`` for the duration, so the
        HTTP readiness endpoint reports 503 until every session is
        byte-exact.  Returns the restored names.
        """
        directory = self._resolved_state_dir(state_dir)
        self._set_phase("recovering")
        try:
            restored = self._load_state(directory)
        finally:
            self._set_phase("ready")
        return restored

    def _load_state(self, directory: Path) -> list[str]:
        self._scavenge_store_dir(directory)
        # Legacy monolithic checkpoint (pre per-session files): read it,
        # treat every entry as never-checkpointed so the next save_state
        # migrates it to the per-session layout and unlinks it.
        target = directory / STATE_FILENAME
        legacy: dict[str, Any] = {}
        if target.exists():
            payload = json.loads(target.read_text())
            if not isinstance(payload, dict) or payload.get("schema") != STATE_SCHEMA:
                raise ValidationError(
                    f"{target} is not a {STATE_SCHEMA!r} state file"
                )
            legacy = payload.get("sessions", {})
        checkpoints: dict[str, dict[str, Any]] = {}
        tombstones: set[str] = set()
        sessions_dir = self._sessions_dir(directory)
        if sessions_dir.is_dir():
            for path in sorted(sessions_dir.glob("*.tombstone")):
                tombstones.add(path.name[: -len(".tombstone")])
            for path in sorted(sessions_dir.glob("*.json")):
                payload = json.loads(path.read_text())
                if (
                    not isinstance(payload, dict)
                    or payload.get("schema") != SESSION_STATE_SCHEMA
                ):
                    raise ValidationError(
                        f"{path} is not a {SESSION_STATE_SCHEMA!r} checkpoint"
                    )
                checkpoints[path.stem] = payload
        stores: dict[str, Path] = {}
        store_root = directory / STORE_DIRNAME
        if store_root.is_dir():
            for path in sorted(store_root.iterdir()):
                if path.is_dir() and not path.name.startswith("."):
                    if (path / "manifest.json").is_file():
                        stores[path.name] = path
        journals: dict[str, tuple[WriteAheadLog, list[dict[str, Any]]]] = {}
        if self._state_dir is not None and directory == self._state_dir:
            wal_dir = directory / WAL_DIRNAME
            if wal_dir.is_dir():
                for path in sorted(wal_dir.glob("*.wal")):
                    wal = self._open_wal(path.stem)
                    journals[path.stem] = (wal, wal.recover())
        restored = []
        names = set(legacy) | set(checkpoints) | set(stores) | set(journals)
        for name in sorted(names | tombstones):
            wal, records = journals.get(name, (None, []))
            if name in tombstones:
                # Deleted: the durable tombstone is authoritative over
                # any trace a crash left behind.  Finish the cleanup.
                if wal is not None:
                    wal.close()
                (directory / WAL_DIRNAME / f"{name}.wal").unlink(missing_ok=True)
                self._checkpoint_path(name, directory).unlink(missing_ok=True)
                if name in stores:
                    shutil.rmtree(stores[name], ignore_errors=True)
                self._tombstone_path(name, directory).unlink(missing_ok=True)
                continue
            if records and records[0].get("op") == "drop":
                # Legacy in-file tombstone.
                wal.close()
                (directory / WAL_DIRNAME / f"{name}.wal").unlink(missing_ok=True)
                continue
            create_head = records[0] if records and records[0].get("op") == "create" else None
            checkpointed = -1
            if create_head is not None:
                # Created (or recreated) after the last checkpoint: the
                # journal, not a stale checkpoint entry, is authoritative.
                session = OpenWorldSession.restore(create_head["snapshot"])
                self._replay(name, session, records)
            elif name in stores:
                session = self._attach_store_session(name, stores[name], records)
                entry = checkpoints.get(name)
                if entry is not None and entry.get("store") == "disk":
                    checkpointed = int(entry.get("state_version", -1))
            elif name in checkpoints:
                entry = checkpoints[name]
                if entry.get("store") == "disk":
                    raise WalCorruptionError(
                        f"checkpoint for {name!r} references a disk store "
                        f"but {store_root / name} holds none"
                    )
                session = OpenWorldSession.restore(entry["snapshot"])
                checkpointed = session.state_version
                self._replay(name, session, records)
            elif name in legacy:
                session = OpenWorldSession.restore(legacy[name])
                self._replay(name, session, records)
            else:
                raise WalCorruptionError(
                    f"journal {name!r} has no create record and no "
                    "checkpoint entry; cannot reconstruct the session"
                )
            served = self._register(name, session, wal=wal)
            served.checkpointed_version = checkpointed
            restored.append(name)
        return restored

    def _attach_store_session(
        self,
        name: str,
        store_dir: Path,
        records: "list[dict[str, Any]]",
    ) -> OpenWorldSession:
        """O(1) re-attach of a disk store, validating the WAL references.

        The store's segment log was the write-ahead copy, so nothing is
        replayed from the WAL; its slim references only cross-check that
        the store recovered everything it acknowledged.
        """
        store = DiskStore(store_dir, fsync=self._wal_fsync, **(
            {"batch_every": self._wal_batch_every}
            if self._wal_batch_every is not None
            else {}
        ))
        session = OpenWorldSession.attach(store)
        for record in records:
            if record.get("op") != "ingest":
                continue
            version = int(record.get("v", 0))
            if version > session.state_version:
                raise WalCorruptionError(
                    f"journal {name!r} references state_version {version} "
                    f"but the store recovered only {session.state_version}; "
                    "the store lost an acknowledged chunk"
                )
        return session

    def _scavenge_store_dir(self, directory: Path) -> None:
        """Discard interrupted store promotions (crash mid snapshot-restore).

        ``.incoming-<name>`` directories are only renamed into place
        *before* the restored session is registered and acknowledged, so
        any still present at boot belongs to an unacknowledged transfer
        the sender will retry -- discard, never adopt.
        """
        store_root = directory / STORE_DIRNAME
        if not store_root.is_dir():
            return
        for path in store_root.iterdir():
            if path.is_dir() and path.name.startswith(".incoming-"):
                shutil.rmtree(path, ignore_errors=True)

    @staticmethod
    def _replay(name: str, session: OpenWorldSession, records: list) -> None:
        for record in records:
            if record.get("op") != "ingest":
                continue
            version = int(record.get("v", 0))
            if version <= session.state_version:
                continue  # already covered by the checkpoint
            if version != session.state_version + 1:
                raise WalCorruptionError(
                    f"journal {name!r} jumps from state_version "
                    f"{session.state_version} to {version}; refusing to "
                    "replay a gapped log"
                )
            session.ingest(_decode_observations(record["observations"]))
            if session.state_version != version:
                raise WalCorruptionError(
                    f"replaying journal {name!r} reached state_version "
                    f"{session.state_version}, record claims {version}"
                )

    @staticmethod
    def _validated_name(name: str) -> None:
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ValidationError(
                f"invalid session name {name!r}; names are 1-64 characters "
                "of [A-Za-z0-9._-] and start with a letter or digit"
            )
