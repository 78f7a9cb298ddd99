"""The four workloads: their inputs, deployments, traffic and oracles.

Every workload takes its inputs from the run's ``--seed`` (stream order,
chunking, synthetic rows and the request mix); the servers receive only
the generated JSON.  Why each one exists:

``read-hot``
    One server on ``serve`` defaults (memory store, WAL ``batch``), four
    sessions each seeded with the ``us-tech-employment`` stream, two
    keep-alive clients that send ``Accept-Encoding: gzip`` (as
    ``requests`` does) and alternate ``GET estimate`` (the session
    default spec) with two open-world ``POST query`` SQL aggregates.  All
    12 keys fit the 1024-entry ``EstimateCache``, so after warm-up every
    read is a cache hit.  It isolates transport, HTTP parse, cache and
    encode; estimator changes should not move its reads.
``estimate-cold``
    The paper's own workload: one session with the same data and one
    keep-alive client.  Each round ingests one observation that
    re-mentions a seen entity (the version bumps, c stays at 321, rounds
    cost the same), then sends one ``GET estimate`` carrying ``bucket``,
    Monte-Carlo, ``frequency`` and ``naive``.  Every read misses the
    cache, so ``repro.core`` sets its latency.  It is also the only
    workload that writes through the memory-store + WAL path.
``ingest-push``
    ``store=disk``, WAL ``batch``, one ``frequency`` session.  One
    keep-alive writer posts seeded 1000-row chunks over 50k entities and
    64 sources; one subscriber holds ``GET .../subscribe?mode=delta``.
    Set-up ingests the writer's whole chunk pool first, so the measured
    writes run at the entity count's plateau instead of through its
    growth.  It drives the whole write path (decode, ``prepare_ingest``,
    segment append and fsync, invariant update, slim WAL record,
    ``VersionGate`` advance) and the delta update behind each push,
    beside a reader.
``routed-read``
    ``make_cluster(workers=2, mode="process")`` with the router in this
    process, the same four sessions and read mix as ``read-hot``, two
    keep-alive clients without gzip.  The only workload that crosses the
    router -> worker hop, so ``repro.cluster`` is measured.

The paper stream is always the one the paper's numbers use (dataset seed
42, c = 321 unique companies in 500 answers); ``--seed`` permutes its
arrival order and chunking, which changes bytes but not cost, so runs on
different seeds stay comparable.
"""

from __future__ import annotations

import bisect
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any
from urllib.parse import quote

import numpy as np

from repro.cluster.run import make_cluster
from repro.datasets.registry import load_dataset
from repro.serving.http import make_server

from perfbench.client import KeepAliveClient, RequestFailed, Subscriber, closed_loop
from perfbench.oracle import Facade, Verdict, ingest_body

PAPER_DATASET = "us-tech-employment"
PAPER_DATASET_SEED = 42
PAPER_ATTRIBUTE = "employees"

#: The default spec of the warm-read sessions: a paper estimator whose
#: served envelope (~3.9 KB) is large enough to exercise gzip and encode.
WARM_SPEC = "monte-carlo?seed=1&n_runs=5&n_count_steps=10"
WARM_SESSIONS = ("paper-0", "paper-1", "paper-2", "paper-3")
QUERIES = {
    "sum": f"SELECT SUM({PAPER_ATTRIBUTE}) FROM data",
    "count": "SELECT COUNT(*) FROM data",
}

#: The four paper estimators one cold read carries.
COLD_SPECS = ["bucket", WARM_SPEC, "frequency", "naive"]
COLD_SESSION = "paper"

PUSH_SESSION = "push"
PUSH_ATTRIBUTE = "value"
PUSH_SPEC = "frequency"
PUSH_ENTITIES = 50_000
PUSH_SOURCES = 64
PUSH_CHUNK_ROWS = 1000
#: Distinct pre-generated chunks; the writer cycles through them.
PUSH_POOL_CHUNKS = 128
#: Set-up ingests the whole pool, before the subscriber attaches, in this
#: many requests of ``PUSH_POOL_CHUNKS / PUSH_SEED_REQUESTS`` chunks each.
#: The measured writes then cycle the pool from its start: the session's
#: entity count (~42k; the delta update behind each push is O(c)) is
#: already at its plateau, so the measured window is stationary instead
#: of growing c six-fold half-way through the run.
PUSH_SEED_REQUESTS = 8

WAL_FSYNC = "batch"


def paper_rows(rng: np.random.Generator) -> "list[dict[str, Any]]":
    """The paper stream as ingest rows, in a seeded arrival order."""
    stream = load_dataset(PAPER_DATASET, seed=PAPER_DATASET_SEED).run.stream
    return [
        {
            "entity_id": stream[i].entity_id,
            "source_id": stream[i].source_id,
            "attributes": {PAPER_ATTRIBUTE: float(stream[i].value(PAPER_ATTRIBUTE))},
        }
        for i in rng.permutation(len(stream))
    ]


def seeded_chunks(rows: list, rng: np.random.Generator, low: int = 50, high: int = 150) -> list:
    chunks = []
    start = 0
    while start < len(rows):
        size = int(rng.integers(low, high + 1))
        chunks.append(rows[start : start + size])
        start += size
    return chunks


def vm_hwm_kb(pid: "int | str" = "self") -> int:
    """Peak resident set size (``VmHWM``) of a process, in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


# ---------------------------------------------------------------------- #
# Deployments
# ---------------------------------------------------------------------- #


class SingleServer:
    """One in-process ``repro.serving`` server on an ephemeral port."""

    def __init__(self, state_dir: Path, store: str) -> None:
        self.state_dir = state_dir
        self.server = make_server(
            "127.0.0.1", 0, state_dir=str(state_dir), wal_fsync=WAL_FSYNC, store=store
        )
        self.address = self.server.server_address[:2]
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="perfbench-server", daemon=True
        )
        self._thread.start()

    def counters(self) -> "dict[str, int]":
        registry = self.server.registry
        return {**registry.cache.stats(), **registry.batcher.stats()}

    def peak_rss_mb(self) -> float:
        return vm_hwm_kb() / 1024.0

    def close(self) -> None:
        self.server.shutdown()
        self._thread.join()
        self.server.server_close()


class Cluster:
    """Router in this process over two ``repro.cli serve`` worker processes."""

    def __init__(self, state_dir: Path) -> None:
        self.state_dir = state_dir
        self.server, self.router, self.fleet = make_cluster(
            workers=2, mode="process", state_dir=str(state_dir), wal_fsync=WAL_FSYNC
        )
        self.address = self.server.server_address[:2]
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="perfbench-router", daemon=True
        )
        self._thread.start()
        self.router.start()

    def counters(self) -> "dict[str, int]":
        totals: "dict[str, int]" = defaultdict(int)
        for stats in self.router.aggregated_stats()["workers"].values():
            for block in ("answer_cache", "coalescer"):
                for key, value in stats.get(block, {}).items():
                    if isinstance(value, int):
                        totals[key] += value
        return dict(totals)

    def peak_rss_mb(self) -> float:
        """Router process plus every worker's ``VmHWM``."""
        total = vm_hwm_kb()
        for worker in self.fleet.workers():
            total += vm_hwm_kb(worker.pid)
        return total / 1024.0

    def close(self) -> None:
        self.router.stop()
        self.server.shutdown()
        self._thread.join()
        self.server.server_close()
        self.fleet.stop(graceful=True)


# ---------------------------------------------------------------------- #
# Recording
# ---------------------------------------------------------------------- #


class Recorder:
    """What the clients saw in one measured phase."""

    def __init__(self, tracer: Any = None) -> None:
        self.tracer = tracer
        # Both kinds exist up front: client threads only append.
        self.ops: "dict[str, list[tuple[float, float]]]" = {"read": [], "write": []}
        self.elapsed = 0.0
        # (acked state_version, send time) of every write that needs a push.
        self.versions: "list[tuple[int, float]]" = []
        self.attempted = 0
        self.failed = 0
        self.errors: "list[str]" = []
        self._lock = threading.Lock()

    def done(self, kind: str, start: float, end: float) -> None:
        with self._lock:
            self.attempted += 1
        self.ops[kind].append((start, end))
        if self.tracer is not None:
            self.tracer.client_request(kind, start, end)

    def failure(self, error: Exception) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(str(error))


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #


class Workload:
    """Common shape: deploy (set-up), drive (measured), settle, verify."""

    name = ""
    #: The operation the end-to-end ``op_*`` metrics describe.
    op = "read"
    #: Tail percentile, fixed per workload: the highest of p99/p90 with at
    #: least ten samples beyond it at the workload's run length.
    tail = 90
    clients = 2
    accept_gzip = False
    store = "memory"
    worker_mode = "in-process"
    rows_per_write = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed % 2**63  # numpy seeds must be non-negative
        self.rng = np.random.default_rng(self.seed)
        self.phases = 0

    def deploy(self, state_dir: Path):
        raise NotImplementedError

    def drive(self, deployment, seconds: float, recorder: Recorder) -> None:
        raise NotImplementedError

    def settle(self, deployment, recorders: "list[Recorder]") -> None:
        """After the last phase: let in-flight pushes land."""

    def streams(self) -> "list[tuple[str, float, float, int]]":
        """Long-lived client requests ``(kind, opened, closed, thread)``."""
        return []

    def verify(self, verdict: Verdict) -> None:
        raise NotImplementedError

    def acked_rows(self) -> int:
        """Rows acknowledged over the measured deployment's life."""
        raise NotImplementedError

    def push_lags(self, recorder: Recorder) -> "list[float]":
        return []

    def extra_metrics(self, deployment) -> "dict[str, float]":
        """Bytes on disk per acknowledged row: all, WAL files, store files."""
        rows = self.acked_rows()
        files = [f for f in deployment.state_dir.rglob("*") if f.is_file()]
        parts = {f: set(f.relative_to(deployment.state_dir).parts[:-1]) for f in files}
        return {
            "disk_bytes_per_row": sum(f.stat().st_size for f in files) / rows,
            "wal_bytes_per_row": sum(f.stat().st_size for f in files if "wal" in parts[f]) / rows,
            "store_bytes_per_row": sum(f.stat().st_size for f in files if "store" in parts[f])
            / rows,
        }

    def environment(self) -> "dict[str, Any]":
        return {
            "store": self.store,
            "wal_fsync": WAL_FSYNC,
            "worker_mode": self.worker_mode,
            "connection": "keep-alive",
            "accept_encoding": "gzip" if self.accept_gzip else "identity",
            "clients": self.clients,
        }


class WarmReads(Workload):
    """``read-hot`` (one server, gzip) and ``routed-read`` (router + 2 workers)."""

    def __init__(self, seed: int, *, routed: bool) -> None:
        super().__init__(seed)
        self.routed = routed
        self.name = "routed-read" if routed else "read-hot"
        self.worker_mode = "process" if routed else "in-process"
        self.accept_gzip = not routed
        self.chunks = seeded_chunks(paper_rows(self.rng), self.rng)
        self.keys = [(s, kind) for s in WARM_SESSIONS for kind in ("estimate", *QUERIES)]
        self.query_bodies = {
            kind: json.dumps({"sql": sql}).encode("utf-8") for kind, sql in QUERIES.items()
        }
        # Per key: every distinct body served (set-up warm-up included).
        self.bodies: "dict[tuple[str, str], set[bytes]]" = defaultdict(set)
        # (session, chunk index, ack body) of every set-up ingest.
        self.acks: "list[tuple[str, int, bytes]]" = []

    def acked_rows(self) -> int:
        return len(WARM_SESSIONS) * sum(len(chunk) for chunk in self.chunks)

    def _send(self, client: KeepAliveClient, key: "tuple[str, str]") -> bytes:
        session, kind = key
        if kind == "estimate":
            return client.request("GET", f"/sessions/{session}/estimate")
        return client.request("POST", f"/sessions/{session}/query", self.query_bodies[kind])

    def deploy(self, state_dir: Path):
        deployment = Cluster(state_dir) if self.routed else SingleServer(state_dir, "memory")
        client = KeepAliveClient(deployment.address, accept_gzip=self.accept_gzip)
        try:
            for session in WARM_SESSIONS:
                client.json(
                    "POST",
                    "/sessions",
                    {"name": session, "attribute": PAPER_ATTRIBUTE, "estimator": WARM_SPEC},
                )
            for index, chunk in enumerate(self.chunks):
                body = ingest_body(chunk)
                for session in WARM_SESSIONS:
                    ack = client.request("POST", f"/sessions/{session}/ingest", body)
                    self.acks.append((session, index, ack))
            for key in self.keys:
                self.bodies[key].add(self._send(client, key))
        finally:
            client.close()
        return deployment

    def drive(self, deployment, seconds: float, recorder: Recorder) -> None:
        def client_step(index: int):
            client = KeepAliveClient(deployment.address, accept_gzip=self.accept_gzip)
            rng = np.random.default_rng([self.seed, self.phases, index])
            count = [0]

            def step(deadline: float) -> None:
                session = WARM_SESSIONS[int(rng.integers(len(WARM_SESSIONS)))]
                kind = "estimate" if count[0] % 2 == 0 else ("sum", "count")[int(rng.integers(2))]
                count[0] += 1
                start = time.perf_counter()
                try:
                    body = self._send(client, (session, kind))
                except RequestFailed as exc:
                    recorder.failure(exc)
                    return
                recorder.done("read", start, time.perf_counter())
                self.bodies[(session, kind)].add(body)

            return step, client

        steps = [client_step(index) for index in range(self.clients)]
        self.phases += 1
        try:
            _timed(recorder, [step for step, _ in steps], seconds)
        finally:
            for _, client in steps:
                client.close()

    def verify(self, verdict: Verdict) -> None:
        facade = Facade("", PAPER_ATTRIBUTE, WARM_SPEC)
        expected_acks = []
        for chunk in self.chunks:
            facade.ingest(chunk)
            expected_acks.append(
                {session: facade.ack(session) for session in WARM_SESSIONS}
            )
        versions: "dict[str, list[int]]" = defaultdict(list)
        for session, index, ack in self.acks:
            verdict.compare(f"{session} ack #{index}", expected_acks[index][session], ack)
            versions[session].append(json.loads(ack)["state_version"])
        for session, acked in versions.items():
            # Every set-up repeats the same acks; check each repeat.
            per_setup = len(self.chunks)
            for offset in range(0, len(acked), per_setup):
                verdict.gapless(f"{session} acks", acked[offset : offset + per_setup], 1)
        expected = {"estimate": facade.estimate([None])}
        expected.update({kind: facade.query(sql) for kind, sql in QUERIES.items()})
        for (session, kind), bodies in self.bodies.items():
            for body in bodies:
                verdict.compare(f"{session} {kind}", expected[kind], body)


class ColdEstimates(Workload):
    """``estimate-cold``: re-mention ingest + four-estimator cold read per round."""

    name = "estimate-cold"
    clients = 1
    #: At ~0.6 s per round a 15 s run has ~25 reads: p90 and p99 have
    #: fewer than ten samples beyond them, so the tail is p75 (~6 beyond)
    #: and is indicative only.
    tail = 75

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.rows = paper_rows(self.rng)
        self.chunks = seeded_chunks(self.rows, self.rng)
        self.path = "/sessions/{}/estimate?{}".format(
            COLD_SESSION, "&".join(f"spec={quote(spec, safe='')}" for spec in COLD_SPECS)
        )
        # One fixed warm-up row, so every set-up repeat serves the same bytes.
        self.warmup_row = self._remention()
        # Set-up traffic per repeat, then the measured rounds of the last one.
        self.setup_acks: "list[list[bytes]]" = []
        self.warmups: "list[tuple[dict, bytes | None, bytes | None]]" = []
        self.rounds: "list[tuple[dict, bytes | None, bytes | None]]" = []

    def acked_rows(self) -> int:
        return len(self.rows) + 1 + sum(1 for _, ack, _ in self.rounds if ack is not None)

    def _remention(self) -> "dict[str, Any]":
        return self.rows[int(self.rng.integers(len(self.rows)))]

    def _round(self, client: KeepAliveClient, row: dict, recorder: "Recorder | None") -> None:
        start = time.perf_counter()
        try:
            ack = client.request("POST", f"/sessions/{COLD_SESSION}/ingest", ingest_body([row]))
        except RequestFailed as exc:
            if recorder is None:
                raise
            recorder.failure(exc)
            self.rounds.append((row, None, None))
            return
        middle = time.perf_counter()
        try:
            body = client.request("GET", self.path)
        except RequestFailed as exc:
            if recorder is None:
                raise
            recorder.done("write", start, middle)
            recorder.failure(exc)
            self.rounds.append((row, ack, None))
            return
        end = time.perf_counter()
        if recorder is not None:
            recorder.done("write", start, middle)
            recorder.done("read", middle, end)
        self.rounds.append((row, ack, body))

    def deploy(self, state_dir: Path):
        deployment = SingleServer(state_dir, "memory")
        client = KeepAliveClient(deployment.address)
        try:
            client.json(
                "POST",
                "/sessions",
                {"name": COLD_SESSION, "attribute": PAPER_ATTRIBUTE, "estimator": "bucket"},
            )
            self.setup_acks.append(
                [
                    client.request("POST", f"/sessions/{COLD_SESSION}/ingest", ingest_body(chunk))
                    for chunk in self.chunks
                ]
            )
            # Warm-up: one full round (lazy imports, first sample build).
            self.rounds = []
            self._round(client, self.warmup_row, None)
            self.warmups.append(self.rounds.pop())
        finally:
            client.close()
        return deployment

    def drive(self, deployment, seconds: float, recorder: Recorder) -> None:
        client = KeepAliveClient(deployment.address)
        try:
            _timed(
                recorder,
                [lambda deadline: self._round(client, self._remention(), recorder)],
                seconds,
            )
        finally:
            client.close()

    def verify(self, verdict: Verdict) -> None:
        facade = Facade(COLD_SESSION, PAPER_ATTRIBUTE, "bucket")
        expected = [facade.ingest(chunk) for chunk in self.chunks]
        for repeat, acks in enumerate(self.setup_acks):
            for index, ack in enumerate(acks):
                verdict.compare(f"set-up {repeat} ack #{index}", expected[index], ack)
            verdict.gapless(
                f"set-up {repeat} acks", [json.loads(a)["state_version"] for a in acks], 1
            )
        warm_ack = facade.ingest([self.warmup_row])
        warm_body = facade.estimate(COLD_SPECS)
        for repeat, (_, ack, body) in enumerate(self.warmups):
            verdict.compare(f"set-up {repeat} warm-up ack", warm_ack, ack)
            verdict.compare(f"set-up {repeat} warm-up estimate", warm_body, body)
        versions = []
        for index, (row, ack, body) in enumerate(self.rounds):
            expected_ack = facade.ingest([row])
            if ack is None:
                verdict.fail(f"round {index}: the ingest failed, the state is unknown")
                return
            verdict.compare(f"round {index} ack", expected_ack, ack)
            versions.append(json.loads(ack)["state_version"])
            if body is not None:
                verdict.compare(f"round {index} estimate", facade.estimate(COLD_SPECS), body)
        verdict.gapless("round acks", versions, len(self.chunks) + 2)


class IngestPush(Workload):
    """``ingest-push``: disk-store writer plus a delta-mode SSE subscriber."""

    name = "ingest-push"
    op = "write"
    rows_per_write = PUSH_CHUNK_ROWS
    clients = 2  # one writer, one subscriber
    store = "disk"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # Squared uniforms skew the draws: low entity ids recur often.
        shape = (PUSH_POOL_CHUNKS, PUSH_CHUNK_ROWS)
        entities = (PUSH_ENTITIES * self.rng.random(shape) ** 2).astype(int)
        sources = self.rng.integers(PUSH_SOURCES, size=shape)
        self.pool = [
            [
                {
                    "entity_id": f"e{entity}",
                    "source_id": f"s{source}",
                    "attributes": {PUSH_ATTRIBUTE: float(1 + (entity * 7919) % 1000)},
                }
                for entity, source in zip(chunk_entities.tolist(), chunk_sources.tolist())
            ]
            for chunk_entities, chunk_sources in zip(entities, sources)
        ]
        self.pool_bodies = [ingest_body(chunk) for chunk in self.pool]
        per_request = PUSH_POOL_CHUNKS // PUSH_SEED_REQUESTS
        self.seed_rows = [
            [row for chunk in self.pool[i : i + per_request] for row in chunk]
            for i in range(0, PUSH_POOL_CHUNKS, per_request)
        ]
        self.seed_bodies = [ingest_body(rows) for rows in self.seed_rows]
        self.subscribe_path = (
            f"/sessions/{PUSH_SESSION}/subscribe?spec={PUSH_SPEC}&mode=delta&heartbeat_ms=250"
        )
        # Set-up acks and first event per repeat; then the measured stream.
        self.setup_acks: "list[list[bytes]]" = []
        self.setup_events: "list[tuple[int, bytes]]" = []
        self.acks: "list[tuple[int, bytes]]" = []  # (state_version, ack body)
        self.subscriber: "Subscriber | None" = None

    def deploy(self, state_dir: Path):
        if self.subscriber is not None:
            self.subscriber.stop()
        deployment = SingleServer(state_dir, "disk")
        client = KeepAliveClient(deployment.address)
        try:
            client.json(
                "POST",
                "/sessions",
                {"name": PUSH_SESSION, "attribute": PUSH_ATTRIBUTE, "estimator": PUSH_SPEC},
            )
            self.setup_acks.append(
                [
                    client.request("POST", f"/sessions/{PUSH_SESSION}/ingest", body)
                    for body in self.seed_bodies
                ]
            )
        finally:
            client.close()
        self.subscriber = Subscriber(deployment.address, self.subscribe_path)
        self.subscriber.start()
        first = self.subscriber.events[0]
        self.setup_events.append((first[1], first[2]))
        self.acks = []
        return deployment

    def drive(self, deployment, seconds: float, recorder: Recorder) -> None:
        client = KeepAliveClient(deployment.address)
        path = f"/sessions/{PUSH_SESSION}/ingest"

        def step(deadline: float) -> None:
            body = self.pool_bodies[len(self.acks) % PUSH_POOL_CHUNKS]
            start = time.perf_counter()
            try:
                ack = client.request("POST", path, body)
            except RequestFailed as exc:
                recorder.failure(exc)
                raise  # the stream position is unknown; stop this phase
            end = time.perf_counter()
            recorder.done("write", start, end)
            version = json.loads(ack)["state_version"]
            recorder.versions.append((version, start))
            self.acks.append((version, ack))

        try:
            _timed(recorder, [step], seconds)
        finally:
            client.close()

    def settle(self, deployment, recorders: "list[Recorder]") -> None:
        subscriber = self.subscriber
        if self.acks and not subscriber.wait_for(self.acks[-1][0], timeout=30.0):
            recorders[-1].failure(RuntimeError("the last ack's version was never pushed"))
        subscriber.stop()
        if subscriber.error:
            recorders[-1].failure(RuntimeError(subscriber.error))

    def streams(self) -> "list[tuple[str, float, float, int]]":
        subscriber = self.subscriber
        return [("subscribe", subscriber.opened, subscriber.closed, subscriber.thread)]

    def acked_rows(self) -> int:
        return PUSH_CHUNK_ROWS * (PUSH_POOL_CHUNKS + len(self.acks))

    def push_lags(self, recorder: Recorder) -> "list[float]":
        """Per ack: send -> first event with ``id >=`` its version (seconds)."""
        events = self.subscriber.events
        ids = [event[1] for event in events]
        lags = []
        for version, sent in recorder.versions:
            index = bisect.bisect_left(ids, version)
            if index < len(events):
                lags.append(events[index][0] - sent)
        return lags

    def verify(self, verdict: Verdict) -> None:
        facade = Facade(PUSH_SESSION, PUSH_ATTRIBUTE, PUSH_SPEC)
        expected_acks = [facade.ingest(rows) for rows in self.seed_rows]
        first_event = facade.estimate([PUSH_SPEC])
        for repeat, acks in enumerate(self.setup_acks):
            for index, ack in enumerate(acks):
                verdict.compare(f"set-up {repeat} ack #{index}", expected_acks[index], ack)
        for repeat, (version, data) in enumerate(self.setup_events):
            if version != PUSH_SEED_REQUESTS:
                verdict.fail(f"set-up {repeat}: first event id {version} != {PUSH_SEED_REQUESTS}")
            verdict.compare(f"set-up {repeat} first event", first_event, data)
        verdict.gapless("acks", [version for version, _ in self.acks], PUSH_SEED_REQUESTS + 1)
        events = iter(self.subscriber.events[1:])
        pending = next(events, None)
        previous = PUSH_SEED_REQUESTS
        for index, (version, ack) in enumerate(self.acks):
            chunk = self.pool[index % PUSH_POOL_CHUNKS]
            verdict.compare(f"ack v{version}", facade.ingest(chunk), ack)
            while pending is not None and pending[1] <= facade.state_version:
                if pending[1] <= previous:
                    verdict.fail(f"event ids not strictly increasing at {pending[1]}")
                elif pending[1] == facade.state_version:
                    # Every event against the facade's delta path (batch
                    # recompute per version would dominate the run) ...
                    expected = facade.estimate([PUSH_SPEC], mode="delta")
                    verdict.compare(f"event v{pending[1]}", expected, pending[2])
                previous = pending[1]
                pending = next(events, None)
        if pending is not None:
            verdict.fail(f"event id {pending[1]} is beyond every acked version")
        # ... and the final state against the batch path as well.
        final = self.subscriber.events[-1]
        if final[1] == facade.state_version:
            verdict.compare(f"event v{final[1]} (batch)", facade.estimate([PUSH_SPEC]), final[2])
        else:
            verdict.fail(f"the last event v{final[1]} is not the last acked version")


def _timed(recorder: Recorder, steps, seconds: float) -> None:
    """Run the closed loop, adding its wall time to the phase's elapsed."""
    start = time.perf_counter()
    try:
        closed_loop(steps, seconds)
    except RequestFailed:
        pass  # already counted by the step
    finally:
        recorder.elapsed += time.perf_counter() - start


WORKLOADS = {
    "read-hot": lambda seed: WarmReads(seed, routed=False),
    "estimate-cold": ColdEstimates,
    "ingest-push": IngestPush,
    "routed-read": lambda seed: WarmReads(seed, routed=True),
}
