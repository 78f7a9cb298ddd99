"""Per-layer metrics of the traced run, computed from the spans.

Per layer: the wrapped public functions, its metrics (prefixed by the
layer name), and the end-to-end metric each should move, on which
workload.

``serving.http``
    ``dumps_result``, ``observations_from_json``; the residual is the
    client RTT minus every traced server span of the request.
    ``encode_us``, ``decode_us_per_row``, ``residual_us`` (p50) -> read
    p50 and rps on read-hot and routed-read, write p50 on ingest-push;
    under 10% of a round on estimate-cold.
``serving.registry``
    ``ServedSession.estimate_payloads``, ``query_payload``, ``ingest``,
    ``estimate_payload_at``.  ``read_us``, ``ingest_us`` -> read-hot,
    ingest-push.
``serving.cache``
    ``EstimateCache.get``/``put`` + ``stats()``.  ``hit_ratio`` (about 1
    on read-hot, 0 on estimate-cold), ``get_us``, ``evictions`` -> read
    p50 on read-hot.
``serving.batcher``
    ``CoalescingBatcher.execute``/``execute_many`` + ``stats()``.
    ``computed``, ``coalesce_ratio`` -> read tail on estimate-cold.
``serving.locks``
    ``RWLock.acquire_read``/``acquire_write``.  ``read_wait_us``,
    ``write_wait_us`` (p99) -> write tail and push-lag tail on
    ingest-push.
``serving.versions``
    ``VersionGate.advance``/``wait_for``.  ``events_per_ack`` -> push
    lag p50 on ingest-push.
``api.session``
    ``OpenWorldSession.prepare_ingest``, ``ingest``, ``estimate``.
    ``prepare_us_per_row``, ``ingest_us_per_row`` (self time),
    ``estimate_us`` -> write rows/s on ingest-push.
``core``
    ``estimate``/``update`` of bucket, Monte-Carlo, frequency and naive;
    ``ObservedSample`` construction.  ``bucket.self_ms``,
    ``bucket.base_calls`` and ``bucket.sample_builds`` (per bucket
    estimate), ``monte-carlo.self_ms``, ``frequency.update_us`` -> read
    p50 and tail on estimate-cold, push lag p50 on ingest-push; zero
    calls on read-hot.
``resilience.wal``
    ``WriteAheadLog.append``/``sync``.  ``append_us``,
    ``fsyncs_per_ack``, ``bytes_per_row`` -> write rows/s and disk
    bytes/row on ingest-push.
``storage``
    ``DiskStore.apply_chunk``, ``SegmentLog.append``/``sync``,
    ``InvariantStore.commit``.  ``apply_us_per_row``,
    ``segments.append_us``, ``segments.fsyncs_per_ack``,
    ``bytes_per_row`` -> write p50, rows/s and disk bytes/row on
    ingest-push.
``cluster``
    ``ClusterRouter.forward``, the router's ``worker_request``,
    router-side ``HTTPConnection.connect``.  ``router.forward_us``,
    ``router.self_us`` (RTT minus forward), ``fleet.connects_per_relay``
    -> read p50 on routed-read; no change on read-hot.

``os.fsync`` is wrapped too, so an fsync is attributed to the layer
whose span encloses it.  How the layers interact: while the ~44 ms
Nagle/delayed-ACK stall dominates a keep-alive round trip, encode, cache
and registry together are about 1% of a read-hot read, so they show only
after the transport is fixed.  On estimate-cold bucket plus Monte-Carlo
are ~90% of a round, run serially by ``execute_many``.  On ingest-push
the subscriber's read holds the read side of the ``RWLock`` the writer
needs, so ``write_wait_us`` couples the write tail to push lag.

Only the workers of routed-read run out of process; their layers are not
traced (cache and batcher counts still come from their ``/stats``).  A
layer a workload does not exercise reports 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

import numpy as np

from perfbench.tracing import END, ID, NAME, PARENT, SIZE, START, Tracer, self_times

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER = [
    ("serving.http.encode_us", "us"),
    ("serving.http.decode_us_per_row", "us/row"),
    ("serving.http.residual_us", "us"),
    ("serving.registry.read_us", "us"),
    ("serving.registry.ingest_us", "us"),
    ("serving.cache.hit_ratio", "ratio"),
    ("serving.cache.get_us", "us"),
    ("serving.cache.evictions", "count"),
    ("serving.batcher.computed", "count"),
    ("serving.batcher.coalesce_ratio", "ratio"),
    ("serving.locks.read_wait_us", "us"),
    ("serving.locks.write_wait_us", "us"),
    ("serving.versions.events_per_ack", "ratio"),
    ("api.session.prepare_us_per_row", "us/row"),
    ("api.session.ingest_us_per_row", "us/row"),
    ("api.session.estimate_us", "us"),
    ("core.bucket.self_ms", "ms"),
    ("core.bucket.base_calls", "count"),
    ("core.bucket.sample_builds", "count"),
    ("core.monte-carlo.self_ms", "ms"),
    ("core.frequency.update_us", "us"),
    ("resilience.wal.append_us", "us"),
    ("resilience.wal.fsyncs_per_ack", "ratio"),
    ("resilience.wal.bytes_per_row", "B/row"),
    ("storage.apply_us_per_row", "us/row"),
    ("storage.segments.append_us", "us"),
    ("storage.segments.fsyncs_per_ack", "ratio"),
    ("storage.bytes_per_row", "B/row"),
    ("cluster.router.forward_us", "us"),
    ("cluster.router.self_us", "us"),
    ("cluster.fleet.connects_per_relay", "ratio"),
    ("tracing.op_p50_overhead", "ratio"),
]

REGISTRY_READS = {
    "registry.estimate_payloads",
    "registry.estimate_payload_at",
    "registry.query_payload",
}
BASE_ESTIMATES = {"core.naive.estimate", "core.frequency.estimate", "core.monte-carlo.estimate"}


def percentile(values: "list[float]", q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class SpanIndex:
    """Spans grouped by name, with ancestry, self times and request owners."""

    def __init__(self, tracer: Tracer, owners: "dict[int, int]") -> None:
        self.spans = tracer.spans
        self.requests = tracer.requests
        self.owners = owners
        self.by_id = {span[ID]: span for span in self.spans}
        self.by_name: "dict[str, list[tuple]]" = defaultdict(list)
        for span in self.spans:
            self.by_name[span[NAME]].append(span)
        self.selfs = self_times(self.spans)

    def durations(self, name: str) -> "list[float]":
        return [span[END] - span[START] for span in self.by_name[name]]

    def sizes(self, name: str) -> int:
        return sum(span[SIZE] or 0 for span in self.by_name[name])

    def ancestors(self, span: tuple) -> "set[str]":
        names = set()
        parent = self.by_id.get(span[PARENT])
        while parent is not None:
            names.add(parent[NAME])
            parent = self.by_id.get(parent[PARENT])
        return names

    def request_self_times(self) -> "dict[int, tuple[str, float, float]]":
        """Request id -> (kind, sum of its traced server self times, RTT)."""
        served: "dict[int, float]" = defaultdict(float)
        for span in self.spans:
            rid = self.owners.get(span[ID])
            if rid is not None:
                served[rid] += self.selfs[span[ID]]
        return {
            rid: (kind, served.get(rid, 0.0), end - start)
            for rid, kind, start, end, _ in self.requests
        }

    def under(self, names: "set[str]", ancestors: "set[str]") -> int:
        """Spans named in ``names`` with an ancestor named in ``ancestors``."""
        return sum(
            1
            for name in names
            for span in self.by_name[name]
            if self.ancestors(span) & ancestors
        )


def per_layer(
    index: SpanIndex,
    counters: "dict[str, int]",
    extra: "dict[str, float]",
    overhead: float,
) -> "dict[str, float]":
    """Every :data:`PER_LAYER` metric from the traced phases."""
    us = 1e6
    d = index.durations
    # Request/response round trips only: a subscription is one long stream.
    timed = {
        rid: (served, rtt)
        for rid, (kind, served, rtt) in index.request_self_times().items()
        if kind != "subscribe"
    }
    forwards: "dict[int, float]" = defaultdict(float)
    for span in index.by_name["cluster.forward"]:
        rid = index.owners.get(span[ID])
        if rid in timed:
            forwards[rid] += span[END] - span[START]
    acks = len(index.by_name["registry.ingest"])
    rows = index.sizes("session.ingest")
    reads = [
        span[END] - span[START]
        for name in REGISTRY_READS
        for span in index.by_name[name]
        if span[PARENT] not in index.by_id
        or index.by_id[span[PARENT]][NAME] not in REGISTRY_READS
    ]
    buckets = len(index.by_name["core.bucket.estimate"])
    wal_fsyncs = index.under({"os.fsync"}, {"wal.append", "wal.sync"})
    segment_fsyncs = index.under(
        {"os.fsync"}, {"storage.segments.append", "storage.segments.sync"}
    )
    hits, misses = counters.get("hits", 0), counters.get("misses", 0)
    computed, coalesced = counters.get("computed", 0), counters.get("coalesced", 0)
    metrics = {
        "serving.http.encode_us": percentile(d("http.dumps_result"), 50) * us,
        "serving.http.decode_us_per_row": _ratio(
            sum(d("http.observations_from_json")) * us, index.sizes("http.observations_from_json")
        ),
        "serving.http.residual_us": percentile(
            [rtt - served for served, rtt in timed.values()], 50
        )
        * us,
        "serving.registry.read_us": percentile(reads, 50) * us,
        "serving.registry.ingest_us": percentile(d("registry.ingest"), 50) * us,
        "serving.cache.hit_ratio": _ratio(hits, hits + misses),
        "serving.cache.get_us": percentile(d("cache.get"), 50) * us,
        "serving.cache.evictions": float(counters.get("evictions", 0)),
        "serving.batcher.computed": float(computed),
        "serving.batcher.coalesce_ratio": _ratio(coalesced, computed + coalesced),
        "serving.locks.read_wait_us": percentile(d("locks.acquire_read"), 99) * us,
        "serving.locks.write_wait_us": percentile(d("locks.acquire_write"), 99) * us,
        "serving.versions.events_per_ack": _ratio(
            index.sizes("versions.wait_for"), len(index.by_name["versions.advance"])
        ),
        "api.session.prepare_us_per_row": _ratio(sum(d("session.prepare_ingest")) * us, rows),
        "api.session.ingest_us_per_row": _ratio(
            sum(index.selfs[span[ID]] for span in index.by_name["session.ingest"]) * us, rows
        ),
        "api.session.estimate_us": percentile(d("session.estimate"), 50) * us,
        "core.bucket.self_ms": percentile(
            [index.selfs[span[ID]] for span in index.by_name["core.bucket.estimate"]], 50
        )
        * 1e3,
        "core.bucket.base_calls": _ratio(
            index.under(BASE_ESTIMATES, {"core.bucket.estimate"}), buckets
        ),
        "core.bucket.sample_builds": _ratio(
            index.under({"core.sample_build"}, {"core.bucket.estimate"}), buckets
        ),
        "core.monte-carlo.self_ms": percentile(
            [index.selfs[span[ID]] for span in index.by_name["core.monte-carlo.estimate"]], 50
        )
        * 1e3,
        "core.frequency.update_us": percentile(d("core.frequency.update"), 50) * us,
        "resilience.wal.append_us": percentile(d("wal.append"), 50) * us,
        "resilience.wal.fsyncs_per_ack": _ratio(wal_fsyncs, acks),
        "resilience.wal.bytes_per_row": extra.get("wal_bytes_per_row", 0.0),
        "storage.apply_us_per_row": _ratio(
            sum(d("storage.apply_chunk")) * us, index.sizes("storage.apply_chunk")
        ),
        "storage.segments.append_us": percentile(d("storage.segments.append"), 50) * us,
        "storage.segments.fsyncs_per_ack": _ratio(segment_fsyncs, acks),
        "storage.bytes_per_row": extra.get("store_bytes_per_row", 0.0),
        "cluster.router.forward_us": percentile(d("cluster.forward"), 50) * us,
        "cluster.router.self_us": percentile(
            [timed[rid][1] - forward for rid, forward in forwards.items()], 50
        )
        * us,
        "cluster.fleet.connects_per_relay": _ratio(
            index.under({"net.connect"}, {"cluster.forward"}),
            len(index.by_name["cluster.forward"]),
        ),
        "tracing.op_p50_overhead": overhead,
    }
    return metrics


def counter_delta(before: "dict[str, Any]", after: "dict[str, Any]") -> "dict[str, int]":
    return {key: after[key] - before.get(key, 0) for key in after if isinstance(after[key], int)}
