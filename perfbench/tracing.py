"""In-memory span tracer that wraps the program's public functions.

The traced run times calls into each layer from the benchmark's own
files: :meth:`Tracer.install` replaces the functions in :data:`TARGETS`
with thin wrappers, and :meth:`Tracer.uninstall` puts the originals
back.  Nothing inside ``src/`` knows it is being traced.

A span is ``(id, parent, name, start, end, thread, size)``: ``parent``
is the enclosing traced call on the same thread (0 for a root),
``start``/``end`` come from ``time.perf_counter`` (one monotonic clock
for every thread of the process), ``thread`` is the native thread id
(unlike ``get_ident``, not reused within a run), and ``size`` is an optional count
taken from the call (rows decoded, rows ingested, 1 when a version wait
was released).  Client requests are recorded on the same clock by the
load generator (:meth:`Tracer.client_request`).

Server spans carry no request identity of their own.  :func:`join`
attributes them afterwards, by handler thread and time containment: a
keep-alive connection is served by one handler thread for its whole
life, so each handler thread belongs to the client whose requests
contain its root spans (ties go to the tighter containment, as
concurrent requests overlap), and each of its spans belongs to the request of
that client whose interval contains it.  The spans, with the request
id that join gave them, are written out once, when the run ends.
"""

from __future__ import annotations

import bisect
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: ``(span name, "module:Class.attribute" or "module:function", size)``
#: for every wrapped function.  ``size`` maps ``(args, result)`` to the
#: count the span carries, or is ``None``.
TARGETS: "list[tuple[str, str, Callable[..., Any] | None]]" = [
    ("http.dumps_result", "repro.serving.http:dumps_result", None),
    (
        "http.observations_from_json",
        "repro.serving.http:observations_from_json",
        lambda args, result: len(result),
    ),
    ("registry.estimate_payloads", "repro.serving.registry:ServedSession.estimate_payloads", None),
    (
        "registry.estimate_payload_at",
        "repro.serving.registry:ServedSession.estimate_payload_at",
        None,
    ),
    ("registry.query_payload", "repro.serving.registry:ServedSession.query_payload", None),
    ("registry.ingest", "repro.serving.registry:ServedSession.ingest", None),
    ("cache.get", "repro.serving.cache:EstimateCache.get", None),
    ("cache.put", "repro.serving.cache:EstimateCache.put", None),
    ("batcher.execute", "repro.serving.batcher:CoalescingBatcher.execute", None),
    ("batcher.execute_many", "repro.serving.batcher:CoalescingBatcher.execute_many", None),
    ("locks.acquire_read", "repro.serving.locks:RWLock.acquire_read", None),
    ("locks.acquire_write", "repro.serving.locks:RWLock.acquire_write", None),
    ("versions.advance", "repro.serving.versions:VersionGate.advance", None),
    (
        "versions.wait_for",
        "repro.serving.versions:VersionGate.wait_for",
        lambda args, result: 0 if result is None else 1,
    ),
    (
        "session.prepare_ingest",
        "repro.api.session:OpenWorldSession.prepare_ingest",
        lambda args, result: len(result),
    ),
    ("session.ingest", "repro.api.session:OpenWorldSession.ingest", lambda args, result: result),
    ("session.estimate", "repro.api.session:OpenWorldSession.estimate", None),
    ("core.bucket.estimate", "repro.core.bucket:BucketEstimator.estimate", None),
    ("core.bucket.update", "repro.core.bucket:BucketEstimator.update", None),
    ("core.monte-carlo.estimate", "repro.core.montecarlo:MonteCarloEstimator.estimate", None),
    ("core.frequency.estimate", "repro.core.frequency:FrequencyEstimator.estimate", None),
    ("core.frequency.update", "repro.core.frequency:FrequencyEstimator.update", None),
    ("core.naive.estimate", "repro.core.naive:NaiveEstimator.estimate", None),
    ("core.naive.update", "repro.core.naive:NaiveEstimator.update", None),
    ("core.sample_build", "repro.data.sample:ObservedSample.__init__", None),
    ("wal.append", "repro.resilience.wal:WriteAheadLog.append", None),
    ("wal.sync", "repro.resilience.wal:WriteAheadLog.sync", None),
    (
        "storage.apply_chunk",
        "repro.storage.store:DiskStore.apply_chunk",
        lambda args, result: len(args[1]),
    ),
    ("storage.segments.append", "repro.storage.segments:SegmentLog.append", None),
    ("storage.segments.sync", "repro.storage.segments:SegmentLog.sync", None),
    ("storage.invariants.commit", "repro.storage.invariants:InvariantStore.commit", None),
    ("cluster.forward", "repro.cluster.router:ClusterRouter.forward", None),
    # The router calls the name it imported from the fleet module.
    ("cluster.worker_request", "repro.cluster.router:worker_request", None),
    ("net.connect", "http.client:HTTPConnection.connect", None),
    ("os.fsync", "os:fsync", None),
]

#: Span tuple fields.
ID, PARENT, NAME, START, END, THREAD, SIZE = range(7)


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self) -> None:
        self.spans: "list[tuple]" = []
        self.requests: "list[tuple]" = []  # (rid, kind, start, end, thread)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: "list[tuple[Any, str, Any]]" = []

    # -- installation --------------------------------------------------- #

    def install(self) -> None:
        if self._originals:
            return
        for name, target, size in TARGETS:
            module_name, _, path = target.partition(":")
            owner: Any = importlib.import_module(module_name)
            class_name, _, attribute = path.rpartition(".")
            if class_name:
                owner = getattr(owner, class_name)
            # A class attribute is wrapped as the plain function it holds.
            original = owner.__dict__[attribute] if class_name else getattr(owner, attribute)
            setattr(owner, attribute, self._wrapper(name, original, size))
            self._originals.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def _wrapper(self, name: str, fn: Callable[..., Any], size) -> Callable[..., Any]:
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter
        ident = threading.get_native_id

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                count = None
                if size is not None:
                    try:
                        count = size(args, result)
                    except TypeError:  # the call raised: no result to count
                        count = None
                spans.append((span_id, parent, name, start, end, ident(), count))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- client side ---------------------------------------------------- #

    def client_request(
        self, kind: str, start: float, end: float, thread: "int | None" = None
    ) -> None:
        """Record one client request (by default on the calling thread)."""
        if thread is None:
            thread = threading.get_native_id()
        self.requests.append((next(self._ids), kind, start, end, thread))

    # -- output ----------------------------------------------------------- #

    def dump(self, path: Path, owners: "dict[int, int]") -> None:
        """Write every span and client request as JSON (once, at exit)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["id", "parent", "name", "start", "end", "thread", "size", "request"],
            "spans": [list(span) + [owners.get(span[ID])] for span in self.spans],
            "requests": [
                {"id": rid, "kind": kind, "start": start, "end": end, "thread": thread}
                for rid, kind, start, end, thread in self.requests
            ],
        }
        path.write_text(json.dumps(payload))


def self_times(spans: "list[tuple]") -> "dict[int, float]":
    """Span id -> duration minus the part its child spans cover."""
    children: "dict[int, list[tuple]]" = defaultdict(list)
    for span in spans:
        if span[PARENT]:
            children[span[PARENT]].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        edge = span[START]
        for child in sorted(children.get(span[ID], ()), key=lambda s: s[START]):
            lo = max(child[START], edge)
            hi = min(child[END], span[END])
            if hi > lo:
                covered += hi - lo
                edge = hi
        result[span[ID]] = (span[END] - span[START]) - covered
    return result


def join(tracer: Tracer) -> "dict[int, int]":
    """Span id -> id of the client request that caused it.

    Server spans run on handler threads; a handler thread is owned by
    the client whose requests contain most of its root spans (ties go to
    the tighter containment), and each of its spans goes to the request
    of that client containing it.
    Spans no client request contains (background threads) stay
    unattributed.
    """
    client_threads: "dict[int, list[tuple]]" = defaultdict(list)
    for request in tracer.requests:
        client_threads[request[4]].append(request)
    starts = {}
    for thread, requests in client_threads.items():
        requests.sort(key=lambda r: r[2])
        starts[thread] = [r[2] for r in requests]

    def containing(thread: int, span: tuple) -> "tuple | None":
        requests = client_threads[thread]
        index = bisect.bisect_right(starts[thread], span[START]) - 1
        if index >= 0 and requests[index][3] >= span[END]:
            return requests[index]
        return None

    by_thread: "dict[int, list[tuple]]" = defaultdict(list)
    for span in tracer.spans:
        if span[THREAD] not in client_threads:
            by_thread[span[THREAD]].append(span)
    owners: "dict[int, int]" = {}
    for spans in by_thread.values():
        # Score per client: how many root spans its requests contain, then
        # (concurrent requests overlap) how tightly: the owner's requests
        # start just before the spans they cause.
        contained: "dict[int, int]" = defaultdict(int)
        gap: "dict[int, float]" = defaultdict(float)
        for span in spans:
            if not span[PARENT]:
                for thread in client_threads:
                    request = containing(thread, span)
                    if request is not None:
                        contained[thread] += 1
                        gap[thread] += span[START] - request[2]
        if not contained:
            continue
        owner = max(contained, key=lambda thread: (contained[thread], -gap[thread]))
        for span in spans:
            request = containing(owner, span)
            if request is not None:
                owners[span[ID]] = request[0]
    return owners
