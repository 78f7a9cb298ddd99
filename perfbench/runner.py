"""One benchmark run: set up, measure, verify, summarise.

A run sets the workload up ``SETUP_REPEATS`` times (each repeat boots a
fresh deployment; the last one is measured) and reports the median
set-up time.  It then measures for the run length with tracing off, or,
in a traced run, in four slices ordered untraced, traced, traced,
untraced, so that a linear drift over the run hits both sides alike; the traced
slices give the per-layer metrics and the difference between the two
sides is the tracing overhead.  The byte-identity oracle runs after the
last slice, outside every timed window.
"""

from __future__ import annotations

import gc
import os
import platform
import shutil
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Any

import numpy as np

from perfbench.layers import PER_LAYER, SpanIndex, counter_delta, per_layer, percentile
from perfbench.oracle import Verdict
from perfbench.tracing import Tracer, join
from perfbench.workloads import WORKLOADS, Recorder, Workload

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: ``(name, unit)`` of the end-to-end metrics every workload reports.
#: ``op`` is the workload's primary client operation: a read on
#: read-hot, estimate-cold and routed-read, an ingest ack on ingest-push.
END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def _latency(recorders: "list[Recorder]", kind: str) -> "list[float]":
    return [(end - start) * 1e3 for r in recorders for start, end in r.ops.get(kind, ())]


def summarise(
    workload: Workload,
    recorders: "list[Recorder]",
    setups: "list[float]",
    rss_mb: float,
    extra: "dict[str, float]",
    mismatches: int,
) -> "dict[str, Any]":
    """The named end-to-end metrics of one side (traced or untraced).

    Each workload reports only the metrics its traffic has.
    """
    elapsed = sum(r.elapsed for r in recorders)
    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders) + mismatches
    q = workload.tail
    metrics: "dict[str, Any]" = {"setup_s": (statistics.median(setups), "s")}
    reads = _latency(recorders, "read")
    writes = _latency(recorders, "write")
    if reads:
        metrics["read_p50_ms"] = (percentile(reads, 50), "ms")
        metrics["read_tail_ms"] = (percentile(reads, q), "ms")
        metrics["read_rps"] = (len(reads) / elapsed, "1/s")
    if writes:
        metrics["write_p50_ms"] = (percentile(writes, 50), "ms")
        metrics["write_tail_ms"] = (percentile(writes, q), "ms")
        metrics["write_rows_per_s"] = (len(writes) * workload.rows_per_write / elapsed, "rows/s")
    lags = [lag * 1e3 for r in recorders for lag in workload.push_lags(r)]
    if lags:
        metrics["push_lag_p50_ms"] = (percentile(lags, 50), "ms")
        metrics["push_lag_tail_ms"] = (percentile(lags, q), "ms")
    if "disk_bytes_per_row" in extra:
        metrics["disk_bytes_per_row"] = (extra["disk_bytes_per_row"], "B/row")
    metrics["error_share"] = (failed / attempted if attempted else 1.0, "ratio")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    op = _latency(recorders, workload.op)
    metrics["ops_per_s"] = (len(op) / elapsed, "1/s")
    tail = {
        "percentile": q,
        "samples": len(op),
        "beyond": int(sum(1 for value in op if value > percentile(op, q))),
    }
    return {"metrics": metrics, "tail": tail, "attempted": attempted, "failed": failed}


def generic(summary: "dict[str, Any]", op: str) -> "dict[str, float]":
    """The ``END_TO_END`` values of one side, taken from its named metrics."""
    named = summary["metrics"]
    return {
        "setup_s": named["setup_s"][0],
        "op_p50_ms": named[f"{op}_p50_ms"][0],
        "op_tail_ms": named[f"{op}_tail_ms"][0],
        "ops_per_s": named["ops_per_s"][0],
        "peak_rss_mb": named["peak_rss_mb"][0],
    }


def environment(workload: Workload, seed: int, seconds: float) -> "dict[str, Any]":
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **workload.environment(),
        "seed": seed,
        "seconds": seconds,
    }


def execute(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
) -> "dict[str, Any]":
    """Run one workload; returns the full result record."""
    workload = WORKLOADS[name](seed)
    # The generated inputs (ingest-push: ~128k row dicts) live in the
    # serving process only because the client does; a served process
    # would not scan them on every full collection.  Freeze them so the
    # server's GC pauses are its own, not the benchmark's.
    gc.collect()
    gc.freeze()
    work = root / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = Tracer() if trace else None
    sides: "dict[str, list[Recorder]]" = {"untraced": [], "traced": []}
    counters: Counter = Counter()
    setups = []
    deployment = None
    try:
        for repeat in range(1 if trace else SETUP_REPEATS):
            if deployment is not None:
                deployment.close()
                deployment = None
            start = time.perf_counter()
            deployment = workload.deploy(work / f"setup-{repeat}")
            setups.append(time.perf_counter() - start)
        if trace:
            quarter = seconds / 4
            phases = [("untraced", quarter), ("traced", quarter)]
            phases += phases[::-1]
        else:
            phases = [("untraced", seconds)]
        recorders = []
        for side, length in phases:
            recorder = Recorder(tracer if side == "traced" else None)
            before = None
            if side == "traced":
                before = deployment.counters()
                tracer.install()
            try:
                workload.drive(deployment, length, recorder)
            finally:
                if before is not None:
                    tracer.uninstall()
                    counters.update(counter_delta(before, deployment.counters()))
            sides[side].append(recorder)
            recorders.append(recorder)
        workload.settle(deployment, recorders)
        extra = workload.extra_metrics(deployment)
        rss_mb = deployment.peak_rss_mb()
    finally:
        if deployment is not None:
            deployment.close()
        shutil.rmtree(work, ignore_errors=True)

    verdict = Verdict()
    workload.verify(verdict)
    mismatches = len(verdict.mismatches)

    record: "dict[str, Any]" = {
        "workload": name,
        "instance": workload,
        "trace": int(trace),
        "environment": environment(workload, seed, seconds),
        "setups_s": setups,
        "oracle": {"checked": verdict.checked, "mismatches": verdict.mismatches[:10]},
    }
    for side, side_recorders in sides.items():
        if not side_recorders:
            continue
        summary = summarise(workload, side_recorders, setups, rss_mb, extra, mismatches)
        summary["end_to_end"] = generic(summary, workload.op)
        summary["errors"] = [e for r in side_recorders for e in r.errors]
        record[side] = summary
    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders) + mismatches
    record["attempted"] = attempted
    record["failed"] = failed
    record["correct"] = failed == 0 and verdict.checked > 0
    if trace:
        for kind, opened, closed, thread in workload.streams():
            tracer.client_request(kind, opened, closed, thread)
        owners = join(tracer)
        index = SpanIndex(tracer, owners)
        untraced = record["untraced"]["end_to_end"]["op_p50_ms"]
        traced = record["traced"]["end_to_end"]["op_p50_ms"]
        record["per_layer"] = per_layer(index, dict(counters), extra, traced / untraced - 1)
        record["tracer"] = tracer
        record["spans"] = index
    return record


def final_metrics(record: "dict[str, Any]") -> "dict[str, dict[str, Any]]":
    """The ``metrics`` object of the last output line."""
    if record["trace"]:
        values = record["per_layer"]
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    values = record["untraced"]["end_to_end"]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
