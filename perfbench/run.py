"""The repo's benchmark: one client-shaped command over the serving stack.

Run from the repository root::

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 15 --trace 0

It starts the real servers in this process (for ``routed-read``: the
router here, two ``repro.cli serve`` worker processes), drives one
workload with a closed-loop client (at most two client threads, each on
one keep-alive connection), checks every response against the
in-process facade (:mod:`perfbench.oracle`), and prints:

* a table of the workload's end-to-end metrics by name, with units, and
  one ``record:`` JSON line (environment, seed, tail percentile and its
  sample count, oracle verdict);
* as the last line, one JSON object
  ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
  the metrics are the end-to-end metrics of ``END_TO_END``; with
  ``--trace 1`` they are the per-layer metrics of
  :data:`perfbench.layers.PER_LAYER`, from a traced run that also prints
  its end-to-end metrics traced and untraced side by side (the
  difference is the tracing overhead) and writes its spans to
  ``.perfbench/spans-<workload>-seed<seed>.json``.

End-to-end metrics (every workload prints the named ones its traffic
has; the gated ``END_TO_END`` set on the last line is common to all):

======================  ======  ===========================================
name                    unit    meaning
======================  ======  ===========================================
``setup_s``             s       boot the server(s) or fleet, create the
                                sessions, ingest the seed data, warm up
                                (median of three set-ups)
``read_p50_ms``,        ms      client-observed read latency; the tail is a
``read_tail_ms``                percentile fixed per workload (recorded
                                with its sample count)
``read_rps``            1/s     reads completed per second
``write_p50_ms``,       ms      ingest ack latency, send to parsed ack
``write_tail_ms``
``write_rows_per_s``    rows/s  acknowledged rows per second
``push_lag_p50_ms``,    ms      send of an ingest -> first SSE event with
``push_lag_tail_ms``            ``id >=`` its ack's ``state_version``
``disk_bytes_per_row``  B/row   bytes under the state dir at the end /
                                acknowledged rows
``error_share``         ratio   failed / attempted operations (non-2xx,
                                timeout, refusal, or a body the oracle
                                rejects); nonzero fails the command
``peak_rss_mb``         MB      peak RSS (``VmHWM``) of the serving
                                process(es): this process, plus the two
                                workers on routed-read
``op_p50_ms``,          ms,     the read (ingest-push: write) metrics
``op_tail_ms``,         1/s     above under one name, so every workload
``ops_per_s``                   reports the same gated set
======================  ======  ===========================================

Why each workload exists is in :mod:`perfbench.workloads`; which layer
metric should move which end-to-end metric is in :mod:`perfbench.layers`.
The benchmark's self-tests are ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("read-hot", "estimate-cold", "ingest-push", "routed-read")


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def use_source_tree() -> bool:
    """Import the program from ``src/`` (also for spawned worker processes)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(src), str(ROOT)]
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join([str(src)] + ([inherited] if inherited else []))
    return True


def print_report(record: dict) -> None:
    print(f"== {record['workload']} (trace={record['trace']})")
    sides = [side for side in ("untraced", "traced") if side in record]
    names = list(record[sides[0]]["metrics"])
    print(f"{'metric':<22}{'unit':>8}" + "".join(f"{side:>14}" for side in sides))
    for name in names:
        unit = record[sides[0]]["metrics"][name][1]
        values = "".join(f"{record[side]['metrics'][name][0]:>14.4f}" for side in sides)
        print(f"{name:<22}{unit:>8}{values}")
    tail = record[sides[0]]["tail"]
    print(
        f"tail = p{tail['percentile']} of {tail['samples']} samples "
        f"({tail['beyond']} beyond it)"
    )
    if record["trace"]:
        overhead = record["per_layer"]["tracing.op_p50_overhead"]
        print(f"tracing overhead on op_p50_ms: {overhead:+.2%}")
        from perfbench.layers import PER_LAYER

        for name, unit in PER_LAYER:
            print(f"  {name:<36}{record['per_layer'][name]:>14.4f} {unit}")
    for message in record["oracle"]["mismatches"]:
        print(f"oracle mismatch: {message}")
    for side in sides:
        for error in record[side]["errors"]:
            print(f"{side} failure: {error}")
    summary = {
        key: record[key]
        for key in ("workload", "trace", "environment", "setups_s", "oracle")
    }
    summary["tail"] = tail
    summary["end_to_end"] = {
        side: {name: value for name, (value, _) in record[side]["metrics"].items()}
        for side in sides
    }
    print("record: " + json.dumps(summary, sort_keys=True))


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    if not use_source_tree():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    from perfbench.runner import execute, final_metrics

    record = execute(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print_report(record)
    if record["trace"]:
        path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
        record["tracer"].dump(path, record["spans"].owners)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": final_metrics(record),
            }
        )
    )
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
