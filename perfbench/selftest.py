"""Self-tests of the benchmark itself (not of the program it measures).

A short traced run of each workload checks that:

1. every metric the command prints has a valid name (``[A-Za-z0-9_.-]``,
   starting with a letter or digit) and unit, and the gated metric sets
   are exactly the ones ``BENCHMARK.json`` declares;
2. the byte-identity oracle flags a deliberately corrupted body;
3. per client request, the traced server self times sum to no more than
   the client-observed round trip.

It also checks that the command fails without printing a result when the
program's source tree is missing.  Run from the repository root::

    python3 perfbench/selftest.py [--seconds 2]
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def corrupt(workload) -> None:
    """Flip one byte of one recorded body the oracle will check."""

    def flip(body: bytes) -> bytes:
        middle = len(body) // 2
        return body[:middle] + bytes([body[middle] ^ 0x01]) + body[middle + 1 :]

    if workload.name in ("read-hot", "routed-read"):
        bodies = workload.bodies[next(iter(workload.bodies))]
        bodies.add(flip(bodies.pop()))
    elif workload.name == "estimate-cold":
        row, ack, body = workload.warmups[0]
        workload.warmups[0] = (row, ack, flip(body))
    else:
        events = workload.subscriber.events
        received, version, data = events[-1]
        events[-1] = (received, version, flip(data))


def check_workload(name: str, seconds: float, declared: dict) -> "list[str]":
    from perfbench.oracle import Verdict
    from perfbench.runner import END_TO_END, execute, final_metrics

    problems = []
    record = execute(name, seed=7, seconds=seconds, trace=True, root=ROOT)
    if not record["correct"]:
        problems.append(f"{name}: the clean run is not correct: {record['oracle']}")

    # 1. names and units, gated and printed.
    gated = {
        "end_to_end": final_metrics(dict(record, trace=0)),
        "per_layer": final_metrics(record),
    }
    for group, metrics in gated.items():
        if list(metrics) != declared[group]:
            problems.append(f"{name}: {group} names differ from BENCHMARK.json")
        for metric, entry in metrics.items():
            if not NAME.match(metric) or not UNIT.match(entry["unit"]):
                problems.append(f"{name}: invalid metric {metric!r} [{entry['unit']!r}]")
            if not isinstance(entry["value"], float):
                problems.append(f"{name}: {metric} is not a measured number")
    for side in ("untraced", "traced"):
        for metric, (_, unit) in record[side]["metrics"].items():
            if not NAME.match(metric) or not UNIT.match(unit):
                problems.append(f"{name}: invalid printed metric {metric!r} [{unit!r}]")
    if [metric for metric, _ in END_TO_END] != declared["end_to_end"]:
        problems.append(f"{name}: END_TO_END differs from BENCHMARK.json")

    # 2. the oracle flags a corrupted body.
    workload = record["instance"]
    corrupt(workload)
    verdict = Verdict()
    workload.verify(verdict)
    if not verdict.mismatches:
        problems.append(f"{name}: the oracle accepted a corrupted body")

    # 3. traced self times fit inside the client round trip.
    timed = record["spans"].request_self_times()
    attributed = [rid for rid, (_, served, _) in timed.items() if served > 0]
    if not attributed and name != "routed-read":
        problems.append(f"{name}: no server span was joined to a client request")
    for rid, (_, served, rtt) in timed.items():
        if served > rtt + 1e-9:
            problems.append(f"{name}: request {rid} self times {served:.6f}s > RTT {rtt:.6f}s")
            break
    print(
        f"{name}: {record['attempted']} ops, oracle checked {record['oracle']['checked']}, "
        f"{len(attributed)}/{len(timed)} requests with server spans"
        + (f" -- {len(problems)} problem(s)" if problems else " -- ok"),
        flush=True,
    )
    return problems


def check_missing_program() -> "list[str]":
    """In a tree holding only the benchmark, the command must fail cleanly."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(
            ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
        )
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "read-hot", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, env={"PATH": "/usr/bin:/bin"},
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if result.returncode == 0:
        problems.append("missing program: the command exited 0")
    if '"correct"' in result.stdout:
        problems.append("missing program: the command printed a result")
    print("missing program: exit", result.returncode, "-- ok" if not problems else "-- FAIL")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-tests")
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.run import WORKLOAD_NAMES, use_source_tree

    use_source_tree()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        group: [metric["name"] for metric in benchmark[group]]
        for group in ("end_to_end", "per_layer")
    }
    if [w["name"] for w in benchmark["workloads"]] != list(WORKLOAD_NAMES):
        print("BENCHMARK.json workloads differ from the command's")
        return 1
    problems = check_missing_program()
    for name in WORKLOAD_NAMES:
        problems += check_workload(name, args.seconds, declared)
    for problem in problems:
        print("FAIL:", problem)
    print("self-tests:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
