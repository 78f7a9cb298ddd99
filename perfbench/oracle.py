"""Byte-identity oracle: the in-process facade at the same state_version.

Every served body must equal ``dumps_result`` of an in-process
:class:`~repro.api.session.OpenWorldSession` that was fed the same
ingests, taken at the same ``state_version`` (after gunzip where the
client asked for gzip).  The oracle runs after the timed window, so its
cost never shows in a latency.
"""

from __future__ import annotations

import json
from typing import Any

from repro.api.session import OpenWorldSession
from repro.data.records import Observation
from repro.serving.http import dumps_result


def observations(rows: "list[dict[str, Any]]") -> "list[Observation]":
    """The observations a server decodes from these ingest rows."""
    return [
        Observation(row["entity_id"], row["attributes"], row["source_id"])
        for row in rows
    ]


def ingest_body(rows: "list[dict[str, Any]]") -> bytes:
    return json.dumps({"observations": rows}).encode("utf-8")


def _served(payload: "dict[str, Any]") -> "dict[str, Any]":
    # The serving layer nulls the runtime block (it is not a function of
    # the state); the oracle applies the same rule.
    if "runtime" in payload:
        payload = dict(payload, runtime=None)
    return payload


class Facade:
    """The in-process session one served session must match byte for byte."""

    def __init__(self, name: str, attribute: str, estimator: str) -> None:
        self.name = name
        self.session = OpenWorldSession(attribute, estimator=estimator)
        self._ingested = 0

    @property
    def state_version(self) -> int:
        return self.session.state_version

    def ingest(self, rows: "list[dict[str, Any]]") -> bytes:
        """Apply one chunk; returns the ack body the server must send."""
        self._ingested = self.session.ingest(observations(rows))
        return self.ack(self.name)

    def ack(self, name: str) -> bytes:
        """The ack of the last ingest, as session ``name`` would send it."""
        return dumps_result(
            {
                "session": name,
                "ingested": self._ingested,
                "state_version": self.session.state_version,
                "n": self.session.n,
                "c": self.session.c,
            }
        )

    def estimate(self, specs: "list[str | None]", mode: "str | None" = None) -> bytes:
        """The served estimate body; ``mode="delta"`` is the facade's O(delta)
        path, byte-identical to batch by the facade's own contract."""
        payloads = [
            _served(self.session.estimate(spec=spec, mode=mode).to_dict()) for spec in specs
        ]
        return dumps_result(payloads[0] if len(payloads) == 1 else payloads)

    def query(self, sql: str) -> bytes:
        return dumps_result(_served(self.session.query(sql).to_dict()))


class Verdict:
    """Mismatches found while checking one run."""

    def __init__(self) -> None:
        self.checked = 0
        self.mismatches: "list[str]" = []

    def compare(self, what: str, expected: bytes, observed: bytes) -> None:
        self.checked += 1
        if expected != observed:
            self.mismatches.append(
                f"{what}: served {len(observed)} bytes differ from the facade's "
                f"{len(expected)} bytes"
            )

    def fail(self, message: str) -> None:
        self.mismatches.append(message)

    def gapless(self, what: str, versions: "list[int]", first: int) -> None:
        """Ack versions of one writer must run first, first+1, ... with no gap."""
        expected = list(range(first, first + len(versions)))
        if versions != expected:
            self.fail(f"{what}: ack state_versions are not gapless from {first}")
