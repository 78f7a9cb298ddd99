"""Closed-loop load generation over keep-alive HTTP connections.

Every caller of this API waits for its reply (a dashboard polls, an
ingest pipeline waits for the ack, a subscriber waits for the next
event), so the load is a closed loop: each client thread sends its next
request only after the previous one completed.  One process, at most
two client threads, each on one keep-alive ``http.client`` connection.
"""

from __future__ import annotations

import gzip
import http.client
import json
import socket
import threading
import time
from typing import Any, Callable

#: Per-request socket timeout; a request slower than this is a failure.
REQUEST_TIMEOUT_S = 60.0


class RequestFailed(Exception):
    """A non-2xx status, a timeout, a refusal or a torn connection."""


class KeepAliveClient:
    """One persistent HTTP/1.1 connection, reopened after a failure."""

    def __init__(self, address: "tuple[str, int]", *, accept_gzip: bool = False) -> None:
        self.address = address
        self.accept_gzip = accept_gzip
        self._connection: "http.client.HTTPConnection | None" = None

    def request(self, method: str, path: str, body: "bytes | None" = None) -> bytes:
        """Send one request; returns the (gunzipped) body of a 2xx reply."""
        headers = {}
        if self.accept_gzip:
            headers["Accept-Encoding"] = "gzip"
        if body is not None:
            headers["Content-Type"] = "application/json"
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                *self.address, timeout=REQUEST_TIMEOUT_S
            )
        try:
            self._connection.request(method, path, body=body, headers=headers)
            response = self._connection.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            raise RequestFailed(f"{method} {path}: {type(exc).__name__}: {exc}") from exc
        if response.getheader("Content-Encoding") == "gzip":
            payload = gzip.decompress(payload)
        if response.will_close:
            self.close()
        if not 200 <= response.status < 300:
            raise RequestFailed(f"{method} {path}: HTTP {response.status}: {payload[:200]!r}")
        return payload

    def json(self, method: str, path: str, body: "Any | None" = None) -> Any:
        raw = json.dumps(body).encode("utf-8") if body is not None else None
        return json.loads(self.request(method, path, raw))

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


class Subscriber:
    """Reads one SSE stream on a thread; records ``(received, id, data)``.

    ``data`` is the event's ``data:`` lines joined with newlines -- the
    bytes ``GET .../estimate`` serves at that version.
    """

    def __init__(self, address: "tuple[str, int]", path: str) -> None:
        self.events: "list[tuple[float, int, bytes]]" = []
        self.error: "str | None" = None
        self.opened = 0.0
        self.closed = 0.0
        self._connection = http.client.HTTPConnection(*address, timeout=REQUEST_TIMEOUT_S)
        self._sock: "socket.socket | None" = None
        self._path = path
        self._stopping = False
        self._thread = threading.Thread(target=self._read, name="perfbench-subscriber")
        self._first = threading.Event()

    def start(self, timeout: float = 30.0) -> None:
        """Open the stream and wait until its first event arrives."""
        self._thread.start()
        if not self._first.wait(timeout):
            raise RequestFailed(f"no first event on {self._path} within {timeout}s")

    def wait_for(self, version: int, timeout: float) -> bool:
        """Wait until an event with ``id >= version`` arrived."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.events and self.events[-1][1] >= version:
                return True
            time.sleep(0.005)
        return False

    @property
    def thread(self) -> "int | None":
        return self._thread.native_id

    def stop(self) -> None:
        self._stopping = True
        # A close-delimited response detaches the socket from the
        # connection, so shut down the one captured at connect time.
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._thread.join(timeout=30)
        self._connection.close()

    def _read(self) -> None:
        self.opened = time.perf_counter()
        try:
            self._connection.request("GET", self._path)
            self._sock = self._connection.sock
            response = self._connection.getresponse()
            if response.status != 200:
                self.error = f"subscribe: HTTP {response.status}"
                self._first.set()
                return
            event_id = None
            data: "list[bytes]" = []
            while True:
                line = response.readline()
                if not line:
                    break
                line = line.rstrip(b"\n")
                if line.startswith(b"id: "):
                    event_id = int(line[4:])
                elif line.startswith(b"data: "):
                    data.append(line[6:])
                elif not line and event_id is not None:
                    self.events.append((time.perf_counter(), event_id, b"\n".join(data)))
                    self._first.set()
                    event_id, data = None, []
        except (OSError, http.client.HTTPException, ValueError) as exc:
            if not self._stopping:
                self.error = f"subscribe: {type(exc).__name__}: {exc}"
        finally:
            self.closed = time.perf_counter()
            self._first.set()


def closed_loop(
    clients: "list[Callable[[float], None]]", seconds: float
) -> None:
    """Run each client's step function in its own thread until the deadline.

    A step function sends one request and records it; it receives the
    deadline and is called again until the deadline passes.
    """
    barrier = threading.Barrier(len(clients))
    errors: "list[BaseException]" = []

    def run(step: Callable[[float], None]) -> None:
        barrier.wait()
        deadline = time.perf_counter() + seconds
        try:
            while time.perf_counter() < deadline:
                step(deadline)
        except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(step,), name=f"perfbench-client-{index}")
        for index, step in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
