"""SIGKILL the server mid-subscription; the resumed stream must reconcile.

A streaming client is attached to ``GET .../subscribe`` when an armed
fault kills the serving process during an ingest.  The client follows
the documented reconnect protocol -- restart, resend whatever the
recovered ``state_version`` does not cover, re-subscribe with
``from_version=<last id + 1>`` -- and the resumed stream must push an
envelope byte-identical to both a polled GET and a never-crashed
in-process facade.  No version is delivered twice and none is skipped.
"""

from __future__ import annotations

import json
import threading
import urllib.request

from test_crash_recovery import (
    CHUNKS,
    ESTIMATOR,
    ServerDied,
    ServerProcess,
    observation_bodies,
    observations,
)
from repro.api.session import OpenWorldSession
from repro.serving.http import dumps_result


def subscribe(server, path, events, done, attached=None):
    """Read SSE events until the stream (or the server) dies.

    ``attached`` is set on the ``: attached`` comment: the server has
    registered the subscriber and read its first state, so a commit the
    client makes from then on reaches the stream.
    """

    def run():
        try:
            request = urllib.request.Request(f"{server.url}{path}")
            with urllib.request.urlopen(request, timeout=60) as response:
                event_id, data = None, []
                for raw in response:
                    line = raw.decode("utf-8").rstrip("\n")
                    if line == ": attached" and attached is not None:
                        attached.set()
                    elif line.startswith("id: "):
                        event_id = int(line[4:])
                    elif line.startswith("data: "):
                        data.append(line[6:])
                    elif line.startswith("data:"):
                        data.append(line[5:])
                    elif line == "" and event_id is not None:
                        events.append((event_id, "\n".join(data).encode("utf-8")))
                        event_id, data = None, []
        except OSError:
            pass  # the crash severs the stream; the client reconnects
        finally:
            done.set()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def wait_for_count(events, count, done, timeout=30.0):
    import time

    deadline = time.monotonic() + timeout
    while len(events) < count and time.monotonic() < deadline:
        time.sleep(0.02)
    assert len(events) >= count, f"wanted {count} event(s), got {len(events)}"


def test_sigkill_mid_subscription_resumes_gapless(tmp_path):
    state = tmp_path / "state"
    # Crash inside WriteAheadLog.append of the 2nd ingest: the subscriber
    # is live when the process dies, and the crashed commit was never
    # acked (nor pushed).
    server = ServerProcess(state, faults="wal.after_append:crash@2")
    status, _ = server.request(
        "POST",
        "/sessions",
        {"name": "s", "attribute": "value", "estimator": ESTIMATOR},
    )
    assert status == 201
    status, _ = server.request(
        "POST", "/sessions/s/ingest", {"observations": observation_bodies(CHUNKS[0])}
    )
    assert status == 200

    events, done = [], threading.Event()
    subscribe(server, "/sessions/s/subscribe?heartbeat_ms=200", events, done)
    wait_for_count(events, 1, done)
    assert events[0][0] == 1  # current state pushed on connect

    try:
        server.request(
            "POST",
            "/sessions/s/ingest",
            {"observations": observation_bodies(CHUNKS[1])},
        )
    except ServerDied:
        pass
    server.wait_killed()
    assert done.wait(timeout=30)  # the stream died with the server

    # --- reconcile: restart, resend unacked chunks, re-subscribe -------- #
    server = ServerProcess(state)
    try:
        status, body = server.request("GET", "/sessions/s/estimate")
        assert status == 200
        version = json.loads(server.request("GET", "/sessions")[1])["sessions"][0][
            "state_version"
        ]
        assert version >= 1
        resume_from = events[-1][0] + 1
        resumed, resumed_done = [], threading.Event()
        resumed_attached = threading.Event()
        subscribe(
            server,
            f"/sessions/s/subscribe?from_version={resume_from}"
            "&max_events=2&heartbeat_ms=200",
            resumed,
            resumed_done,
            resumed_attached,
        )
        # Resend everything past the recovered version, exactly as a
        # retrying ingest client would -- once the resumed stream is
        # attached, so the resends cannot commit before it reads its first
        # state (SSE would then merge their versions into one event).
        assert resumed_attached.wait(timeout=30)
        for chunk in CHUNKS[version:]:
            status, _ = server.request(
                "POST", "/sessions/s/ingest", {"observations": observation_bodies(chunk)}
            )
            assert status == 200
        wait_for_count(resumed, 2, resumed_done)

        all_ids = [event_id for event_id, _ in events] + [
            event_id for event_id, _ in resumed
        ]
        # Gapless and duplicate-free across the crash: the resumed stream
        # starts exactly where the severed one stopped.
        assert all_ids == sorted(set(all_ids))
        assert all_ids[0] == 1 and all_ids[-1] == len(CHUNKS)

        facade = OpenWorldSession("value", estimator=ESTIMATOR)
        for chunk in CHUNKS:
            facade.ingest(observations(chunk))
        _, polled = server.request("GET", "/sessions/s/estimate")
        assert resumed[-1][1] == polled
        assert polled == dumps_result(facade.estimate().to_dict())
    finally:
        server.kill()
