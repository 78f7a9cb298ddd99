"""repro.resilience: crash safety and graceful degradation primitives.

The layer that lets :mod:`repro.serving` survive *ungraceful* death and
*overload*, not just SIGTERM:

* :mod:`repro.resilience.wal` -- the durable append log shared by the
  write-ahead ingest log and the disk store's segment and name logs
  (CRC32-framed records; configurable fsync policy; torn-tail
  recovery).  The WAL is appended *before* session state mutates, so
  restart = snapshot + WAL-tail replay is bit-identical to a run that
  never crashed;
* :mod:`repro.resilience.faults` -- deterministic fault injection:
  named fault points inside the durability-critical paths, armed via
  ``REPRO_FAULTS=wal.before_fsync:crash@3``-style specs, so crash tests
  trigger at exact, reproducible sites;
* :mod:`repro.resilience.breaker` -- the per-session circuit breaker
  that trips after repeated estimator failures and half-opens on a
  timer;
* :mod:`repro.resilience.admission` -- the bounded admission gate
  (503 + ``Retry-After`` load shedding) and per-request deadline errors
  (504).

See DESIGN.md "Failure model and recovery" for the WAL framing, the
fsync trade-off table, the crash matrix and the breaker state machine.
"""

from repro.resilience.admission import (
    AdmissionGate,
    DeadlineExceededError,
    OverloadedError,
)
from repro.resilience.breaker import CircuitBreaker, CircuitOpenError
from repro.resilience.faults import (
    FAULT_POINTS,
    InjectedFaultError,
    arm,
    arm_from_env,
    disarm,
    fault_point,
    hit_counts,
)
from repro.resilience.wal import (
    DEFAULT_BATCH_EVERY,
    FSYNC_POLICIES,
    WalCorruptionError,
    WriteAheadLog,
    read_records,
)

__all__ = [
    "AdmissionGate",
    "CircuitBreaker",
    "CircuitOpenError",
    "DEFAULT_BATCH_EVERY",
    "DeadlineExceededError",
    "FAULT_POINTS",
    "FSYNC_POLICIES",
    "InjectedFaultError",
    "OverloadedError",
    "WalCorruptionError",
    "WriteAheadLog",
    "arm",
    "arm_from_env",
    "disarm",
    "fault_point",
    "hit_counts",
    "read_records",
]
