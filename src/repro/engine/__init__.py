"""Local execution engines — the "Hadoop" substrate this repo modifies.

- :class:`LocalEngine` — deterministic sequential reference (semantics
  oracle for the test suite).
- :class:`ThreadedEngine` — per-mapper fetch threads and a pipelined
  reduce thread, structurally faithful to the paper's §3.1.

Each engine runs both :class:`~repro.core.types.ExecutionMode` variants.
Tasks in worker processes are :class:`repro.cluster.ClusterEngine`.
"""

from repro.engine.base import (
    Engine,
    apply_combiner,
    barrier_merge_sort,
    interleave_arrival,
    partition_records,
    prepare_reducer,
    run_map_task,
    run_reduce_task,
)
from repro.engine.faults import (
    DEFAULT_MAX_ATTEMPTS,
    FaultInjector,
    RetryingTaskRunner,
    TaskAttemptError,
    TaskPermanentlyFailedError,
)
from repro.engine.instrument import (
    TaskEvent,
    TaskLog,
    concurrency_series,
    stage_boundaries,
)
from repro.engine.local import LocalEngine
from repro.engine.recovery import (
    BackoffPolicy,
    FetchAttemptError,
    FetchFaultInjector,
    FetchLedger,
    FetchPermanentlyFailedError,
    FetchTimeoutError,
    MapOutputLostError,
    MapOutputService,
    RecoveryConfig,
    ReducerCrashError,
    run_fetch_stream,
    stable_fraction,
)
from repro.engine.threaded import ThreadedEngine

__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "BackoffPolicy",
    "Engine",
    "FaultInjector",
    "FetchAttemptError",
    "FetchFaultInjector",
    "FetchLedger",
    "FetchPermanentlyFailedError",
    "FetchTimeoutError",
    "MapOutputLostError",
    "MapOutputService",
    "RecoveryConfig",
    "ReducerCrashError",
    "RetryingTaskRunner",
    "TaskAttemptError",
    "TaskPermanentlyFailedError",
    "LocalEngine",
    "TaskEvent",
    "TaskLog",
    "ThreadedEngine",
    "run_fetch_stream",
    "stable_fraction",
    "apply_combiner",
    "barrier_merge_sort",
    "concurrency_series",
    "interleave_arrival",
    "partition_records",
    "prepare_reducer",
    "run_map_task",
    "run_reduce_task",
    "stage_boundaries",
]
