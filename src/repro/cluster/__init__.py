"""Real networked cluster runtime: TCP shuffle, worker processes, RPC.

The in-process engines model lossy transport; this package makes it
real.  A :class:`~repro.cluster.engine.ClusterRuntime` forks worker
processes, each hosting a TCP :class:`~repro.cluster.shuffle.ShuffleServer`
and a task executor, coordinated over a framed RPC protocol
(:mod:`repro.cluster.rpc`) that reuses the shuffle wire codec for
message framing.  Map outputs travel between processes as
:class:`~repro.dfs.wire.WireBatch` frames over sockets, fetched through
the same :func:`~repro.engine.recovery.run_fetch_stream` retry/backoff/
dedup protocol the threaded engine uses — so a SIGKILLed worker is
recovered by the existing epoch-restart and checkpoint-resume machinery,
just over real TCP.

The coordinator is a pure state machine in a thin I/O shell:
:mod:`repro.cluster.dispatch` makes every scheduling decision and never
touches a socket, a thread or a clock; :mod:`repro.cluster.coordinator`
owns the sockets, the journal file and the clock (docs/cluster.md).

Robustness extensions (PR 7): the coordinator write-ahead journals all
scheduling state (:mod:`repro.cluster.journal`) and a restarted
coordinator resumes in-flight jobs on surviving worker state; leases
expire wedged-but-connected workers; and a seedable network-chaos proxy
(:mod:`repro.cluster.netchaos`) degrades shuffle/RPC links with
latency, throttling, resets, partitions and bit corruption to prove the
CRC-or-nothing integrity story under a hostile network.

Telemetry plane (PR 8, :mod:`repro.cluster.telemetry`): the coordinator
stamps every grant with a :class:`~repro.cluster.telemetry.TraceContext`,
workers ship span/event/counter/series deltas as CRC'd wire frames on
their heartbeats, and the coordinator merges everything — clock-aligned
— into one multi-process Chrome trace, a totally-ordered event stream,
and the live status snapshot served over the RPC ``status`` verb
(rendered by ``repro top``).

Preemptible jobs (PR 10): the coordinator can checkpoint-park a running
job (``preempt``/``resume_job``) — uncommitted reduce attempts stop at
their next wire-batch boundary, cutting a checkpoint when enabled, and
the parked job's map outputs stay held on workers until a resume
re-grants the stopped reduces with replay-only-the-tail restores.  A
failure-aware quarantine (:mod:`repro.cluster.quarantine`) drains
workers that fail too many tasks inside a sliding window, and per-job
retry budgets (``retry_mode="degrade"``) retry poisoned tasks on other
workers before failing typed with :class:`ClusterTaskError`.
"""

from repro.cluster.engine import ClusterEngine, ClusterRuntime, cluster_recovery
from repro.cluster.coordinator import (
    ClusterJobError,
    ClusterTaskError,
    Coordinator,
    JobPreemptedError,
)
from repro.cluster.journal import Journal, JournalError, replay_journal
from repro.cluster.netchaos import ChaosPolicy, NetChaosConfig, NetChaosProxy
from repro.cluster.quarantine import QuarantineConfig, QuarantineTracker
from repro.cluster.rpc import RpcError
from repro.cluster.telemetry import (
    ClusterTelemetry,
    TelemetryBuffer,
    TraceContext,
    decode_telemetry,
    request_status,
)

__all__ = [
    "ChaosPolicy",
    "ClusterEngine",
    "ClusterJobError",
    "ClusterRuntime",
    "ClusterTaskError",
    "ClusterTelemetry",
    "Coordinator",
    "JobPreemptedError",
    "Journal",
    "JournalError",
    "NetChaosConfig",
    "NetChaosProxy",
    "QuarantineConfig",
    "QuarantineTracker",
    "RpcError",
    "TelemetryBuffer",
    "TraceContext",
    "cluster_recovery",
    "decode_telemetry",
    "replay_journal",
    "request_status",
]
