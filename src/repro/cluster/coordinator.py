"""Cluster coordinator: registration, multi-job scheduling, journaling.

The control-plane brain of the cluster runtime.  The coordinator owns a
listening socket; each worker connects and keeps that connection for as
long as it lives (a receiver thread per connection feeds an inbox
queue, so worker death is observed as EOF the moment the OS tears the
socket down, and a worker that reconnects after a coordinator restart
re-registers on a fresh connection).

Since the multi-tenant job server (PR 9), the coordinator runs **many
jobs concurrently** over one worker pool: a single *dispatcher thread*
owns every piece of per-job state and drains the inbox, routing each
message to the job it belongs to.  :meth:`Coordinator.submit` only
builds and journals the job, hands it to the dispatcher, and blocks on
a per-job completion event — so any number of threads (the job server's
slot runners, `ClusterRuntime.run_job` callers) can submit in parallel
and their jobs interleave on the same workers.  For each job the
dispatcher:

1. journals the submission (write-ahead), broadcasts the ``job``
   message;
2. assigns map tasks (placement policy), then reduce tasks — every
   grant journaled before the assignment is sent;
3. consumes that job's messages: ``map-done`` journals and publishes
   the mapper's location to every worker, ``reduce-done`` journals and
   commits first-wins, ``heartbeat`` snapshots fold progress;
4. on worker death, every map task the dead worker owned — in *every*
   active job — is reassigned under a **bumped epoch** (in-flight fetch
   streams see the new epoch and restart, deduping through their
   ledgers) and every uncommitted reduce task is reassigned with the
   dead attempt's last heartbeat progress as ``prior``;
5. a **lease sweep** expires workers whose heartbeats stop arriving —
   a SIGSTOP'd or wedged process is indistinguishable from a healthy
   one at the socket layer, so silence past ``lease_s`` is treated as
   death (``cluster.lease.expired``) and its tasks are reassigned
   within the lease interval instead of stalling to the job deadline;
6. a per-job deadline bounds each job, so a wedged cluster fails that
   job loudly instead of hanging its submitter — without touching the
   other jobs in flight.

Crash recovery: constructed over a :class:`~repro.cluster.journal.
Journal` whose file already holds records, the coordinator replays the
longest valid prefix into per-job state; :meth:`resume` then finishes
every incomplete job — surviving map outputs (re-advertised by workers
in their ``register`` message) are reused via a fresh ``location``
broadcast, everything else is re-granted, and in-flight reduce attempts
that the owning worker reports as still active are simply awaited.

Everything the coordinator observes lands in the session's
:class:`~repro.obs.JobObservability` under ``cluster.*`` counters and
events, alongside the per-task counters merged from workers.

Telemetry plane: every map/reduce grant is stamped with a
:class:`~repro.cluster.telemetry.TraceContext`, and telemetry frames
riding on heartbeats and completion messages are ingested into
:attr:`Coordinator.telemetry` directly on the per-connection receiver
threads — so spans, events and gauge series keep merging even while no
job is active.  Ingested counters never touch the job counter path;
completion messages remain the only authoritative counter source.
A fresh connection may also open with a ``status`` message instead of
``register``: the coordinator answers with one JSON-able snapshot
(:meth:`Coordinator.status`) and closes — the ``repro top`` wire verb.
"""

from __future__ import annotations

import os
import pickle
import queue
import socket
import threading
import time
from typing import Callable, Sequence

from repro.core.job import JobSpec, split_input
from repro.core.types import Counters, JobResult, Key, Record, StageTimes, Value
from repro.dfs.wire import WireConfig
from repro.engine.base import Stopwatch, finish_result
from repro.engine.recovery import RecoveryConfig
from repro.obs import JobObservability
from repro.cluster.journal import Journal, replay_journal
from repro.cluster.quarantine import QuarantineConfig, QuarantineTracker
from repro.cluster.rpc import (
    RpcError,
    close_listener,
    recv_message,
    send_message,
)
from repro.cluster.telemetry import ClusterTelemetry, TraceContext

__all__ = [
    "ClusterJobError",
    "ClusterTaskError",
    "Coordinator",
    "DEFAULT_LEASE_S",
    "JobPreemptedError",
    "RETRY_MODES",
]

#: Placement policies for :meth:`Coordinator.submit`.  ``spread`` round-
#: robins maps and reduces over every worker.  ``maps-first`` keeps map
#: tasks off the *last* worker (when there are at least two), so chaos
#: tests can kill a reduce-only worker and exercise checkpoint resume
#: without the victim's own map outputs going stale.
PLACEMENTS = ("spread", "maps-first")

#: Heartbeats arrive every ~50ms; a worker silent for this long is
#: treated as dead even while its socket stays connected (SIGSTOP,
#: livelock).  Generous enough that scheduler jitter on a loaded host
#: cannot expire a healthy worker.
DEFAULT_LEASE_S = 2.0

#: Per-job task-failure handling for :meth:`Coordinator.submit`.
#: ``fail_fast`` fails the whole job on the first task failure (the
#: pre-PR-10 behaviour); ``degrade`` retries the failed task on a
#: different eligible worker up to the job's ``task_retries`` budget,
#: then fails the job with a typed :class:`ClusterTaskError`.
RETRY_MODES = ("fail_fast", "degrade")


class ClusterJobError(RuntimeError):
    """A cluster job failed: task error, no workers, or deadline."""


class ClusterTaskError(ClusterJobError):
    """One task exhausted its retry budget; the job fails typed.

    Distinguishes a *poisoned task* (deterministic failure that no
    retry budget can fix) from infrastructure failures, so callers can
    tell "your reducer crashes on this input" apart from "the cluster
    misbehaved".
    """

    def __init__(self, message: str, *, kind: str, index: int, worker: str) -> None:
        super().__init__(message)
        self.kind = kind
        self.index = index
        self.worker = worker


class JobPreemptedError(ClusterJobError):
    """Raised to the submitter when its job checkpoint-parks.

    Not a failure: the job's map outputs stay held on workers, its
    reduce checkpoints are on disk, and
    :meth:`Coordinator.resume_job` continues it from exactly where it
    stopped.  Derives from :class:`ClusterJobError` so callers that do
    not speak preemption still see a typed cluster error.
    """

    def __init__(self, job_id: str) -> None:
        super().__init__(
            f"{job_id} preempted (checkpoint-parked; resume to continue)"
        )
        self.job_id = job_id


class _WorkerHandle:
    __slots__ = (
        "name", "conn", "send_lock", "pid",
        "shuffle_host", "shuffle_port", "alive", "last_heartbeat",
        "gen", "held", "active_reduces",
    )

    def __init__(
        self, name: str, conn: socket.socket, fields: dict, gen: int
    ) -> None:
        self.name = name
        self.conn = conn
        self.send_lock = threading.Lock()
        self.pid = int(fields.get("pid", 0))
        self.shuffle_host = str(fields["shuffle_host"])
        self.shuffle_port = int(fields["shuffle_port"])
        self.alive = True
        self.last_heartbeat = time.monotonic()
        #: Registration generation: each (re)connection of a name gets a
        #: fresh one, so a stale connection's death cannot be mistaken
        #: for the death of its successor.
        self.gen = gen
        #: Map outputs the worker re-advertised at registration:
        #: {(job_id, mapper, epoch)} — resume reuses these.
        self.held: set[tuple[str, int, int]] = {
            (str(j), int(m), int(e))
            for j, m, e in fields.get("held", [])
        }
        #: Reduce attempts the worker reported as still running:
        #: {(job_id, reducer, attempt)} — resume awaits these.
        self.active_reduces: set[tuple[str, int, int]] = {
            (str(j), int(r), int(a))
            for j, r, a in fields.get("active", [])
        }


class _JobState:
    """Everything the coordinator must remember to finish one job.

    Built either by :meth:`Coordinator.submit` or by journal replay; the
    dispatcher thread drives it to completion either way.  The scheduling
    fields (owners, epochs, locations, outputs) are journal-replayable;
    the runtime fields below them exist only for the in-flight run and
    are owned exclusively by the dispatcher thread once the job starts.
    """

    def __init__(
        self,
        job_id: str,
        job: JobSpec,
        splits: list[list],
        wire: WireConfig,
        recovery: RecoveryConfig,
        checkpoint_root: str | None,
        placement: str,
        deadline_s: float,
    ) -> None:
        self.job_id = job_id
        self.job = job
        self.splits = splits
        self.wire = wire
        self.recovery = recovery
        self.checkpoint_root = checkpoint_root
        self.placement = placement
        self.deadline_s = deadline_s
        self.map_owner: dict[int, str] = {}
        self.map_epoch: dict[int, int] = {m: 0 for m in range(len(splits))}
        self.reduce_owner: dict[int, str] = {}
        self.reduce_attempt: dict[int, int] = {
            r: 0 for r in range(job.num_reducers)
        }
        #: mapper -> (worker, epoch) of the last accepted completion.
        self.map_locations: dict[int, tuple[str, int]] = {}
        self.merged_maps: set[int] = set()
        self.output: dict[int, list[Record]] = {}
        self.counters = Counters()
        #: reducer -> {mapper: records folded}, from owner heartbeats.
        self.progress: dict[int, dict[int, int]] = {}
        self.done = False
        # -- runtime (dispatcher-owned) fields -----------------------------
        self.kill: dict | None = None
        #: ``fail_fast`` (True) fails the job on any task failure;
        #: ``degrade`` (False) retries up to ``task_retries`` per task.
        self.fail_fast = True
        self.task_retries = 0
        #: (kind, index) -> retries already spent.
        self.retry_used: dict[tuple[str, int], int] = {}
        #: Preemption lifecycle: ``preempting`` while stop requests are
        #: out, ``parked`` once every attempt acked and the slot is free.
        self.preempting = False
        self.preempt_pending: set[int] = set()
        self.parked = False
        self.preempt_count = 0
        self.resuming = False
        self.finished = threading.Event()
        self.error: ClusterJobError | None = None
        self.result: JobResult | None = None
        self.job_fields: dict | None = None
        self.map_done_times: list[float] = []
        self.watch: Stopwatch | None = None
        self.times: StageTimes | None = None
        self.deadline_mono = 0.0
        self.span = None

    @property
    def num_maps(self) -> int:
        return len(self.splits)


class Coordinator:
    """Accepts worker registrations and runs jobs over them.

    Any number of threads may call :meth:`submit` concurrently; their
    jobs multiplex over the same workers, each bounded by its own
    deadline.  All per-job state is mutated only on the dispatcher
    thread — submitters hand their job over and block on its event.
    """

    def __init__(
        self,
        obs: JobObservability | None = None,
        host: str = "127.0.0.1",
        *,
        port: int = 0,
        journal: "Journal | str | None" = None,
        lease_s: float | None = DEFAULT_LEASE_S,
        shuffle_proxy: Callable[[str, int], tuple[str, int]] | None = None,
        quarantine: QuarantineConfig | None = None,
    ) -> None:
        self.obs = obs if obs is not None else JobObservability()
        if isinstance(journal, str):
            journal = Journal(journal)
        self._journal = journal
        self._lease_s = lease_s
        self._shuffle_proxy = shuffle_proxy
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.host, self.port = self._listener.getsockname()
        self._workers: dict[str, _WorkerHandle] = {}
        self._workers_cond = threading.Condition()
        self._gen = 0
        self._inbox: "queue.Queue[tuple[str, dict]]" = queue.Queue()
        self._closing = threading.Event()
        self._job_seq = 0
        self._job_seq_lock = threading.Lock()
        #: Merged worker telemetry (spans, events, series, skew) keyed
        #: by worker name; fed by the receiver threads.
        self.telemetry = ClusterTelemetry(self.obs)
        #: job_id -> _JobState for every job this coordinator has seen
        #: (running or finished); the live-status snapshot reads it.
        self._jobs: dict[str, _JobState] = {}
        #: job_id -> _JobState currently in flight (dispatcher-owned).
        self._active: dict[str, _JobState] = {}
        #: job_id -> _JobState checkpoint-parked by preemption.  Parked
        #: jobs still receive map-done / reduce-done (late completions
        #: keep accruing) but no new grants until resumed.
        self._parked: dict[str, _JobState] = {}
        #: Per-worker task-failure budget and the quarantined set.
        self._quarantine = QuarantineTracker(quarantine)
        #: Worker generations whose death has already been handled, so a
        #: receiver-thread EOF and a lease expiry for the same
        #: connection reassign its tasks once, not twice.
        self._handled_gens: set[int] = set()
        #: job_id -> _JobState recovered from the journal (incomplete
        #: jobs only become results via :meth:`resume`).
        self._recovered: dict[str, _JobState] = {}
        if self._journal is not None:
            self._replay()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="coordinator-accept", daemon=True
        )
        self._accept_thread.start()
        self._dispatch_thread = threading.Thread(
            target=self._dispatch_loop, name="coordinator-dispatch",
            daemon=True,
        )
        self._dispatch_thread.start()

    # -- journal -----------------------------------------------------------

    def _log(self, kind: str, fields: dict) -> None:
        """Write-ahead: journal a transition before acting on it."""
        if self._journal is None:
            return
        written = self._journal.append(kind, fields)
        self.obs.counters.increment("cluster.journal.records")
        self.obs.counters.increment("cluster.journal.bytes", written)

    def _replay(self) -> None:
        records, stats = replay_journal(self._journal.path)
        for kind, fields in records:
            self._apply(kind, fields)
        if stats.records or stats.torn_bytes:
            self.obs.counters.increment(
                "cluster.journal.replayed", stats.records
            )
            self.obs.counters.increment(
                "cluster.journal.torn_bytes", stats.torn_bytes
            )
            self.obs.events.emit(
                "cluster.journal.replay",
                records=stats.records,
                torn_bytes=stats.torn_bytes,
                jobs=len(self._recovered),
                incomplete=sum(
                    1 for s in self._recovered.values() if not s.done
                ),
            )
        # Never reuse a replayed job id for a fresh submission.
        for job_id in self._recovered:
            try:
                self._job_seq = max(self._job_seq, int(job_id.rsplit("-", 1)[1]))
            except (IndexError, ValueError):
                pass

    def _apply(self, kind: str, fields: dict) -> None:
        """Fold one replayed journal record into recovered job state."""
        if kind == "job-submit":
            state = _JobState(
                str(fields["job_id"]),
                pickle.loads(fields["job"]),
                pickle.loads(fields["splits"]),
                pickle.loads(fields["wire"]),
                pickle.loads(fields["recovery"]),
                str(fields.get("checkpoint_root", "")) or None,
                str(fields.get("placement", "spread")),
                float(fields.get("deadline_s", 60.0)),
            )
            state.task_retries = int(fields.get("task_retries", 0))
            state.fail_fast = (
                str(fields.get("retry_mode", "fail_fast")) != "degrade"
            )
            self._recovered[state.job_id] = state
            return
        state = self._recovered.get(str(fields.get("job_id", "")))
        if state is None:
            return  # grant for a submission lost to the torn tail
        if kind == "map-grant":
            mapper = int(fields["mapper"])
            state.map_owner[mapper] = str(fields["worker"])
            state.map_epoch[mapper] = int(fields["epoch"])
        elif kind == "epoch-bump":
            mapper = int(fields["mapper"])
            state.map_epoch[mapper] = int(fields["epoch"])
            held = state.map_locations.get(mapper)
            if held is not None and held[1] < state.map_epoch[mapper]:
                del state.map_locations[mapper]
        elif kind == "reduce-grant":
            reducer = int(fields["reducer"])
            state.reduce_owner[reducer] = str(fields["worker"])
            state.reduce_attempt[reducer] = int(fields["attempt"])
        elif kind == "map-location":
            mapper = int(fields["mapper"])
            epoch = int(fields["epoch"])
            if epoch == state.map_epoch.get(mapper):
                state.map_locations[mapper] = (str(fields["worker"]), epoch)
            if fields.get("first") and mapper not in state.merged_maps:
                state.merged_maps.add(mapper)
                task_counters = dict(fields.get("counters", {}))
                state.counters.merge(Counters(task_counters))
                state.counters.increment("map.tasks")
                self.obs.counters.merge_dict(task_counters)
                self.obs.counters.increment("map.tasks")
        elif kind == "reduce-commit":
            reducer = int(fields["reducer"])
            if reducer not in state.output:
                state.output[reducer] = pickle.loads(fields["output"])
                task_counters = dict(fields.get("counters", {}))
                state.counters.merge(Counters(task_counters))
                state.counters.increment("reduce.tasks")
                self.obs.counters.merge_dict(task_counters)
                self.obs.counters.increment("reduce.tasks")
        elif kind in ("job-preempt", "job-resume"):
            # Informational for replay: a job parked (or re-activated)
            # before the crash is still a non-done job, and
            # :meth:`resume` restarts every non-done job on surviving
            # worker state — held outputs and checkpoints do the rest.
            state.preempt_count += 1 if kind == "job-preempt" else 0
        elif kind == "job-done":
            state.done = True

    # -- registration ------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve_worker, args=(conn,),
                name="coordinator-recv", daemon=True,
            ).start()

    def _serve_worker(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            kind, fields = recv_message(conn)
        except (RpcError, OSError):
            conn.close()
            return
        if kind == "status":
            # One-shot status client (`repro top`): answer and hang up.
            try:
                send_message(conn, "status-reply", {"status": self.status()})
            except (RpcError, OSError):
                pass
            conn.close()
            return
        if kind != "register":
            conn.close()
            return
        name = str(fields["worker"])
        if self._shuffle_proxy is not None:
            # Interpose the chaos proxy: every location broadcast for
            # this worker's outputs points at the proxy, not the worker.
            fields = dict(fields)
            proxied = self._shuffle_proxy(
                str(fields["shuffle_host"]), int(fields["shuffle_port"])
            )
            fields["shuffle_host"], fields["shuffle_port"] = proxied
        with self._workers_cond:
            self._gen += 1
            handle = _WorkerHandle(name, conn, fields, self._gen)
            rejoined = name in self._workers
            self._workers[name] = handle
            self._workers_cond.notify_all()
        if rejoined:
            self.obs.counters.increment("cluster.workers.rejoined")
            self.obs.events.emit(
                "cluster.worker.rejoin", worker=name, pid=handle.pid,
                held=len(handle.held), active=len(handle.active_reduces),
            )
        else:
            self.obs.counters.increment("cluster.workers")
            self.obs.events.emit(
                "cluster.worker.register", worker=name, pid=handle.pid,
                shuffle_port=handle.shuffle_port,
            )
        self._inbox.put(("worker-joined", {"worker": name, "gen": handle.gen}))
        while not self._closing.is_set():
            try:
                kind, fields = recv_message(conn)
            except (RpcError, OSError):
                break
            self.obs.counters.increment("cluster.rpc.messages")
            if kind == "heartbeat":
                # Updated here, not in the dispatcher: leases must stay
                # fresh even while the dispatcher chews on a busy inbox.
                handle.last_heartbeat = time.monotonic()
            frame = fields.get("telemetry")
            if isinstance(frame, (bytes, bytearray)):
                # Merged here, on the receiver thread, for the same
                # reason as the heartbeat stamp: telemetry must keep
                # flowing into the status plane between jobs too.
                self.telemetry.ingest(bytes(frame))
            self._inbox.put((kind, fields))
        handle.alive = False
        if not self._closing.is_set():
            self._inbox.put(("worker-dead", {"worker": name, "gen": handle.gen}))

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> None:
        """Block until ``count`` workers have registered.

        Condition-based: returns the moment the Nth registration lands
        rather than on the next poll tick, and raises precisely at
        ``timeout`` otherwise.
        """
        deadline = time.monotonic() + timeout
        with self._workers_cond:
            while len(self._workers) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ClusterJobError(
                        f"only {len(self._workers)}/{count} workers "
                        f"registered within {timeout}s"
                    )
                self._workers_cond.wait(timeout=remaining)

    # -- messaging ---------------------------------------------------------

    def _send_to(self, handle: _WorkerHandle, kind: str, fields: dict) -> bool:
        if not handle.alive:
            return False
        try:
            with handle.send_lock:
                send_message(handle.conn, kind, fields)
            return True
        except OSError:
            handle.alive = False
            return False

    def _broadcast(self, kind: str, fields: dict) -> None:
        for handle in self._alive_workers():
            self._send_to(handle, kind, fields)

    def _alive_workers(self) -> list[_WorkerHandle]:
        with self._workers_cond:
            return [h for h in self._workers.values() if h.alive]

    def _eligible_workers(self) -> list[_WorkerHandle]:
        """Alive workers that may receive grants (not quarantined)."""
        now = time.monotonic()
        return [
            h
            for h in self._alive_workers()
            if not self._quarantine.is_quarantined(h.name, now)
        ]

    def _handle_of(self, name: str) -> _WorkerHandle | None:
        with self._workers_cond:
            return self._workers.get(name)

    # -- submission --------------------------------------------------------

    def submit(
        self,
        job: JobSpec,
        pairs: Sequence[tuple[Key, Value]],
        num_maps: int = 4,
        *,
        wire: WireConfig,
        recovery: RecoveryConfig,
        checkpoint_root: str | None = None,
        kill: dict | None = None,
        placement: str = "spread",
        deadline_s: float = 60.0,
        job_id: str | None = None,
        task_retries: int = 0,
        retry_mode: str = "fail_fast",
    ) -> JobResult:
        """Run one job to completion; raises :class:`ClusterJobError`.

        Safe to call from many threads at once — each call blocks until
        *its* job finishes while the dispatcher multiplexes all of them
        over the shared workers.  ``checkpoint_root`` is a *base*
        directory: the job's snapshots land in a ``<job_id>/`` subtree,
        so concurrent jobs can never read each other's checkpoints.
        ``job_id`` lets a caller (the job server) pin its own stable
        identifier so it can later :meth:`preempt` / :meth:`resume_job`
        the job; ``retry_mode``/``task_retries`` pick the task-failure
        policy (see :data:`RETRY_MODES`).  A preempted submission
        raises :class:`JobPreemptedError` — park, not failure.
        """
        if placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {placement!r}")
        if retry_mode not in RETRY_MODES:
            raise ValueError(
                f"unknown retry mode {retry_mode!r} (choose from {RETRY_MODES})"
            )
        job.validate()
        if not self._alive_workers():
            raise ClusterJobError("no live workers")
        with self._job_seq_lock:
            self._job_seq += 1
            if job_id is None:
                job_id = f"job-{self._job_seq}"
        if job_id in self._jobs or job_id in self._recovered:
            raise ClusterJobError(f"duplicate job id {job_id!r}")
        if checkpoint_root is not None:
            checkpoint_root = os.path.join(checkpoint_root, job_id)
            os.makedirs(checkpoint_root, exist_ok=True)
        splits = [list(split) for split in split_input(pairs, num_maps)]
        state = _JobState(
            job_id, job, splits, wire, recovery, checkpoint_root,
            placement, deadline_s,
        )
        state.kill = kill
        state.task_retries = int(task_retries)
        state.fail_fast = retry_mode != "degrade"
        self._log(
            "job-submit",
            {
                "job_id": job_id,
                "job": pickle.dumps(job),
                "splits": pickle.dumps(splits),
                "wire": pickle.dumps(wire),
                "recovery": pickle.dumps(recovery),
                "checkpoint_root": checkpoint_root or "",
                "placement": placement,
                "deadline_s": float(deadline_s),
                "task_retries": int(task_retries),
                "retry_mode": retry_mode,
            },
        )
        self._inbox.put(("job-start", {"state": state}))
        return self._await(state)

    def preempt(self, job_id: str) -> None:
        """Ask the dispatcher to checkpoint-park one running job.

        Asynchronous and idempotent: the request is journaled
        write-ahead, every uncommitted reduce attempt is asked to stop
        at its next wire-batch boundary, and once all of them ack the
        job parks — its submitter's blocked :meth:`submit` call raises
        :class:`JobPreemptedError`.  Unknown, finished or
        already-parking jobs are a no-op.
        """
        self._inbox.put(("preempt-job", {"job_id": job_id}))

    def resume_job(self, job_id: str) -> JobResult:
        """Continue a checkpoint-parked job to completion; blocks.

        Held map outputs are reused via fresh location broadcasts;
        uncommitted reduces are re-granted at the next attempt number
        and restore from the checkpoints their preempted predecessors
        cut, replaying only the un-consumed tail of each stream.
        """
        state = self._jobs.get(job_id)
        if state is None:
            raise ClusterJobError(f"unknown job {job_id!r}")
        if state.done and state.result is not None:
            return state.result
        if not state.parked:
            raise ClusterJobError(f"{job_id} is not parked")
        state.parked = False
        state.error = None
        state.finished = threading.Event()
        self._inbox.put(("job-resume", {"state": state}))
        return self._await(state)

    def resume(self) -> dict[str, JobResult]:
        """Finish every journal-recovered job that never committed.

        Callers should :meth:`wait_for_workers` first so the surviving
        workers' re-registrations (with their held outputs and active
        attempts) are on the books before placement decisions are made.
        Incomplete jobs are started together and finish concurrently.
        """
        pending = [
            state for state in self._recovered.values() if not state.done
        ]
        for state in pending:
            self.obs.counters.increment("cluster.resume.jobs")
            state.resuming = True
            self._inbox.put(("job-start", {"state": state}))
        results: dict[str, JobResult] = {}
        for state in pending:
            results[state.job_id] = self._await(state)
        return results

    def _await(self, state: _JobState) -> JobResult:
        """Block the submitting thread until the dispatcher finishes."""
        while not state.finished.wait(timeout=0.2):
            if self._closing.is_set():
                raise ClusterJobError(
                    f"coordinator shut down while {state.job_id} ran"
                )
        if state.error is not None:
            raise state.error
        assert state.result is not None
        return state.result

    # -- dispatcher --------------------------------------------------------

    def _dispatch_loop(self) -> None:
        """The single thread that owns all per-job scheduling state."""
        while not self._closing.is_set():
            self._sweep_leases()
            self._sweep_deadlines()
            self._sweep_quarantine()
            try:
                kind, fields = self._inbox.get(timeout=0.05)
            except queue.Empty:
                continue
            try:
                self._handle_message(kind, fields)
            except Exception as exc:  # noqa: BLE001
                # One malformed frame (bad pickle, out-of-range index)
                # must not kill the lone dispatcher — that would hang
                # every active and future job.  Fail the affected job
                # if the frame names one; otherwise drop the frame.
                self.obs.counters.increment("cluster.dispatch.errors")
                try:
                    state = self._active.get(str(fields.get("job_id", "")))
                    if state is not None:
                        self._fail_job(
                            state,
                            ClusterJobError(
                                f"{state.job_id}: dispatcher error on "
                                f"{kind!r}: {type(exc).__name__}: {exc}"
                            ),
                        )
                except Exception:  # noqa: BLE001 — keep dispatching
                    pass

    def _handle_message(self, kind: str, fields: dict) -> None:
        if kind == "job-start":
            self._begin_job(fields["state"])
            return
        if kind == "preempt-job":
            self._handle_preempt(str(fields.get("job_id", "")))
            return
        if kind == "job-resume":
            self._resume_parked(fields["state"])
            return
        if kind == "worker-dead":
            self._handle_worker_dead(
                str(fields["worker"]), int(fields.get("gen", 0))
            )
            return
        if kind == "worker-joined":
            self._handle_worker_joined(str(fields["worker"]))
            return
        if kind == "heartbeat":
            self.obs.counters.increment("cluster.heartbeats")
            state = self._active.get(str(fields.get("job_id", "")))
            if state is not None:
                for reducer, folded in dict(
                    fields.get("progress", {})
                ).items():
                    snapshot = state.progress.setdefault(int(reducer), {})
                    for mapper, count in dict(folded).items():
                        mapper = int(mapper)
                        if int(count) > snapshot.get(mapper, 0):
                            snapshot[mapper] = int(count)
            return
        job_id = str(fields.get("job_id", ""))
        state = self._active.get(job_id)
        if state is None and kind in ("map-done", "reduce-done", "reduce-preempted"):
            # Parked jobs keep accepting late completions: a map or
            # reduce that finishes during the park shrinks the work the
            # resume must re-grant.
            state = self._parked.get(job_id)
        if state is None:
            return  # stale message for a finished or unknown job
        if kind == "map-done":
            self._handle_map_done(state, fields)
        elif kind == "reduce-done":
            reducer = int(fields["reducer"])
            if int(fields["attempt"]) != state.reduce_attempt[reducer]:
                return  # superseded attempt
            self._commit_reduce(state, reducer, fields)
            state.preempt_pending.discard(reducer)
            self._maybe_finish(state)
            if not state.finished.is_set():
                self._maybe_park(state)
        elif kind == "reduce-preempted":
            reducer = int(fields["reducer"])
            if int(fields["attempt"]) != state.reduce_attempt[reducer]:
                return  # stale ack from a superseded attempt
            self.obs.counters.increment("cluster.preempt.acks")
            state.preempt_pending.discard(reducer)
            # The stopped attempt no longer runs anywhere; resume
            # re-grants this reducer at the next attempt number.
            state.reduce_owner.pop(reducer, None)
            self._maybe_park(state)
        elif kind == "task-failed":
            if (
                fields.get("kind") == "reduce"
                and int(fields.get("attempt", 0))
                != state.reduce_attempt[int(fields["index"])]
            ):
                return  # a superseded attempt failing late
            self._handle_task_failed(
                state,
                str(fields.get("kind", "")),
                int(fields.get("index", 0)),
                int(fields.get("attempt", 0)),
                str(fields.get("worker", "")),
                str(fields.get("error", "")),
            )

    # -- job lifecycle (dispatcher thread only) ----------------------------

    def _begin_job(self, state: _JobState) -> None:
        workers = self._eligible_workers()
        if not workers:
            quarantined = self._quarantine.quarantined(time.monotonic())
            self._fail_job(
                state,
                ClusterJobError(
                    "no eligible workers"
                    + (
                        f" ({len(quarantined)} quarantined)"
                        if quarantined
                        else ""
                    )
                ),
            )
            return
        job = state.job
        if state.job_id not in self._jobs:
            self.obs.counters.increment("cluster.jobs")
        self._jobs[state.job_id] = state
        self._active[state.job_id] = state
        state.watch = Stopwatch()
        state.times = StageTimes()
        state.map_done_times = []
        state.deadline_mono = time.monotonic() + state.deadline_s
        state.span = self.obs.tracer.open(
            job.name, "job", mode=job.mode.value, engine="cluster",
            resumed=state.resuming,
        )
        state.job_fields = {
            "job_id": state.job_id,
            "job": pickle.dumps(job),
            "wire": pickle.dumps(state.wire),
            "recovery": pickle.dumps(state.recovery),
            "checkpoint_root": state.checkpoint_root or "",
            "kill": state.kill or {},
        }
        self._broadcast("job", state.job_fields)
        state.times.map_start = state.watch.elapsed()
        if state.resuming:
            self._place_resumed(state)
        else:
            self._place_fresh(state, workers)
        # A resumed job whose every reduce-commit survived in the journal
        # (only the job-done record was torn) is already complete.
        self._maybe_finish(state)

    def _grant_map(
        self, state: _JobState, mapper: int, handle: _WorkerHandle
    ) -> None:
        state.map_owner[mapper] = handle.name
        self._log(
            "map-grant",
            {
                "job_id": state.job_id, "mapper": mapper,
                "epoch": state.map_epoch[mapper], "worker": handle.name,
            },
        )
        self._send_to(
            handle,
            "assign-map",
            {
                "job_id": state.job_id,
                "mapper": mapper,
                "epoch": state.map_epoch[mapper],
                "split": pickle.dumps(state.splits[mapper]),
                "ctx": TraceContext(
                    job_id=state.job_id,
                    task_id=f"map-{mapper}",
                    attempt=0,
                    epoch=state.map_epoch[mapper],
                ).as_fields(),
            },
        )

    def _grant_reduce(
        self, state: _JobState, reducer: int, handle: _WorkerHandle,
        prior: dict,
    ) -> None:
        state.reduce_owner[reducer] = handle.name
        self._log(
            "reduce-grant",
            {
                "job_id": state.job_id, "reducer": reducer,
                "attempt": state.reduce_attempt[reducer],
                "worker": handle.name,
            },
        )
        self._send_to(
            handle,
            "assign-reduce",
            {
                "job_id": state.job_id,
                "reducer": reducer,
                "attempt": state.reduce_attempt[reducer],
                "num_maps": state.num_maps,
                "prior": {int(m): int(c) for m, c in prior.items()},
                "ctx": TraceContext(
                    job_id=state.job_id,
                    task_id=f"reduce-{reducer}",
                    attempt=state.reduce_attempt[reducer],
                    epoch=0,
                ).as_fields(),
            },
        )

    def _location_fields(self, state: _JobState, mapper: int) -> dict | None:
        held = state.map_locations.get(mapper)
        if held is None:
            return None
        owner = self._handle_of(held[0])
        if owner is None:
            return None
        return {
            "job_id": state.job_id,
            "mapper": mapper,
            "epoch": held[1],
            "host": owner.shuffle_host,
            "port": owner.shuffle_port,
        }

    def _handle_map_done(self, state: _JobState, fields: dict) -> None:
        mapper = int(fields["mapper"])
        epoch = int(fields["epoch"])
        if epoch != state.map_epoch[mapper]:
            return  # superseded by a reassignment
        owner = str(fields["worker"])
        handle = self._handle_of(owner)
        if handle is None:
            return
        first = mapper not in state.merged_maps
        self._log(
            "map-location",
            {
                "job_id": state.job_id,
                "mapper": mapper,
                "epoch": epoch,
                "worker": owner,
                "counters": (
                    dict(fields.get("counters", {})) if first else {}
                ),
                "first": first,
            },
        )
        state.map_locations[mapper] = (owner, epoch)
        # Track the held output on the live handle too: registration
        # snapshots go stale the moment new maps finish, and park/resume
        # validates held outputs against this set.
        handle.held.add((state.job_id, mapper, epoch))
        if first:
            # First completion of this map task: merge its counters once
            # (re-executions repeat the work but must not double the
            # record totals).
            state.merged_maps.add(mapper)
            state.counters.merge(Counters(dict(fields.get("counters", {}))))
            state.counters.increment("map.tasks")
            self.obs.counters.merge_dict(fields.get("counters", {}))
            self.obs.counters.increment("map.tasks")
            state.map_done_times.append(state.watch.elapsed())
        else:
            self.obs.counters.increment("map.reexecutions")
        self._broadcast("location", self._location_fields(state, mapper))

    def _commit_reduce(
        self, state: _JobState, reducer: int, fields: dict
    ) -> None:
        if reducer in state.output:
            return  # a stale attempt lost the race
        self._log(
            "reduce-commit",
            {
                "job_id": state.job_id,
                "reducer": reducer,
                "attempt": int(fields["attempt"]),
                "output": bytes(fields["output"]),
                "counters": dict(fields.get("counters", {})),
            },
        )
        state.output[reducer] = pickle.loads(fields["output"])
        state.counters.merge(Counters(dict(fields.get("counters", {}))))
        state.counters.increment("reduce.tasks")
        self.obs.counters.merge_dict(fields.get("counters", {}))
        self.obs.counters.increment("reduce.tasks")
        self.obs.counters.increment("shuffle.records.fetched", 0)
        self.obs.counters.increment("shuffle.records.consumed", 0)

    def _maybe_finish(self, state: _JobState) -> None:
        if state.finished.is_set():
            return
        if len(state.output) < state.job.num_reducers:
            return
        self._log("job-done", {"job_id": state.job_id})
        state.done = True
        times = state.times
        elapsed = state.watch.elapsed()
        times.first_map_done = min(state.map_done_times, default=elapsed)
        times.last_map_done = max(state.map_done_times, default=elapsed)
        times.shuffle_done = elapsed
        times.sort_done = times.shuffle_done
        times.reduce_done = elapsed
        times.job_done = elapsed
        state.result = finish_result(
            state.job, state.output, state.counters, times
        )
        self._conclude(state)

    def _fail_job(self, state: _JobState, error: ClusterJobError) -> None:
        if state.finished.is_set():
            return
        state.error = error
        self._conclude(state)

    def _conclude(self, state: _JobState) -> None:
        """Common tail of success and failure: release, notify, unblock."""
        self._active.pop(state.job_id, None)
        self._parked.pop(state.job_id, None)
        self._broadcast("job-done", {"job_id": state.job_id})
        # The job-done broadcast makes workers drop the job's held map
        # outputs; mirror that in the coordinator's book-keeping so a
        # later resume of some *other* job cannot trust a stale entry.
        for handle in self._alive_workers():
            handle.held = {
                key for key in handle.held if key[0] != state.job_id
            }
        if state.span is not None:
            self.obs.tracer.close(state.span)
            state.span = None
        state.finished.set()

    # -- preemption (dispatcher thread only) -------------------------------

    def _handle_preempt(self, job_id: str) -> None:
        state = self._active.get(job_id)
        if state is None or state.finished.is_set() or state.preempting:
            return  # unknown, finished, parked or already parking: no-op
        # Write-ahead: journal the intent before any stop request goes
        # out.  A coordinator crash between this record and the acks
        # replays into a non-done job, and :meth:`resume` finishes it
        # from held outputs and whatever checkpoints the stop requests
        # managed to cut.
        self._log("job-preempt", {"job_id": job_id})
        state.preempting = True
        state.preempt_count += 1
        self.obs.counters.increment("cluster.preempt.jobs")
        self.obs.events.emit(
            "cluster.preempt.job",
            job=job_id,
            reduces_done=len(state.output),
            reduces_running=sum(
                1 for r in state.reduce_owner if r not in state.output
            ),
        )
        self._push_preempts(state)
        self._maybe_park(state)

    def _push_preempts(self, state: _JobState) -> None:
        """Ask every uncommitted reduce attempt to stop at its next
        wire-batch boundary; attempts whose owner is gone have nothing
        running and need no ack."""
        for reducer, owner in sorted(state.reduce_owner.items()):
            if reducer in state.output:
                continue
            state.preempt_pending.add(reducer)
            handle = self._handle_of(owner)
            sent = (
                handle is not None
                and handle.alive
                and self._send_to(
                    handle,
                    "preempt-reduce",
                    {
                        "job_id": state.job_id,
                        "reducer": reducer,
                        "attempt": state.reduce_attempt[reducer],
                    },
                )
            )
            if sent:
                self.obs.counters.increment("cluster.preempt.reduces")
            else:
                state.preempt_pending.discard(reducer)
                state.reduce_owner.pop(reducer, None)

    def _maybe_park(self, state: _JobState) -> None:
        """Park once every stop request is acked (or raced a commit)."""
        if (
            not state.preempting
            or state.finished.is_set()
            or state.preempt_pending
        ):
            return
        state.preempting = False
        state.parked = True
        self._active.pop(state.job_id, None)
        self._parked[state.job_id] = state
        state.error = JobPreemptedError(state.job_id)
        self.obs.counters.increment("cluster.preempt.parked")
        self.obs.events.emit(
            "cluster.job.parked",
            job=state.job_id,
            maps_held=len(state.map_locations),
            reduces_done=len(state.output),
        )
        # Deliberately NOT :meth:`_conclude`: no job-done broadcast, so
        # workers keep the job context, their held map outputs and the
        # location table — exactly the state the resume reuses.
        if state.span is not None:
            self.obs.tracer.close(state.span)
            state.span = None
        state.finished.set()

    def _resume_parked(self, state: _JobState) -> None:
        if (
            state.done
            or state.finished.is_set()
            or state.job_id in self._active
        ):
            return  # a late reduce-done completed the job before resume
        self._parked.pop(state.job_id, None)
        self._log("job-resume", {"job_id": state.job_id})
        self.obs.counters.increment("cluster.preempt.resumed")
        self.obs.events.emit("cluster.job.resumed", job=state.job_id)
        state.resuming = True
        self._begin_job(state)

    def _handle_worker_dead(self, name: str, gen: int) -> None:
        if gen in self._handled_gens:
            return
        self._handled_gens.add(gen)
        self.obs.counters.increment("cluster.workers.lost")
        self.obs.events.emit(
            "cluster.worker.lost", worker=name, jobs=len(self._active),
        )
        # Whatever the dead worker shipped up to its last heartbeat
        # stays, flagged truncated; nothing beyond it is fabricated.
        self.telemetry.mark_truncated(name)
        if not self._alive_workers():
            error = ClusterJobError(
                f"worker {name} died and no workers remain"
            )
            for state in list(self._active.values()):
                self._fail_job(state, error)
            return
        targets = self._eligible_workers()
        for state in list(self._active.values()):
            if not targets:
                self._fail_job(
                    state,
                    ClusterJobError(
                        f"worker {name} died and no eligible workers "
                        f"remain (rest quarantined)"
                    ),
                )
                continue
            # Re-execute every map task the dead worker owned under a new
            # epoch; its outputs died with its shuffle server.  In-flight
            # fetch streams observe the bumped epoch on the replacement
            # worker and restart from sequence 0 (ledger dedup applies).
            reassigned = 0
            for mapper, owner in list(state.map_owner.items()):
                if owner != name:
                    continue
                state.map_epoch[mapper] += 1
                state.map_locations.pop(mapper, None)
                self._log(
                    "epoch-bump",
                    {
                        "job_id": state.job_id, "mapper": mapper,
                        "epoch": state.map_epoch[mapper],
                    },
                )
                self._grant_map(
                    state, mapper, targets[reassigned % len(targets)]
                )
                reassigned += 1
            # Reassign uncommitted reduce tasks with the dead attempt's
            # last reported fold progress as prior, so the replacement
            # attempt classifies re-done records (replayed after a
            # checkpoint resume, refolded otherwise).  For a job that is
            # mid-preemption there is nothing to reassign: the attempt
            # died with the worker, so its stop request needs no ack and
            # the resume re-grants the reducer from its checkpoint.
            for reducer, owner in list(state.reduce_owner.items()):
                if owner != name or reducer in state.output:
                    continue
                if state.preempting:
                    state.reduce_owner.pop(reducer, None)
                    state.preempt_pending.discard(reducer)
                    continue
                state.reduce_attempt[reducer] += 1
                self._grant_reduce(
                    state,
                    reducer,
                    targets[reassigned % len(targets)],
                    state.progress.get(reducer, {}),
                )
                reassigned += 1
            if state.preempting:
                self._maybe_park(state)
            if reassigned:
                self.obs.counters.increment(
                    "cluster.tasks.reassigned", reassigned
                )

    def _handle_worker_joined(self, name: str) -> None:
        # A worker that (re)connected mid-job: give it everything it
        # needs to participate in every active job — the job spec
        # (ignored if it already holds the context) and every current
        # output location.
        handle = self._handle_of(name)
        if handle is None or not handle.alive:
            return
        for state in list(self._active.values()):
            if state.job_fields is not None:
                self._send_to(handle, "job", state.job_fields)
            for mapper in list(state.map_locations):
                fields = self._location_fields(state, mapper)
                if fields is not None:
                    self._send_to(handle, "location", fields)

    # -- task failures & quarantine (dispatcher thread only) ---------------

    def _handle_task_failed(
        self,
        state: _JobState,
        kind: str,
        index: int,
        attempt: int,
        worker: str,
        error: str,
    ) -> None:
        handle = self._handle_of(worker)
        gen = handle.gen if handle is not None else -1
        self.obs.counters.increment("cluster.tasks.failed")
        # Dedup key spans the worker generation so a failure re-reported
        # across a reconnect counts once; recording may newly quarantine
        # the worker, which immediately drops it from the eligible set
        # (the retry below already avoids it).
        newly = self._quarantine.record_failure(
            worker, (gen, state.job_id, kind, index, attempt),
            time.monotonic(),
        )
        try:
            if state.finished.is_set():
                return
            if state.fail_fast:
                self._fail_job(
                    state,
                    ClusterJobError(
                        f"{kind} task {index} failed on {worker}: {error}"
                    ),
                )
                return
            used = state.retry_used.get((kind, index), 0)
            if used >= state.task_retries:
                self._fail_job(
                    state,
                    ClusterTaskError(
                        f"{kind} task {index} failed on {worker} after "
                        f"{used} retr{'y' if used == 1 else 'ies'}: "
                        f"{error}",
                        kind=kind,
                        index=index,
                        worker=worker,
                    ),
                )
                return
            eligible = self._eligible_workers()
            # Prefer any worker other than the one that just failed the
            # task; with a one-worker pool the same worker is retried.
            targets = [h for h in eligible if h.name != worker] or eligible
            if not targets:
                self._fail_job(
                    state,
                    ClusterJobError(
                        f"{kind} task {index} failed on {worker} and no "
                        f"eligible workers remain to retry it"
                    ),
                )
                return
            state.retry_used[(kind, index)] = used + 1
            self.obs.counters.increment("cluster.tasks.retried")
            self.obs.events.emit(
                "cluster.task.retry",
                job=state.job_id,
                task=kind,
                index=index,
                attempt=attempt,
                worker=worker,
                retries_used=used + 1,
            )
            target = targets[(index + used) % len(targets)]
            if kind == "map":
                state.map_epoch[index] += 1
                state.map_locations.pop(index, None)
                self._log(
                    "epoch-bump",
                    {
                        "job_id": state.job_id, "mapper": index,
                        "epoch": state.map_epoch[index],
                    },
                )
                self._grant_map(state, index, target)
            else:
                state.reduce_attempt[index] += 1
                self._grant_reduce(
                    state, index, target, state.progress.get(index, {})
                )
        finally:
            # Drain the newly quarantined worker *after* the failing
            # task was handled: by now that task is owned elsewhere (or
            # its job failed), so the drain reassigns only the worker's
            # other in-flight work.
            if newly:
                self._enter_quarantine(worker)

    def _enter_quarantine(self, name: str) -> None:
        """Drain a newly quarantined worker: reassign its in-flight
        tasks; completed map outputs stay — quarantine stops grants,
        not serving."""
        self.obs.counters.increment("cluster.quarantine.workers")
        self.obs.events.emit(
            "cluster.quarantine.enter",
            worker=name,
            window_failures=self._quarantine.failure_counts().get(name, 0),
            probation_s=self._quarantine.config.probation_s,
        )
        eligible = self._eligible_workers()
        reassigned = 0
        for state in list(self._active.values()):
            for mapper, owner in list(state.map_owner.items()):
                if owner != name:
                    continue
                held = state.map_locations.get(mapper)
                if held is not None and held[1] == state.map_epoch[mapper]:
                    continue  # completed output, still served
                if not eligible:
                    self._fail_job(
                        state,
                        ClusterJobError(
                            f"worker {name} quarantined and no eligible "
                            f"workers remain"
                        ),
                    )
                    break
                state.map_epoch[mapper] += 1
                state.map_locations.pop(mapper, None)
                self._log(
                    "epoch-bump",
                    {
                        "job_id": state.job_id, "mapper": mapper,
                        "epoch": state.map_epoch[mapper],
                    },
                )
                self._grant_map(
                    state, mapper, eligible[reassigned % len(eligible)]
                )
                reassigned += 1
            if state.finished.is_set():
                continue
            for reducer, owner in list(state.reduce_owner.items()):
                if owner != name or reducer in state.output:
                    continue
                if state.preempting:
                    state.reduce_owner.pop(reducer, None)
                    state.preempt_pending.discard(reducer)
                    continue
                if not eligible:
                    self._fail_job(
                        state,
                        ClusterJobError(
                            f"worker {name} quarantined and no eligible "
                            f"workers remain"
                        ),
                    )
                    break
                state.reduce_attempt[reducer] += 1
                self._grant_reduce(
                    state,
                    reducer,
                    eligible[reassigned % len(eligible)],
                    state.progress.get(reducer, {}),
                )
                reassigned += 1
            if state.preempting:
                self._maybe_park(state)
        if reassigned:
            self.obs.counters.increment(
                "cluster.quarantine.reassigned", reassigned
            )

    def _sweep_quarantine(self) -> None:
        for name in self._quarantine.sweep(time.monotonic()):
            self.obs.counters.increment("cluster.quarantine.rejoined")
            self.obs.events.emit("cluster.quarantine.exit", worker=name)

    def _sweep_leases(self) -> None:
        if self._lease_s is None:
            return
        now = time.monotonic()
        for handle in self._alive_workers():
            idle = now - handle.last_heartbeat
            if idle <= self._lease_s:
                continue
            # Wedged but connected: treat silence as death.  Closing
            # the socket makes the worker reconnect and re-register
            # if it ever wakes up (SIGCONT).
            handle.alive = False
            self.obs.counters.increment("cluster.lease.expired")
            self.obs.events.emit(
                "cluster.lease.expired", worker=handle.name,
                idle_s=round(idle, 3),
            )
            try:
                handle.conn.close()
            except OSError:
                pass
            self._inbox.put(
                ("worker-dead", {"worker": handle.name, "gen": handle.gen})
            )

    def _sweep_deadlines(self) -> None:
        now = time.monotonic()
        for state in list(self._active.values()):
            if now < state.deadline_mono:
                continue
            self._fail_job(
                state,
                ClusterJobError(
                    f"{state.job_id} missed its {state.deadline_s}s "
                    f"deadline ({len(state.output)}"
                    f"/{state.job.num_reducers} reducers done)"
                ),
            )

    # -- placement (dispatcher thread only) --------------------------------

    def _place_fresh(
        self, state: _JobState, workers: list[_WorkerHandle]
    ) -> None:
        if state.placement == "maps-first" and len(workers) > 1:
            map_pool = workers[:-1]
            reduce_pool = list(reversed(workers))
        else:
            map_pool = workers
            reduce_pool = workers
        for mapper in range(state.num_maps):
            self._grant_map(state, mapper, map_pool[mapper % len(map_pool)])
        for reducer in range(state.job.num_reducers):
            self._grant_reduce(
                state, reducer, reduce_pool[reducer % len(reduce_pool)], {}
            )

    def _place_resumed(self, state: _JobState) -> None:
        """Resume placement: reuse surviving work, re-grant the rest.

        A map output counts as surviving when its journaled location's
        owner re-registered advertising exactly that (job, mapper,
        epoch); anything less forces a re-execution under a bumped
        epoch — resume must never fabricate a location nobody serves.
        An uncommitted reduce attempt is left alone when its owner
        reports it still running (the attempt's reduce-done will arrive
        over the new connection); otherwise it is re-granted with a
        fresh attempt number, superseding the orphan.
        """
        job_id = state.job_id
        targets = self._eligible_workers()
        if not targets:
            self._fail_job(state, ClusterJobError("no eligible workers"))
            return
        index = 0
        reused = maps_reassigned = 0
        for mapper in range(state.num_maps):
            held = state.map_locations.get(mapper)
            owner = self._handle_of(held[0]) if held is not None else None
            if (
                held is not None
                and owner is not None
                and owner.alive
                and (job_id, mapper, held[1]) in owner.held
            ):
                self._broadcast(
                    "location",
                    {
                        "job_id": job_id,
                        "mapper": mapper,
                        "epoch": held[1],
                        "host": owner.shuffle_host,
                        "port": owner.shuffle_port,
                    },
                )
                reused += 1
                continue
            state.map_epoch[mapper] += 1
            state.map_locations.pop(mapper, None)
            self._log(
                "epoch-bump",
                {
                    "job_id": job_id, "mapper": mapper,
                    "epoch": state.map_epoch[mapper],
                },
            )
            self._grant_map(state, mapper, targets[index % len(targets)])
            index += 1
            maps_reassigned += 1
        kept = reduces_reassigned = 0
        for reducer in range(state.job.num_reducers):
            if reducer in state.output:
                continue
            owner = self._handle_of(state.reduce_owner.get(reducer, ""))
            if (
                owner is not None
                and owner.alive
                and (job_id, reducer, state.reduce_attempt[reducer])
                in owner.active_reduces
            ):
                kept += 1
                continue
            state.reduce_attempt[reducer] += 1
            self._grant_reduce(
                state,
                reducer,
                targets[index % len(targets)],
                state.progress.get(reducer, {}),
            )
            index += 1
            reduces_reassigned += 1
        self.obs.counters.increment("cluster.resume.maps.reused", reused)
        self.obs.counters.increment(
            "cluster.resume.tasks.reassigned",
            maps_reassigned + reduces_reassigned,
        )
        self.obs.events.emit(
            "cluster.resume.job", job=job_id, maps_reused=reused,
            maps_reassigned=maps_reassigned, reduces_kept=kept,
            reduces_reassigned=reduces_reassigned,
        )

    # -- live status -------------------------------------------------------

    def status(self) -> dict:
        """One JSON-able snapshot of the whole cluster, for ``repro top``.

        Composes control-plane state (workers, leases, per-job progress)
        with the merged telemetry's per-worker gauges and series tails.
        Everything in it is typed-codec- and JSON-serialisable, so the
        same dict answers the RPC ``status`` verb and lands in
        ``repro cluster --status-json`` dumps unchanged.
        """
        now = time.monotonic()
        with self._workers_cond:
            handles = dict(self._workers)
        telemetry = self.telemetry.status_snapshot()
        workers: dict[str, dict] = {}
        for name, handle in sorted(handles.items()):
            entry = {
                "pid": handle.pid,
                "alive": handle.alive,
                "heartbeat_age_s": round(now - handle.last_heartbeat, 3),
                "held_outputs": len(handle.held),
                "active_reduces": len(handle.active_reduces),
                "quarantined": self._quarantine.is_quarantined(name, now),
            }
            entry.update(telemetry.get(name, {"pid": handle.pid}))
            workers[name] = entry
        # Telemetry may know workers the control plane has dropped.
        for name, entry in telemetry.items():
            workers.setdefault(name, {"alive": False, **entry})
        jobs: dict[str, dict] = {}
        for job_id, state in sorted(self._jobs.items()):
            jobs[job_id] = {
                "name": state.job.name,
                "mode": state.job.mode.value,
                "num_maps": state.num_maps,
                "maps_done": len(state.merged_maps),
                "num_reducers": state.job.num_reducers,
                "reduces_done": len(state.output),
                "map_epochs": {
                    str(m): e for m, e in sorted(state.map_epoch.items())
                },
                "reduce_attempts": {
                    str(r): a
                    for r, a in sorted(state.reduce_attempt.items())
                },
                "done": state.done,
                "parked": state.parked,
                "preempt_count": state.preempt_count,
            }
        return {
            "wall": time.time(),
            "coordinator": {
                "host": self.host,
                "port": self.port,
                "pid": os.getpid(),
                "lease_s": float(self._lease_s or 0.0),
                "active_jobs": len(self._active),
                "parked_jobs": len(self._parked),
                "quarantined_workers": self._quarantine.quarantined(now),
                "counters": self.obs.counters.as_dict(),
            },
            "workers": workers,
            "jobs": jobs,
        }

    # -- shutdown ----------------------------------------------------------

    def shutdown(self) -> None:
        self._closing.set()
        # Unblock every submitter still waiting on an in-flight job.
        for state in list(self._active.values()):
            if not state.finished.is_set():
                state.error = ClusterJobError(
                    f"coordinator shut down while {state.job_id} ran"
                )
                state.finished.set()
        self._active.clear()
        self._broadcast("shutdown", {})
        close_listener(self._listener)
        with self._workers_cond:
            handles = list(self._workers.values())
        for handle in handles:
            try:
                handle.conn.close()
            except OSError:
                pass
        if self._journal is not None:
            self._journal.close()
